(* Provenance and host-drift record: what ran, where, and how fast the
   host was at the start and end of the run. The calibration figure is
   reported beside the metrics and never used to scale them. *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* Processors the host reports, counted from /proc/cpuinfo. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' s))

(* The CPUs this process may run on, as /proc/self/status lists them. *)
let cpus_allowed () =
  Option.value ~default:"unknown"
    (Option.bind (read_file "/proc/self/status") (fun s ->
         List.find_map
           (fun l ->
             match String.index_opt l ':' with
             | Some i when String.sub l 0 i = "Cpus_allowed_list" ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
           (String.split_on_char '\n' s)))

(* Peak RSS (VmHWM) of a process, or of this one for pid 0, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | None -> None
  | Some s ->
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.sub l 0 i = "VmHWM" ->
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          (match String.split_on_char ' ' v with
          | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.) (int_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)

(* CPU seconds, user plus system, this process has used in all its
   threads; microsecond resolution (getrusage). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds used by the children this process has reaped. *)
let reaped_children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds a live process has used so far, all its threads, from
   utime and stime in /proc/PID/stat (fields 14 and 15, in clock ticks
   of 1/100 s: Linux reports USER_HZ there, which is 100). *)
let proc_cpu_s pid =
  Option.bind (read_file (Printf.sprintf "/proc/%d/stat" pid)) (fun s ->
      (* the fields after the parenthesised command name, from field 3 *)
      Option.bind (String.rindex_opt s ')') (fun i ->
          let fields =
            String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
          in
          match List.filteri (fun k _ -> k = 11 || k = 12) fields with
          | [ u; st ] -> (
            match (int_of_string_opt u, int_of_string_opt st) with
            | Some u, Some st -> Some (float_of_int (u + st) /. 100.)
            | _ -> None)
          | _ -> None))

(* Git revision when the tree is a git checkout, else None; the source
   digest below identifies exported trees that carry no .git. *)
let git_rev () =
  if not (Sys.file_exists ".git") then None
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic, String.trim out with
    | Unix.WEXITED 0, rev when rev <> "" -> Some rev
    | _ -> None

let source_digest dirs =
  let files = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat d e in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
          then files := p :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter walk dirs;
  let files = List.sort compare !files in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_string b (Digest.to_hex (Digest.file f)))
    files;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The fixed calibration kernel: integer and float arithmetic with no
   allocation, a constant amount of work. Returns milliseconds. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F491 and f = ref 1.0 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    f := !f +. (float_of_int (!x land 1023) *. 1e-9) -. (float_of_int (i land 7) *. 1e-10)
  done;
  ignore (Sys.opaque_identity (!x, !f));
  (Unix.gettimeofday () -. t0) *. 1000.
