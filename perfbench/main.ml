(* The repo benchmark. One run of one workload:

     main.exe --workload paper|serve-mixed|shard-sr --seed N --seconds S
              --trace 0|1 [--bin DIR]

   Human-readable lines first (provenance, every metric with its unit
   and sample count, failed checks), then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. Each run also appends its full record to
   .perfbench/results.jsonl. Run it through perfbench/run.sh, which
   builds first. *)

module R = Perfbench_lib.Report
module Prov = Perfbench_lib.Prov

(* The metrics BENCHMARK.json names; every workload reports each one. *)
let end_to_end = [ "setup_s"; "scaled_cpu_ms_per_op"; "peak_rss_mb" ]

let per_layer =
  [ "solver.ms_per_query"; "query.non_solver_ms"; "lp.pivots"; "lp.dual_pivots";
    "lp.refactorizations"; "lp.warm_attempts"; "lp.warm_hit_rate";
    "lp.us_per_pivot"; "trace.overhead_pct"; "trace.coverage_pct" ]

let workdir = ".perfbench"

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|serve-mixed|shard-sr --seed N --seconds S \
     --trace 0|1 [--bin DIR]";
  exit 2

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num v = Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : R.metric) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_num m.value) (json_string m.unit_))
         ms)
  ^ "}"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and bin = ref "_build/default/bin" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse rest
    | "--bin" :: v :: rest -> bin := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  let traced = !trace = 1 in
  (* One scan worker, here and in every server this process starts
     (they inherit the environment): the end-to-end figures are CPU
     times of single-threaded work, which other tenants of a shared
     host move least. *)
  Unix.putenv "PKGQ_SCAN_WORKERS" "1";
  (* a run stopped by a signal still stops the servers it started *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  mkdir_p workdir;
  let digest = Prov.source_digest [ "lib"; "bin"; "perfbench" ] in
  let calib0 = Prov.calibrate () in
  let t_run = Unix.gettimeofday () in
  let r =
    match !workload with
    | "paper" ->
      Paper.run ~seed:!seed ~seconds:!seconds ~trace:traced ~workdir ~digest
    | "serve-mixed" ->
      Served.run_serve_mixed ~bin:!bin ~seed:!seed ~seconds:!seconds ~trace:traced ~workdir
    | "shard-sr" ->
      Served.run_shard_sr ~bin:!bin ~seed:!seed ~seconds:!seconds ~trace:traced ~workdir
    | _ -> usage ()
  in
  let run_s = Unix.gettimeofday () -. t_run in
  let calib1 = Prov.calibrate () in
  let info =
    [ ("workload", !workload); ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds); ("trace", string_of_int !trace);
      ("git_rev", Option.value ~default:"none (not a git checkout)" (Prov.git_rev ()));
      ("source_digest", digest); ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int (Prov.nproc ()));
      ("cpus_allowed", Prov.cpus_allowed ());
      ("calibration_ms_start", Printf.sprintf "%.3f" calib0);
      ("calibration_ms_end", Printf.sprintf "%.3f" calib1);
      ("run_wall_s", Printf.sprintf "%.3f" run_s) ]
    @ r.R.info
  in
  List.iter (fun (k, v) -> Printf.printf "info %s = %s\n" k v) info;
  let show kind (m : R.metric) = Printf.printf "%s %s = %.6g %s\n" kind m.name m.value m.unit_ in
  List.iter (show "metric") r.R.metrics;
  List.iter (show "extra") r.R.extra;
  List.iter (show "layer") r.R.layers;
  List.iter (fun (k, why) -> Printf.printf "absent %s: %s\n" k why) r.R.absent;
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) r.R.problems;
  (* the contract's metric set, each one present and finite *)
  let wanted, pool =
    if traced then (per_layer, r.R.layers) else (end_to_end, r.R.metrics)
  in
  let chosen =
    List.filter_map
      (fun name ->
        match List.find_opt (fun (m : R.metric) -> m.name = name) pool with
        | Some m when Float.is_finite m.value -> Some m
        | Some _ ->
          R.problem r (name ^ " is not a finite number");
          None
        | None ->
          R.problem r (name ^ " was not measured");
          None)
      wanted
  in
  let final =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      r.R.correct (max 1 r.R.attempted) r.R.failed (json_metrics chosen)
  in
  let record =
    Printf.sprintf "{\"info\": {%s}, \"metrics\": %s, \"extra\": %s, \"layers\": %s, \"problems\": [%s], \"result\": %s}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) info))
      (json_metrics r.R.metrics) (json_metrics r.R.extra) (json_metrics r.R.layers)
      (String.concat ", " (List.map json_string r.R.problems))
      final
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly; Open_binary ] 0o644
    (Filename.concat workdir "results.jsonl")
    (fun oc -> output_string oc record);
  print_endline final;
  exit (if r.R.correct then 0 else 1)
