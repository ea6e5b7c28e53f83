(* Served workloads, driven over loopback TCP against the real binaries:

   - [serve-mixed]: one pkgq_server (Direct, default caches, WAL on in a
     fresh directory) over Galaxy 20,000 rows; two closed-loop
     connections play [Workload.mixed_ops] (repeat rate 0.5, appends of
     1-5 rows in about 3% of operations).
   - [shard-sr]: a pkgq_shard coordinator running SketchRefine over two
     pkgq_server shards (no replicas) on the same table; one closed-loop
     connection plays [Workload.mixed] with no repeats and no
     stochastic queries.

   Answers are kept during the timed phase and checked after it, so the
   checker does not compete with the servers for the two cores. *)

module R = Perfbench_lib.Report
module Stats = Perfbench_lib.Stats
module Trace = Perfbench_lib.Trace
module Prov = Perfbench_lib.Prov
module Speed = Perfbench_lib.Speed
module Answer = Perfbench_lib.Answer
module W = Datagen.Workload
module P = Service.Protocol
module C = Service.Client

let galaxy_rows = Paper.galaxy_rows
let setups = 9

(* wall-clock caps that never fire within a run *)
let never = "1000000"

let solver_args =
  [ "--max-nodes"; string_of_int Paper.node_cap; "--max-seconds"; never;
    "--request-seconds"; never ]

(* ------------------------------------------------------------------ *)
(* Processes                                                          *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir d =
  rm_rf d;
  Unix.mkdir d 0o755

type proc = { pid : int; port : int }

let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_proc pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.02;
      wait ()
    | 0, _ -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()); reap pid
    | _ -> children := List.filter (( <> ) pid) !children
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !children;
      List.iter reap !children)

(* Spawn [exe args], stdout to [out], and wait for its banner line
   ("<prefix>... on HOST:PORT"). *)
let spawn ~exe ~args ~out ~prefix =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd Unix.stderr)
  in
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec poll () =
    let port =
      Option.bind (Prov.read_file out) (fun s ->
          List.find_map
            (fun l ->
              if String.length l > String.length prefix
                 && String.sub l 0 (String.length prefix) = prefix
              then
                Option.bind (String.rindex_opt l ':') (fun i ->
                    int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1))))
              else None)
            (String.split_on_char '\n' s))
    in
    match port with
    | Some port -> { pid; port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (( <> ) pid) !children;
        failwith (Printf.sprintf "%s exited before binding; see %s" exe out));
      if Unix.gettimeofday () > deadline then begin
        stop_proc pid;
        failwith (Printf.sprintf "%s did not bind within 60 s" exe)
      end;
      Thread.delay 0.005;
      poll ()
  in
  poll ()

let connect port = C.connect ~host:"127.0.0.1" ~port ()

let ping port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      match C.ping c with
      | P.Resp_ok _ -> ()
      | P.Resp_err (code, msg) -> failwith ("PING: " ^ P.code_name code ^ " " ^ msg))

(* ------------------------------------------------------------------ *)
(* STATS snapshots                                                    *)
(* ------------------------------------------------------------------ *)

type stage = { count : int; sum_ms : float; p50_ms : float; p99_ms : float }

type snap = {
  counters : (string, int) Hashtbl.t;
  gauges : (string, int) Hashtbl.t;
  stages : (string, stage) Hashtbl.t;
}

let parse_stats body =
  let s = { counters = Hashtbl.create 32; gauges = Hashtbl.create 32; stages = Hashtbl.create 32 } in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "gauge"; k; v ] -> Option.iter (Hashtbl.replace s.gauges k) (int_of_string_opt v)
      | "stage" :: k :: "count" :: n :: "mean_ms" :: mean :: "p50_ms" :: p50 :: "p99_ms" :: p99 :: _ ->
        let n = int_of_string n and f = float_of_string in
        Hashtbl.replace s.stages k
          { count = n; sum_ms = f mean *. float_of_int n; p50_ms = f p50; p99_ms = f p99 }
      | [ k; v ] -> Option.iter (Hashtbl.replace s.counters k) (int_of_string_opt v)
      | _ -> ())
    (String.split_on_char '\n' body);
  s

let stats port =
  let c = connect port in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      match C.stats c with
      | P.Resp_ok body -> parse_stats body
      | P.Resp_err (code, msg) -> failwith ("STATS: " ^ P.code_name code ^ " " ^ msg))

let zero_stage = { count = 0; sum_ms = 0.; p50_ms = 0.; p99_ms = 0. }

(* Deltas of one process between two snapshots, summed over processes. *)
let counter ~before ~after k =
  List.fold_left2
    (fun acc b a ->
      let g t = Option.value ~default:0 (Hashtbl.find_opt t k) in
      acc + g a.counters - g b.counters)
    0 before after

let gauge ~before ~after k =
  List.fold_left2
    (fun acc b a ->
      let g t = Option.value ~default:0 (Hashtbl.find_opt t k) in
      acc + g a.gauges - g b.gauges)
    0 before after

let stage ~before ~after k =
  List.fold_left2
    (fun (n, sum) b a ->
      let g t = Option.value ~default:zero_stage (Hashtbl.find_opt t k) in
      (n + (g a.stages).count - (g b.stages).count,
       sum +. (g a.stages).sum_ms -. (g b.stages).sum_ms))
    (0, 0.) before after

(* ------------------------------------------------------------------ *)
(* Closed-loop load                                                   *)
(* ------------------------------------------------------------------ *)

type op = Query of string | Append of string * int  (** csv, rows *)

type outcome = Resp of P.response | Transport of string

type record = { idx : int; conn : int; t0 : float; t1 : float; outcome : outcome }

(* Load runs in slices of this many seconds. Between two slices every
   connection is idle; after [settle_s], for the servers to finish what
   the last answers left them, the host-speed probe runs
   [probes_per_pause] times and the median is kept, so that a probe
   disturbed by a server's late work does not count. *)
let slice_s = 1.0
let settle_s = 0.01
let probes_per_pause = 3

(* [conns] closed-loop connections take the next operation of [ops] in
   turn until [seconds] of load have passed, paused after every slice
   for the probes. In the traced run, operations in even blocks of 16
   get a request span; the others are the untraced comparison. Returns
   the records, the load's wall time (pauses left out), whether [ops]
   ran out, and the probes. *)
let play ~conns ~port ~ops ~seconds ~trace =
  (* every connection opens before the clock starts *)
  let clients = Array.init conns (fun _ -> connect port) in
  let next = Atomic.make 0 in
  let exhausted = Atomic.make false in
  let results = Array.make conns [] in
  let worker ~t_end ci =
    let c = clients.(ci) in
    let rec loop () =
      if Unix.gettimeofday () < t_end then begin
        let i = Atomic.fetch_and_add next 1 in
        if i >= Array.length ops then Atomic.set exhausted true
        else begin
          let send () =
            try
              Resp
                (match ops.(i) with
                | Query q -> C.query c q
                | Append (csv, _) -> C.append c ~csv)
            with e -> Transport (Printexc.to_string e)
          in
          let t0 = Unix.gettimeofday () in
          let outcome =
            match trace with
            | Some tr when i / 16 mod 2 = 0 ->
              Trace.with_span tr ~name:"request" ~parent:0 ~req:(i + 1) (fun _ -> send ())
            | _ -> send ()
          in
          results.(ci) <- { idx = i; conn = ci; t0; t1 = Unix.gettimeofday (); outcome } :: results.(ci);
          loop ()
        end
      end
    in
    loop ()
  in
  let probes = ref [] and load = ref 0. in
  let rec slices () =
    if !load < seconds && not (Atomic.get exhausted) then begin
      let t0 = Unix.gettimeofday () in
      let t_end = t0 +. Float.min slice_s (seconds -. !load) in
      let ths = List.init conns (fun ci -> Thread.create (fun () -> worker ~t_end ci) ()) in
      List.iter Thread.join ths;
      load := !load +. (Unix.gettimeofday () -. t0);
      Unix.sleepf settle_s;
      probes := Stats.median (List.init probes_per_pause (fun _ -> Speed.probe ())) :: !probes;
      slices ()
    end
  in
  Fun.protect ~finally:(fun () -> Array.iter C.close clients) slices;
  let recs =
    List.sort (fun a b -> compare a.idx b.idx) (List.concat (Array.to_list results))
  in
  (recs, !load, Atomic.get exhausted, !probes)

(* ------------------------------------------------------------------ *)
(* Answer checks                                                      *)
(* ------------------------------------------------------------------ *)

(* The objective value a QUERY status line reports ("..., obj=V"). *)
let reported_obj status =
  match String.rindex_opt status '=' with
  | Some i when i >= 3 && String.sub status (i - 3) 3 = "obj" ->
    float_of_string_opt (String.sub status (i + 1) (String.length status - i - 1))
  | _ -> None

(* The compiled spec of a served query, compiled once per query text. *)
let spec_of ~compiled ~schema query =
  match Hashtbl.find_opt compiled query with
  | Some s -> s
  | None ->
    let ast =
      match Paql.Parser.parse query with Ok a -> a | Error e -> failwith ("parse: " ^ e)
    in
    let s = Paql.Translate.compile_exn schema ast in
    Hashtbl.replace compiled query s;
    s

type checked = {
  query_lat : float list;  (** correct queries *)
  append_lat : float list;
  all_query_lat : float list;
  ok : int;
  errors : int;
  attempted : int;
  appended_rows : int;
}

(* The rows a package may hold: the table the run starts from, [base],
   and the rows of every acknowledged append. *)
let served_table ~base recs ops =
  let table = Answer.table (Relalg.Csv.to_string base) in
  List.iter
    (fun rc ->
      match ops.(rc.idx), rc.outcome with
      | Append (csv, _), Resp (P.Resp_ok _) -> Answer.add_rows table csv
      | _ -> ())
    recs;
  table

let check_records r ~base recs ops =
  let compiled = Hashtbl.create 256 in
  let schema = Relalg.Relation.schema base in
  let table = served_table ~base recs ops in
  let ql = ref [] and al = ref [] and all_q = ref [] in
  let ok = ref 0 and errors = ref 0 and rows = ref 0 in
  let printed = ref 0 in
  let error i why =
    incr errors;
    if !printed < 10 then begin
      incr printed;
      Printf.printf "check: op %d: %s\n" i why
    end
  in
  List.iter
    (fun rc ->
      let lat = rc.t1 -. rc.t0 in
      match ops.(rc.idx), rc.outcome with
      | _, Transport e -> error rc.idx ("transport: " ^ e)
      | _, Resp (P.Resp_err (P.Deadline, msg)) ->
        error rc.idx ("deadline: " ^ msg);
        R.problem r (Printf.sprintf "op %d: a wall-clock deadline fired in the timed phase" rc.idx)
      | _, Resp (P.Resp_err (code, msg)) ->
        error rc.idx (Printf.sprintf "%s: %s" (P.code_name code) msg)
      | Append (_, n), Resp (P.Resp_ok _) ->
        incr ok;
        rows := !rows + n;
        al := lat :: !al
      | Query q, Resp (P.Resp_ok body) -> (
        all_q := lat :: !all_q;
        match P.parse_result body with
        | Error e -> error rc.idx ("unparsable result: " ^ e)
        | Ok (status, _, csv) -> (
          match
            Answer.check table (spec_of ~compiled ~schema q) ~reported:(reported_obj status) csv
          with
          | Ok () ->
            incr ok;
            ql := lat :: !ql
          | Error why ->
            error rc.idx why;
            R.problem r (Printf.sprintf "op %d: wrong answer: %s" rc.idx why)
          | exception e ->
            error rc.idx ("check raised " ^ Printexc.to_string e);
            R.problem r (Printf.sprintf "op %d: unreadable answer" rc.idx))))
    recs;
  { query_lat = !ql; append_lat = !al; all_query_lat = !all_q; ok = !ok; errors = !errors;
    attempted = List.length recs; appended_rows = !rows }

(* ------------------------------------------------------------------ *)
(* Shared reporting                                                   *)
(* ------------------------------------------------------------------ *)

(* CPU seconds used so far by the live processes [pids]. *)
let procs_cpu_s pids =
  List.fold_left
    (fun a pid ->
      match Prov.proc_cpu_s pid with
      | Some s -> a +. s
      | None -> failwith (Printf.sprintf "no CPU time for process %d" pid))
    0. pids

(* [setups] start-and-stop cycles of [start]/[stop], each between
   host-speed probes. Each is timed in CPU seconds: this process's,
   plus that of the server processes, which [stop] reaps. Then one more
   start, kept for the timed phase. *)
let timed_setups r ~start ~stop =
  let cycle i =
    Speed.bracket (fun () ->
        let c0 = Prov.self_cpu_s () +. Prov.reaped_children_cpu_s () in
        let t0 = Unix.gettimeofday () in
        stop (start i);
        ( Prov.self_cpu_s () +. Prov.reaped_children_cpu_s () -. c0,
          Unix.gettimeofday () -. t0 ))
  in
  let times = List.init setups cycle in
  R.add r "setup_s"
    (Stats.median (List.map (fun ((cpu, _), probe_s) -> Speed.scale ~probe_s cpu) times)) "s";
  R.add_extra r "setup_cpu_s" (Stats.median (List.map (fun ((cpu, _), _) -> cpu) times)) "s";
  R.add_extra r "setup_wall_s" (Stats.median (List.map (fun ((_, w), _) -> w) times)) "s";
  R.info r "setups" (string_of_int (List.length times));
  start setups

(* End-to-end metrics shared by both served workloads; [cpu] is the
   servers' CPU seconds over the timed phase. *)
let report_e2e r ~wall ~cpu ~probes ~(ck : checked) ~rss =
  let s = Stats.summarize ck.query_lat in
  let per_op = cpu *. 1000. /. float_of_int (max 1 ck.attempted) in
  let probe_s = Speed.mean probes in
  R.add r "scaled_cpu_ms_per_op" (Speed.scale ~probe_s per_op) "ms";
  R.add_extra r "cpu_ms_per_op" per_op "ms";
  R.info r "probes" (string_of_int (List.length probes));
  R.info r "probe_ms" (Printf.sprintf "%.3f" (probe_s *. 1000.));
  R.info r "probe_ms_min_median_max" (Speed.spread probes);
  R.add r "peak_rss_mb" rss "MB";
  R.add_extra r "qps" (float_of_int (ck.ok - List.length ck.append_lat) /. wall) "1/s";
  R.add_pct r "latency_p50_ms" s.Stats.p50;
  R.add_pct r "latency_p90_ms" s.Stats.p90;
  R.info r "timed_server_cpu_s" (Printf.sprintf "%.2f" cpu);
  R.add_extra r "error_rate"
    (float_of_int ck.errors /. float_of_int (max 1 ck.attempted)) "fraction";
  R.info r "query_samples" (string_of_int s.Stats.count);
  R.info r "timed_wall_s" (Printf.sprintf "%.3f" wall);
  r.R.attempted <- ck.attempted;
  r.R.failed <- ck.errors

(* Trace metrics of a served run: request coverage per connection and
   the traced/untraced latency medians. *)
let report_trace r ~conns ~tr ~recs ~wall =
  let traced = List.filter (fun rc -> rc.idx / 16 mod 2 = 0) recs in
  let plain = List.filter (fun rc -> rc.idx / 16 mod 2 = 1) recs in
  let med l = Stats.median (List.map (fun rc -> rc.t1 -. rc.t0) l) in
  R.layer r "trace.overhead_pct" (100. *. (med traced -. med plain) /. med plain) "%";
  (* spans plus the untraced requests' own timings, per connection *)
  let cover ci =
    List.fold_left (fun a rc -> if rc.conn = ci then a +. (rc.t1 -. rc.t0) else a) 0. recs /. wall
  in
  let coverage = List.fold_left Float.min 1. (List.init conns cover) in
  R.layer r "trace.coverage_pct" (100. *. coverage) "%";
  if coverage < 0.9 then R.problem r "trace: requests cover less than 90% of the timed wall time";
  let spans = Trace.spans tr in
  if List.length spans <> List.length traced then
    R.problem r "trace: a traced request has no span";
  List.iter (fun e -> R.problem r ("trace: " ^ e)) (Trace.nesting_errors tr)

(* LP counters from the solver gauges of the processes that solve. *)
let report_lp r ~before ~after ~queries ~solver_ms =
  let g = gauge ~before ~after in
  let per x = float_of_int x /. float_of_int (max 1 queries) in
  let pivots = g "solver_pivots" and dual = g "solver_dual_pivots" in
  R.layer r "lp.pivots" (per pivots) "count";
  R.layer r "lp.dual_pivots" (per dual) "count";
  R.layer r "lp.refactorizations" (per (g "solver_refactorizations")) "count";
  R.layer r "lp.warm_attempts" (per (g "solver_warm_attempts")) "count";
  R.layer r "lp.warm_hit_rate"
    (R.ratio (float_of_int (g "solver_warm_hits")) (float_of_int (g "solver_warm_attempts")))
    "ratio";
  R.layer r "lp.us_per_pivot" (R.ratio (solver_ms *. 1000.) (float_of_int (pivots + dual))) "us"

let galaxy () = Datagen.Galaxy.generate ~seed:1 galaxy_rows

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                        *)
(* ------------------------------------------------------------------ *)

(* Longer than any run gets through: about 30 operations a second here *)
let stream_len = 20_000
let serve_conns = 2

(* Stochastic queries take about 2 s and over 100 MB each on the
   server; the handful a timed run would draw decided its throughput
   and the server's peak RSS. So the timed phase plays none, and the
   traced run sends this fixed list, the same for every seed, after
   the timed phase to measure the pkg.stochastic layer. *)
let stochastic_queries rel =
  W.mixed ~seed:1 ~repeat_rate:0. ~stochastic_rate:1. ~dataset:`Galaxy ~n:2 rel
  |> List.map (fun d -> d.W.paql)

(* Send [queries] on one connection and check each answer against
   [table]; returns how many were sent. *)
let run_stochastic r ~port ~table ~schema queries =
  let compiled = Hashtbl.create 8 in
  let c = connect port in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      List.iter
        (fun q ->
          let fail why = R.problem r ("stochastic query: " ^ why) in
          match C.query c q with
          | P.Resp_err (code, msg) -> fail (P.code_name code ^ ": " ^ msg)
          | P.Resp_ok body -> (
            match P.parse_result body with
            | Error e -> fail ("unparsable result: " ^ e)
            | Ok (status, _, csv) -> (
              match
                Answer.check table (spec_of ~compiled ~schema q)
                  ~reported:(reported_obj status) csv
              with
              | Ok () -> ()
              | Error why -> fail (status ^ ": " ^ why))))
        queries);
  List.length queries

let run_serve_mixed ~bin ~seed ~seconds ~trace ~workdir =
  let r = R.create () in
  let dir = Filename.concat workdir "serve-mixed" in
  fresh_dir dir;
  let rel, gen_s =
    let t0 = Unix.gettimeofday () in
    let rel = galaxy () in
    (rel, Unix.gettimeofday () -. t0)
  in
  let data = Filename.concat dir "galaxy.csv" in
  Relalg.Csv.write data rel;
  let ops =
    (* no stochastic queries in the timed phase; see [stochastic_queries] *)
    W.mixed_ops ~seed ~repeat_rate:0.5 ~appends:(stream_len / 30)
      ~dataset:`Galaxy ~n:stream_len rel
    |> List.map (function
         | W.Op_query d -> Query d.W.paql
         | W.Op_append { rows; aseed; _ } ->
           Append
             (Relalg.Csv.to_string (W.append_batch ~dataset:`Galaxy ~rows ~seed:aseed), rows))
    |> Array.of_list
  in
  let exe = Filename.concat bin "pkgq_server.exe" in
  let start i =
    let wal = Filename.concat dir (Printf.sprintf "wal%d" i) in
    fresh_dir wal;
    let p =
      spawn ~exe
        ~args:([ "--data"; data; "--wal"; wal; "--port"; "0"; "--log-every"; "0"; "--no-store" ]
              @ solver_args)
        ~out:(Filename.concat dir (Printf.sprintf "server%d.out" i))
        ~prefix:"pkgq_server: serving "
    in
    ping p.port;
    (p, wal)
  in
  let srv, wal = timed_setups r ~start ~stop:(fun (p, _) -> stop_proc p.pid) in
  Fun.protect ~finally:(fun () -> stop_proc srv.pid) (fun () ->
      let wal_file = Store.Recovery.wal_path wal in
      let wal_size () = try (Unix.stat wal_file).Unix.st_size with Unix.Unix_error _ -> 0 in
      let before = [ stats srv.port ] in
      let wal0 = wal_size () in
      let tr = if trace then Some (Trace.create ()) else None in
      let cpu0 = procs_cpu_s [ srv.pid ] in
      let recs, wall, exhausted, probes =
        play ~conns:serve_conns ~port:srv.port ~ops ~seconds ~trace:tr
      in
      let cpu = procs_cpu_s [ srv.pid ] -. cpu0 in
      let after = [ stats srv.port ] in
      let wal1 = wal_size () in
      let rss = Option.value ~default:nan (Prov.peak_rss_mb srv.pid) in
      if exhausted then R.problem r "the op stream ran out before the timed phase ended";
      let ck = check_records r ~base:rel recs ops in
      (* the table grew by exactly the acknowledged rows *)
      (let c = connect srv.port in
       Fun.protect ~finally:(fun () -> C.close c) (fun () ->
           match C.fingerprint c with
           | P.Resp_ok body -> (
             match String.split_on_char ' ' body with
             | [ _; n ] when int_of_string_opt n = Some (galaxy_rows + ck.appended_rows) -> ()
             | _ -> R.problem r ("row count after appends is off: " ^ body))
           | P.Resp_err _ -> R.problem r "FPRINT failed"));
      report_e2e r ~wall ~cpu ~probes ~ck ~rss;
      let sa = Stats.summarize ck.append_lat in
      R.add_pct r "append_p50_ms" sa.Stats.p50;
      R.add_pct r "append_p90_ms" sa.Stats.p90;
      R.info r "append_samples" (string_of_int sa.Stats.count);
      R.info r "stream" (Printf.sprintf "mixed_ops n=%d repeat_rate=0.5 stochastic_rate=0 appends=%d" stream_len
           (stream_len / 30));
      R.info r "table" (Printf.sprintf "galaxy=%d(seed 1)" galaxy_rows);
      R.info r "node_cap" (string_of_int Paper.node_cap);
      let queries = List.length ck.all_query_lat in
      if trace then begin
        let tr = Option.get tr in
        let c = counter ~before ~after and st = stage ~before ~after in
        let last name = Hashtbl.find_opt (List.hd after).stages name in
        let mean name = let n, s = st name in if n = 0 then None else Some (s /. float_of_int n) in
        let layer_mean name key =
          match mean key with
          | Some v -> R.layer r name v "ms"
          | None -> R.absent r name (Printf.sprintf "no %s observation in the timed phase" key)
        in
        R.layer r "datagen.gen_ms" (gen_s *. 1000.) "ms";
        layer_mean "service.server.parse_ms" "parse";
        layer_mean "service.server.plan_ms" "plan";
        R.layer r "service.server.plan_hit_rate"
          (R.ratio (float_of_int (c "plan_hits")) (float_of_int (c "plan_hits" + c "plan_misses"))) "ratio";
        layer_mean "service.server.solve_ms" "solve";
        (match last "solve" with
        | Some s ->
          R.layer r "service.server.solve_p50_ms" s.p50_ms "ms";
          R.layer r "service.server.solve_p99_ms" s.p99_ms "ms"
        | None -> ());
        R.absent r "service.server.solve_p90_ms" "STATS renders p50 and p99 only; p99 reported";
        R.layer r "service.server.solves" (float_of_int (c "solves")) "count";
        (* after the timed phase: the fixed stochastic queries *)
        let s0 = [ stats srv.port ] in
        let sent =
          run_stochastic r ~port:srv.port ~table:(served_table ~base:rel recs ops)
            ~schema:(Relalg.Relation.schema rel) (stochastic_queries rel)
        in
        let s1 = [ stats srv.port ] in
        List.iter
          (fun stage_key ->
            let name = "pkg.stochastic." ^ stage_key ^ "_ms" in
            match stage ~before:s0 ~after:s1 stage_key with
            | 0, _ -> R.absent r name (Printf.sprintf "no %s observation in the stochastic queries" stage_key)
            | _, ms -> R.layer r name (ms /. float_of_int sent) "ms")
          [ "scenario"; "summary"; "validate" ];
        R.info r "stochastic_queries" (string_of_int sent);
        layer_mean "service.scheduler.queue_wait_ms" "queue_wait";
        (match last "queue_wait" with
        | Some s ->
          R.layer r "service.scheduler.queue_wait_p50_ms" s.p50_ms "ms";
          R.layer r "service.scheduler.queue_wait_p99_ms" s.p99_ms "ms"
        | None -> ());
        R.absent r "service.scheduler.queue_wait_p90_ms" "STATS renders p50 and p99 only; p99 reported";
        R.layer r "service.scheduler.shed" (float_of_int (c "shed")) "count";
        let hits = c "result_hits" and misses = c "result_misses" in
        R.layer r "service.server.result_hit_rate" (R.ratio (float_of_int hits) (float_of_int (hits + misses))) "ratio";
        R.layer r "service.server.result_lookups" (float_of_int (hits + misses)) "count";
        R.layer r "service.server.result_invalidated" (float_of_int (c "result_invalidated")) "count";
        R.layer r "store.wal.records" (float_of_int (c "wal_records")) "count";
        let user_bytes =
          List.fold_left
            (fun a rc -> match ops.(rc.idx), rc.outcome with
               | Append (csv, _), Resp (P.Resp_ok _) -> a + String.length csv
               | _ -> a) 0 recs
        in
        let checkpoints = c "checkpoints" in
        R.layer r "service.server.checkpoints" (float_of_int checkpoints) "count";
        if checkpoints = 0 then begin
          R.layer r "store.wal.bytes_per_user_byte"
            (R.ratio (float_of_int (wal1 - wal0)) (float_of_int user_bytes)) "ratio";
          R.absent r "service.server.checkpoint_ms" "no checkpoint ran in the timed phase"
        end
        else begin
          layer_mean "service.server.checkpoint_ms" "checkpoint";
          R.absent r "store.wal.bytes_per_user_byte" "a checkpoint truncated the log in the timed phase"
        end;
        let n_total, total_ms = st "total" in
        let client_ms = Stats.mean (List.map (fun rc -> rc.t1 -. rc.t0) recs) *. 1000. in
        R.layer r "service.client.overhead_ms"
          (client_ms -. R.ratio total_ms (float_of_int n_total)) "ms";
        let _, solve_ms = st "solve" in
        R.layer r "solver.ms_per_query" (R.ratio solve_ms (float_of_int queries)) "ms";
        R.layer r "query.non_solver_ms"
          (Stats.mean ck.all_query_lat *. 1000. -. R.ratio solve_ms (float_of_int queries)) "ms";
        report_lp r ~before ~after ~queries ~solver_ms:solve_ms;
        report_trace r ~conns:serve_conns ~tr ~recs ~wall;
        R.absent r "ilp.nodes" "the server exports no branch-and-bound counters"
      end;
      r)

(* ------------------------------------------------------------------ *)
(* shard-sr                                                           *)
(* ------------------------------------------------------------------ *)

(* Longer than any run gets through: about 400 queries a second here *)
let shard_stream_len = 60_000
(* One connection: with two, the client, the coordinator and both
   shards compete for the 2 cores, and the latency figures spread 1.7x
   between runs against 1.3x with one. *)
let shard_conns = 1

let run_shard_sr ~bin ~seed ~seconds ~trace ~workdir =
  let r = R.create () in
  let dir = Filename.concat workdir "shard-sr" in
  fresh_dir dir;
  let rel = galaxy () in
  let t0 = Unix.gettimeofday () in
  let defs = W.mixed ~seed ~repeat_rate:0. ~dataset:`Galaxy ~n:shard_stream_len rel in
  R.info r "stream_gen_s" (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t0));
  let attrs = W.workload_attrs defs in
  let tau = galaxy_rows / 10 in
  let ops = Array.of_list (List.map (fun d -> Query d.W.paql) defs) in
  let server_exe = Filename.concat bin "pkgq_server.exe" in
  let shard_exe = Filename.concat bin "pkgq_shard.exe" in
  let part_args = [ "--attrs"; String.concat "," attrs; "--tau"; string_of_int tau ] in
  let start i =
    let fdir = Filename.concat dir (Printf.sprintf "fleet%d" i) in
    let fleet =
      Service.Chaos.start_fleet ~exe:server_exe ~dir:fdir ~base:rel ~shards:2 ~replicas:0
        ~extra_args:(part_args @ solver_args) ()
    in
    let shard_args =
      List.concat_map
        (fun (m : Service.Chaos.fleet_member) ->
          [ "--shard"; Printf.sprintf "127.0.0.1:%d@%s" m.fm_primary.port m.fm_wal ])
        fleet
    in
    let coord =
      try
        spawn ~exe:shard_exe
          ~args:([ "--data"; Filename.concat fdir "base.seg"; "--port"; "0";
                   "--rpc-seconds"; never ]
                @ shard_args @ part_args @ solver_args)
          ~out:(Filename.concat dir (Printf.sprintf "coordinator%d.out" i))
          ~prefix:"pkgq_shard: coordinating "
      with e ->
        Service.Chaos.stop_fleet fleet;
        raise e
    in
    ping coord.port;
    (fleet, coord)
  in
  let stop (fleet, coord) =
    stop_proc coord.pid;
    Service.Chaos.stop_fleet fleet
  in
  let fleet, coord = timed_setups r ~start ~stop in
  Fun.protect ~finally:(fun () -> stop (fleet, coord)) (fun () ->
      let shard_ports = List.map (fun (m : Service.Chaos.fleet_member) -> m.fm_primary.port) fleet in
      let shard_pids = List.map (fun (m : Service.Chaos.fleet_member) -> m.fm_primary.pid) fleet in
      let snap () = (stats coord.port, List.map stats shard_ports) in
      let cb, sb = snap () in
      let tr = if trace then Some (Trace.create ()) else None in
      let cpu0 = procs_cpu_s (coord.pid :: shard_pids) in
      let recs, wall, exhausted, probes =
        play ~conns:shard_conns ~port:coord.port ~ops ~seconds ~trace:tr
      in
      let cpu = procs_cpu_s (coord.pid :: shard_pids) -. cpu0 in
      let ca, sa = snap () in
      let rss =
        List.fold_left
          (fun a pid -> a +. Option.value ~default:nan (Prov.peak_rss_mb pid))
          0. (coord.pid :: shard_pids)
      in
      if exhausted then R.problem r "the query stream ran out before the timed phase ended";
      let ck = check_records r ~base:rel recs ops in
      report_e2e r ~wall ~cpu ~probes ~ck ~rss;
      R.info r "stream" (Printf.sprintf "mixed n=%d repeat_rate=0 stochastic_rate=0" shard_stream_len);
      R.info r "table" (Printf.sprintf "galaxy=%d(seed 1)" galaxy_rows);
      R.info r "fleet" (Printf.sprintf "2 shards, 0 replicas, tau=%d, attrs=%s" tau (String.concat "," attrs));
      R.info r "node_cap" (string_of_int Paper.node_cap);
      let queries = List.length ck.all_query_lat in
      if trace then begin
        let tr = Option.get tr in
        let cc = counter ~before:[ cb ] ~after:[ ca ] and cs = stage ~before:[ cb ] ~after:[ ca ] in
        let sc = counter ~before:sb ~after:sa and ss = stage ~before:sb ~after:sa in
        let per x = x /. float_of_int (max 1 queries) in
        (match Hashtbl.find_opt ca.stages "partition" with
        | Some s -> R.layer r "service.coordinator.partition_ms" (R.ratio s.sum_ms (float_of_int s.count)) "ms"
        | None -> R.absent r "service.coordinator.partition_ms" "no partition stage in the coordinator's STATS");
        let _, total_ms = cs "total" in
        let _, ctx_ms = ss "shard_ctx" and _, refine_rpc_ms = ss "shard_refine" in
        R.layer r "service.coordinator.total_ms" (per total_ms) "ms";
        R.layer r "service.coordinator.self_ms" (per (total_ms -. ctx_ms -. refine_rpc_ms)) "ms";
        R.layer r "service.coordinator.refine_rpcs_per_query" (per (float_of_int (sc "shard_refines"))) "count";
        R.layer r "service.coordinator.retries" (float_of_int (cc "shard_retries")) "count";
        R.layer r "service.coordinator.hedges" (float_of_int (cc "shard_hedges")) "count";
        R.layer r "service.coordinator.failovers" (float_of_int (cc "shard_failovers")) "count";
        let _, sketch_ms = cs "sketch" and _, refine_ms = cs "refine" in
        R.layer r "pkg.sketch.ms" (per sketch_ms) "ms";
        R.layer r "pkg.refine.ms" (per refine_ms) "ms";
        R.layer r "pkg.hybrid.ms" (per (snd (cs "hybrid"))) "ms";
        R.absent r "pkg.sketch_refine.self_ms"
          "the coordinator runs SketchRefine itself; its own time is service.coordinator.self_ms";
        let client_ms = Stats.mean (List.map (fun rc -> rc.t1 -. rc.t0) recs) *. 1000. in
        R.layer r "service.client.overhead_ms" (client_ms -. per total_ms) "ms";
        let solver_ms = sketch_ms +. refine_rpc_ms in
        R.layer r "solver.ms_per_query" (per solver_ms) "ms";
        R.layer r "query.non_solver_ms" (Stats.mean ck.all_query_lat *. 1000. -. per solver_ms) "ms";
        (* the shards run the refine LPs; the coordinator's own sketch
           LPs are not in any STATS gauge *)
        report_lp r ~before:sb ~after:sa ~queries ~solver_ms:refine_rpc_ms;
        report_trace r ~conns:shard_conns ~tr ~recs ~wall;
        R.absent r "lp (coordinator)" "the coordinator exports no solver gauges; lp.* cover the shards"
      end;
      r)
