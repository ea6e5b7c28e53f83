(* Workload [paper]: the paper's 14 queries (7 Galaxy, 7 TPC-H), each
   answered by SketchRefine over a quad-tree partitioning (tau = 10% of
   the query relation, workload attributes, no radius: the Figs 5/6
   setup) and by Progressive over a hierarchy on the same attributes.
   In process, one caller, closed loop, whole passes over the 28
   (query, method) operations. The seed fixes the operation order of a
   pass; the tables are the ones the console benchmark uses. Each
   operation is followed by a host-speed probe (Speed). *)

module W = Datagen.Workload
module R = Perfbench_lib.Report
module Stats = Perfbench_lib.Stats
module Trace = Perfbench_lib.Trace
module Prov = Perfbench_lib.Prov
module Speed = Perfbench_lib.Speed

let galaxy_rows = 20_000
let tpch_rows = 30_000

(* Every ILP stops at this many branch-and-bound nodes. The wall-clock
   caps are set so far out that they never fire; a deadline outcome in
   the timed phase fails the run. *)
let node_cap = 500
let never = 1e9

let limits =
  { Ilp.Branch_bound.default_limits with max_nodes = node_cap; max_seconds = never }

let sr_options =
  { Pkg.Sketch_refine.default_options with limits; max_seconds = never }

let prog_options =
  { Pkg.Progressive.default_options with limits; max_seconds = never }

(* A pass has 25 correct answers; p90 needs 10 beyond it, so at least
   100. *)
let min_passes = 4

(* Set-up runs this many times in a run; the median is reported. *)
let setup_runs = 9

(* Misses the workload keeps on purpose (see README.md): they count in
   [error_rate] and are not correct answers for [qps], but they are not
   failed operations. *)
let known_misses =
  [ ("galaxy/Q3", "progressive"); ("galaxy/Q2", "sketchrefine"); ("galaxy/Q2", "progressive") ]

type meth = Sr | Prog

(* Where the stage observer attaches its spans: the open method span
   and its request (one caller, so plain refs). *)
let obs_parent = ref 0
let obs_req = ref 0

let meth_name = function Sr -> "sketchrefine" | Prog -> "progressive"

type item = {
  qname : string;  (** "galaxy/Q1" *)
  def : W.def;
  qrel : Relalg.Relation.t;
  part : Pkg.Partition.t;
  hier : Pkg.Hierarchy.t;
}

type setup_times = {
  gen : float;
  extract : float;
  partition : float;
  hierarchy : float;
  groups : int;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Data generation, relation extraction, partition and hierarchy
   builds: the paper's offline step. Galaxy queries share one relation,
   so they share one partitioning and one hierarchy. *)
let setup () =
  let (galaxy, tpch), gen =
    time (fun () ->
        ( Datagen.Galaxy.generate ~seed:1 galaxy_rows,
          Datagen.Tpch.generate ~seed:2 tpch_rows ))
  in
  let sets =
    [ ("galaxy", `Galaxy, galaxy, W.galaxy_queries galaxy);
      ("tpch", `Tpch, tpch, W.tpch_queries tpch) ]
  in
  let extract = ref 0. and partition = ref 0. and hierarchy = ref 0. in
  let groups = ref 0 in
  let built = ref [] in
  let items =
    List.concat_map
      (fun (ds, dataset, rel, defs) ->
        let attrs = W.workload_attrs defs in
        List.map
          (fun (def : W.def) ->
            let qrel, t = time (fun () -> W.query_relation ~dataset rel def) in
            extract := !extract +. t;
            let part, hier =
              match List.assq_opt qrel !built with
              | Some ph -> ph
              | None ->
                let tau = max 1 (Relalg.Relation.cardinality qrel / 10) in
                let part, tp =
                  time (fun () -> Pkg.Partition.create ~tau ~attrs qrel)
                in
                let hier, th = time (fun () -> Pkg.Hierarchy.build ~attrs qrel) in
                partition := !partition +. tp;
                hierarchy := !hierarchy +. th;
                groups := !groups + Pkg.Partition.num_groups part;
                built := (qrel, (part, hier)) :: !built;
                (part, hier)
            in
            { qname = ds ^ "/" ^ def.W.name; def; qrel; part; hier })
          defs)
      sets
  in
  ( items,
    { gen; extract = !extract; partition = !partition; hierarchy = !hierarchy;
      groups = !groups } )

(* LP-relaxation optimum over the full query relation, objective
   constant included: the reference for [bound_ratio]. *)
let lp_star (it : item) =
  let spec = W.compile it.qrel it.def in
  let candidates = Paql.Translate.base_candidates spec it.qrel in
  let p = Paql.Translate.to_problem spec it.qrel ~candidates in
  let const = match spec.Paql.Translate.objective with Some (_, _, c) -> c | None -> 0. in
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal s -> Some (s.Lp.Simplex.obj +. const)
  | _ -> None

(* Solver work of one operation, for the determinism self-check. *)
type work = { nodes : int; pivots : int; dual : int }

type op_result = {
  lat : float;
  cpu : float;  (** CPU seconds of this process over the operation *)
  probe_s : float;  (** the host-speed probe right after it *)
  answer : [ `Correct of float | `Miss of string | `Broken of string ];
  work : work;
  calls : int;
  backtracks : int;
  refacts : int;
  warm_attempts : int;
  warm_hits : int;
  levels : int;
}

let run_op ?trace ~req (it : item) meth =
  let span name parent f =
    match trace with
    | None -> f 0
    | Some tr -> Trace.with_span tr ~name ~parent ~req f
  in
  let c0 = Lp.Simplex.counters () in
  let cpu0 = Prov.self_cpu_s () in
  let t0 = Unix.gettimeofday () in
  let (spec, (rep : Pkg.Eval.report), levels), lat =
    span "query" 0 (fun qid ->
        let spec = span "paql.compile" qid (fun _ -> W.compile it.qrel it.def) in
        let rep, levels =
          match meth with
          | Sr ->
            span "pkg.sketch_refine" qid (fun mid ->
                Option.iter (fun _ -> obs_parent := mid) trace;
                (Pkg.Sketch_refine.run ~options:sr_options spec it.qrel it.part, 0))
          | Prog ->
            span "pkg.progressive" qid (fun mid ->
                Option.iter (fun _ -> obs_parent := mid) trace;
                let r, ls = Pkg.Progressive.run ~options:prog_options spec it.qrel it.hier in
                (r, List.length ls))
        in
        ((spec, rep, levels), Unix.gettimeofday () -. t0))
  in
  let cpu = Prov.self_cpu_s () -. cpu0 in
  let c1 = Lp.Simplex.counters () in
  let probe_s = Speed.probe () in
  let answer =
    match rep.status with
    | Optimal | Feasible _ -> (
      match rep.package with
      | None -> `Broken "status with no package"
      | Some p ->
        if Pkg.Package.feasible spec p then
          `Correct (Pkg.Package.objective spec p)
        else `Broken "package fails Package.feasible")
    | Infeasible -> `Miss "infeasible (the query is feasible)"
    | Degraded _ -> `Miss "degraded"
    | Failed { kind = Pkg.Eval.Deadline_exceeded; _ } ->
      `Broken "a wall-clock deadline fired in the timed phase"
    | Failed f -> `Miss (Format.asprintf "failed: %a" Pkg.Eval.pp_failure f)
  in
  let c = rep.counters in
  {
    lat;
    cpu;
    probe_s;
    answer;
    work =
      { nodes = c.nodes; pivots = c1.Lp.Simplex.pivots - c0.Lp.Simplex.pivots;
        dual = c1.Lp.Simplex.dual_pivots - c0.Lp.Simplex.dual_pivots };
    calls = c.ilp_calls;
    backtracks = c.backtracks;
    refacts = c1.Lp.Simplex.refactorizations - c0.Lp.Simplex.refactorizations;
    warm_attempts = c1.Lp.Simplex.warm_attempts - c0.Lp.Simplex.warm_attempts;
    warm_hits = c1.Lp.Simplex.warm_hits - c0.Lp.Simplex.warm_hits;
    levels;
  }

let shuffle ~seed a =
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The per-operation solver counts of a run, compared with the record
   left by an earlier run of the same sources, seed and node cap. *)
let check_counts_record r ~workdir ~digest ~seed counts =
  let body =
    String.concat ""
      (List.map
         (fun (k, w) -> Printf.sprintf "%s %d %d %d\n" k w.nodes w.pivots w.dual)
         (List.sort compare counts))
  in
  let path =
    Filename.concat workdir
      (Printf.sprintf "paper-counts-%s-seed%d-cap%d.txt" digest seed node_cap)
  in
  match Prov.read_file path with
  | Some prev when prev <> body ->
    R.problem r (Printf.sprintf "solver counts differ from the earlier run in %s" path)
  | Some _ -> R.info r "counts_vs_earlier_run" "identical"
  | None ->
    Out_channel.with_open_bin path (fun oc -> output_string oc body);
    R.info r "counts_vs_earlier_run" "first run, recorded"

let run ~seed ~seconds ~trace ~workdir ~digest =
  let r = R.create () in
  (* set-up, [setup_runs] times; the last one is kept. [setup_s] is
     its CPU time (single-threaded: one scan worker), scaled by the
     host-speed probes around it. *)
  let kept = ref [] in
  let setups =
    List.init setup_runs (fun _ ->
        kept := [];
        Gc.compact ();
        let ((items, t), s, cpu), probe_s =
          Speed.bracket (fun () ->
              let c0 = Prov.self_cpu_s () in
              let r, s = time setup in
              (r, s, Prov.self_cpu_s () -. c0))
        in
        kept := items;
        (t, (s, cpu, probe_s)))
  in
  let items = !kept in
  let setup_s =
    Stats.median (List.map (fun (_, (_, cpu, probe_s)) -> Speed.scale ~probe_s cpu) setups)
  in
  let setup_cpu_s = Stats.median (List.map (fun (_, (_, cpu, _)) -> cpu) setups) in
  let setup_wall_s = Stats.median (List.map (fun (_, (s, _, _)) -> s) setups) in
  let st f = Stats.median (List.map (fun (t, _) -> f t) setups) in
  let lp_stars = List.map (fun it -> (it.qname, lp_star it)) items in
  let ops =
    shuffle ~seed
      (Array.of_list
         (List.concat_map (fun it -> [ (it, Sr); (it, Prog) ]) items))
  in
  let nops = Array.length ops in
  (* timed phase *)
  let tr = if trace then Some (Trace.create ()) else None in
  let first = Hashtbl.create 64 in
  let results = ref [] in
  let traced_lat = ref [] and plain_lat = ref [] in
  let traced_wall = ref 0. and pass_s = ref [] in
  let gc0 = Gc.quick_stat () in
  let t_start = Unix.gettimeofday () in
  let passes = ref 0 in
  let measured () = Unix.gettimeofday () -. t_start in
  while !passes < min_passes || measured () < seconds do
    (* in the traced run, odd passes are traced, even ones plain *)
    let traced = trace && !passes mod 2 = 1 in
    if traced then
      Pkg.Eval.set_observer
        (Some
           (fun stage dt ->
             Option.iter
               (fun t ->
                 Trace.add_closed t
                   ~name:("stage." ^ Pkg.Eval.stage_name stage)
                   ~parent:!obs_parent ~req:!obs_req dt)
               tr));
    let p0 = Unix.gettimeofday () in
    Array.iteri
      (fun i (it, meth) ->
        let req = (!passes * nops) + i + 1 in
        obs_req := req;
        let o =
          run_op ?trace:(if traced then tr else None) ~req it meth
        in
        let key = it.qname ^ "/" ^ meth_name meth in
        (match Hashtbl.find_opt first key with
        | None -> Hashtbl.add first key o.work
        | Some w when w <> o.work ->
          R.problem r
            (Printf.sprintf "%s: solver counts changed between passes (%d/%d/%d vs %d/%d/%d)"
               key w.nodes w.pivots w.dual o.work.nodes o.work.pivots o.work.dual)
        | Some _ -> ());
        if trace then
          (if traced then traced_lat := o.lat :: !traced_lat
           else plain_lat := o.lat :: !plain_lat);
        results := (it, meth, o) :: !results)
      ops;
    pass_s := (Unix.gettimeofday () -. p0) :: !pass_s;
    if traced then begin
      Pkg.Eval.set_observer None;
      traced_wall := !traced_wall +. (Unix.gettimeofday () -. p0)
    end;
    incr passes
  done;
  let wall = measured () in
  let gc1 = Gc.quick_stat () in
  let results = List.rev !results in
  (* answers *)
  let n = List.length results in
  let correct = ref 0 and misses = ref 0 and failed = ref 0 in
  let ratios = ref [] in
  let seen_problem = Hashtbl.create 8 in
  List.iter
    (fun (it, meth, o) ->
      let key = (it.qname, meth_name meth) in
      match o.answer with
      | `Correct obj -> (
        incr correct;
        match List.assoc it.qname lp_stars with
        | Some lp when obj > 0. && lp > 0. ->
          ratios := (if it.def.W.maximize then lp /. obj else obj /. lp) :: !ratios
        | _ -> ())
      | `Miss why ->
        incr misses;
        if not (List.mem key known_misses) then incr failed;
        if not (Hashtbl.mem seen_problem key) then begin
          Hashtbl.add seen_problem key ();
          Printf.printf "check: %s %s: no correct answer: %s%s\n" it.qname
            (meth_name meth) why
            (if List.mem key known_misses then " (known miss)" else "")
        end
      | `Broken why ->
        incr failed;
        if not (Hashtbl.mem seen_problem key) then begin
          Hashtbl.add seen_problem key ();
          R.problem r (Printf.sprintf "%s %s: %s" it.qname (meth_name meth) why)
        end)
    results;
  (* per-operation medians, for the human-readable part of the output *)
  Array.iter
    (fun ((it : item), meth) ->
      let key = it.qname ^ "/" ^ meth_name meth in
      let mine = List.filter (fun ((i : item), m, _) -> i.qname = it.qname && m = meth) results in
      let w = Hashtbl.find first key in
      Printf.printf "op %-26s median %9.2f ms  nodes %6d  pivots %7d  dual %6d  %s\n" key
        (1000. *. Stats.median (List.map (fun (_, _, o) -> o.lat) mine))
        w.nodes w.pivots w.dual
        (match (List.hd (List.rev mine)) with
         | _, _, { answer = `Correct _; _ } -> "ok"
         | _, _, { answer = `Miss _; _ } -> "miss"
         | _, _, { answer = `Broken _; _ } -> "BROKEN"))
    ops;
  r.attempted <- n;
  r.failed <- !failed;
  (* latency of correct answers only, as in the served workloads *)
  let lats =
    List.filter_map
      (fun (_, _, o) -> match o.answer with `Correct _ -> Some o.lat | _ -> None)
      results
  in
  let s = Stats.summarize lats in
  R.add r "setup_s" setup_s "s";
  (* each operation is followed by a probe: the host speed over the
     whole timed phase, weighted as the operations are *)
  let cpu_ms_per_op = Stats.mean (List.map (fun (_, _, o) -> o.cpu) results) *. 1000. in
  let probe_s = Speed.mean (List.map (fun (_, _, o) -> o.probe_s) results) in
  R.add r "scaled_cpu_ms_per_op" (Speed.scale ~probe_s cpu_ms_per_op) "ms";
  R.add r "peak_rss_mb" (Option.value ~default:nan (Prov.peak_rss_mb 0)) "MB";
  R.add_extra r "cpu_ms_per_op" cpu_ms_per_op "ms";
  R.add_extra r "setup_cpu_s" setup_cpu_s "s";
  R.add_extra r "setup_wall_s" setup_wall_s "s";
  R.info r "probe_ms" (Printf.sprintf "%.3f" (probe_s *. 1000.));
  R.info r "probe_ms_min_median_max" (Speed.spread (List.map (fun (_, _, o) -> o.probe_s) results));
  R.add_extra r "qps" (float_of_int !correct /. wall) "1/s";
  R.add_pct r "latency_p50_ms" s.Stats.p50;
  R.add_pct r "latency_p90_ms" s.Stats.p90;
  R.add_extra r "error_rate" (float_of_int (n - !correct) /. float_of_int n) "fraction";
  let gm =
    match !ratios with
    | [] -> nan
    | rs -> exp (Stats.mean (List.map log rs))
  in
  R.add_extra r "bound_ratio" gm "ratio";
  R.info r "samples" (string_of_int s.Stats.count);
  R.info r "passes" (string_of_int !passes);
  R.info r "pass_s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !pass_s));
  R.info r "timed_wall_s" (Printf.sprintf "%.3f" wall);
  R.info r "known_misses_per_pass" (string_of_int (!misses / !passes));
  R.info r "bound_ratio_pairs" (string_of_int (List.length !ratios));
  R.info r "node_cap" (string_of_int node_cap);
  R.info r "tables" (Printf.sprintf "galaxy=%d(seed 1) tpch=%d(seed 2)" galaxy_rows tpch_rows);
  R.info r "setups" (string_of_int (List.length setups));
  (* per-operation solver counts, for the cross-run determinism check *)
  check_counts_record r ~workdir ~digest ~seed
    (Hashtbl.fold (fun k w acc -> (k, w) :: acc) first []);
  if trace then begin
    let tr = Option.get tr in
    let per_q x = x /. float_of_int n in
    let sum f = List.fold_left (fun a (_, _, o) -> a +. float_of_int (f o)) 0. results in
    let layers = Trace.layer_times tr in
    let tot name = match Hashtbl.find_opt layers name with Some (t, _, _) -> t | None -> 0. in
    let self name = match Hashtbl.find_opt layers name with Some (_, s, _) -> s | None -> 0. in
    let cnt name = match Hashtbl.find_opt layers name with Some (_, _, c) -> c | None -> 0 in
    let ms_per name = if cnt name = 0 then 0. else tot name *. 1000. /. float_of_int (cnt name) in
    let traced_ops = cnt "query" in
    let per_traced x = x /. float_of_int (max 1 traced_ops) in
    R.layer r "datagen.gen_ms" (st (fun t -> t.gen) *. 1000.) "ms";
    R.layer r "relalg.extract_ms" (st (fun t -> t.extract) *. 1000.) "ms";
    R.layer r "pkg.partition.build_ms" (st (fun t -> t.partition) *. 1000.) "ms";
    R.layer r "pkg.partition.groups" (float_of_int (fst (List.hd setups)).groups) "count";
    R.layer r "pkg.hierarchy.build_ms" (st (fun t -> t.hierarchy) *. 1000.) "ms";
    R.layer r "paql.compile_ms" (ms_per "paql.compile") "ms";
    (* stage times per traced query *)
    R.layer r "pkg.sketch.ms" (per_traced (tot "stage.sketch") *. 1000.) "ms";
    R.layer r "pkg.hybrid.ms" (per_traced (tot "stage.hybrid") *. 1000.) "ms";
    R.layer r "pkg.refine.ms" (per_traced (tot "stage.refine") *. 1000.) "ms";
    R.layer r "pkg.sketch_refine.self_ms"
      (R.ratio (self "pkg.sketch_refine" *. 1000.) (float_of_int (cnt "pkg.sketch_refine"))) "ms";
    R.layer r "pkg.progressive.ms" (ms_per "pkg.progressive") "ms";
    R.layer r "pkg.progressive.levels" (sum (fun o -> o.levels) /. float_of_int (n / 2)) "count";
    R.layer r "ilp.calls" (per_q (sum (fun o -> o.calls))) "count";
    R.layer r "ilp.nodes" (per_q (sum (fun o -> o.work.nodes))) "count";
    R.layer r "ilp.backtracks" (per_q (sum (fun o -> o.backtracks))) "count";
    let solver_s =
      tot "stage.sketch" +. tot "stage.hybrid" +. tot "stage.refine" +. tot "stage.progressive"
    in
    let traced_frac = float_of_int traced_ops /. float_of_int n in
    let nodes = sum (fun o -> o.work.nodes) *. traced_frac in
    let pivots = sum (fun o -> o.work.pivots + o.work.dual) *. traced_frac in
    R.layer r "ilp.us_per_node" (R.ratio (solver_s *. 1e6) nodes) "us";
    R.layer r "lp.pivots" (per_q (sum (fun o -> o.work.pivots))) "count";
    R.layer r "lp.dual_pivots" (per_q (sum (fun o -> o.work.dual))) "count";
    R.layer r "lp.refactorizations" (per_q (sum (fun o -> o.refacts))) "count";
    R.layer r "lp.warm_attempts" (per_q (sum (fun o -> o.warm_attempts))) "count";
    R.layer r "lp.warm_hit_rate"
      (R.ratio (sum (fun o -> o.warm_hits)) (sum (fun o -> o.warm_attempts))) "ratio";
    R.layer r "lp.us_per_pivot" (R.ratio (solver_s *. 1e6) pivots) "us";
    R.layer r "solver.ms_per_query" (per_traced solver_s *. 1000.) "ms";
    R.layer r "query.non_solver_ms" (per_traced (tot "query" -. solver_s) *. 1000.) "ms";
    R.layer r "gc.alloc_mb_per_query"
      (per_q ((gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
               -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
              *. float_of_int (Sys.word_size / 8) /. 1048576.)) "MB";
    R.layer r "gc.major_collections"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
    let med l = Stats.median l in
    R.layer r "trace.overhead_pct"
      (100. *. (med !traced_lat -. med !plain_lat) /. med !plain_lat) "%";
    R.layer r "trace.coverage_pct" (100. *. R.ratio (tot "query") !traced_wall) "%";
    List.iter
      (fun e -> R.problem r ("trace: spans do not nest: " ^ e))
      (match Trace.nesting_errors tr with e :: _ -> [ e ] | [] -> []);
    if tot "query" < 0.9 *. !traced_wall then
      R.problem r "trace: query spans cover less than 90% of the traced wall time";
    List.iter
      (fun (name, why) -> R.absent r name why)
      [ ("service.*", "no server in this workload: in process, one caller") ]
  end;
  r
