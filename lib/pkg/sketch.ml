type ctx = {
  spec : Paql.Translate.spec;
  rel : Relalg.Relation.t;
  part : Partition.t;
  cand : int array array;
  caps : float array;
  coeff_rel : (int -> float) array;
  coeff_reps : (int -> float) array;
}

let light_ctx spec rel (part : Partition.t) ~caps =
  let coeff_of r =
    Array.of_list
      (List.map
         (fun (c : Paql.Translate.compiled_constraint) ->
           c.Paql.Translate.coeff_rows r)
         spec.Paql.Translate.constraints)
  in
  {
    spec;
    rel;
    part;
    cand = Array.make (Partition.num_groups part) [||];
    caps;
    coeff_rel = coeff_of rel;
    coeff_reps = coeff_of part.Partition.reps;
  }

let make_ctx spec rel (part : Partition.t) =
  let keep =
    match spec.Paql.Translate.where with
    | None -> fun _ -> true
    | Some pred ->
      (* one vectorized pass over the whole relation, then O(1) member
         lookups while filtering each group *)
      let mask, _ = Relalg.Scan.mask rel pred in
      fun row -> Bytes.unsafe_get mask row = '\001'
  in
  let cand =
    Array.map
      (fun (g : Partition.group) ->
        Array.of_list (List.filter keep (Array.to_list g.Partition.members)))
      part.Partition.groups
  in
  let caps =
    Array.map
      (fun c ->
        let size = float_of_int (Array.length c) in
        (* REPEAT K lets each of the |Gj| candidates appear K+1 times.
           Guard the empty group: [0 * infinity] is NaN. *)
        if size = 0. then 0. else size *. spec.Paql.Translate.max_count)
      cand
  in
  { (light_ctx spec rel part ~caps) with cand }

type result =
  | Sketched of float array
  | Sketch_infeasible
  | Sketch_failed of Eval.failure

let group_counts ctx x ~groups =
  let counts = Array.make (Partition.num_groups ctx.part) 0. in
  Array.iteri (fun k gid -> counts.(gid) <- x.(k)) groups;
  counts

let run ?limits ?deadline ?warm ?basis_out ?(stage = Eval.Sketch) ctx counters
    =
  let m = Partition.num_groups ctx.part in
  (* Only groups with a nonzero cap get a variable. *)
  let groups =
    Array.of_list
      (List.filter (fun g -> ctx.caps.(g) > 0.) (List.init m Fun.id))
  in
  (* The sketch ILP ranges over representative tuples: reuse the query
     translation with the representative relation as candidate source
     and the group caps as variable bounds. The WHERE clause is not
     re-applied to representatives: filtering already happened on the
     original tuples, via the caps. *)
  let reps = ctx.part.Partition.reps in
  let problem =
    Paql.Translate.to_problem
      ~var_hi:(fun k -> ctx.caps.(groups.(k)))
      { ctx.spec with Paql.Translate.where = None }
      reps ~candidates:groups
  in
  let result = Faults.solve ?limits ?deadline ?warm ?basis_out ~stage problem in
  Eval.bump counters result;
  match result with
  | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
    ->
    Sketched (group_counts ctx sol.Ilp.Branch_bound.x ~groups)
  | Ilp.Branch_bound.Infeasible _ -> Sketch_infeasible
  | Ilp.Branch_bound.Unbounded _ ->
    Sketch_failed
      (Eval.failure ~stage (Eval.Solver_error "sketch query unbounded"))
  | Ilp.Branch_bound.Limit st -> Sketch_failed (Eval.limit_failure ~stage st)
