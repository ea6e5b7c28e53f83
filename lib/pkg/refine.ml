type result =
  | Refined of Package.t
  | Refine_infeasible
  | Refine_failed of Eval.failure

exception Deadline
exception Solver_failure of Eval.failure
exception Budget_exhausted

type outcome =
  [ `Feasible of (int * int) list | `Infeasible | `Failed of Eval.failure ]

(* Mutable refinement state: a group is either still represented by
   [srep_counts.(j)] copies of its representative, or fixed to original
   tuples [srefined.(j) = Some entries]. *)
type snapshot = {
  srep_counts : float array;
  srefined : (int * int) list option array;
}

(* Contribution of group [j]'s current contents to constraint [ci],
   read through the ctx's precomputed row-coefficient accessors. *)
let group_contribution ctx st j ci =
  match st.srefined.(j) with
  | Some entries ->
    let f = ctx.Sketch.coeff_rel.(ci) in
    List.fold_left
      (fun acc (row, cnt) -> acc +. (float_of_int cnt *. f row))
      0. entries
  | None ->
    if st.srep_counts.(j) = 0. then 0.
    else st.srep_counts.(j) *. ctx.Sketch.coeff_reps.(ci) j

(* Aggregates of the partial package p-bar_j (everything but group j),
   which offset the refine query's constraint bounds. *)
let offsets_excluding ctx st j =
  let m = Partition.num_groups ctx.Sketch.part in
  Array.init (Array.length ctx.Sketch.coeff_rel) (fun ci ->
      let acc = ref 0. in
      for i = 0 to m - 1 do
        if i <> j then acc := !acc +. group_contribution ctx st i ci
      done;
      !acc)

let expired = function
  | Some d -> Unix.gettimeofday () > d
  | None -> false

(* The refine query Q[Gj]: pick original tuples from group j that
   combine with the rest of the package (summarized by [offsets]) to
   satisfy the query. *)
let solve_query ?limits ?deadline ?warm ?basis_out ~stage ctx counters
    ~offsets j =
  let candidates = ctx.Sketch.cand.(j) in
  let problem =
    Paql.Translate.to_problem ~offsets
      { ctx.Sketch.spec with Paql.Translate.where = None }
      ctx.Sketch.rel ~candidates
  in
  let result =
    Faults.solve ?limits ?deadline ?warm ?basis_out ~stage ~group:j problem
  in
  Eval.bump counters result;
  match result with
  | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
    ->
    let entries = ref [] in
    Array.iteri
      (fun k row ->
        let c = int_of_float (Float.round sol.Ilp.Branch_bound.x.(k)) in
        if c > 0 then entries := (row, c) :: !entries)
      candidates;
    `Feasible (List.rev !entries)
  | Ilp.Branch_bound.Infeasible _ -> `Infeasible
  | Ilp.Branch_bound.Unbounded _ ->
    `Failed
      (Eval.failure ~stage ~group:j
         (Eval.Solver_error "refine query unbounded"))
  | Ilp.Branch_bound.Limit st -> `Failed (Eval.limit_failure ~stage ~group:j st)

(* Algorithm 2. [todo] holds every group still carrying representatives.
   Each loop iteration speculatively refines one group and recurses on
   the rest; a child failure undoes the choice and reorders the
   remaining alternatives so that non-refinable groups come first. At a
   non-root level the first infeasible refine query aborts the level
   (the paper's line 17); at the root we keep trying other first
   groups. The per-level queue only shrinks, so the search is finite
   (worst case, all orderings — as the paper notes). [budget] caps the
   total number of failed refine queries: greedy backtracking is
   worst-case factorial, and past the budget we declare (possibly
   false) infeasibility so the caller can fall back to the hybrid
   sketch, which re-anchors the search on real tuples. [solve] answers
   one refine query; whatever it raises escapes unchanged. *)
let rec refine_level ~solve ~deadline ~budget ~at_root ctx st counters todo =
  match todo with
  | [] -> Ok ()
  | _ ->
    let failed = ref [] in
    let queue = ref todo in
    let result = ref None in
    while !result = None && !queue <> [] do
      let j, rest =
        match !queue with j :: rest -> j, rest | [] -> assert false
      in
      queue := rest;
      if expired deadline then raise Deadline;
      match solve ~offsets:(offsets_excluding ctx st j) j with
      | `Failed f -> raise (Solver_failure f)
      | `Infeasible ->
        counters.Eval.backtracks <- counters.Eval.backtracks + 1;
        if counters.Eval.backtracks > budget then raise Budget_exhausted;
        failed := j :: !failed;
        if not at_root then result := Some (Error !failed)
      | `Feasible entries -> (
        let saved_rep = st.srep_counts.(j) in
        st.srefined.(j) <- Some entries;
        st.srep_counts.(j) <- 0.;
        let child_todo = List.filter (fun g -> g <> j) todo in
        match
          refine_level ~solve ~deadline ~budget ~at_root:false ctx st
            counters child_todo
        with
        | Ok () -> result := Some (Ok ())
        | Error f ->
          (* undo the speculative refinement and greedily prioritize
             the groups that could not be refined below *)
          st.srefined.(j) <- None;
          st.srep_counts.(j) <- saved_rep;
          failed := f @ !failed;
          let prioritized, others =
            List.partition (fun g -> List.mem g f) !queue
          in
          queue := prioritized @ others)
    done;
    (match !result with Some r -> r | None -> Error !failed)

(* Parallel workers solve each group once from a snapshot: no re-solve
   to warm, so every group starts cold. *)
let solve_group ?limits ?deadline ctx counters snapshot j =
  if expired deadline then
    `Failed (Eval.failure ~stage:Eval.Parallel ~group:j Eval.Deadline_exceeded)
  else
    solve_query ?limits ?deadline ~stage:Eval.Parallel ctx counters
      ~offsets:(offsets_excluding ctx snapshot j) j

(* no group has id -1, so nothing is excluded *)
let totals ctx snapshot = offsets_excluding ctx snapshot (-1)

let within_bounds ?(tol = 1e-6) ctx values =
  List.for_all2
    (fun (c : Paql.Translate.compiled_constraint) v ->
      v >= c.Paql.Translate.clo -. tol && v <= c.Paql.Translate.chi +. tol)
    ctx.Sketch.spec.Paql.Translate.constraints
    (Array.to_list values)

let run ?limits ?deadline ?(clamp = true) ?(max_backtracks = 256)
    ?(stage = Eval.Refine) ?bases ?solve ctx counters ~rep_counts ~refined =
  let m = Partition.num_groups ctx.Sketch.part in
  let solve =
    match solve with
    | Some solve -> solve
    | None ->
      (* A group's candidate columns never change across backtracking
         re-solves (only the offsets move), so each re-solve warm-starts
         from the group's last optimal root basis. *)
      let bases =
        match bases with Some b -> b | None -> Array.make m None
      in
      fun ~offsets j ->
        let basis_out = ref None in
        let r =
          solve_query ?limits
            ?deadline:(if clamp then deadline else None)
            ?warm:bases.(j) ~basis_out ~stage ctx counters ~offsets j
        in
        (match !basis_out with Some _ as b -> bases.(j) <- b | None -> ());
        r
  in
  let st = { srep_counts = rep_counts; srefined = refined } in
  let budget = counters.Eval.backtracks + max_backtracks in
  (* Refine biggest representative multiplicities first: they constrain
     the remaining groups the most. (The initial order is arbitrary per
     the paper; this deterministic choice keeps runs reproducible.) *)
  let todo =
    List.filter
      (fun j -> refined.(j) = None && rep_counts.(j) > 0.)
      (List.init m Fun.id)
    |> List.sort (fun a b -> compare rep_counts.(b) rep_counts.(a))
  in
  match
    refine_level ~solve ~deadline ~budget ~at_root:true ctx st counters todo
  with
  | Ok () ->
    let entries =
      Array.to_list refined
      |> List.concat_map (function Some e -> e | None -> [])
    in
    Refined (Package.make ctx.Sketch.rel entries)
  | Error _ -> Refine_infeasible
  | exception Deadline ->
    Refine_failed (Eval.failure ~stage Eval.Deadline_exceeded)
  | exception Budget_exhausted -> Refine_infeasible
  | exception Solver_failure f -> Refine_failed f
