(** The REFINE step with greedy backtracking (Section 4.2.2,
    Algorithm 2): replace each group's representatives with original
    tuples, one group at a time, by solving a per-group ILP whose
    bounds are offset by the aggregates of the rest of the current
    package. On an infeasible refine query the algorithm backtracks,
    reordering so that previously non-refinable groups go first. *)

type result =
  | Refined of Package.t
  | Refine_infeasible
      (** greedy backtracking exhausted every ordering *)
  | Refine_failed of Eval.failure  (** solver limit or deadline *)

(** The answer to one refine query Q[Gj]: the original tuples (row id,
    multiplicity) chosen from group [j], or why there are none. *)
type outcome =
  [ `Feasible of (int * int) list | `Infeasible | `Failed of Eval.failure ]

(** [solve_query ~stage ctx counters ~offsets j] solves the refine
    query Q[Gj] over [ctx.cand.(j)], each constraint's bounds shifted
    by [offsets] (the aggregates of the rest of the package), through
    {!Faults.solve}, whose options it passes on. A solver limit or an
    unbounded ILP is [`Failed]. *)
val solve_query :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  ?warm:Lp.Simplex.Basis.t ->
  ?basis_out:Lp.Simplex.Basis.t option ref ->
  stage:Eval.stage ->
  Sketch.ctx ->
  Eval.counters ->
  offsets:float array ->
  int ->
  outcome

(** [run ?limits ?deadline ctx counters ~rep_counts ~refined] completes
    the sketch package described by [rep_counts] (per-group
    representative multiplicities) and [refined] (groups already fixed
    to original tuples, e.g. by the hybrid sketch query).
    [deadline] is an absolute [Unix.gettimeofday] instant; exceeding it
    yields [Refine_failed]. When [clamp] is true (the default) each
    per-group ILP additionally derives its time limit from the budget
    remaining before [deadline] (via {!Faults.solve}); [clamp:false]
    restores the legacy behaviour of checking the deadline only between
    ILPs. [stage] (default {!Eval.Refine}) tags fault-injection
    matching and failure context — the parallel driver's Phase 3 passes
    {!Eval.Repair}. Backtracking events are counted in
    [counters.backtracks]; more than [max_backtracks] of them (default
    256, greedy backtracking is worst-case factorial) yields
    [Refine_infeasible] so the caller can fall back to the hybrid
    sketch.

    [bases] (one slot per partition group, created internally when
    omitted) carries each group's last optimal ILP root basis across
    refine queries: a group re-solved after backtracking — same
    candidate columns, shifted constraint offsets — warm-starts from
    its previous basis ({!Lp.Simplex.resolve}). Passing the same array
    across successive [run] calls over one [ctx] extends the reuse
    across fallback rungs.

    [solve ~offsets j] replaces the local refine query (and with it
    [limits], [clamp], [bases] and the ILP counters); [run] still
    checks [deadline] and counts backtracks. The shard coordinator
    passes an RPC solver over a {!Sketch.light_ctx}. Any exception
    [solve] raises propagates out of [run] unchanged. *)
val run :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  ?clamp:bool ->
  ?max_backtracks:int ->
  ?stage:Eval.stage ->
  ?bases:Lp.Simplex.Basis.t option array ->
  ?solve:(offsets:float array -> int -> outcome) ->
  Sketch.ctx ->
  Eval.counters ->
  rep_counts:float array ->
  refined:(int * int) list option array ->
  result

(** {1 Low-level pieces for the parallel driver ({!Parallel})} *)

(** A package assignment: per-group representative multiplicities and
    already-refined original-tuple choices. *)
type snapshot = {
  srep_counts : float array;
  srefined : (int * int) list option array;
}

(** [solve_group ?limits ?deadline ctx counters snapshot j] is
    {!solve_query} against the given assignment (everything except
    group [j] contributes offsets), cold, under the {!Eval.Parallel}
    stage. An expired [deadline] is reported as a [`Failed] result
    (never an exception), so worker domains stay crash-contained. *)
val solve_group :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  Sketch.ctx ->
  Eval.counters ->
  snapshot ->
  int ->
  outcome

(** [totals ctx snapshot] is the value of each global constraint's
    linear form under the assignment (representatives included). *)
val totals : Sketch.ctx -> snapshot -> float array

(** [within_bounds ctx values] checks the per-constraint values against
    the query's bounds. *)
val within_bounds : ?tol:float -> Sketch.ctx -> float array -> bool
