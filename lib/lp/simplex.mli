(** Exact two-phase primal simplex over rationals.

    Solves [minimize c·x subject to A x {<=,=,>=} b, x >= 0] exactly —
    no tolerances. Entering columns are priced by Bland's lowest-index
    anti-cycling rule, which reproduces the seed solver's canonical
    pivot sequence. Before the two-phase solve, a float simplex
    ({!Fsimplex}) may suggest a starting basis, which is re-validated in
    exact arithmetic and discarded on any mismatch — results never
    depend on floating point. This is the engine behind the LP
    relaxation of Section 3.1 ({!Rtt_core.Lp_relax}).

    It is a {e revised} simplex: constraints stay in sparse columns and
    the basis inverse is an eta-file factorization ({!Basis_factor}), so
    per-pivot work is proportional to nonzeros. The test suite keeps the
    original dense tableau as a differential oracle and requires both to
    agree on every pivot. *)

open Rtt_num

type relation = Le | Ge | Eq

type sparse_constr = { sp_terms : (int * Rat.t) list; sp_relation : relation; sp_rhs : Rat.t }
(** One row in sparse form: [sp_terms] are (variable, coefficient)
    pairs sorted by strictly ascending variable index (zero
    coefficients are permitted and ignored). {!Rtt_lp.Lp} builds them
    straight from its {!Rtt_lp.Linexpr} terms. *)

type outcome =
  | Optimal of { objective : Rat.t; solution : Rat.t array }
  | Infeasible
  | Unbounded

val infeasible_site : string
(** Fault-injection site (["lp.infeasible"]): when armed through
    {!Rtt_budget.Budget.arm}, the triggering {!minimize_sparse} call
    reports [Infeasible] without solving anything. Every pivot also
    consumes one unit of ambient fuel (stage ["simplex"]). *)

val warmstart_reject_site : string
(** Fault-injection site (["lp.warmstart.reject"]): when armed, the
    triggering solve discards the float-suggested basis before crashing
    it and falls through to the ordinary two-phase path — exercising the
    fallback without having to construct a float-hostile instance. *)

val warmstart_enabled : bool ref
(** Whether solves may consult the float simplex for a starting basis.
    Defaults to [true]; [--no-float-warmstart] (CLI and bench) clears
    it. Purely a performance toggle — outcomes are identical either
    way. *)

val pivot_count : unit -> int
(** Cumulative exact pivots (including warm-start crash pivots) since
    program start. Observability for the bench harness. *)

val warm_stats : unit -> int * int
(** [(accepted, rejected)] warm-start attempts since program start.
    Solves with warm start disabled count in neither bucket. *)

type factor_stats = { refactorizations : int; etas : int; eta_peak : int; nnz : int; cells : int }
(** Factorization observability since the last {!reset_stats}:
    refactorization count and eta-file traffic from {!Basis_factor},
    plus the structural nonzeros ([nnz]) out of total constraint-matrix
    cells ([cells]) of every standard form built — [nnz /. cells] is
    the aggregate density the revised engine exploited. *)

val factor_stats : unit -> factor_stats

val lp_stats_json : unit -> string
(** One-line JSON object with every counter above (pivots, warm
    stats, factorization stats) — embedded by the daemon in its
    [stats] response. *)

val reset_stats : unit -> unit
(** Zero {!pivot_count}, {!warm_stats} and {!factor_stats}. The
    counters are process-global refs, so forked children (pool workers,
    daemon shards) inherit the parent's totals — every fork point calls
    this so per-process stats are actually per-process. *)

(** {1 Test instrumentation} *)

val trace_pivots : bool ref
(** When [true], every pivot appends a representation-independent
    record to the log read by {!take_pivot_log}: (entering column,
    leaving column) for pricing and drive-out pivots, (column,
    [-(row+1)]) for warm-start crash pivots. The differential qcheck
    suite runs this engine and the dense oracle under tracing and
    requires the logs to match entry for entry. Off by default; tracing
    allocates per pivot. *)

val take_pivot_log : unit -> (int * int) list
(** The trace since the last call, oldest first; clears the log. *)

type basis
(** An optimal basis in standard-form coordinates, reusable as a warm
    start for a later solve of a same-shaped LP. Opaque: the only
    things to do with one are capture it ({!last_basis}) and offer it
    back ({!set_basis_hint}). *)

val last_basis : unit -> basis option
(** The final basis of the most recent optimal solve in this process
    ([None] before the first). The session layer snapshots this right
    after a solve so the next re-solve of the (possibly mutated)
    instance can start from it. *)

val set_basis_hint : basis -> unit
(** Install a one-shot starting-basis hint: the next {!minimize_sparse}
    (or {!maximize_sparse}) consumes it and, if its LP has the same
    standard-form shape, crashes the basis in exact arithmetic —
    accepted only if it re-derives to a proven basic feasible solution, discarded on any
    mismatch (the same verify-or-discard discipline as the float
    advisor, counted in {!warm_stats}). A hint for a different shape
    (the instance gained or lost columns/rows) is discarded silently.
    Outcomes are identical with or without a hint. *)

val clear_basis_hint : unit -> unit

val basis_repr : basis -> string
(** Debug/test representation ("RxC:(row,col)(row,col)…", pairs in
    ascending row order). The dense oracle prints the same format,
    which is what the differential suite compares. *)

val minimize_sparse : n_vars:int -> sparse_constr list -> objective:Rat.t array -> outcome
(** Minimize [objective · x] subject to the rows; all variables
    implicitly satisfy [x >= 0].
    @raise Invalid_argument on an objective of the wrong size or
    out-of-range or unsorted variables.
    @raise Rtt_budget.Budget.Fuel_exhausted when an ambient fuel budget
    runs out mid-solve. *)

val maximize_sparse : n_vars:int -> sparse_constr list -> objective:Rat.t array -> outcome
(** [maximize_sparse] negates the objective and delegates to
    {!minimize_sparse}; the reported [objective] is the maximum. *)
