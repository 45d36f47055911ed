(** The dense-tableau two-phase simplex: the differential oracle for
    {!Rtt_lp.Simplex}.

    It solves the same problem over the same standard form with the same
    Bland pricing, ratio-test tie-breaks, fuel ticks, fault sites and
    crash-and-verify warm start as the production revised engine, but
    materializes the full tableau and rewrites it on every pivot. Exact
    arithmetic makes every reduced cost and ratio identical between the
    two, so the test suite demands bit-identical outcomes, captured
    bases, pivot logs, pivot counts and fuel; bench E16 times the two
    against each other.

    Its float advisor is {!float_advice}, a copy of the float simplex
    whose pivots rewrite every column of every row they touch, kept
    here as the reference for {!Rtt_lp.Fsimplex}, whose pivots update
    only the pivot row's nonzero columns. A warm start whose advice
    differed would show up as a different crash pivot log entry or
    warm-start count.

    It follows {!Rtt_lp.Simplex.warmstart_enabled}, so one toggle
    switches the float advisor for both engines. Its counters, pivot
    log, captured basis and basis hint are its own, separate from
    {!Rtt_lp.Simplex}'s, so a solve here never shows up in the
    production counters. Test and bench code only. *)

open Rtt_num
open Rtt_lp

type constr = { coeffs : Rat.t array; relation : Simplex.relation; rhs : Rat.t }
(** One dense row: [coeffs · x relation rhs], one coefficient per
    variable. The readable way for tests to write small LPs. *)

val sparse_of_dense : constr list -> Simplex.sparse_constr list
(** The same rows in the sparse shape {!Rtt_lp.Simplex.minimize_sparse}
    and {!minimize_sparse} take (zero coefficients dropped). *)

val minimize_sparse :
  n_vars:int -> Simplex.sparse_constr list -> objective:Rat.t array -> Simplex.outcome
(** Same contract as {!Rtt_lp.Simplex.minimize_sparse}: the rows are
    expanded to a dense tableau and solved there. *)

val float_advice :
  rows:float array array -> n_real:int -> objective:float array -> (int * int) array option
(** The reference advisor: {!Rtt_lp.Fsimplex.solve_cols}'s contract over
    dense float rows (each row [n_real] coefficients followed by its
    non-negative right-hand side), with the full-row Gauss-Jordan
    update. Given the doubles [solve_cols] converts its columns to, the
    two must return the same pairs. *)

val pivot_count : unit -> int
(** Cumulative exact pivots of this engine, crash pivots included. *)

val warm_stats : unit -> int * int
(** [(accepted, rejected)] warm starts of this engine. *)

val trace_pivots : bool ref
(** When [true], every pivot appends to the log {!take_pivot_log}
    reads, in the coordinates of {!Rtt_lp.Simplex.trace_pivots}. *)

val take_pivot_log : unit -> (int * int) list

type basis

val last_basis : unit -> basis option
val set_basis_hint : basis -> unit
val clear_basis_hint : unit -> unit

val basis_repr : basis -> string
(** The format of {!Rtt_lp.Simplex.basis_repr}: equal bases print
    equal strings across the two engines. *)
