(** Named-variable linear-program builder on top of {!Simplex}.

    All variables are non-negative (the only kind the paper's LPs need).
    Typical use: create variables, add constraints as {!Linexpr}
    (in)equalities, then {!minimize} or {!maximize} an expression. *)

open Rtt_num

type t
type var

val create : unit -> t

val var : t -> string -> var
(** A fresh non-negative variable. Names are for diagnostics only and
    need not be unique. *)

val var_index : var -> int
(** Index usable with {!Linexpr}. *)

val expr_of_var : var -> Linexpr.t
val n_vars : t -> int

val add_le : t -> Linexpr.t -> Linexpr.t -> unit
(** [add_le lp a b] constrains [a <= b]; constants on both sides are
    folded into the right-hand side. *)

val add_ge : t -> Linexpr.t -> Linexpr.t -> unit
val add_eq : t -> Linexpr.t -> Linexpr.t -> unit
val n_constraints : t -> int

val to_dense : int -> Linexpr.t -> Rat.t array
(** [to_dense n e] is [e]'s coefficients over variables [0..n-1] as a
    dense array (used for objectives, which {!Simplex} takes dense). *)

val to_sparse : int -> Linexpr.t -> (int * Rat.t) list
(** [to_sparse n e] is [e]'s nonzero terms over variables [0..n-1],
    ascending — the sparse row shape {!Simplex.minimize_sparse} takes.
    Solves go through this path, so the constraint matrix is never
    materialized densely. *)

val rows : t -> Simplex.sparse_constr list
(** The constraints in the order they were added, as the sparse rows
    {!minimize} and {!maximize} hand to {!Simplex} — for feeding the
    same system to another solver. *)

type solution = { objective : Rat.t; value : var -> Rat.t; expr_value : Linexpr.t -> Rat.t }

type outcome = Optimal of solution | Infeasible | Unbounded

val minimize : t -> Linexpr.t -> outcome
val maximize : t -> Linexpr.t -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
