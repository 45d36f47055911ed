(** Sparse basis factorization for the revised simplex.

    Maintains [T = B⁻¹] as a product of elementary (eta) matrices in
    exact rational arithmetic: the etas of the last full
    refactorization, an optional row permutation chosen by that
    refactorization, and one update eta per simplex pivot since
    ({e product form of the inverse}). {!ftran} and {!btran} apply [T]
    and [Tᵀ] to dense vectors in time proportional to the nonzeros of
    the eta file — never touching an m×n tableau — which is what makes
    {!Simplex}'s revised engine do work proportional to the nonzeros of
    the LP. Because every entry is an exact rational, a vector pushed
    through this factorization equals the corresponding dense-tableau
    column or row {e bit for bit}; the revised engine's pivot-sequence
    guarantee rests on that. *)

open Rtt_num

type svec = (int * Rat.t) array
(** Sparse column: (row, value) pairs, ascending rows, values nonzero. *)

type t
(** Mutable factorization of one m×m basis. *)

val create : int -> t
(** [create m] is the identity factorization (basis [B = I], as at the
    start of phase 1 where every basic variable is artificial). *)

val size : t -> int
(** Number of rows [m]. *)

val ftran : t -> Rat.t array -> unit
(** [ftran t x] replaces [x] with [T x = B⁻¹ x] in place. Used to bring
    an entering column (or the right-hand side) into the current basis
    frame. O(m + eta-file nonzeros). *)

val btran : t -> Rat.t array -> unit
(** [btran t y] replaces [y] with [Tᵀ y] in place. With [y = c_B] this
    yields the duals used for pricing; with [y = e_i] it reads row [i]
    of the implied tableau without materializing it. *)

val pivot : t -> w:Rat.t array -> row:int -> unit
(** [pivot t ~w ~row] appends the update eta for a simplex pivot at
    [row] whose FTRANed entering column is the dense [w]
    ([w.(row) <> 0]). The dense vector is copied into sparse form; the
    caller may reuse it. *)

val eta_length : t -> int
(** Current eta-file length (refactorization etas + update etas). *)

val should_refactor : t -> bool
(** Whether the update-eta file has outgrown
    [max !eta_limit (m / 4)] and a {!refactor} would pay for itself. *)

val eta_limit : int ref
(** Update-eta threshold floor for {!should_refactor}. Defaults to 32.
    Tests drop it to 0 to force a refactorization after (almost) every
    pivot. *)

val refactor : t -> col_of:(int -> svec) -> basis:int array -> bool
(** [refactor t ~col_of ~basis] discards the eta file and rebuilds a
    fresh factorization of the basis whose [i]-th column is
    [col_of basis.(i)], by sparse Gauss–Jordan elimination with free
    pivot-row choice (recorded as the permutation [P]). Returns [false]
    — leaving [t] unusable — iff the basis is singular; the revised
    engine only refactors bases it has already pivoted on, so there it
    always returns [true]. [T] is unchanged as a matrix: [B⁻¹] is
    unique, and exact arithmetic keeps every subsequent FTRAN/BTRAN
    result identical whichever elimination order produced it. *)

(** {1 Cumulative counters}

    Process-global observability, reported through
    {!Simplex.factor_stats} into [bench --json] and daemon [stats];
    {!Simplex.reset_stats} resets them at fork points. *)

val refactor_count : unit -> int
val eta_appends : unit -> int

val eta_peak : unit -> int
(** Longest eta file seen since the last reset. *)

val reset_stats : unit -> unit
