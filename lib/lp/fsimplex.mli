(** Float simplex used only to guess a starting basis for {!Simplex}.

    The exact solver converts its standard-form rows to doubles, lets
    this module run a capped two-phase simplex on them — with the same
    Bland pivot rule and tie-breaks as the exact solver, so a
    well-tracked float run lands on the very basis the exact solve
    would reach — and crash-starts from the reported basis after
    re-validating it in rational arithmetic. Every answer here is advisory; [None] means
    "no usable hint" and simply routes the exact solver through its
    ordinary two-phase path. *)

val solve :
  rows:float array array -> n_real:int -> objective:float array -> (int * int) array option
(** [solve ~rows ~n_real ~objective] minimizes [objective] over the
    standard-form system [rows] (each row [n_real] coefficients followed
    by a non-negative right-hand side, all variables non-negative).
    Returns [(row, column)] pairs describing the final basis — columns
    are all [< n_real]; rows missing from the array were judged
    redundant — or [None] when the float run was inconclusive
    (iteration cap, apparent infeasibility or unboundedness, or an
    artificial variable left in the basis). *)

val solve_cols :
  m:int ->
  n_real:int ->
  col:(int -> (int * Rtt_num.Rat.t) array) ->
  rhs:Rtt_num.Rat.t array ->
  objective:(int -> float) ->
  (int * int) array option
(** [solve_cols] is {!solve} fed from column-wise sparse standard form
    ([col j] lists column [j]'s (row, value) nonzeros): it converts the
    exact rationals to the same doubles the dense rows would produce,
    so the exact engine and its dense test oracle receive identical
    advice. *)
