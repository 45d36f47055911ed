(** Float simplex used only to guess a starting basis for {!Simplex}.

    The exact solver converts its standard-form columns to doubles, lets
    this module run a capped two-phase simplex on them — with the same
    Bland pivot rule and tie-breaks as the exact solver, so a
    well-tracked float run lands on the very basis the exact solve
    would reach — and crash-starts from the reported basis after
    re-validating it in rational arithmetic. Every answer here is advisory; [None] means
    "no usable hint" and simply routes the exact solver through its
    ordinary two-phase path.

    {b Cost.} The run keeps a dense m × (n+m+1) tableau of doubles (n
    real columns, one artificial per row, the right-hand side), written
    once from the sparse columns. Each pivot divides the pivot row, notes
    the columns where the result is nonzero, and then updates only those
    columns, in every row whose pivot-column entry is nonzero and in the
    objective row, so a pivot costs the pivot row's nonzeros times the
    rows it touches instead of the whole tableau.

    {b Same advice as a full-row update.} A skipped column holds ±0 in
    the divided pivot row, where the full update computes
    [x -. f *. ±0]. For a finite multiplier [f] that leaves [x]
    unchanged except, at most, for the sign of a zero, and nothing here
    can see a zero's sign: every decision is a comparison ([< -.eps],
    [> eps], [Float.abs _ > 0.0], the ratio-test ties), and a zero's
    sign only ever reaches the sign of another zero (adding ±0 leaves a
    nonzero value as it is; multiplying ±0 by a finite value or dividing
    it by a pivot gives a zero; times an infinity it is NaN). A NaN or
    infinity in the pivot row counts as nonzero, so it spreads exactly
    as under the full update; a row whose multiplier is infinite takes
    the full-width loop, so the NaNs that [inf *. 0] writes land in the
    same cells; and a NaN multiplier fails [Float.abs f > 0.0], so both
    updates leave its row alone. The differential suite checks the
    advice against a copy of the full-row advisor kept in the test
    oracle. *)

val solve_cols :
  m:int ->
  n_real:int ->
  col:(int -> (int * Rtt_num.Rat.t) array) ->
  rhs:Rtt_num.Rat.t array ->
  objective:(int -> float) ->
  (int * int) array option
(** [solve_cols ~m ~n_real ~col ~rhs ~objective] minimizes
    [objective] over the [m]-row standard-form system whose [n_real]
    columns are [col j] ((row, value) nonzeros, converted to doubles
    here) with non-negative right-hand side [rhs], all variables
    non-negative. Returns [(row, column)] pairs describing the final
    basis — columns are all [< n_real]; rows missing from the array
    were judged redundant — or [None] when the float run was
    inconclusive (iteration cap, apparent infeasibility or
    unboundedness, or an artificial variable left in the basis). *)
