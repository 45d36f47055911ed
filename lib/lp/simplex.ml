open Rtt_num
open Rtt_budget

type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : Rat.t; solution : Rat.t array }
  | Infeasible
  | Unbounded

let infeasible_site = "lp.infeasible"
let warmstart_reject_site = "lp.warmstart.reject"

let warmstart_enabled = ref true

(* cumulative observability counters, read by the bench harness *)
let pivots = ref 0
let warm_accepted = ref 0
let warm_rejected = ref 0
let sparse_nnz = ref 0
let sparse_cells = ref 0
let pivot_count () = !pivots
let warm_stats () = (!warm_accepted, !warm_rejected)

type factor_stats = { refactorizations : int; etas : int; eta_peak : int; nnz : int; cells : int }

let factor_stats () =
  {
    refactorizations = Basis_factor.refactor_count ();
    etas = Basis_factor.eta_appends ();
    eta_peak = Basis_factor.eta_peak ();
    nnz = !sparse_nnz;
    cells = !sparse_cells;
  }

let lp_stats_json () =
  let f = factor_stats () in
  Printf.sprintf
    "{\"pivots\":%d,\"warm_accepted\":%d,\"warm_rejected\":%d,\"refactors\":%d,\"etas\":%d,\"eta_peak\":%d,\"nnz\":%d,\"cells\":%d}"
    !pivots !warm_accepted !warm_rejected f.refactorizations f.etas f.eta_peak
    f.nnz f.cells

(* The counters are plain process-global refs, so a forked child (a
   pool worker, a daemon shard) inherits whatever the parent had
   accumulated. Every fork point calls this so per-process stats start
   at zero instead of double-counting the parent's history. *)
let reset_stats () =
  pivots := 0;
  warm_accepted := 0;
  warm_rejected := 0;
  sparse_nnz := 0;
  sparse_cells := 0;
  Basis_factor.reset_stats ()

(* Test instrumentation: when [trace_pivots] is on, every pivot logs a
   pair identifying the decision in representation-independent
   coordinates — (entering column, leaving column) for pricing and
   drive-out pivots, (column, -(row+1)) for warm-start crash pivots (a
   crash pivot has no leaving variable; the standard-form row pins it
   down instead). The differential suite runs this engine and the dense
   tableau oracle with tracing on and demands the logs match entry for
   entry. *)
let trace_pivots = ref false
let pivot_log : (int * int) list ref = ref []
let log_pivot a b = if !trace_pivots then pivot_log := (a, b) :: !pivot_log

let take_pivot_log () =
  let l = List.rev !pivot_log in
  pivot_log := [];
  l

(* A reusable basis: the (standard-form row, column) pairs of the last
   optimal solve, in exactly the shape {!crash_basis} consumes, plus
   the standard form's dimensions so a hint is only ever tried against
   an LP of the same shape. Abstract outside this module. *)
type basis = { b_rows : int; b_cols : int; b_pairs : (int * int) array }

let captured_basis : basis option ref = ref None
let basis_hint : basis option ref = ref None
let last_basis () = !captured_basis
let set_basis_hint b = basis_hint := Some b
let clear_basis_hint () = basis_hint := None

(* debug/test representation; pairs are captured in ascending
   standard-form row order, so equal bases print equal strings *)
let basis_repr b =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" b.b_rows b.b_cols);
  Array.iter (fun (i, c) -> Buffer.add_string buf (Printf.sprintf "(%d,%d)" i c)) b.b_pairs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Revised simplex over sparse columns.

   The standard form is kept as sparse columns and only a factorization
   of the basis inverse is maintained ({!Basis_factor}): one BTRAN
   prices every column, one FTRAN produces the entering column for the
   ratio test, and a pivot appends a single eta — work proportional to
   nonzeros, never O(m · width) per pivot. In exact rational arithmetic
   the FTRANed/BTRANed vectors equal the dense tableau's columns and
   rows bit for bit, which is what lets the test suite check every
   pivot against a dense-tableau oracle.

   After phase 1, a redundant row (its artificial stays basic at 0, and
   it is identically zero over real columns) stays in place, pinned:
   it has w_i = 0 for every real column, so it never wins a ratio test,
   contributes nothing to pricing (its basic cost is 0), and stays zero
   under every later eta. Dropping it would change no pivot. *)

type sparse_constr = { sp_terms : (int * Rat.t) list; sp_relation : relation; sp_rhs : Rat.t }

(* Standard form with the constraint matrix held column-wise and
   sparse: [s_vars] original columns then one slack/surplus column per
   inequality, in row order, right-hand side sign-normalized to >= 0.
   Artificial columns are not stored; {!s_col_of} synthesizes them. *)
type sstd = {
  s_vars : int;
  s_slack : int;
  s_m : int;
  s_cols : Basis_factor.svec array; (* n_vars + n_slack columns, ascending rows *)
  s_rhs : Rat.t array; (* >= 0 after sign normalization *)
}

let build_sstd ~n_vars sconstrs =
  let cs = Array.of_list sconstrs in
  let m = Array.length cs in
  let n_slack =
    Array.fold_left (fun acc c -> match c.sp_relation with Eq -> acc | Le | Ge -> acc + 1) 0 cs
  in
  let n_real = n_vars + n_slack in
  let rev_cols = Array.make n_real [] in
  let rhs = Array.make m Rat.zero in
  let slack_idx = ref n_vars in
  Array.iteri
    (fun i c ->
      (* normalize to rhs >= 0 *)
      let flip = Rat.(c.sp_rhs < Rat.zero) in
      let sgn x = if flip then Rat.neg x else x in
      List.iter
        (fun (v, coef) ->
          if not (Rat.is_zero coef) then rev_cols.(v) <- (i, sgn coef) :: rev_cols.(v))
        c.sp_terms;
      rhs.(i) <- sgn c.sp_rhs;
      match c.sp_relation with
      | Eq -> ()
      | Le ->
          rev_cols.(!slack_idx) <- [ (i, sgn Rat.one) ];
          incr slack_idx
      | Ge ->
          rev_cols.(!slack_idx) <- [ (i, sgn Rat.minus_one) ];
          incr slack_idx)
    cs;
  let cols = Array.map (fun l -> Array.of_list (List.rev l)) rev_cols in
  sparse_nnz := !sparse_nnz + Array.fold_left (fun acc c -> acc + Array.length c) 0 cols;
  sparse_cells := !sparse_cells + (m * n_real);
  { s_vars = n_vars; s_slack = n_slack; s_m = m; s_cols = cols; s_rhs = rhs }

(* column j of the phase-1 system: a real column, or e_{j - n_real} for
   the artificial attached to that row *)
let s_col_of sstd j =
  let n_real = sstd.s_vars + sstd.s_slack in
  if j < n_real then sstd.s_cols.(j) else [| (j - n_real, Rat.one) |]

let dot_col y (col : Basis_factor.svec) =
  Array.fold_left
    (fun acc (i, v) -> if Rat.is_zero y.(i) then acc else Rat.add acc (Rat.mul y.(i) v))
    Rat.zero col

let load_col w (col : Basis_factor.svec) =
  Array.fill w 0 (Array.length w) Rat.zero;
  Array.iter (fun (i, v) -> w.(i) <- v) col

let maybe_refactor bf sstd basis =
  if Basis_factor.should_refactor bf then begin
    let ok = Basis_factor.refactor bf ~col_of:(s_col_of sstd) ~basis in
    (* the engine only refactors bases it has already pivoted on *)
    assert ok
  end

(* The pricing/ratio/pivot loop under Bland's rule: the lowest-index
   column with a negative reduced cost enters, and the ratio test breaks
   ties by the lowest-index leaving column, so no basis repeats.
   [cost j] is the per-column objective coefficient (artificials
   included during phase 1); [n_price] bounds the pricing scan — n_total
   in phase 1 (a driven-out artificial can legally re-enter), n_real in
   phase 2. Basic columns are skipped rather than priced: their reduced
   cost is exactly 0, which the rule never selects. *)
let run_phase bf sstd ~basis ~in_basis ~x ~cost ~n_price =
  let m = sstd.s_m in
  let n_real = sstd.s_vars + sstd.s_slack in
  let y = Array.make m Rat.zero in
  let w = Array.make m Rat.zero in
  let rec loop () =
    Budget.tick ~stage:"simplex";
    (* y = Tᵀ c_B: one BTRAN prices every column *)
    for i = 0 to m - 1 do
      y.(i) <- cost basis.(i)
    done;
    Basis_factor.btran bf y;
    let reduced j =
      if j < n_real then Rat.sub (cost j) (dot_col y sstd.s_cols.(j))
      else Rat.sub (cost j) y.(j - n_real)
    in
    let entering = ref (-1) in
    (try
       for j = 0 to n_price - 1 do
         if (not in_basis.(j)) && Rat.(reduced j < Rat.zero) then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      load_col w (s_col_of sstd col);
      Basis_factor.ftran bf w;
      let best_row = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to m - 1 do
        let a = w.(i) in
        if Rat.(a > Rat.zero) then begin
          let ratio = Rat.div x.(i) a in
          if
            !best_row < 0
            || Rat.(ratio < !best_ratio)
            || (Rat.equal ratio !best_ratio && basis.(i) < basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        let r = !best_row in
        let theta = !best_ratio in
        log_pivot col basis.(r);
        incr pivots;
        for i = 0 to m - 1 do
          if i <> r && not (Rat.is_zero w.(i)) then x.(i) <- Rat.sub x.(i) (Rat.mul w.(i) theta)
        done;
        x.(r) <- theta;
        Basis_factor.pivot bf ~w ~row:r;
        in_basis.(basis.(r)) <- false;
        in_basis.(col) <- true;
        basis.(r) <- col;
        maybe_refactor bf sstd basis;
        loop ()
      end
    end
  in
  loop ()

(* On an optimal exit, capture the basis in standard-form rows and
   columns (the coordinates a later hint is checked against) and
   assemble the outcome; the objective is c_B · x_B. *)
let optimal sstd ~objective ~basis ~x =
  let m = sstd.s_m in
  let n_real = sstd.s_vars + sstd.s_slack in
  let pairs = ref [] in
  for i = m - 1 downto 0 do
    if basis.(i) < n_real then pairs := (i, basis.(i)) :: !pairs
  done;
  captured_basis := Some { b_rows = m; b_cols = n_real; b_pairs = Array.of_list !pairs };
  let solution = Array.make sstd.s_vars Rat.zero in
  let obj = ref Rat.zero in
  for i = 0 to m - 1 do
    if basis.(i) < sstd.s_vars then begin
      solution.(basis.(i)) <- x.(i);
      obj := Rat.add !obj (Rat.mul objective.(basis.(i)) x.(i))
    end
  done;
  Optimal { objective = !obj; solution }

let phase2 bf sstd ~objective ~basis ~in_basis ~x =
  let cost j = if j < sstd.s_vars then objective.(j) else Rat.zero in
  let n_real = sstd.s_vars + sstd.s_slack in
  match run_phase bf sstd ~basis ~in_basis ~x ~cost ~n_price:n_real with
  | `Unbounded -> Unbounded
  | `Optimal -> optimal sstd ~objective ~basis ~x

let solve_two_phase sstd ~objective =
  let m = sstd.s_m in
  let n_real = sstd.s_vars + sstd.s_slack in
  let n_total = n_real + m in
  let basis = Array.init m (fun i -> n_real + i) in
  let in_basis = Array.make n_total false in
  for i = 0 to m - 1 do
    in_basis.(n_real + i) <- true
  done;
  let x = Array.copy sstd.s_rhs in
  let bf = Basis_factor.create m in
  let cost1 j = if j < n_real then Rat.zero else Rat.one in
  (match run_phase bf sstd ~basis ~in_basis ~x ~cost:cost1 ~n_price:n_total with
  | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
  | `Optimal -> ());
  let phase1_value = ref Rat.zero in
  for i = 0 to m - 1 do
    if basis.(i) >= n_real then phase1_value := Rat.add !phase1_value x.(i)
  done;
  if Rat.(!phase1_value > Rat.zero) then Infeasible
  else begin
    (* Drive remaining artificials out of the basis where possible,
       reading tableau row i through the factorization: rho = Tᵀ e_i,
       entry (i, j) = rho · A_j. A column basic in another row reads 0
       there, so skipping basic columns changes nothing. *)
    let rho = Array.make m Rat.zero in
    let w = Array.make m Rat.zero in
    for i = 0 to m - 1 do
      if basis.(i) >= n_real then begin
        Array.fill rho 0 m Rat.zero;
        rho.(i) <- Rat.one;
        Basis_factor.btran bf rho;
        let found = ref (-1) in
        (try
           for j = 0 to n_real - 1 do
             if (not in_basis.(j)) && not (Rat.is_zero (dot_col rho sstd.s_cols.(j))) then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          let j = !found in
          log_pivot j basis.(i);
          incr pivots;
          load_col w sstd.s_cols.(j);
          Basis_factor.ftran bf w;
          (* x.(i) = 0 on an artificial-basic row after a feasible
             phase 1, so the basic values are unchanged *)
          Basis_factor.pivot bf ~w ~row:i;
          in_basis.(basis.(i)) <- false;
          in_basis.(j) <- true;
          basis.(i) <- j;
          maybe_refactor bf sstd basis
        end
        (* else: redundant row; the artificial stays basic at 0 *)
      end
    done;
    phase2 bf sstd ~objective ~basis ~in_basis ~x
  end

(* ------------------------------------------------------------------ *)
(* Warm start: verify/repair a guessed basis in exact arithmetic.

   [pairs] maps row index -> candidate basic column, from the float
   advisor or a basis hint. The basis is rebuilt from the standard form
   by exact pivots on those entries, each an eta append, with tableau
   entries read through the factorization on demand. The guess is
   REJECTED (returning [None], which routes the caller through the
   ordinary two-phase solve) whenever a pivot entry is exactly zero, a
   row the guess called redundant is not identically zero, or the
   crashed basic solution is not primal feasible. A surviving basis is
   a proven basic feasible solution, so phase 2 from it is exact
   regardless of where the guess came from. *)
let crash_basis sstd ~objective pairs =
  if Budget.probe ~site:warmstart_reject_site then None
  else begin
    let m = sstd.s_m in
    let n_real = sstd.s_vars + sstd.s_slack in
    let assigned = Array.make m (-1) in
    let in_basis = Array.make (n_real + m) false in
    let used = Array.make n_real false in
    let ok = ref true in
    Array.iter
      (fun (i, col) ->
        if i < 0 || i >= m || col < 0 || col >= n_real || assigned.(i) >= 0 || in_basis.(col)
        then ok := false
        else begin
          assigned.(i) <- col;
          in_basis.(col) <- true
        end)
      pairs;
    let bf = Basis_factor.create m in
    let rho = Array.make m Rat.zero in
    let w = Array.make m Rat.zero in
    (* The basic solution is determined by the basis column SET, not by
       which column the guess happened to pair with which row — and that
       pairing need not be a valid pivot order on the original rows
       anyway. So eliminate row by row, preferring the guessed pairing
       when its entry is nonzero and falling back to any unused basis
       column otherwise; for a nonsingular basis the Schur complement
       stays nonsingular after every pivot, so a usable column always
       exists and a dead end means the guess was bad.
       The guessed entry (i, c) is w_i of c's FTRAN, which its pivot
       needs anyway, so the guess is FTRANed first; row i is read
       through a BTRAN only when that entry is zero and the fallback
       must scan the whole row. *)
    if !ok then
      Array.iter
        (fun (i, _) ->
          if !ok then begin
            Budget.tick ~stage:"simplex";
            let col = ref assigned.(i) in
            load_col w sstd.s_cols.(!col);
            Basis_factor.ftran bf w;
            if Rat.is_zero w.(i) then begin
              Array.fill rho 0 m Rat.zero;
              rho.(i) <- Rat.one;
              Basis_factor.btran bf rho;
              let entry c = dot_col rho sstd.s_cols.(c) in
              col := -1;
              (try
                 for c = 0 to n_real - 1 do
                   if in_basis.(c) && (not used.(c)) && not (Rat.is_zero (entry c)) then begin
                     col := c;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !col >= 0 then begin
                load_col w sstd.s_cols.(!col);
                Basis_factor.ftran bf w
              end
            end;
            if !col < 0 then ok := false
            else begin
              assigned.(i) <- !col;
              used.(!col) <- true;
              log_pivot !col (-(i + 1));
              incr pivots;
              Basis_factor.pivot bf ~w ~row:i
            end
          end)
        pairs;
    if not !ok then None
    else begin
      let x = Array.copy sstd.s_rhs in
      Basis_factor.ftran bf x;
      (* zero tolerance: assigned rows must be primal feasible,
         unassigned rows identically zero (rhs and every real column) *)
      for i = m - 1 downto 0 do
        if assigned.(i) >= 0 then begin
          if Rat.(x.(i) < Rat.zero) then ok := false
        end
        else if not (Rat.is_zero x.(i)) then ok := false
        else begin
          Array.fill rho 0 m Rat.zero;
          rho.(i) <- Rat.one;
          Basis_factor.btran bf rho;
          try
            for c = 0 to n_real - 1 do
              if not (Rat.is_zero (dot_col rho sstd.s_cols.(c))) then begin
                ok := false;
                raise Exit
              end
            done
          with Exit -> ()
        end
      done;
      if not !ok then None
      else begin
        let basis =
          Array.init m (fun i -> if assigned.(i) >= 0 then assigned.(i) else n_real + i)
        in
        for i = 0 to m - 1 do
          if assigned.(i) < 0 then in_basis.(n_real + i) <- true
        done;
        Some (phase2 bf sstd ~objective ~basis ~in_basis ~x)
      end
    end
  end

let try_warm_start sstd ~objective =
  let n_real = sstd.s_vars + sstd.s_slack in
  match
    Fsimplex.solve_cols ~m:sstd.s_m ~n_real
      ~col:(fun j -> sstd.s_cols.(j))
      ~rhs:sstd.s_rhs
      ~objective:(fun j -> if j < sstd.s_vars then Rat.to_float objective.(j) else 0.0)
  with
  | None -> None
  | Some pairs -> crash_basis sstd ~objective pairs

let minimize_sstd sstd ~objective =
  let n_real = sstd.s_vars + sstd.s_slack in
  (* An explicitly installed basis hint (a previous optimal basis of a
     same-shaped LP — set by the session layer and the Pareto sweep) is
     consumed one-shot and tried before the float advisor. It goes
     through the same exact crash/verify discipline, so like the float
     basis it can only save pivots, never change the outcome. *)
  let hint =
    match !basis_hint with
    | None -> None
    | Some b ->
        basis_hint := None;
        if b.b_rows = sstd.s_m && b.b_cols = n_real then Some b.b_pairs else None
  in
  match (match hint with Some pairs -> crash_basis sstd ~objective pairs | None -> None) with
  | Some outcome ->
      incr warm_accepted;
      outcome
  | None ->
      if Option.is_some hint then incr warm_rejected;
      if !warmstart_enabled then begin
        match try_warm_start sstd ~objective with
        | Some outcome ->
            incr warm_accepted;
            outcome
        | None ->
            incr warm_rejected;
            solve_two_phase sstd ~objective
      end
      else solve_two_phase sstd ~objective

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let check_sparse ~n_vars sconstrs =
  List.iter
    (fun c ->
      let last = ref (-1) in
      List.iter
        (fun (v, _) ->
          if v < 0 || v >= n_vars then invalid_arg "Simplex.minimize_sparse: variable index";
          if v <= !last then
            invalid_arg "Simplex.minimize_sparse: terms must be sorted by variable";
          last := v)
        c.sp_terms)
    sconstrs

let minimize_sparse ~n_vars sconstrs ~objective =
  if Budget.probe ~site:infeasible_site then Infeasible
  else begin
    if Array.length objective <> n_vars then
      invalid_arg "Simplex.minimize_sparse: objective size";
    check_sparse ~n_vars sconstrs;
    minimize_sstd (build_sstd ~n_vars sconstrs) ~objective
  end

let maximize_sparse ~n_vars sconstrs ~objective =
  match minimize_sparse ~n_vars sconstrs ~objective:(Array.map Rat.neg objective) with
  | Optimal { objective; solution } -> Optimal { objective = Rat.neg objective; solution }
  | (Infeasible | Unbounded) as o -> o
