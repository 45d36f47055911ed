open Rtt_num
open Rtt_budget
open Rtt_lp

type constr = { coeffs : Rat.t array; relation : Simplex.relation; rhs : Rat.t }

let pivots = ref 0
let warm_accepted = ref 0
let warm_rejected = ref 0
let pivot_count () = !pivots
let warm_stats () = (!warm_accepted, !warm_rejected)
let trace_pivots = ref false
let pivot_log : (int * int) list ref = ref []
let log_pivot a b = if !trace_pivots then pivot_log := (a, b) :: !pivot_log

let take_pivot_log () =
  let l = List.rev !pivot_log in
  pivot_log := [];
  l

(* Same coordinates and printed form as {!Simplex.basis}: pairs of
   (standard-form row, column) in ascending row order. *)
type basis = { b_rows : int; b_cols : int; b_pairs : (int * int) array }

let captured_basis : basis option ref = ref None
let basis_hint : basis option ref = ref None
let last_basis () = !captured_basis
let set_basis_hint b = basis_hint := Some b
let clear_basis_hint () = basis_hint := None

let basis_repr b =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" b.b_rows b.b_cols);
  Array.iter (fun (i, c) -> Buffer.add_string buf (Printf.sprintf "(%d,%d)" i c)) b.b_pairs;
  Buffer.contents buf

(* The tableau holds m rows of length [width]; column [width - 1] is the
   right-hand side. [z] is the objective row maintained alongside, with
   z.(width - 1) = -(current objective value). Basic columns always read
   as a unit column, and b >= 0 is an invariant of every pivot. *)

(* Gauss-Jordan step over the constraint rows only (no objective row);
   also the unit of work of the warm-start crash, so it counts as a
   pivot *)
let pivot_rows tableau ~row ~col ~width =
  incr pivots;
  let m = Array.length tableau in
  let prow = tableau.(row) in
  let p = prow.(col) in
  for j = 0 to width - 1 do
    if not (Rat.is_zero prow.(j)) then prow.(j) <- Rat.div prow.(j) p
  done;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = tableau.(i).(col) in
      if not (Rat.is_zero f) then
        for j = 0 to width - 1 do
          tableau.(i).(j) <- Rat.sub tableau.(i).(j) (Rat.mul f prow.(j))
        done
    end
  done

let pivot tableau z basis ~row ~col ~width =
  pivot_rows tableau ~row ~col ~width;
  let prow = tableau.(row) in
  let f = z.(col) in
  if not (Rat.is_zero f) then
    for j = 0 to width - 1 do
      z.(j) <- Rat.sub z.(j) (Rat.mul f prow.(j))
    done;
  basis.(row) <- col

(* Bland: the lowest-index column with a negative reduced cost enters;
   the ratio test breaks ties by the lowest-index leaving column. *)
let run_phase tableau z basis ~width =
  let m = Array.length tableau in
  let rhs = width - 1 in
  let rec loop () =
    Budget.tick ~stage:"simplex";
    let entering = ref (-1) in
    (try
       for j = 0 to width - 2 do
         if Rat.(z.(j) < Rat.zero) then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to m - 1 do
        let a = tableau.(i).(col) in
        if Rat.(a > Rat.zero) then begin
          let ratio = Rat.div tableau.(i).(rhs) a in
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
        log_pivot col basis.(!best_row);
        pivot tableau z basis ~row:!best_row ~col ~width;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Standard form: m rows of [n_vars] originals then one slack/surplus
   per inequality, right-hand side (>= 0 after sign normalization) in
   the last column. Artificial columns are NOT part of the standard
   form — the two-phase path adds them privately and drops them again
   after phase 1.                                                      *)

type std = { n_vars : int; n_slack : int; rows : Rat.t array array }

let build_std ~n_vars constraints =
  let constraints = Array.of_list constraints in
  let m = Array.length constraints in
  let n_slack =
    Array.fold_left
      (fun acc c -> match c.relation with Simplex.Eq -> acc | Le | Ge -> acc + 1)
      0 constraints
  in
  let n_real = n_vars + n_slack in
  let rows = Array.make_matrix m (n_real + 1) Rat.zero in
  let slack_idx = ref n_vars in
  Array.iteri
    (fun i c ->
      let row = rows.(i) in
      (* normalize to rhs >= 0 *)
      let flip = Rat.(c.rhs < Rat.zero) in
      let sgn x = if flip then Rat.neg x else x in
      Array.iteri (fun j v -> if not (Rat.is_zero v) then row.(j) <- sgn v) c.coeffs;
      row.(n_real) <- sgn c.rhs;
      match c.relation with
      | Simplex.Eq -> ()
      | Le ->
          row.(!slack_idx) <- sgn Rat.one;
          incr slack_idx
      | Ge ->
          row.(!slack_idx) <- sgn Rat.minus_one;
          incr slack_idx)
    constraints;
  { n_vars; n_slack; rows }

(* Phase 2 from a feasible tableau over real columns only: price the
   objective out of the basic columns and run the pivot loop.
   [orig_rows] maps each (compacted) tableau row back to its row in the
   standard form and [std_rows] is the standard form's row count — on
   an optimal exit the final basis is recorded in those coordinates so
   a later solve of a same-shaped LP can crash from it. *)
let solve_phase2 tableau basis ~n_vars ~width ~objective ~orig_rows ~std_rows =
  let rhs = width - 1 in
  let z = Array.make width Rat.zero in
  for j = 0 to n_vars - 1 do
    z.(j) <- objective.(j)
  done;
  Array.iteri
    (fun i b ->
      let cb = if b < n_vars then objective.(b) else Rat.zero in
      if not (Rat.is_zero cb) then
        for j = 0 to width - 1 do
          z.(j) <- Rat.sub z.(j) (Rat.mul cb tableau.(i).(j))
        done)
    basis;
  match run_phase tableau z basis ~width with
  | `Unbounded -> Simplex.Unbounded
  | `Optimal ->
      captured_basis :=
        Some
          {
            b_rows = std_rows;
            b_cols = width - 1;
            b_pairs = Array.mapi (fun i b -> (orig_rows.(i), b)) basis;
          };
      let solution = Array.make n_vars Rat.zero in
      Array.iteri (fun i b -> if b < n_vars then solution.(b) <- tableau.(i).(rhs)) basis;
      Simplex.Optimal { objective = Rat.neg z.(rhs); solution }

(* ------------------------------------------------------------------ *)
(* Full two-phase solve.                                               *)

let solve_two_phase std ~objective =
  let m = Array.length std.rows in
  let n_real = std.n_vars + std.n_slack in
  let n_total = n_real + m in
  let width = n_total + 1 in
  let rhs = n_total in
  let tableau = Array.make_matrix m width Rat.zero in
  let basis = Array.make m 0 in
  Array.iteri
    (fun i row ->
      Array.blit row 0 tableau.(i) 0 n_real;
      tableau.(i).(rhs) <- row.(n_real);
      (* artificial variable for this row *)
      tableau.(i).(n_real + i) <- Rat.one;
      basis.(i) <- n_real + i)
    std.rows;
  let is_artificial j = j >= n_real && j < n_total in
  (* Phase 1 objective row: minimize sum of artificials. Reduced costs:
     c_j - sum of rows (c over artificials = 1, basis = artificials). *)
  let z = Array.make width Rat.zero in
  for j = 0 to width - 1 do
    let colsum = Array.fold_left (fun acc row -> Rat.add acc row.(j)) Rat.zero tableau in
    let cj = if is_artificial j then Rat.one else Rat.zero in
    z.(j) <- Rat.sub (if j = rhs then Rat.zero else cj) colsum
  done;
  (match run_phase tableau z basis ~width with
  | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
  | `Optimal -> ());
  let phase1_value = Rat.neg z.(rhs) in
  if Rat.(phase1_value > Rat.zero) then Simplex.Infeasible
  else begin
    (* Drive remaining artificials out of the basis where possible. *)
    for i = 0 to m - 1 do
      if is_artificial basis.(i) then begin
        let found = ref (-1) in
        (try
           for j = 0 to n_real - 1 do
             if not (Rat.is_zero tableau.(i).(j)) then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          log_pivot !found basis.(i);
          pivot tableau z basis ~row:i ~col:!found ~width
        end
        (* else: the row is all zeros over real columns — redundant; the
           artificial stays basic at value 0, harmless if never entering *)
      end
    done;
    (* Compact for phase 2: rows whose basic variable is still artificial
       are redundant (all-zero over real columns after the drive-out
       loop) and are dropped, and so are the artificial columns — they
       would be dead weight in every subsequent pivot. *)
    let keep_rows = List.filter (fun i -> not (is_artificial basis.(i))) (List.init m (fun i -> i)) in
    let width2 = n_real + 1 in
    let rhs2 = n_real in
    let tableau2 =
      Array.of_list
        (List.map
           (fun i -> Array.init width2 (fun j -> if j = rhs2 then tableau.(i).(rhs) else tableau.(i).(j)))
           keep_rows)
    in
    let basis2 = Array.of_list (List.map (fun i -> basis.(i)) keep_rows) in
    solve_phase2 tableau2 basis2 ~n_vars:std.n_vars ~width:width2 ~objective
      ~orig_rows:(Array.of_list keep_rows) ~std_rows:m
  end

(* ------------------------------------------------------------------ *)
(* Warm start: rebuild the tableau for a guessed basis by exact
   Gauss-Jordan pivots and reject the guess ([None]) on a zero pivot
   entry, a nonzero row the guess left out, or an infeasible basic
   solution — the discipline {!Simplex} applies through its
   factorization. *)

let crash_basis std ~objective pairs =
  if Budget.probe ~site:Simplex.warmstart_reject_site then None
  else begin
    let m = Array.length std.rows in
    let n_real = std.n_vars + std.n_slack in
    let width = n_real + 1 in
    let rhs = width - 1 in
    let tableau = Array.map Array.copy std.rows in
    let assigned = Array.make m (-1) in
    let in_basis = Array.make n_real false in
    let used = Array.make n_real false in
    let ok = ref true in
    Array.iter
      (fun (i, col) ->
        if i < 0 || i >= m || col < 0 || col >= n_real || assigned.(i) >= 0 || in_basis.(col) then
          ok := false
        else begin
          assigned.(i) <- col;
          in_basis.(col) <- true
        end)
      pairs;
    (* row by row, preferring the guessed pairing when its entry is
       nonzero and falling back to any unused basis column otherwise *)
    if !ok then
      Array.iter
        (fun (i, _) ->
          if !ok then begin
            Budget.tick ~stage:"simplex";
            let col = ref assigned.(i) in
            if Rat.is_zero tableau.(i).(!col) then begin
              col := -1;
              (try
                 for c = 0 to n_real - 1 do
                   if in_basis.(c) && (not used.(c)) && not (Rat.is_zero tableau.(i).(c)) then begin
                     col := c;
                     raise Exit
                   end
                 done
               with Exit -> ())
            end;
            if !col < 0 then ok := false
            else begin
              assigned.(i) <- !col;
              used.(!col) <- true;
              log_pivot !col (-(i + 1));
              pivot_rows tableau ~row:i ~col:!col ~width
            end
          end)
        pairs;
    if not !ok then None
    else begin
      (* rows the guess dropped must vanish exactly, and the basic
         solution must be feasible — both checked with zero tolerance *)
      let keep = ref [] in
      for i = m - 1 downto 0 do
        if assigned.(i) >= 0 then begin
          if Rat.(tableau.(i).(rhs) < Rat.zero) then ok := false;
          keep := i :: !keep
        end
        else if not (Array.for_all Rat.is_zero tableau.(i)) then ok := false
      done;
      if not !ok then None
      else begin
        let rows = Array.of_list (List.map (fun i -> tableau.(i)) !keep) in
        let basis = Array.of_list (List.map (fun i -> assigned.(i)) !keep) in
        Some
          (solve_phase2 rows basis ~n_vars:std.n_vars ~width ~objective
             ~orig_rows:(Array.of_list !keep) ~std_rows:m)
      end
    end
  end

let try_warm_start std ~objective =
  let n_real = std.n_vars + std.n_slack in
  let frows = Array.map (Array.map Rat.to_float) std.rows in
  let fobj =
    Array.init n_real (fun j -> if j < std.n_vars then Rat.to_float objective.(j) else 0.0)
  in
  match Float_advisor.solve ~rows:frows ~n_real ~objective:fobj with
  | None -> None
  | Some pairs -> crash_basis std ~objective pairs

let float_advice = Float_advisor.solve

(* ------------------------------------------------------------------ *)

let minimize_tableau ~n_vars constraints ~objective =
  if Array.length objective <> n_vars then
    invalid_arg "Rtt_lp_oracle.minimize_sparse: objective size";
  let std = build_std ~n_vars constraints in
  (* a same-shaped hint is consumed one-shot and tried before the float
     advisor, exactly as {!Simplex} does *)
  let hint =
    match !basis_hint with
    | None -> None
    | Some b ->
        basis_hint := None;
        if b.b_rows = Array.length std.rows && b.b_cols = std.n_vars + std.n_slack then
          Some b.b_pairs
        else None
  in
  match (match hint with Some pairs -> crash_basis std ~objective pairs | None -> None) with
  | Some outcome ->
      incr warm_accepted;
      outcome
  | None ->
      if Option.is_some hint then incr warm_rejected;
      if !Simplex.warmstart_enabled then begin
        match try_warm_start std ~objective with
        | Some outcome ->
            incr warm_accepted;
            outcome
        | None ->
            incr warm_rejected;
            solve_two_phase std ~objective
      end
      else solve_two_phase std ~objective

let sparse_of_dense constraints =
  List.map
    (fun c ->
      let terms = ref [] in
      for v = Array.length c.coeffs - 1 downto 0 do
        if not (Rat.is_zero c.coeffs.(v)) then terms := (v, c.coeffs.(v)) :: !terms
      done;
      { Simplex.sp_terms = !terms; sp_relation = c.relation; sp_rhs = c.rhs })
    constraints

let dense_of_sparse ~n_vars sconstrs =
  List.map
    (fun (c : Simplex.sparse_constr) ->
      let coeffs = Array.make n_vars Rat.zero in
      List.iter (fun (v, x) -> coeffs.(v) <- x) c.sp_terms;
      { coeffs; relation = c.sp_relation; rhs = c.sp_rhs })
    sconstrs

let minimize_sparse ~n_vars sconstrs ~objective =
  if Budget.probe ~site:Simplex.infeasible_site then Simplex.Infeasible
  else minimize_tableau ~n_vars (dense_of_sparse ~n_vars sconstrs) ~objective
