(* Tests for the exact rational simplex and the LP model builder.
   Optima are checked against hand-solved instances and against a
   brute-force vertex enumeration on random small LPs. *)

open Rtt_num
open Rtt_lp

let q = Rat.of_ints
let qi = Rat.of_int

let expr _lp terms = Linexpr.of_terms (List.map (fun (c, v) -> (c, Lp.var_index v)) terms)
let cst _lp k = Linexpr.const (qi k)

let check_rat name expected actual =
  Alcotest.(check string) name (Rat.to_string expected) (Rat.to_string actual)

let linexpr_units =
  [
    Alcotest.test_case "construction and eval" `Quick (fun () ->
        let e = Linexpr.of_terms ~const:(qi 3) [ (qi 2, 0); (qi (-1), 1) ] in
        check_rat "coeff0" (qi 2) (Linexpr.coeff e 0);
        check_rat "coeff1" (qi (-1)) (Linexpr.coeff e 1);
        check_rat "missing" Rat.zero (Linexpr.coeff e 7);
        check_rat "eval" (qi 3) (Linexpr.eval e (fun v -> qi (v + 1))));
    Alcotest.test_case "zero coefficients vanish" `Quick (fun () ->
        let e = Linexpr.add (Linexpr.term (qi 2) 0) (Linexpr.term (qi (-2)) 0) in
        Alcotest.(check int) "terms" 0 (List.length (Linexpr.terms e));
        Alcotest.(check int) "max_var" (-1) (Linexpr.max_var e));
    Alcotest.test_case "scale and sub" `Quick (fun () ->
        let e = Linexpr.sub (Linexpr.scale (qi 3) (Linexpr.var 0)) (Linexpr.var 0) in
        check_rat "coeff" (qi 2) (Linexpr.coeff e 0));
  ]

let simplex_units =
  [
    Alcotest.test_case "textbook maximize" `Quick (fun () ->
        (* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2,6) *)
        let lp = Lp.create () in
        let x = Lp.var lp "x" and y = Lp.var lp "y" in
        Lp.add_le lp (expr lp [ (qi 1, x) ]) (cst lp 4);
        Lp.add_le lp (expr lp [ (qi 2, y) ]) (cst lp 12);
        Lp.add_le lp (expr lp [ (qi 3, x); (qi 2, y) ]) (cst lp 18);
        match Lp.maximize lp (expr lp [ (qi 3, x); (qi 5, y) ]) with
        | Lp.Optimal s ->
            check_rat "objective" (qi 36) s.Lp.objective;
            check_rat "x" (qi 2) (s.Lp.value x);
            check_rat "y" (qi 6) (s.Lp.value y)
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "fractional optimum stays exact" `Quick (fun () ->
        (* min x + y st x + 2y = 3; 3x + y >= 2 -> 8/5 at (1/5, 7/5) *)
        let lp = Lp.create () in
        let x = Lp.var lp "x" and y = Lp.var lp "y" in
        Lp.add_eq lp (expr lp [ (qi 1, x); (qi 2, y) ]) (cst lp 3);
        Lp.add_ge lp (expr lp [ (qi 3, x); (qi 1, y) ]) (cst lp 2);
        match Lp.minimize lp (expr lp [ (qi 1, x); (qi 1, y) ]) with
        | Lp.Optimal s ->
            check_rat "objective" (q 8 5) s.Lp.objective;
            check_rat "x" (q 1 5) (s.Lp.value x);
            check_rat "y" (q 7 5) (s.Lp.value y)
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "infeasible detected" `Quick (fun () ->
        let lp = Lp.create () in
        let x = Lp.var lp "x" in
        Lp.add_ge lp (expr lp [ (qi 1, x) ]) (cst lp 5);
        Lp.add_le lp (expr lp [ (qi 1, x) ]) (cst lp 3);
        Alcotest.(check bool) "infeasible" true (Lp.minimize lp (expr lp [ (qi 1, x) ]) = Lp.Infeasible));
    Alcotest.test_case "unbounded detected" `Quick (fun () ->
        let lp = Lp.create () in
        let x = Lp.var lp "x" in
        Lp.add_ge lp (expr lp [ (qi 1, x) ]) (cst lp 1);
        Alcotest.(check bool) "unbounded" true (Lp.maximize lp (expr lp [ (qi 1, x) ]) = Lp.Unbounded));
    Alcotest.test_case "degenerate (Bland terminates)" `Quick (fun () ->
        (* classic cycling example of Beale; Bland's rule must terminate *)
        let lp = Lp.create () in
        let x1 = Lp.var lp "x1" and x2 = Lp.var lp "x2" and x3 = Lp.var lp "x3" and x4 = Lp.var lp "x4" in
        Lp.add_le lp (expr lp [ (q 1 4, x1); (qi (-60), x2); (q (-1) 25, x3); (qi 9, x4) ]) (cst lp 0);
        Lp.add_le lp (expr lp [ (q 1 2, x1); (qi (-90), x2); (q (-1) 50, x3); (qi 3, x4) ]) (cst lp 0);
        Lp.add_le lp (expr lp [ (qi 1, x3) ]) (cst lp 1);
        match Lp.maximize lp (expr lp [ (q 3 4, x1); (qi (-150), x2); (q 1 50, x3); (qi (-6), x4) ]) with
        | Lp.Optimal s -> check_rat "objective" (q 1 20) s.Lp.objective
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "equality-only system" `Quick (fun () ->
        let lp = Lp.create () in
        let x = Lp.var lp "x" and y = Lp.var lp "y" in
        Lp.add_eq lp (expr lp [ (qi 1, x); (qi 1, y) ]) (cst lp 10);
        Lp.add_eq lp (expr lp [ (qi 1, x); (qi (-1), y) ]) (cst lp 4);
        match Lp.minimize lp (expr lp [ (qi 1, x) ]) with
        | Lp.Optimal s ->
            check_rat "x" (qi 7) (s.Lp.value x);
            check_rat "y" (qi 3) (s.Lp.value y)
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "negative rhs normalized" `Quick (fun () ->
        (* -x <= -2  <=>  x >= 2 *)
        let lp = Lp.create () in
        let x = Lp.var lp "x" in
        Lp.add_le lp (expr lp [ (qi (-1), x) ]) (cst lp (-2));
        match Lp.minimize lp (expr lp [ (qi 1, x) ]) with
        | Lp.Optimal s -> check_rat "x" (qi 2) (s.Lp.value x)
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "constants folded across sides" `Quick (fun () ->
        (* x + 1 <= y + 3 with y <= 1: max x = 3 *)
        let lp = Lp.create () in
        let x = Lp.var lp "x" and y = Lp.var lp "y" in
        Lp.add_le lp
          (Linexpr.add (expr lp [ (qi 1, x) ]) (Linexpr.const (qi 1)))
          (Linexpr.add (expr lp [ (qi 1, y) ]) (Linexpr.const (qi 3)));
        Lp.add_le lp (expr lp [ (qi 1, y) ]) (cst lp 1);
        match Lp.maximize lp (expr lp [ (qi 1, x) ]) with
        | Lp.Optimal s -> check_rat "x" (qi 3) (s.Lp.value x)
        | _ -> Alcotest.fail "expected optimal");
    Alcotest.test_case "redundant constraints harmless" `Quick (fun () ->
        let lp = Lp.create () in
        let x = Lp.var lp "x" in
        Lp.add_le lp (expr lp [ (qi 1, x) ]) (cst lp 5);
        Lp.add_le lp (expr lp [ (qi 1, x) ]) (cst lp 5);
        Lp.add_le lp (expr lp [ (qi 2, x) ]) (cst lp 10);
        match Lp.maximize lp (expr lp [ (qi 1, x) ]) with
        | Lp.Optimal s -> check_rat "x" (qi 5) (s.Lp.value x)
        | _ -> Alcotest.fail "expected optimal");
  ]

(* Brute-force reference: for LPs with n variables and only <= rows plus
   x >= 0, enumerate all basic points (intersections of n constraint
   hyperplanes chosen among rows and axes) and take the best feasible
   one. To stay simple we check 2-variable LPs geometrically. *)
let brute_force_2d rows obj_x obj_y =
  (* rows: (a, b, c) meaning a x + b y <= c; axes x >= 0, y >= 0 *)
  let lines = rows @ [ (Rat.one, Rat.zero, Rat.zero); (Rat.zero, Rat.one, Rat.zero) ] in
  let feasible (x, y) =
    Rat.(x >= Rat.zero)
    && Rat.(y >= Rat.zero)
    && List.for_all (fun (a, b, c) -> Rat.(add (mul a x) (mul b y) <= c)) rows
  in
  let candidates = ref [] in
  let push p = if feasible p then candidates := p :: !candidates in
  push (Rat.zero, Rat.zero);
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if i < j then begin
            let det = Rat.(sub (mul a1 b2) (mul a2 b1)) in
            if not (Rat.is_zero det) then begin
              let x = Rat.(div (sub (mul c1 b2) (mul c2 b1)) det) in
              let y = Rat.(div (sub (mul a1 c2) (mul a2 c1)) det) in
              push (x, y)
            end
          end)
        lines)
    lines;
  match !candidates with
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun acc (x, y) -> Rat.max acc Rat.(add (mul obj_x x) (mul obj_y y)))
           (Rat.of_int min_int) (* fine: dominated immediately *)
           l)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let simplex_props =
  [
    prop "2d simplex matches vertex enumeration" 100 QCheck.(pair (int_range 1 6) (int_range 0 1000))
      (fun (rows, seed) ->
        let rng = Random.State.make [| seed; rows |] in
        let ri lo hi = Rat.of_int (lo + Random.State.int rng (hi - lo + 1)) in
        let constraints = List.init rows (fun _ -> (ri (-3) 5, ri (-3) 5, ri 0 10)) in
        let ox = ri 1 5 and oy = ri 1 5 in
        let lp = Lp.create () in
        let x = Lp.var lp "x" and y = Lp.var lp "y" in
        List.iter
          (fun (a, b, c) ->
            Lp.add_le lp (Linexpr.of_terms [ (a, Lp.var_index x); (b, Lp.var_index y) ]) (Linexpr.const c))
          constraints;
        let obj = Linexpr.of_terms [ (ox, Lp.var_index x); (oy, Lp.var_index y) ] in
        match Lp.maximize lp obj with
        | Lp.Infeasible -> false (* origin is always feasible here since rhs >= 0 *)
        | Lp.Unbounded -> brute_force_2d constraints ox oy = None || true
        (* unboundedness cannot be detected by vertex enumeration; accept *)
        | Lp.Optimal s -> (
            match brute_force_2d constraints ox oy with
            | Some best -> Rat.equal s.Lp.objective best
            | None -> false));
    prop "optimal solutions satisfy all constraints" 100 QCheck.(int_range 0 1000) (fun seed ->
        let rng = Random.State.make [| seed; 42 |] in
        let nv = 2 + Random.State.int rng 3 in
        let rows = 2 + Random.State.int rng 4 in
        let lp = Lp.create () in
        let vars = Array.init nv (fun i -> Lp.var lp (Printf.sprintf "v%d" i)) in
        let cons = ref [] in
        for _ = 1 to rows do
          let coeffs = Array.map (fun v -> (Rat.of_int (Random.State.int rng 7 - 2), v)) vars in
          let rhs = Rat.of_int (Random.State.int rng 12) in
          let e = Linexpr.of_terms (Array.to_list (Array.map (fun (c, v) -> (c, Lp.var_index v)) coeffs)) in
          Lp.add_le lp e (Linexpr.const rhs);
          cons := (e, rhs) :: !cons
        done;
        let obj =
          Linexpr.of_terms (Array.to_list (Array.map (fun v -> (Rat.of_int (1 + Random.State.int rng 4), Lp.var_index v)) vars))
        in
        match Lp.maximize lp obj with
        | Lp.Optimal s ->
            List.for_all (fun (e, rhs) -> Rat.(s.Lp.expr_value e <= rhs)) !cons
            && Array.for_all (fun v -> Rat.(s.Lp.value v >= Rat.zero)) vars
        | Lp.Unbounded -> true
        | Lp.Infeasible -> false);
  ]

(* ------------------------------------------------------------------ *)
(* The float warm start. On degenerate instances a warm and a cold
   solve may stop at different optimal vertices, so agreement is
   asserted on status and objective value, never on the solution
   vector. *)

module Oracle = Rtt_lp_oracle

let with_warmstart b f =
  let saved = !Simplex.warmstart_enabled in
  Simplex.warmstart_enabled := b;
  Fun.protect ~finally:(fun () -> Simplex.warmstart_enabled := saved) f

let outcome_key = function
  | Simplex.Optimal { objective; _ } -> "optimal " ^ Rat.to_string objective
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"

(* random standard-form instance mixing <=, >= and = rows so phase 1,
   infeasibility and unboundedness all occur with decent frequency *)
let random_instance seed =
  let rng = Random.State.make [| seed; 7177 |] in
  let nv = 1 + Random.State.int rng 4 in
  let rows = 1 + Random.State.int rng 5 in
  let rel () =
    match Random.State.int rng 4 with 0 -> Simplex.Ge | 1 -> Simplex.Eq | _ -> Simplex.Le
  in
  let constrs =
    List.init rows (fun _ ->
        {
          Oracle.coeffs = Array.init nv (fun _ -> Rat.of_int (Random.State.int rng 9 - 3));
          relation = rel ();
          rhs = Rat.of_int (Random.State.int rng 15 - 4);
        })
  in
  let objective = Array.init nv (fun _ -> Rat.of_int (Random.State.int rng 11 - 5)) in
  (nv, Oracle.sparse_of_dense constrs, objective)

(* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2,6) *)
let textbook () =
  let row coeffs relation rhs =
    { Oracle.coeffs = Array.map Rat.of_int coeffs; relation; rhs = Rat.of_int rhs }
  in
  let constrs =
    [ row [| 1; 0 |] Simplex.Le 4; row [| 0; 2 |] Simplex.Le 12; row [| 3; 2 |] Simplex.Le 18 ]
  in
  (2, Oracle.sparse_of_dense constrs, [| Rat.of_int 3; Rat.of_int 5 |])

let warmstart_units =
  [
    Alcotest.test_case "accepted warm start is counted and exact" `Quick (fun () ->
        let n_vars, rows, objective = textbook () in
        let acc0, rej0 = Simplex.warm_stats () in
        let out =
          with_warmstart true (fun () -> Simplex.maximize_sparse ~n_vars rows ~objective)
        in
        let acc1, rej1 = Simplex.warm_stats () in
        (match out with
        | Simplex.Optimal { objective; _ } ->
            Alcotest.(check string) "objective" "36" (Rat.to_string objective)
        | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check int) "accepted" (acc0 + 1) acc1;
        Alcotest.(check int) "rejected" rej0 rej1);
    Alcotest.test_case "injected rejection falls back to two-phase" `Quick (fun () ->
        let n_vars, rows, objective = textbook () in
        let acc0, rej0 = Simplex.warm_stats () in
        Rtt_budget.Budget.arm ~site:Simplex.warmstart_reject_site ~after:0;
        Fun.protect
          ~finally:(fun () -> Rtt_budget.Budget.disarm_all ())
          (fun () ->
            let out =
              with_warmstart true (fun () -> Simplex.maximize_sparse ~n_vars rows ~objective)
            in
            let acc1, rej1 = Simplex.warm_stats () in
            (match out with
            | Simplex.Optimal { objective; solution } ->
                Alcotest.(check string) "objective" "36" (Rat.to_string objective);
                Alcotest.(check string) "x" "2" (Rat.to_string solution.(0));
                Alcotest.(check string) "y" "6" (Rat.to_string solution.(1))
            | _ -> Alcotest.fail "expected optimal");
            Alcotest.(check int) "rejected" (rej0 + 1) rej1;
            Alcotest.(check int) "accepted" acc0 acc1;
            Alcotest.(check bool) "fault disarmed" false
              (Rtt_budget.Budget.armed ~site:Simplex.warmstart_reject_site)));
    Alcotest.test_case "disabled warm start counts in neither bucket" `Quick (fun () ->
        let n_vars, rows, objective = textbook () in
        let acc0, rej0 = Simplex.warm_stats () in
        let out =
          with_warmstart false (fun () -> Simplex.maximize_sparse ~n_vars rows ~objective)
        in
        let acc1, rej1 = Simplex.warm_stats () in
        (match out with
        | Simplex.Optimal { objective; _ } ->
            Alcotest.(check string) "objective" "36" (Rat.to_string objective)
        | _ -> Alcotest.fail "expected optimal");
        Alcotest.(check int) "accepted" acc0 acc1;
        Alcotest.(check int) "rejected" rej0 rej1);
    prop "float warm start never changes status or objective" 300 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        let cold = with_warmstart false (fun () -> Simplex.minimize_sparse ~n_vars rows ~objective) in
        let warm = with_warmstart true (fun () -> Simplex.minimize_sparse ~n_vars rows ~objective) in
        String.equal (outcome_key cold) (outcome_key warm));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: the production revised engine against the dense
   tableau oracle. The contract is stronger than "same answer": same
   status, same objective, same solution vector, same captured basis,
   same pivot sequence (via the trace log), same pivot count, same fuel,
   same warm-start counts. Everything is folded into one fingerprint
   string so a mismatch prints both sides. Both implementations are
   handed the same sparse rows. *)

module type LP = sig
  type basis

  val minimize_sparse :
    n_vars:int -> Simplex.sparse_constr list -> objective:Rat.t array -> Simplex.outcome

  val pivot_count : unit -> int
  val warm_stats : unit -> int * int
  val trace_pivots : bool ref
  val take_pivot_log : unit -> (int * int) list
  val last_basis : unit -> basis option
  val set_basis_hint : basis -> unit
  val clear_basis_hint : unit -> unit
  val basis_repr : basis -> string
end

let production = (module Simplex : LP)
let oracle = (module Oracle : LP)

let fingerprint_run (module L : LP) ~n_vars rows ~objective =
  L.trace_pivots := true;
  ignore (L.take_pivot_log ());
  let p0 = L.pivot_count () in
  let acc0, rej0 = L.warm_stats () in
  let out, fuel =
    Rtt_budget.Budget.with_fuel (Some 200_000) (fun () ->
        let out = L.minimize_sparse ~n_vars rows ~objective in
        (out, Rtt_budget.Budget.spent ()))
  in
  let log = L.take_pivot_log () in
  L.trace_pivots := false;
  let acc1, rej1 = L.warm_stats () in
  let buf = Buffer.create 256 in
  (match out with
  | Simplex.Optimal { objective; solution } ->
      Buffer.add_string buf ("optimal " ^ Rat.to_string objective ^ " [");
      Array.iter (fun v -> Buffer.add_string buf (Rat.to_string v ^ ";")) solution;
      Buffer.add_string buf "] basis=";
      Buffer.add_string buf
        (match L.last_basis () with Some b -> L.basis_repr b | None -> "none")
  | Simplex.Infeasible -> Buffer.add_string buf "infeasible"
  | Simplex.Unbounded -> Buffer.add_string buf "unbounded");
  Buffer.add_string buf
    (Printf.sprintf " pivots=%d fuel=%d warm=+%d/+%d log="
       (L.pivot_count () - p0) fuel (acc1 - acc0) (rej1 - rej0));
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "(%d,%d)" a b)) log;
  Buffer.contents buf

(* [run impl] fingerprints one scenario under one implementation *)
let check_engines_agree run =
  let d = run oracle in
  let s = run production in
  if not (String.equal d s) then
    Alcotest.fail (Printf.sprintf "engines diverge:\n--- dense\n%s\n--- sparse\n%s" d s);
  true

let with_eta_limit n f =
  let saved = !Rtt_lp.Basis_factor.eta_limit in
  Rtt_lp.Basis_factor.eta_limit := n;
  Fun.protect ~finally:(fun () -> Rtt_lp.Basis_factor.eta_limit := saved) f

(* same LP twice: first solve captures a basis, second consumes it as a
   hint. [perturb] optionally bumps one rhs so the hint is same-shaped
   but stale. *)
let hint_fingerprint ((module L : LP) as impl) ~n_vars rows ~objective ~perturb =
  let rows2 =
    if not perturb then rows
    else
      List.mapi
        (fun i c ->
          if i = 0 then { c with Simplex.sp_rhs = Rat.add c.Simplex.sp_rhs Rat.one } else c)
        rows
  in
  let first = fingerprint_run impl ~n_vars rows ~objective in
  (* [last_basis] is process-global and survives a non-optimal solve,
     so a capture left behind by an earlier run would leak in here:
     only hint when THIS first solve was optimal and therefore
     overwrote the capture itself. *)
  if not (String.length first >= 7 && String.equal (String.sub first 0 7) "optimal") then first
  else
    match L.last_basis () with
    | None -> first (* first solve was not optimal; nothing to hint with *)
    | Some b ->
        L.set_basis_hint b;
        Fun.protect ~finally:L.clear_basis_hint (fun () ->
            first ^ " || " ^ fingerprint_run impl ~n_vars rows2 ~objective)

(* the Section 3.1 makespan LP of a small random layered race DAG,
   binary or k-way splitting durations by seed parity *)
let makespan_lps seed =
  let rng = Random.State.make [| seed; 3131 |] in
  let layers = 2 + Random.State.int rng 3 and width = 1 + Random.State.int rng 3 in
  let g = Rtt_dag.Gen.layered rng ~layers ~width ~edge_prob:0.4 in
  let kind = if seed mod 2 = 0 then Rtt_core.Problem.Binary else Rtt_core.Problem.Kway in
  let tr = Rtt_core.Transform.of_problem (Rtt_core.Problem.of_race_dag g kind) in
  List.map (fun budget -> Rtt_core.Lp_relax.makespan_rows tr ~budget) [ 0; 2; 5 ]

(* Makespan LPs the size of the daemon benchmark's [solve] inputs:
   6 x 5 layered DAGs with general step durations (about 160-240 rows)
   or k-way durations (about 70-130). At this size the advisor's pivot
   rows are mostly zeros, and more than half the crash rows take the
   BTRAN fallback. *)
let step_duration rng =
  let base = 2 + Random.State.int rng 9 in
  let rec steps r t k acc =
    if k = 0 || t = 0 then List.rev acc
    else
      let r' = r + 1 + Random.State.int rng 3 in
      let t' = max 0 (t - 1 - Random.State.int rng 4) in
      if t' >= t then List.rev acc else steps r' t' (k - 1) ((r', t') :: acc)
  in
  Rtt_duration.Duration.make ((0, base) :: steps 0 base (Random.State.int rng 3) [])

let workload_makespan_lps seed =
  let rng = Random.State.make [| seed; 1904 |] in
  let g = Rtt_dag.Gen.layered rng ~layers:6 ~width:5 ~edge_prob:0.3 in
  let p =
    if seed mod 2 = 0 then Rtt_core.Problem.make g ~durations:(fun _ -> step_duration rng)
    else Rtt_core.Problem.of_race_dag g Rtt_core.Problem.Kway
  in
  let tr = Rtt_core.Transform.of_problem p in
  List.map (fun budget -> Rtt_core.Lp_relax.makespan_rows tr ~budget) [ 0; 6 ]

(* every LP, cold and float-warm *)
let makespan_lps_agree lps =
  List.for_all
    (fun (n_vars, rows, objective) ->
      List.for_all
        (fun warm ->
          with_warmstart warm (fun () ->
              check_engines_agree (fun impl -> fingerprint_run impl ~n_vars rows ~objective)))
        [ false; true ])
    lps

(* A standard-form system (rhs >= 0) whose entries include +-10^400,
   which [Rat.to_float] turns into +-infinity: a pivot whose multiplier
   is infinite must write the same NaNs as the full-row update. Returns
   the production advisor's input and the reference's dense rows. *)
let advisor_instance_with_infinity seed =
  let rng = Random.State.make [| seed; 4242 |] in
  let m = 1 + Random.State.int rng 5 and n_real = 1 + Random.State.int rng 5 in
  let huge = Rat.of_string ("1" ^ String.make 400 '0') in
  let entry () =
    match Random.State.int rng 10 with
    | 0 -> huge
    | 1 -> Rat.neg huge
    | _ -> Rat.of_int (Random.State.int rng 9 - 3)
  in
  let a = Array.init m (fun _ -> Array.init n_real (fun _ -> entry ())) in
  let rhs =
    Array.init m (fun _ ->
        if Random.State.int rng 8 = 0 then huge else Rat.of_int (Random.State.int rng 6))
  in
  let objective = Array.init n_real (fun _ -> float_of_int (Random.State.int rng 11 - 5)) in
  let cols =
    Array.init n_real (fun j ->
        Array.of_list
          (List.filter_map
             (fun i -> if Rat.is_zero a.(i).(j) then None else Some (i, a.(i).(j)))
             (List.init m Fun.id)))
  in
  let rows =
    Array.init m (fun i ->
        Array.init (n_real + 1) (fun j -> Rat.to_float (if j = n_real then rhs.(i) else a.(i).(j))))
  in
  (m, n_real, cols, rhs, objective, rows)

let differential_props =
  [
    prop "engines agree bit for bit: cold two-phase (Bland)" 400 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        with_warmstart false (fun () ->
            check_engines_agree (fun impl -> fingerprint_run impl ~n_vars rows ~objective)));
    prop "engines agree bit for bit: float warm start (Bland)" 400 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        with_warmstart true (fun () ->
            check_engines_agree (fun impl -> fingerprint_run impl ~n_vars rows ~objective)));
    prop "engines agree bit for bit: Section 3.1 makespan LP" 100 QCheck.(int_range 0 100_000)
      (fun seed -> makespan_lps_agree (makespan_lps seed));
    prop "engines agree bit for bit: workload-sized makespan LP" 10 QCheck.(int_range 0 100_000)
      (fun seed -> makespan_lps_agree (workload_makespan_lps seed));
    Alcotest.test_case "advisor matches the full-row reference on rows with infinities" `Quick
      (fun () ->
        for seed = 0 to 499 do
          let m, n_real, cols, rhs, objective, rows = advisor_instance_with_infinity seed in
          let sparse =
            Fsimplex.solve_cols ~m ~n_real ~col:(Array.get cols) ~rhs
              ~objective:(Array.get objective)
          in
          let full = Oracle.float_advice ~rows ~n_real ~objective in
          Alcotest.(check (option (array (pair int int))))
            (Printf.sprintf "seed %d" seed) full sparse
        done);
    prop "engines agree on the basis-hint path" 200 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        with_warmstart true (fun () ->
            check_engines_agree (fun impl ->
                hint_fingerprint impl ~n_vars rows ~objective ~perturb:false)));
    prop "engines agree on a stale (perturbed) basis hint" 200 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        with_warmstart true (fun () ->
            check_engines_agree (fun impl ->
                hint_fingerprint impl ~n_vars rows ~objective ~perturb:true)));
    prop "forced refactorization changes nothing" 200 QCheck.(int_range 0 100_000)
      (fun seed ->
        let n_vars, rows, objective = random_instance seed in
        let lazy_refac = fingerprint_run production ~n_vars rows ~objective in
        let eager =
          with_eta_limit 0 (fun () -> fingerprint_run production ~n_vars rows ~objective)
        in
        if not (String.equal lazy_refac eager) then
          Alcotest.fail
            (Printf.sprintf "refactorization changed the solve:\n--- lazy\n%s\n--- eager\n%s"
               lazy_refac eager);
        true);
  ]

let () =
  Alcotest.run "rtt_lp"
    [
      ("linexpr", linexpr_units);
      ("simplex", simplex_units);
      ("simplex-properties", simplex_props);
      ("warm-start", warmstart_units);
      ("differential", differential_props);
    ]
