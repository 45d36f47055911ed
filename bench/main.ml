(* Benchmark harness: regenerates every table and figure of the paper
   (experiments E1-E15 of DESIGN.md) and runs Bechamel micro-benchmarks
   over the main algorithmic components (P1-P6).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- E4 E8   -- run selected experiments
     dune exec bench/main.exe -- perf    -- only the perf benches

   Experiment sections print `paper:` (what the paper states) next to
   `measured:` (what this implementation produces); a final OK/SHAPE
   DIVERGES verdict per experiment makes regressions obvious. *)

open Rtt_dag
open Rtt_num
open Rtt_duration
open Rtt_core
open Rtt_engine
open Rtt_parsim
open Rtt_reductions

let failures = ref 0

(* Solves now go through the hardened engine, which threads a
   deterministic step counter through every rung; each experiment's
   verdict reports the fuel it burned so perf regressions show up as a
   diff in the transcript, not just as wall-clock noise. *)
let fuel = ref 0

(* --json: machine-readable per-section records, one JSON object per
   line (so CI can gate on a value with grep/sed, no JSON parser
   needed), written to BENCH_5.json alongside the human transcript. *)
let json_path = "BENCH_5.json"
let json_chan : out_channel option ref = ref None

type section_state = {
  sec_id : string;
  sec_title : string;
  started : float;
  pivots0 : int;
  warm_acc0 : int;
  warm_rej0 : int;
  factor0 : Rtt_lp.Simplex.factor_stats;
}

let current_section : section_state option ref = ref None

let begin_section id title =
  match !json_chan with
  | None -> ()
  | Some _ ->
      let warm_acc0, warm_rej0 = Rtt_lp.Simplex.warm_stats () in
      current_section :=
        Some
          {
            sec_id = id;
            sec_title = title;
            started = Unix.gettimeofday ();
            pivots0 = Rtt_lp.Simplex.pivot_count ();
            warm_acc0;
            warm_rej0;
            factor0 = Rtt_lp.Simplex.factor_stats ();
          }

let end_section id ok =
  match (!json_chan, !current_section) with
  | Some oc, Some s when s.sec_id = id ->
      let seconds = Unix.gettimeofday () -. s.started in
      let warm_acc, warm_rej = Rtt_lp.Simplex.warm_stats () in
      let f = Rtt_lp.Simplex.factor_stats () in
      let f0 = s.factor0 in
      let nnz = f.Rtt_lp.Simplex.nnz - f0.Rtt_lp.Simplex.nnz in
      let cells = f.Rtt_lp.Simplex.cells - f0.Rtt_lp.Simplex.cells in
      let quote = Jsonout.quote in
      (* The factorization counters are appended AFTER the original
         fields: scripts/bench_gate.sh extracts seconds/pivots with a
         sed whose pattern assumes the original prefix order. *)
      Printf.fprintf oc
        "{\"id\":%s,\"title\":%s,\"ok\":%b,\"seconds\":%.6f,\"fuel\":%d,\"pivots\":%d,\"warm_accepted\":%d,\"warm_rejected\":%d,\"refactors\":%d,\"etas\":%d,\"nnz\":%d,\"cells\":%d,\"density\":%.4f}\n"
        (quote id) (quote s.sec_title) ok seconds !fuel
        (Rtt_lp.Simplex.pivot_count () - s.pivots0)
        (warm_acc - s.warm_acc0) (warm_rej - s.warm_rej0)
        (f.Rtt_lp.Simplex.refactorizations - f0.Rtt_lp.Simplex.refactorizations)
        (f.Rtt_lp.Simplex.etas - f0.Rtt_lp.Simplex.etas)
        nnz cells
        (if cells = 0 then 0.0 else float_of_int nnz /. float_of_int cells);
      current_section := None
  | _ -> ()

let engine_run ?alpha p ~budget rung =
  match Engine.solve ?alpha ~policy:[ rung ] p ~budget with
  | Ok s ->
      fuel := !fuel + s.Engine.fuel_spent;
      s
  | Error e -> failwith (Printf.sprintf "engine (%s): %s" (Policy.rung_name rung) (Error.to_string e))

let engine_exact p ~budget = engine_run p ~budget Policy.Exact

let section id title =
  fuel := 0;
  begin_section id title;
  Format.printf "@.== %s: %s ==@." id title

let verdict id ok =
  if not ok then incr failures;
  Format.printf "[%s] %s (engine fuel_spent: %d)@." (if ok then "OK" else "SHAPE DIVERGES") id !fuel;
  end_section id ok

let rng_of seed = Random.State.make [| seed |]

(* random instance with general non-increasing step durations *)
let random_step_instance rng ~n =
  let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
  Problem.make g ~durations:(fun _ ->
      let base = 2 + Random.State.int rng 9 in
      let rec steps r t k acc =
        if k = 0 || t = 0 then List.rev acc
        else begin
          let r' = r + 1 + Random.State.int rng 3 in
          let t' = max 0 (t - 1 - Random.State.int rng 4) in
          if t' >= t then List.rev acc else steps r' t' (k - 1) ((r', t') :: acc)
        end
      in
      Duration.make ((0, base) :: steps 0 base (Random.State.int rng 3) []))

(* ------------------------------------------------------------------ *)
(* E1: Table 1 row 1 - (1/alpha, 1/(1-alpha)) bi-criteria             *)

let e1 () =
  section "E1" "Table 1 / general non-increasing: (1/a, 1/(1-a)) bi-criteria (Thm 3.4)";
  Format.printf "paper: makespan <= (1/a) OPT and resources <= 1/(1-a) x budget, for any 0 < a < 1@.";
  Format.printf "workload: 30 random DAG instances per alpha, n in [4,8], random step durations@.";
  let ok = ref true in
  Format.printf "%8s | %15s | %15s | %15s | %15s@." "alpha" "makespan bound" "worst measured"
    "resource bound" "worst measured";
  List.iter
    (fun (alpha, label) ->
      let worst_ms = ref Rat.zero and worst_rs = ref Rat.zero in
      for seed = 1 to 30 do
        let rng = rng_of (seed * 7919) in
        let n = 4 + Random.State.int rng 5 in
        let p = random_step_instance rng ~n in
        let budget = 1 + Random.State.int rng 6 in
        let s = engine_run ~alpha p ~budget Policy.Bicriteria in
        (* measured inflation ratios vs the LP lower bounds, read off the
           engine's validated certificate *)
        (match s.Engine.lp_makespan with
        | Some lp_ms when Rat.sign lp_ms > 0 ->
            worst_ms := Rat.max !worst_ms (Rat.div (Rat.of_int s.Engine.makespan) lp_ms)
        | Some _ -> ()
        | None -> ok := false);
        (match s.Engine.lp_budget with
        | Some lp_b when Rat.sign lp_b > 0 ->
            worst_rs := Rat.max !worst_rs (Rat.div (Rat.of_int s.Engine.budget_used) lp_b)
        | Some _ -> ()
        | None -> ok := false)
      done;
      Format.printf "%8s | %15s | %15.3f | %15s | %15.3f@." label
        (Rat.to_string (Rat.inv alpha))
        (Rat.to_float !worst_ms)
        (Rat.to_string (Rat.inv (Rat.sub Rat.one alpha)))
        (Rat.to_float !worst_rs);
      if Rat.(!worst_ms > Rat.inv alpha) then ok := false;
      if Rat.(!worst_rs > Rat.inv (Rat.sub Rat.one alpha)) then ok := false)
    [ (Rat.of_ints 1 4, "1/4"); (Rat.half, "1/2"); (Rat.of_ints 3 4, "3/4") ];
  verdict "E1" !ok

(* hub-heavy race DAG: chains feeding high-in-degree hubs, where the
   space-time tradeoff actually matters (random sparse DAGs have tiny
   in-degrees and reducers buy nothing) *)
let hub_instance rng ~hubs ~fan =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let prev = ref s in
  for _ = 1 to hubs do
    let hub = Dag.add_vertex g in
    let feeders = List.init (fan + Random.State.int rng fan) (fun _ -> Dag.add_vertex g) in
    List.iter
      (fun f ->
        Dag.add_edge g !prev f;
        Dag.add_edge g f hub)
      feeders;
    prev := hub
  done;
  let t = Dag.add_vertex ~label:"t" g in
  Dag.add_edge g !prev t;
  g

(* ------------------------------------------------------------------ *)
(* E2: Table 1 row 2 - binary splitting: 4-approx and (4/3, 14/5)     *)

let e2 () =
  section "E2" "Table 1 / recursive binary: 4-approx (Thm 3.10) and (4/3,14/5) bi-criteria (Thm 3.16)";
  Format.printf "paper: makespan <= 4 OPT within budget; or <= (14/5) OPT using <= (4/3) resources@.";
  Format.printf "workload: 40 race DAGs (sparse random + hub-heavy), binary-split durations, OPT by brute force@.";
  let worst4 = ref 0.0 and worst_bb_ms = ref 0.0 and worst_bb_rs = ref 0.0 in
  let ok = ref true in
  for seed = 1 to 40 do
    let rng = rng_of (seed * 104729) in
    let g =
      if seed mod 2 = 0 then Gen.erdos_renyi rng ~n:(4 + Random.State.int rng 4) ~edge_prob:0.4
      else hub_instance rng ~hubs:(1 + Random.State.int rng 2) ~fan:(6 + Random.State.int rng 6)
    in
    let p = Problem.of_race_dag g Problem.Binary in
    let budget = 1 + Random.State.int rng 8 in
    let opt = engine_exact p ~budget in
    let a4 = Binary_approx.min_makespan p ~budget in
    if a4.Binary_approx.budget_used > budget then ok := false;
    if opt.Engine.makespan > 0 then
      worst4 := max !worst4 (float_of_int a4.Binary_approx.makespan /. float_of_int opt.Engine.makespan);
    if a4.Binary_approx.makespan > 4 * opt.Engine.makespan then ok := false;
    let bb = Binary_bicriteria.min_makespan p ~budget in
    if not (Binary_bicriteria.satisfies_guarantees bb) then ok := false;
    if opt.Engine.makespan > 0 then
      worst_bb_ms :=
        max !worst_bb_ms (float_of_int bb.Binary_bicriteria.makespan /. float_of_int opt.Engine.makespan);
    if budget > 0 then
      worst_bb_rs :=
        max !worst_bb_rs (float_of_int bb.Binary_bicriteria.budget_used /. float_of_int budget)
  done;
  Format.printf "measured: worst makespan/OPT of 4-approx      = %.3f (bound 4)@." !worst4;
  Format.printf "measured: worst makespan/OPT of (4/3,14/5)    = %.3f (bound 2.8)@." !worst_bb_ms;
  Format.printf "measured: worst resources/B  of (4/3,14/5)    = %.3f (bound 1.333)@." !worst_bb_rs;
  verdict "E2" (!ok && !worst4 <= 4.0 && !worst_bb_rs <= (4.0 /. 3.0) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* E3: Table 1 row 3 - k-way splitting: 5-approx                      *)

let e3 () =
  section "E3" "Table 1 / k-way splitting: 5-approximation (Thm 3.9)";
  Format.printf "paper: makespan <= 5 OPT with resources within budget@.";
  Format.printf "workload: 40 race DAGs (sparse random + hub-heavy), k-way durations, OPT by brute force@.";
  let worst = ref 0.0 and ok = ref true in
  for seed = 1 to 40 do
    let rng = rng_of (seed * 65537) in
    let g =
      if seed mod 2 = 0 then Gen.erdos_renyi rng ~n:(4 + Random.State.int rng 4) ~edge_prob:0.4
      else hub_instance rng ~hubs:(1 + Random.State.int rng 2) ~fan:(6 + Random.State.int rng 6)
    in
    let p = Problem.of_race_dag g Problem.Kway in
    let budget = 1 + Random.State.int rng 8 in
    let opt = engine_exact p ~budget in
    let a = Kway_approx.min_makespan p ~budget in
    if a.Kway_approx.budget_used > budget then ok := false;
    if opt.Engine.makespan > 0 then
      worst := max !worst (float_of_int a.Kway_approx.makespan /. float_of_int opt.Engine.makespan);
    if a.Kway_approx.makespan > 5 * opt.Engine.makespan then ok := false
  done;
  Format.printf "measured: worst makespan/OPT = %.3f (bound 5)@." !worst;
  verdict "E3" (!ok && !worst <= 5.0)

(* ------------------------------------------------------------------ *)
(* E4: Table 2 - clause gadget line times (Section 4.1)               *)

let e4 () =
  section "E4" "Table 2: times at C5/C6/C7 for all truth assignments (Section 4.1 gadget)";
  Format.printf "paper: the satisfied pattern line sits at 0, every other line at 1;@.";
  Format.printf "       exactly-one-true rows are the only rows with a 0 entry@.";
  let f = Sat.make ~n_vars:3 [ [ (0, true); (1, true); (2, true) ] ] in
  let red = Gadget_general.reduce f in
  let inst = red.Gadget_general.instance in
  let ok = ref true in
  Format.printf "%6s | %4s %4s %4s | paper (C5 C6 C7)@." "ViVjVk" "C5" "C6" "C7";
  for mask = 0 to 7 do
    let a = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    let alloc = Gadget_general.allocation_of_assignment red a in
    let finish = Schedule.finish_times inst.Aoa.problem alloc in
    let c5, c6, c7 = red.Gadget_general.clause_line_nodes.(0) in
    let tv n = finish.(inst.Aoa.node_vertex.(n)) in
    (* paper's Table 2 entry: 0 iff the line's pattern matches *)
    let v i = a.(i) in
    let paper =
      [
        (if (not (v 0)) && (not (v 1)) && v 2 then 0 else 1);
        (if (not (v 0)) && v 1 && not (v 2) then 0 else 1);
        (if v 0 && (not (v 1)) && not (v 2) then 0 else 1);
      ]
    in
    let got = [ tv c5; tv c6; tv c7 ] in
    if got <> paper then ok := false;
    Format.printf "%c%c%c    | %4d %4d %4d | %d %d %d@."
      (if a.(0) then 'T' else 'F')
      (if a.(1) then 'T' else 'F')
      (if a.(2) then 'T' else 'F')
      (List.nth got 0) (List.nth got 1) (List.nth got 2) (List.nth paper 0) (List.nth paper 1)
      (List.nth paper 2)
  done;
  verdict "E4" !ok

(* ------------------------------------------------------------------ *)
(* E5: Table 3 - splitting clause gadget finish times (Section 4.2)   *)

let e5 () =
  section "E5" "Table 3: earliest finish at C5/C6/C7 with a = 6x+4, b = 5x+6 (Section 4.2 gadget)";
  let f = Sat.make ~n_vars:3 [ [ (0, true); (1, true); (2, true) ] ] in
  let red = Gadget_split.reduce f in
  let x = red.Gadget_split.x in
  let a_const = (6 * x) + 4 and b_const = (5 * x) + 6 in
  Format.printf "paper: x = %d, a = 6x+4 = %d, b = 5x+6 = %d@." x a_const b_const;
  let expect = function
    | true, true, true -> (a_const + 1, a_const + 1, a_const + 1)
    | false, true, true -> (a_const, a_const, a_const + 2)
    | true, false, true -> (a_const, a_const + 2, a_const)
    | true, true, false -> (a_const + 2, a_const, a_const)
    | false, false, true -> (b_const + 2, a_const + 1, a_const + 1)
    | false, true, false -> (a_const + 1, b_const + 2, a_const + 1)
    | true, false, false -> (a_const + 1, a_const + 1, b_const + 2)
    | false, false, false -> (a_const, a_const, a_const)
  in
  let ok = ref true in
  Format.printf "%6s | %16s | %16s@." "ViVjVk" "measured" "Table 3";
  for mask = 0 to 7 do
    let assignment = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    let g5, g6, g7 = Gadget_split.line_finish_times red ~clause:0 assignment in
    let w5, w6, w7 = expect (assignment.(0), assignment.(1), assignment.(2)) in
    if (g5, g6, g7) <> (w5, w6, w7) then ok := false;
    Format.printf "%c%c%c    | %4d %4d %4d | %4d %4d %4d@."
      (if assignment.(0) then 'T' else 'F')
      (if assignment.(1) then 'T' else 'F')
      (if assignment.(2) then 'T' else 'F')
      g5 g6 g7 w5 w6 w7
  done;
  verdict "E5" !ok

(* ------------------------------------------------------------------ *)
(* E6: Figure 2 - binary reducer timing                               *)

let e6 () =
  section "E6" "Figure 2: recursive binary reducer, n updates with height h";
  Format.printf "paper: a reducer of height h applies n parallel updates in ceil(n/2^h) + h + 1 time@.";
  let ok = ref true in
  Format.printf "%6s | %3s | %10s | %10s@." "n" "h" "simulated" "formula";
  List.iter
    (fun n ->
      List.iter
        (fun h ->
          let arrivals = List.init n (fun _ -> 0) in
          let sim = Reducer_sim.finish_time ~arrivals (Reducer_sim.Binary { height = h }) in
          let formula = ((n + (1 lsl h) - 1) / (1 lsl h)) + h + 1 in
          if sim <> formula then ok := false;
          Format.printf "%6d | %3d | %10d | %10d@." n h sim formula)
        [ 1; 2; 3; 4 ])
    [ 64; 256; 1024 ];
  verdict "E6" !ok

(* ------------------------------------------------------------------ *)
(* E7: Figure 3 - Parallel-MM space-time tradeoff                     *)

let e7 () =
  section "E7" "Figure 3 / Section 1: Parallel-MM with reducers of height h";
  Format.printf "paper: running time Theta(n/2^h + h) with n^2 2^h extra space;@.";
  Format.printf "       h=1 almost halves the time, h=log2 n reaches Theta(log n)@.";
  let ok = ref true in
  List.iter
    (fun n ->
      let serial = Matmul.serial_span ~n in
      let h1 = Matmul.span ~n ~height:1 in
      let logn = int_of_float (Float.log2 (float_of_int n)) in
      let hfull = Matmul.span ~n ~height:logn in
      Format.printf "n=%4d: serial %4d | h=1 -> %4d (space %8d) | h=log n -> %3d (space %10d)@." n
        serial h1
        (Matmul.extra_space ~n ~height:1)
        hfull
        (Matmul.extra_space ~n ~height:logn);
      if h1 > (n / 2) + 2 then ok := false;
      if hfull > (2 * logn) + 2 then ok := false)
    [ 16; 32; 64; 256 ];
  verdict "E7" !ok

(* ------------------------------------------------------------------ *)
(* E8: Figures 4-5 - the makespan 11 -> 10 example                    *)

let fig45 () =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let a = Dag.add_vertex ~label:"a" g in
  let b = Dag.add_vertex ~label:"b" g in
  let c = Dag.add_vertex ~label:"c" g in
  let d = Dag.add_vertex ~label:"d" g in
  let t = Dag.add_vertex ~label:"t" g in
  let xs = List.init 5 (fun i -> Dag.add_vertex ~label:(Printf.sprintf "x%d" i) g) in
  Dag.add_edge g s a;
  Dag.add_edge g a b;
  Dag.add_edge g b c;
  List.iter
    (fun x ->
      Dag.add_edge g s x;
      Dag.add_edge g x c)
    xs;
  Dag.add_edge g c d;
  Dag.add_edge g (List.hd xs) d;
  Dag.add_edge g d t;
  g

let e8 () =
  section "E8" "Figures 4-5: work = in-degree, a height-1 reducer at c drops 11 to 10";
  Format.printf "paper: makespan 11 via s->a->b->c->d->t; with a 2-unit reducer at c it becomes 10@.";
  let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
  let ms0, path = Schedule.critical_path p (Schedule.zero_allocation p) in
  let name v = Option.value ~default:(string_of_int v) (Dag.label p.Problem.dag v) in
  Format.printf "measured: makespan %d along %s@." ms0 (String.concat "->" (List.map name path));
  let r = engine_exact p ~budget:2 in
  Format.printf "measured: with budget 2 the optimum is %d (allocation at %s)@." r.Engine.makespan
    (String.concat ","
       (List.filter_map
          (fun v -> if r.Engine.allocation.(v) > 0 then Some (name v) else None)
          (Dag.vertices p.Problem.dag)));
  verdict "E8" (ms0 = 11 && r.Engine.makespan = 10)

(* ------------------------------------------------------------------ *)
(* E9: Figures 8-9 - general-duration SAT reduction                   *)

let e9 () =
  section "E9" "Figures 8-9 / Lemma 4.2: 1-in-3SAT reduction with general durations";
  Format.printf "paper: makespan 1 with budget n+2m iff 1-in-3 satisfiable; else >= 2 (Thm 4.3)@.";
  let f = Sat.example_paper in
  let red = Gadget_general.reduce f in
  Format.printf "formula (Fig. 9): %a, budget %d@." Sat.pp f red.Gadget_general.budget;
  let yes = Gadget_general.decide_by_assignments red <> None in
  Format.printf "measured: reduction says %s, SAT oracle says %b@."
    (if yes then "YES" else "NO")
    (Sat.solve f <> None);
  let agree = ref (yes = (Sat.solve f <> None)) in
  let rng = rng_of 4242 in
  let total = 25 in
  let matches = ref 0 in
  for _ = 1 to total do
    let fr = Sat.random rng ~n_vars:3 ~n_clauses:(1 + Random.State.int rng 3) in
    let rr = Gadget_general.reduce fr in
    let want = Sat.solve fr <> None in
    let got = Gadget_general.decide_by_assignments rr <> None in
    if want = got then incr matches else agree := false
  done;
  Format.printf "measured: %d/%d random formulas decided identically to the SAT oracle@." !matches total;
  verdict "E9" !agree

(* ------------------------------------------------------------------ *)
(* E10: Figures 12-14 - splitting-function SAT reduction              *)

let e10 () =
  section "E10" "Figures 12-14 / Lemma 4.5: reduction with binary/k-way splitting durations";
  let f = Sat.example_paper in
  let red = Gadget_split.reduce f in
  Format.printf
    "paper: makespan 7x+2y+12 (= %d) with budget 2n+4m (= %d) iff satisfiable; x=%d, y=%d@."
    red.Gadget_split.paper_target red.Gadget_split.budget red.Gadget_split.x red.Gadget_split.y;
  Format.printf "measured: exact simulated target %d (uneven combining tree accounts for %d)@."
    red.Gadget_split.target
    (red.Gadget_split.paper_target - red.Gadget_split.target);
  let sat_a = [| false; false; false |] in
  let ms = Gadget_split.makespan_of_assignment red sat_a in
  let bu = Gadget_split.budget_of_assignment red sat_a in
  Format.printf "measured: satisfying assignment -> makespan %d, min-flow %d@." ms bu;
  let bad = [| true; true; true |] in
  let ms_bad = Gadget_split.makespan_of_assignment red bad in
  Format.printf "measured: violating assignment -> makespan %d (> target)@." ms_bad;
  verdict "E10"
    (ms = red.Gadget_split.target
    && bu <= red.Gadget_split.budget
    && ms_bad > red.Gadget_split.target
    && abs (red.Gadget_split.paper_target - red.Gadget_split.target) <= 1)

(* ------------------------------------------------------------------ *)
(* E11: Figures 15-16 - Partition on bounded treewidth                *)

let e11 () =
  section "E11" "Figures 15-16 / Theorem 4.6: Partition reduction, treewidth <= 15";
  Format.printf "paper: makespan B/2 with budget B iff the items partition; decomposition width 15@.";
  let items = [| 3; 1; 1; 2; 2; 1 |] in
  let red = Partition_red.reduce items in
  let td = Partition_red.tree_decomposition red in
  Format.printf "items [3;1;1;2;2;1]: budget %d, target %d, decomposition width %d (valid %b)@."
    red.Partition_red.budget red.Partition_red.target (Treewidth.width td)
    (Treewidth.is_valid red.Partition_red.instance.Problem.dag td);
  let heur = Treewidth.min_degree_heuristic red.Partition_red.instance.Problem.dag in
  Format.printf "measured: independent min-degree heuristic finds width %d (valid %b)@."
    (Treewidth.width heur)
    (Treewidth.is_valid red.Partition_red.instance.Problem.dag heur);
  let rng = rng_of 99 in
  let total = 25 and matches = ref 0 in
  for _ = 1 to total do
    let n = 3 + Random.State.int rng 3 in
    let its = Array.init n (fun _ -> 1 + Random.State.int rng 6) in
    let r = Partition_red.reduce its in
    if Partition_red.partition_exists its = (Partition_red.decide_by_subsets r <> None) then
      incr matches
  done;
  Format.printf "measured: %d/%d random Partition instances decided identically to the oracle@." !matches
    total;
  verdict "E11"
    (!matches = total
    && Treewidth.width td <= 15
    && Treewidth.is_valid red.Partition_red.instance.Problem.dag td)

(* ------------------------------------------------------------------ *)
(* E12: Figures 17-18 - numerical 3D matching                         *)

let e12 () =
  section "E12" "Figures 17-18 / Lemma A.1: numerical 3-D matching reduction";
  Format.printf "paper: makespan 2M+T with budget n^2 iff a perfect matching exists@.";
  let a = [| 1; 2 |] and b = [| 2; 3 |] and c = [| 4; 2 |] in
  let red = N3dm_red.reduce ~a ~b ~c in
  Format.printf "A=[1;2] B=[2;3] C=[4;2]: T=%d, M=%d, target=%d, budget=%d@." (N3dm_red.triple_sum red)
    (N3dm_red.big red) (N3dm_red.target red) (N3dm_red.budget red);
  let first_ok =
    match N3dm_red.decide_by_matchings red with
    | Some (p, q) ->
        let ms = N3dm_red.makespan_of_matching red ~p ~q in
        Format.printf "measured: matching found, makespan %d@." ms;
        ms = N3dm_red.target red
    | None ->
        Format.printf "measured: no matching (unexpected)@.";
        false
  in
  let rng = rng_of 555 in
  let total = 10 and matches = ref 0 and tried = ref 0 in
  while !tried < total do
    let n = 2 + Random.State.int rng 2 in
    let mk () = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
    let a = mk () and b = mk () and c = mk () in
    let tot = Array.fold_left ( + ) 0 (Array.concat [ a; b; c ]) in
    if tot mod n = 0 then begin
      incr tried;
      let r = N3dm_red.reduce ~a ~b ~c in
      if (N3dm_red.n3dm_exists ~a ~b ~c <> None) = (N3dm_red.decide_by_matchings r <> None) then
        incr matches
    end
  done;
  Format.printf "measured: %d/%d random N3DM instances decided identically to the oracle@." !matches
    total;
  verdict "E12" (first_ok && !matches = total)

(* ------------------------------------------------------------------ *)
(* E13: Section 3.4 - series-parallel DP                              *)

let e13 () =
  section "E13" "Section 3.4: exact series-parallel DP, correctness and O(m B^2) scaling";
  Format.printf "paper: pseudo-polynomial exact algorithm, O(m B^2) time@.";
  let rng = rng_of 31337 in
  let total = 20 and matches = ref 0 in
  for _ = 1 to total do
    let leaves = 2 + Random.State.int rng 5 in
    let tree =
      Sp.map
        (fun _ -> Binary_split.to_duration ~work:(2 + Random.State.int rng 15))
        (Gen.random_sp rng ~leaves ~series_bias:0.5)
    in
    let budget = Random.State.int rng 7 in
    let ms, _ = Sp_exact.min_makespan tree ~budget in
    let g, jobs = Sp.to_dag tree in
    let p = Problem.make g ~durations:(fun v -> jobs.(v)) in
    if ms = (engine_exact p ~budget).Engine.makespan then incr matches
  done;
  Format.printf "measured: DP = brute-force optimum on %d/%d random SP instances@." !matches total;
  (* timing scaling in B at fixed m *)
  let tree =
    Sp.map
      (fun _ -> Binary_split.to_duration ~work:(5 + Random.State.int rng 40))
      (Gen.random_sp rng ~leaves:60 ~series_bias:0.5)
  in
  let time_for budget =
    let t0 = Sys.time () in
    ignore (Sp_exact.makespan_table tree ~budget);
    Sys.time () -. t0
  in
  ignore (time_for 50);
  let t100 = time_for 100 and t200 = time_for 200 and t400 = time_for 400 in
  Format.printf "measured: m=60 leaves, time B=100: %.4fs, B=200: %.4fs, B=400: %.4fs@." t100 t200 t400;
  let r1 = t200 /. max 1e-9 t100 and r2 = t400 /. max 1e-9 t200 in
  Format.printf "measured: doubling B scales time by %.2fx then %.2fx (theory: ~4x)@." r1 r2;
  (* scaling in m at fixed B *)
  let time_m leaves =
    let tree =
      Sp.map
        (fun _ -> Binary_split.to_duration ~work:(5 + Random.State.int rng 40))
        (Gen.random_sp rng ~leaves ~series_bias:0.5)
    in
    let t0 = Sys.time () in
    ignore (Sp_exact.makespan_table tree ~budget:150);
    Sys.time () -. t0
  in
  ignore (time_m 20);
  let m40 = time_m 40 and m80 = time_m 80 and m160 = time_m 160 in
  let rm = m160 /. max 1e-9 m80 in
  Format.printf "measured: B=150, time m=40: %.4fs, m=80: %.4fs, m=160: %.4fs (doubling m scales by %.2fx, theory ~2x)@."
    m40 m80 m160 rm;
  verdict "E13" (!matches = total && r2 > 1.5 && r2 < 16.0 && rm > 1.2 && rm < 8.0)

(* ------------------------------------------------------------------ *)
(* E14: alpha sweep of the rounding machinery                         *)

let e14 () =
  section "E14" "Section 3.1 rounding: alpha sweep on one instance";
  Format.printf "paper: rounding trades duration inflation (1/a) against resource inflation (1/(1-a))@.";
  let rng = rng_of 2024 in
  let p = random_step_instance rng ~n:8 in
  let budget = 4 in
  let tr = Transform.of_problem p in
  let lp = Lp_relax.min_makespan tr ~budget in
  Format.printf "instance: %d jobs, budget %d, LP makespan %s, LP budget %s@." (Problem.n_jobs p) budget
    (Rat.to_string lp.Lp_relax.makespan)
    (Rat.to_string lp.Lp_relax.budget_used);
  Format.printf "%8s | %16s | %16s@." "alpha" "rounded makespan" "resources used";
  let ok = ref true in
  List.iter
    (fun (num, den) ->
      let alpha = Rat.of_ints num den in
      let r = Rounding.round tr ~alpha lp in
      Format.printf "%5d/%-2d | %16d | %16d@." num den r.Rounding.makespan r.Rounding.budget_used;
      if Rat.(Rat.of_int r.Rounding.makespan > Rat.div lp.Lp_relax.makespan alpha) then ok := false;
      if
        Rat.(
          Rat.of_int r.Rounding.budget_used > Rat.div lp.Lp_relax.budget_used (Rat.sub Rat.one alpha))
      then ok := false)
    [ (1, 10); (1, 4); (1, 2); (3, 4); (9, 10) ];
  verdict "E14" !ok

(* ------------------------------------------------------------------ *)
(* E15: Figures 10-11 - minimum-resource inapproximability            *)

let e15 () =
  section "E15" "Figures 10-11 / Theorem 4.4: minimum-resource 2 vs 3 gap";
  Format.printf "paper: 2 units suffice iff satisfiable, else 3 are needed => no < 3/2 approximation@.";
  let f = Sat.example_paper in
  let red = Minresource_red.reduce f in
  Format.printf "satisfiable formula: min units measured %d (target makespan %d)@."
    (Minresource_red.min_units red) red.Minresource_red.target;
  let unsat = Sat.make ~n_vars:3 [ [ (0, true); (0, true); (0, true) ] ] in
  let red2 = Minresource_red.reduce unsat in
  Format.printf "unsatisfiable formula: min units measured %d@." (Minresource_red.min_units red2);
  let rng = rng_of 808 in
  let total = 20 and matches = ref 0 in
  for _ = 1 to total do
    let fr =
      Sat.random rng ~n_vars:(3 + Random.State.int rng 2) ~n_clauses:(1 + Random.State.int rng 3)
    in
    let rr = Minresource_red.reduce fr in
    let want = if Sat.solve fr <> None then 2 else 3 in
    if Minresource_red.min_units rr = want then incr matches
  done;
  Format.printf "measured: %d/%d random formulas give the expected 2-vs-3 answer@." !matches total;
  verdict "E15"
    (Minresource_red.min_units red = 2 && Minresource_red.min_units red2 = 3 && !matches = total)

(* ------------------------------------------------------------------ *)
(* E16: large-DAG LP relaxation - revised engine vs dense oracle      *)

let e16 () =
  section "E16" "Large layered DAG: revised simplex vs dense tableau on the makespan LP";
  Format.printf
    "claim: the LP relaxation's constraint matrix is sparse (a few nonzeros per row), so the@.";
  Format.printf
    "       revised engine's eta-file factorization beats the dense tableau by >= 3x wall time@.";
  Format.printf "       while producing bit-identical answers (same Bland pivots, exact rationals).@.";
  let g = Gen.layered (rng_of 1616) ~layers:16 ~width:9 ~edge_prob:0.35 in
  let p = Problem.of_race_dag g Problem.Binary in
  let tr = Transform.of_problem p in
  let vars, constrs = Lp_relax.dimensions tr in
  Format.printf "instance: %d jobs -> LP with %d variables, %d constraints@." (Problem.n_jobs p)
    vars constrs;
  let budgets = [ 2; 5; 9 ] in
  let lps = List.map (fun b -> Lp_relax.makespan_rows tr ~budget:b) budgets in
  (* pure engine comparison: the float warm-start advisor would hand
     both engines the same crash basis, which only masks the tableau
     work we are measuring *)
  let warm0 = !Rtt_lp.Simplex.warmstart_enabled in
  Rtt_lp.Simplex.warmstart_enabled := false;
  let run minimize pivot_count =
    let p0 = pivot_count () in
    let t0 = Unix.gettimeofday () in
    let outs = List.map (fun (n_vars, rows, objective) -> minimize ~n_vars rows ~objective) lps in
    let dt = Unix.gettimeofday () -. t0 in
    (outs, dt, pivot_count () - p0)
  in
  let sparse_outs, sparse_t, sparse_pivots =
    run Rtt_lp.Simplex.minimize_sparse Rtt_lp.Simplex.pivot_count
  in
  let dense_outs, dense_t, dense_pivots =
    run Rtt_lp_oracle.minimize_sparse Rtt_lp_oracle.pivot_count
  in
  Rtt_lp.Simplex.warmstart_enabled := warm0;
  let same =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | ( Rtt_lp.Simplex.Optimal { objective = oa; solution = sa },
            Rtt_lp.Simplex.Optimal { objective = ob; solution = sb } ) ->
            Rat.equal oa ob && Array.for_all2 Rat.equal sa sb
        | _ -> false)
      sparse_outs dense_outs
  in
  let ratio = dense_t /. max 1e-9 sparse_t in
  List.iter2
    (fun b out ->
      match out with
      | Rtt_lp.Simplex.Optimal { objective; _ } ->
          Format.printf "budget %d: LP makespan %s@." b (Rat.to_string objective)
      | _ -> Format.printf "budget %d: LP not optimal@." b)
    budgets sparse_outs;
  Format.printf
    "measured: sparse %.3fs (%d pivots) vs dense %.3fs (%d pivots) -> %.1fx; answers identical: %b@."
    sparse_t sparse_pivots dense_t dense_pivots ratio same;
  verdict "E16" (same && sparse_pivots = dense_pivots && ratio >= 3.0)

(* ------------------------------------------------------------------ *)
(* A1: ablation - the three reuse regimes of Questions 1.1-1.3        *)

let a1 () =
  section "A1" "Ablation: reuse regimes (none / over paths / global) for the same allocations";
  Format.printf
    "paper: Question 1.3 (path reuse) is the contribution; Questions 1.1 (none) and 1.2 (global)@.";
  Format.printf
    "       frame it. Budgets must satisfy global <= paths <= none; the gaps show what path@.";
  Format.printf "       reuse recovers without a central memory manager.@.";
  let ok = ref true in
  Format.printf "%10s | %8s | %8s | %8s | %8s@." "instance" "alloc" "none" "paths" "global";
  List.iter
    (fun (label, g) ->
      let p = Problem.of_race_dag g Problem.Binary in
      let alloc =
        Array.map (fun d -> min 4 (Duration.max_useful_resource d)) p.Problem.durations
      in
      let b = Reuse.budgets p alloc in
      if not (b.Reuse.global <= b.Reuse.over_paths && b.Reuse.over_paths <= b.Reuse.none) then
        ok := false;
      Format.printf "%10s | %8d | %8d | %8d | %8d@." label (Array.fold_left ( + ) 0 alloc)
        b.Reuse.none b.Reuse.over_paths b.Reuse.global)
    [
      ("chain-hubs", hub_instance (rng_of 71) ~hubs:4 ~fan:6);
      ("wide-hubs", hub_instance (rng_of 72) ~hubs:2 ~fan:12);
      ("dense-er", Gen.erdos_renyi (rng_of 73) ~n:24 ~edge_prob:0.5);
      ("layered", Gen.layered (rng_of 74) ~layers:5 ~width:8 ~edge_prob:0.8);
    ];
  (* random sweep *)
  let violations = ref 0 in
  for seed = 1 to 50 do
    let rng = rng_of (seed + 4000) in
    let g = Gen.erdos_renyi rng ~n:(6 + Random.State.int rng 10) ~edge_prob:0.3 in
    let p = Problem.of_race_dag g Problem.Binary in
    let alloc =
      Array.map
        (fun d ->
          let m = Duration.max_useful_resource d in
          if m = 0 then 0 else Random.State.int rng (m + 1))
        p.Problem.durations
    in
    let b = Reuse.budgets p alloc in
    if not (b.Reuse.global <= b.Reuse.over_paths && b.Reuse.over_paths <= b.Reuse.none) then
      incr violations
  done;
  Format.printf "measured: ordering global <= paths <= none held on 50/50 random allocations (%d violations)@."
    !violations;
  verdict "A1" (!ok && !violations = 0)

(* ------------------------------------------------------------------ *)
(* A2: algorithm shoot-out - exact vs LP pipeline vs greedy baseline  *)

let a2 () =
  section "A2" "Shoot-out: exact vs Thm 3.16 LP pipeline vs greedy baseline (binary durations)";
  Format.printf "question: how much of the guarantee gap do the algorithms leave on real instances?@.";
  let n_inst = 25 in
  let sum_opt = ref 0 and sum_bb = ref 0 and sum_greedy = ref 0 in
  let bb_wins = ref 0 and greedy_wins = ref 0 and ties = ref 0 in
  let bb_over = ref 0 in
  for seed = 1 to n_inst do
    let rng = rng_of (seed + 31000) in
    let g =
      if seed mod 2 = 0 then Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 3) ~edge_prob:0.4
      else hub_instance rng ~hubs:(1 + Random.State.int rng 2) ~fan:(5 + Random.State.int rng 5)
    in
    let p = Problem.of_race_dag g Problem.Binary in
    let budget = 2 + Random.State.int rng 6 in
    let opt = (engine_exact p ~budget).Engine.makespan in
    let bb = Binary_bicriteria.min_makespan p ~budget in
    let gr = (Greedy.min_makespan p ~budget).Greedy.makespan in
    sum_opt := !sum_opt + opt;
    sum_bb := !sum_bb + bb.Binary_bicriteria.makespan;
    sum_greedy := !sum_greedy + gr;
    if bb.Binary_bicriteria.budget_used > budget then incr bb_over;
    if bb.Binary_bicriteria.makespan < gr then incr bb_wins
    else if gr < bb.Binary_bicriteria.makespan then incr greedy_wins
    else incr ties
  done;
  Format.printf "measured over %d instances (makespan totals): exact %d | LP (4/3,14/5) %d | greedy %d@."
    n_inst !sum_opt !sum_bb !sum_greedy;
  Format.printf "measured head-to-head: LP wins %d, greedy wins %d, ties %d; LP exceeded budget on %d (allowed: 4/3 inflation)@."
    !bb_wins !greedy_wins !ties !bb_over;
  (* shape: both heuristics stay close to OPT on average (well under the
     proven worst-case factors) *)
  let avg_ratio sum = float_of_int sum /. float_of_int !sum_opt in
  Format.printf "measured average makespan ratio vs exact: LP %.3f, greedy %.3f@."
    (avg_ratio !sum_bb) (avg_ratio !sum_greedy);
  verdict "A2" (avg_ratio !sum_bb <= 2.8 && avg_ratio !sum_greedy >= 1.0)

(* ------------------------------------------------------------------ *)
(* A3: bounded processors - Brent/Graham view of an optimized instance *)

let a3 () =
  section "A3" "Bounded processors: list-scheduling the optimized Figure 4/5 instance";
  Format.printf "context: Observation 1.1 assumes unbounded processors; this is the finite-p view@.";
  let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
  let opt = engine_exact p ~budget:2 in
  let w = Array.fold_left ( + ) 0 (Schedule.durations_at p opt.Engine.allocation) in
  Format.printf "instance: Figure 4/5 with optimal 2-unit allocation (T_inf = %d, W = %d)@."
    opt.Engine.makespan w;
  Format.printf "%6s | %8s | %18s@." "p" "T_p" "Graham bound W/p+T_inf";
  let ok = ref true in
  List.iter
    (fun (k, tp) ->
      let bound = (w / k) + opt.Engine.makespan in
      if tp > bound || tp < opt.Engine.makespan then ok := false;
      Format.printf "%6d | %8d | %18d@." k tp bound)
    (Processors.speedup_curve p opt.Engine.allocation ~processors:[ 1; 2; 4; 8; 16 ]);
  verdict "A3" !ok

(* ------------------------------------------------------------------ *)
(* A4: the whole tradeoff curve - exact vs approximate frontier       *)

let a4 () =
  section "A4" "Pareto frontier: the full space-time curve, exact vs LP-approximate";
  Format.printf "context: the paper optimizes single points; the frontier is the user-facing object@.";
  let p = Problem.of_race_dag (hub_instance (rng_of 81) ~hubs:2 ~fan:8) Problem.Binary in
  let ex = Pareto.exact p in
  let ap = Pareto.approximate p in
  Format.printf "%8s | %14s | %14s@." "budget" "exact makespan" "approx makespan";
  let ok = ref true in
  List.iter2
    (fun (e : Pareto.point) (a : Pareto.point) ->
      Format.printf "%8d | %14d | %14d@." e.Pareto.budget e.Pareto.makespan a.Pareto.makespan;
      (* the approximation is never better where its real cost fits the budget *)
      if
        Schedule.min_budget p a.Pareto.allocation <= e.Pareto.budget
        && a.Pareto.makespan < e.Pareto.makespan
      then ok := false)
    ex ap;
  let knees = Pareto.knees ex in
  Format.printf "measured: %d knee points (budgets where buying more space actually helps): %s@."
    (List.length knees)
    (String.concat ", " (List.map (fun (k : Pareto.point) -> string_of_int k.Pareto.budget) knees));
  verdict "A4" !ok

(* ------------------------------------------------------------------ *)
(* A5: how much does path reuse actually save? (Q1.1 vs Q1.3)         *)

let a5 () =
  section "A5" "Reuse dividend: no-reuse optimum vs path-reuse optimum at equal budgets";
  Format.printf
    "context: Question 1.1 is the classic discrete TCTP; Question 1.3 adds reuse over paths.@.";
  Format.printf "         The makespan gap at equal budget is what the paper's model buys.@.";
  Format.printf "%12s | %8s | %16s | %16s@." "instance" "budget" "no-reuse OPT" "path-reuse OPT";
  let ok = ref true in
  let show label p budget =
    let nr = (Nonreusable.exact p ~budget).Exact.makespan in
    let r = (engine_exact p ~budget).Engine.makespan in
    if r > nr then ok := false;
    Format.printf "%12s | %8d | %16d | %16d@." label budget nr r
  in
  (* deep chains of hubs: reuse shines *)
  List.iter
    (fun hubs ->
      let p = Problem.of_race_dag (hub_instance (rng_of (90 + hubs)) ~hubs ~fan:8) Problem.Binary in
      show (Printf.sprintf "%d-hub chain" hubs) p 4)
    [ 1; 2; 3; 4 ];
  (* a single wide fan: reuse has nothing to chain, the regimes tie *)
  let single = Problem.of_race_dag (hub_instance (rng_of 95) ~hubs:1 ~fan:12) Problem.Binary in
  show "single fan" single 4;
  verdict "A5" !ok

(* ------------------------------------------------------------------ *)
(* T1: batch-service throughput - worker pool and result cache        *)

let online_cores () =
  match Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" with
  | exception _ -> 1
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, int_of_string_opt (String.trim line)) with
      | _, Some n when n > 0 -> n
      | _ -> 1)

let bench_spool =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_bench_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

(* a flat fan the branch-and-bound has to sweat over, plus an
   i-dependent constant tail so the 16 instances have 16 digests *)
let throughput_instance i =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let fan = List.init 8 (fun _ -> Dag.add_vertex g) in
  let hub = Dag.add_vertex g in
  List.iter
    (fun v ->
      Dag.add_edge g s v;
      Dag.add_edge g v hub)
    fan;
  let prev = ref hub in
  for _ = 0 to i do
    let v = Dag.add_vertex g in
    Dag.add_edge g !prev v;
    prev := v
  done;
  Problem.make g ~durations:(fun v ->
      if List.mem v fan then Duration.make (List.init 3 (fun r -> (r, 10 - r)))
      else Duration.constant 1)

let fill_throughput_spool spool =
  List.init 16 (fun i ->
      let name = Printf.sprintf "job_%02d.rtt" i in
      Io.write_file (Filename.concat spool name) (throughput_instance i);
      name)

let t1 () =
  section "T1" "Batch service: pooled drain throughput and the content-addressed result cache";
  let open Rtt_service in
  let cores = online_cores () in
  Format.printf "workload: 16 distinct instances per run; detected %d core(s)@." cores;
  let run ?cache_dir workers =
    let spool = bench_spool (Printf.sprintf "w%d" workers) in
    let jobs = fill_throughput_spool spool in
    let cfg =
      {
        (Supervisor.default_config ~spool) with
        workers;
        cache_dir;
        sleep = false;
        budget = 3;
      }
    in
    let t0 = Unix.gettimeofday () in
    let code = Supervisor.run cfg in
    let dt = Unix.gettimeofday () -. t0 in
    (spool, jobs, code, dt)
  in
  let ok = ref true in
  Format.printf "%8s | %9s | %9s | %8s@." "workers" "seconds" "jobs/sec" "exit";
  let rates =
    List.map
      (fun workers ->
        let _, jobs, code, dt = run workers in
        if code <> Supervisor.drained_exit_code then ok := false;
        let rate = float_of_int (List.length jobs) /. max 1e-9 dt in
        Format.printf "%8d | %9.3f | %9.1f | %8d@." workers dt rate code;
        (workers, rate))
      [ 1; 2; 4 ]
  in
  (* pooled and sequential runs must agree result-for-result *)
  let spool_seq, jobs, code_seq, _ = run 1 in
  let spool_par, _, code_par, _ = run 4 in
  if code_seq <> 0 || code_par <> 0 then ok := false;
  List.iter
    (fun job ->
      let strip kvs = List.filter (fun (k, _) -> k <> "attempt") kvs in
      match
        ( Supervisor.read_result ~spool:spool_seq ~job,
          Supervisor.read_result ~spool:spool_par ~job )
      with
      | Some a, Some b when strip a = strip b -> ()
      | _ ->
          ok := false;
          Format.printf "DIVERGED: %s differs between --workers 1 and --workers 4@." job)
    jobs;
  Format.printf "measured: --workers 4 results identical to --workers 1 on all %d jobs: %b@."
    (List.length jobs) !ok;
  (* the cache: a freshly populated cache serves a duplicate spool
     entirely from disk, with zero engine fuel *)
  let cache = Filename.concat (bench_spool "cache") "cas" in
  let _, _, code_warm, _ = run ~cache_dir:cache 4 in
  let spool_dup = bench_spool "dup" in
  let dup_jobs = fill_throughput_spool spool_dup in
  let cfg_dup =
    {
      (Supervisor.default_config ~spool:spool_dup) with
      workers = 4;
      cache_dir = Some cache;
      sleep = false;
      budget = 3;
    }
  in
  let t0 = Unix.gettimeofday () in
  let code_dup = Supervisor.run cfg_dup in
  let dt_dup = Unix.gettimeofday () -. t0 in
  let hits =
    List.length
      (List.filter
         (fun r ->
           match r.Journal.event with Journal.Done { cached = true; _ } -> true | _ -> false)
         (Journal.replay ~spool:spool_dup))
  in
  if code_warm <> 0 || code_dup <> 0 || hits <> List.length dup_jobs then ok := false;
  Format.printf "measured: duplicate spool re-run: %d/%d cache hits in %.3fs (%.1f jobs/sec)@." hits
    (List.length dup_jobs) dt_dup
    (float_of_int (List.length dup_jobs) /. max 1e-9 dt_dup);
  (* the >= 2x speedup gate only means something with >= 4 real cores;
     on smaller machines the table above is informational *)
  let rate_of w = try List.assoc w rates with Not_found -> 0.0 in
  let speedup = rate_of 4 /. max 1e-9 (rate_of 1) in
  Format.printf "measured: jobs/sec speedup at 4 workers vs 1: %.2fx (gated only when cores >= 4)@."
    speedup;
  if cores >= 4 then begin
    if speedup < 2.0 then ok := false
  end
  else
    Format.printf "skipped:  speedup gate needs >= 4 cores, detected %d — table is informational@."
      cores;
  verdict "T1" !ok

(* ------------------------------------------------------------------ *)
(* S1: sessions — 10-mutation warm re-solve vs cold solves            *)

let s1 () =
  section "S1" "Sessions: 10-mutation warm re-solve vs cold solves (exact rung)";
  Format.printf
    "claim: a session's warm re-solve returns the cold answer byte for byte, for >= 2x less fuel@.";
  Format.printf
    "workload: hub-heavy race DAG, binary durations; 10 set-budget mutations sweeping budget 1..10@.";
  let module Session = Rtt_session.Session in
  let spool = bench_spool "s1" in
  let rng = rng_of 6364136 in
  let g = hub_instance rng ~hubs:2 ~fan:8 in
  let p = Problem.of_race_dag g Problem.Binary in
  let store = Session.create_store ~spool in
  let must = function Ok v -> v | Error m -> failwith m in
  let t = must (Session.open_ store "bench-s1") in
  ignore (must (Session.mutate t (Session.Seed (Io.to_string p))));
  let ok = ref true in
  let warm_fuel = ref 0 and cold_fuel = ref 0 in
  let warm_secs = ref 0.0 and cold_secs = ref 0.0 in
  Format.printf "%6s | %10s | %10s | %s@." "budget" "cold fuel" "warm fuel" "identical";
  for budget = 1 to 10 do
    ignore (must (Session.mutate t (Session.Set_budget budget)));
    let t0 = Unix.gettimeofday () in
    let w =
      match Session.solve ~policy:[ Policy.Exact ] t with
      | Ok w -> w
      | Error e -> failwith (Error.to_string e)
    in
    warm_secs := !warm_secs +. (Unix.gettimeofday () -. t0);
    warm_fuel := !warm_fuel + w.Session.success.Engine.fuel_spent;
    let t1 = Unix.gettimeofday () in
    let c = engine_exact p ~budget in
    cold_secs := !cold_secs +. (Unix.gettimeofday () -. t1);
    cold_fuel := !cold_fuel + c.Engine.fuel_spent;
    let same = String.equal w.Session.rendered (Session.cold_render p c) in
    if not same then ok := false;
    Format.printf "%6d | %10d | %10d | %s%s@." budget c.Engine.fuel_spent
      w.Session.success.Engine.fuel_spent
      (if same then "yes" else "NO")
      (if w.Session.warm then "" else "  (first solve: cold)")
  done;
  Session.close store t;
  let ratio = float_of_int !cold_fuel /. float_of_int (max 1 !warm_fuel) in
  Format.printf
    "measured: 10 cold solves %d fuel (%.3fs); session %d fuel (%.3fs); fuel speedup %.2fx@."
    !cold_fuel !cold_secs !warm_fuel !warm_secs ratio;
  verdict "S1" (!ok && ratio >= 2.0)

(* ------------------------------------------------------------------ *)
(* perf: Bechamel micro-benchmarks                                     *)

let perf () =
  section "PERF" "Bechamel micro-benchmarks (P1-P6)";
  let open Bechamel in
  let rng = rng_of 1 in
  (* P1 simplex / LP relaxation *)
  let p_mid = random_step_instance (rng_of 11) ~n:8 in
  let tr_mid = Transform.of_problem p_mid in
  (* P2 min-flow *)
  let p_flow = Problem.of_race_dag (Gen.erdos_renyi (rng_of 12) ~n:40 ~edge_prob:0.2) Problem.Binary in
  let alloc_flow = Array.map (fun d -> min 2 (Duration.max_useful_resource d)) p_flow.Problem.durations in
  (* P3 SP DP *)
  let sp_tree =
    Sp.map
      (fun _ -> Binary_split.to_duration ~work:(5 + Random.State.int rng 40))
      (Gen.random_sp (rng_of 13) ~leaves:40 ~series_bias:0.5)
  in
  (* P4 bi-criteria end to end *)
  let p_small = random_step_instance (rng_of 14) ~n:5 in
  (* P5 reducer sim *)
  let arrivals = List.init 4096 (fun i -> i mod 7) in
  (* P6 exact solver *)
  let p_exact = Problem.of_race_dag (Gen.erdos_renyi (rng_of 15) ~n:6 ~edge_prob:0.4) Problem.Binary in
  let tests =
    Test.make_grouped ~name:"rtt"
      [
        Test.make ~name:"P1 lp-relaxation (n=8)"
          (Staged.stage (fun () -> ignore (Lp_relax.min_makespan tr_mid ~budget:4)));
        Test.make ~name:"P2 min-flow (n=40)"
          (Staged.stage (fun () -> ignore (Schedule.min_budget p_flow alloc_flow)));
        Test.make ~name:"P3 sp-dp (m=40, B=100)"
          (Staged.stage (fun () -> ignore (Sp_exact.makespan_table sp_tree ~budget:100)));
        Test.make ~name:"P4 bicriteria end-to-end (n=5)"
          (Staged.stage (fun () -> ignore (Bicriteria.min_makespan p_small ~budget:3 ~alpha:Rat.half)));
        Test.make ~name:"P5 reducer-sim (4096 updates, h=5)"
          (Staged.stage (fun () ->
               ignore (Reducer_sim.finish_time ~arrivals (Reducer_sim.Binary { height = 5 }))));
        Test.make ~name:"P6 exact via engine (n=6)"
          (Staged.stage (fun () ->
               ignore (Engine.solve ~policy:[ Policy.Exact ] p_exact ~budget:3)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
          let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
          Format.printf "%-42s %14.1f ns/run   (r2 %.3f)@." name ns r2
      | _ -> Format.printf "%-42s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7); ("E8", e8);
    ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("A1", a1); ("A2", a2); ("A3", a3); ("A4", a4); ("A5", a5); ("T1", t1); ("S1", s1); ("perf", perf);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, args = List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") args in
  List.iter
    (function
      | "--json" -> json_chan := Some (open_out json_path)
      | "--no-float-warmstart" -> Rtt_lp.Simplex.warmstart_enabled := false
      | f ->
          Printf.eprintf "unknown flag %s (known: --json, --no-float-warmstart)\n" f;
          exit 2)
    flags;
  let selected =
    match args with [] -> all_experiments | _ -> List.filter (fun (id, _) -> List.mem id args) all_experiments
  in
  Format.printf
    "Reproduction harness: Das et al., SPAA 2019 (resource-time tradeoff with reuse over paths)@.";
  List.iter (fun (_, f) -> f ()) selected;
  Format.printf "@.%s@."
    (if !failures = 0 then "ALL EXPERIMENT SHAPES REPRODUCED"
     else Printf.sprintf "%d EXPERIMENT(S) DIVERGED" !failures);
  (match !json_chan with
  | Some oc ->
      close_out oc;
      Format.printf "wrote %s@." json_path;
      (* timestamped history + a stable `latest` name, so a CI artifact
         shelf (or a human diffing two runs) never races the next run
         overwriting BENCH_5.json *)
      (try
         let body =
           let ic = open_in_bin json_path in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         let tm = Unix.gmtime (Unix.time ()) in
         let stamped =
           Printf.sprintf "bench-%04d%02d%02d-%02d%02d%02d.json" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
         in
         let write path =
           let oc = open_out_bin path in
           Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc body)
         in
         write stamped;
         (try Sys.remove "bench-latest.json" with Sys_error _ -> ());
         (try Unix.symlink stamped "bench-latest.json"
          with Unix.Unix_error _ -> write "bench-latest.json");
         Format.printf "wrote %s (and bench-latest.json)@." stamped
       with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ());
  exit (if !failures = 0 then 0 else 1)
