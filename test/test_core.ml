(* Tests for the core library: problem construction, schedules and
   min-flow feasibility, the D -> D'' transformation (Fig. 6/7), LP
   relaxation (LP 6-10), alpha-rounding (Lemmas 3.2-3.3), the
   bi-criteria and single-criteria approximation algorithms
   (Theorems 3.4, 3.9, 3.10, 3.16), the series-parallel DP (Section 3.4),
   and the brute-force exact reference. *)

open Rtt_dag
open Rtt_duration
open Rtt_num
open Rtt_budget
open Rtt_core

let rng_of seed = Random.State.make [| seed |]

(* The Figure 4/5-style instance: node c has in-degree 6; a height-1
   reducer (2 units) at c drops the makespan from 11 to 10. *)
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

(* random general step durations, one call per vertex *)
let step_durations rng ~max_tuples _v =
  let base = 2 + Random.State.int rng 9 in
  let rec steps r t k acc =
    if k = 0 || t = 0 then List.rev acc
    else begin
      let r' = r + 1 + Random.State.int rng 3 in
      let t' = max 0 (t - 1 - Random.State.int rng 4) in
      if t' >= t then List.rev acc else steps r' t' (k - 1) ((r', t') :: acc)
    end
  in
  Duration.make ((0, base) :: steps 0 base (Random.State.int rng max_tuples) [])

(* small random instance with general step durations *)
let random_instance rng ~n ~max_tuples =
  let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
  Problem.make g ~durations:(step_durations rng ~max_tuples)

let problem_units =
  [
    Alcotest.test_case "figure 4: makespan 11 without resources" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        Alcotest.(check int) "makespan" 11 (Schedule.makespan p (Schedule.zero_allocation p)));
    Alcotest.test_case "figure 5: two units drop the makespan to 10" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let r = Exact.min_makespan p ~budget:2 in
        Alcotest.(check int) "makespan" 10 r.Exact.makespan;
        Alcotest.(check int) "budget used" 2 r.Exact.budget_used);
    Alcotest.test_case "works = in-degree" `Quick (fun () ->
        let g = fig45 () in
        let w = Problem.works g in
        Alcotest.(check int) "c has 6" 6 w.(3);
        Alcotest.(check int) "s has 0" 0 w.(0));
    Alcotest.test_case "make rejects empty and cyclic graphs" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Problem.make: empty graph") (fun () ->
            ignore (Problem.make (Dag.create ()) ~durations:(fun _ -> Duration.constant 0)));
        let g = Dag.of_edges ~n:2 [ (0, 1); (1, 0) ] in
        Alcotest.check_raises "cycle" (Invalid_argument "Problem.make: graph has a cycle") (fun () ->
            ignore (Problem.make g ~durations:(fun _ -> Duration.constant 0))));
    Alcotest.test_case "max_meaningful_budget" `Quick (fun () ->
        let g = Dag.of_edges ~n:2 [ (0, 1) ] in
        let p =
          Problem.make g ~durations:(fun v ->
              if v = 0 then Duration.constant 1 else Duration.make [ (0, 8); (3, 2) ])
        in
        Alcotest.(check int) "budget" 3 (Problem.max_meaningful_budget p));
  ]

let schedule_units =
  [
    Alcotest.test_case "durations_at follows allocation" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let alloc = Schedule.zero_allocation p in
        alloc.(3) <- 2;
        (* c with work 6: t(2) = 3 + 2 = 5 *)
        Alcotest.(check int) "c" 5 (Schedule.durations_at p alloc).(3));
    Alcotest.test_case "min_budget on a chain reuses one unit" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.make [ (0, 4); (1, 1) ]) in
        let alloc = [| 1; 1; 1 |] in
        Alcotest.(check int) "one unit serves all" 1 (Schedule.min_budget p alloc));
    Alcotest.test_case "min_budget on parallel branches adds" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.make [ (0, 4); (2, 1) ]) in
        let alloc = [| 0; 2; 2; 0 |] in
        Alcotest.(check int) "branches add" 4 (Schedule.min_budget p alloc));
    Alcotest.test_case "routing decomposes into unit paths" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.make [ (0, 4); (2, 1) ]) in
        let alloc = [| 0; 2; 1; 0 |] in
        let value, paths = Schedule.min_budget_with_routing p alloc in
        Alcotest.(check int) "value" 3 value;
        Alcotest.(check int) "total units" 3 (List.fold_left (fun acc (_, u) -> acc + u) 0 paths);
        (* every path runs from source to sink in the original graph *)
        List.iter
          (fun (path, _) ->
            Alcotest.(check int) "starts at source" 0 (List.hd path);
            Alcotest.(check int) "ends at sink" 3 (List.nth path (List.length path - 1)))
          paths);
    Alcotest.test_case "critical path consistent with makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let alloc = Schedule.zero_allocation p in
        let ms, path = Schedule.critical_path p alloc in
        Alcotest.(check int) "value" 11 ms;
        Alcotest.(check bool) "non-empty" true (path <> []));
    Alcotest.test_case "rejects malformed allocations" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        Alcotest.check_raises "size" (Invalid_argument "Schedule: allocation size mismatch")
          (fun () -> ignore (Schedule.makespan p [| 0 |]));
        let bad = Schedule.zero_allocation p in
        bad.(0) <- -1;
        Alcotest.check_raises "negative" (Invalid_argument "Schedule: negative allocation")
          (fun () -> ignore (Schedule.makespan p bad)));
  ]

let transform_units =
  [
    Alcotest.test_case "every transformed edge has at most two tuples" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        Array.iter
          (fun (e : Transform.edge) ->
            match e.Transform.upgrade with
            | Some r -> Alcotest.(check bool) "r positive" true (r > 0)
            | None -> ())
          tr.Transform.edges);
    Alcotest.test_case "transformed graph is a DAG with matching terminals" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        Alcotest.(check bool) "dag" true (Dag.is_dag tr.Transform.graph);
        Alcotest.(check int) "source is entry of source" tr.Transform.entry.(p.Problem.source)
          tr.Transform.source;
        Alcotest.(check int) "sink is exit of sink" tr.Transform.exits.(p.Problem.sink)
          tr.Transform.sink);
    Alcotest.test_case "chain deltas recover tuple resources" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        (* upgrading a prefix of chain edges yields exactly the tuple resources *)
        for v = 0 to Problem.n_jobs p - 1 do
          let tuples = Array.of_list (Duration.tuples (Problem.duration p v)) in
          let chain = Array.of_list tr.Transform.chains.(v) in
          if Array.length tuples > 1 then
            for j = 0 to Array.length tuples - 1 do
              let upgraded i =
                match tr.Transform.edges.(i).Transform.kind with
                | Transform.Chain { vertex; idx } -> vertex = v && idx < j
                | _ -> false
              in
              let alloc = Transform.allocation_of_upgrades tr ~upgraded in
              Alcotest.(check int) (Printf.sprintf "v%d tuple %d" v j) (fst tuples.(j)) alloc.(v)
            done;
          ignore chain
        done);
    Alcotest.test_case "zero-upgrade makespan equals base makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        let ms = Transform.makespan_with tr ~edge_time:(fun i -> tr.Transform.edges.(i).Transform.t0) in
        Alcotest.(check int) "hm" (Schedule.makespan p (Schedule.zero_allocation p)) ms);
  ]

let lp_units =
  [
    Alcotest.test_case "LP lower-bounds the exact optimum" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        for budget = 0 to 4 do
          let lp = Lp_relax.min_makespan tr ~budget in
          let opt = Exact.min_makespan p ~budget in
          Alcotest.(check bool)
            (Printf.sprintf "B=%d: lp <= opt" budget)
            true
            Rat.(lp.Lp_relax.makespan <= Rat.of_int opt.Exact.makespan)
        done);
    Alcotest.test_case "LP budget constraint is respected" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        let lp = Lp_relax.min_makespan tr ~budget:3 in
        Alcotest.(check bool) "budget" true Rat.(lp.Lp_relax.budget_used <= Rat.of_int 3));
    Alcotest.test_case "zero budget reproduces base makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        let lp = Lp_relax.min_makespan tr ~budget:0 in
        Alcotest.(check bool) "equals 11" true Rat.(equal lp.Lp_relax.makespan (Rat.of_int 11)));
    Alcotest.test_case "min_resource: generous target needs nothing" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        match Lp_relax.min_resource tr ~target:(Rat.of_int 100) with
        | Some lp -> Alcotest.(check bool) "zero" true (Rat.is_zero lp.Lp_relax.budget_used)
        | None -> Alcotest.fail "feasible expected");
    Alcotest.test_case "min_resource: impossible target detected" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let tr = Transform.of_problem p in
        Alcotest.(check bool) "none" true (Lp_relax.min_resource tr ~target:(Rat.of_int 1) = None));
    Alcotest.test_case "edge_duration interpolates downward" `Quick (fun () ->
        let e = { Transform.src = 0; dst = 1; t0 = 10; upgrade = Some 4; kind = Transform.Link { src = 0; dst = 1 } } in
        Alcotest.(check string) "at 0" "10" (Rat.to_string (Lp_relax.edge_duration e Rat.zero));
        Alcotest.(check string) "at 2" "5" (Rat.to_string (Lp_relax.edge_duration e Rat.two));
        Alcotest.(check string) "at 4" "0" (Rat.to_string (Lp_relax.edge_duration e (Rat.of_int 4))));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let approx_props =
  [
    prop "bi-criteria guarantees hold (Theorem 3.4)" 25
      QCheck.(pair (int_range 4 8) (int_range 0 2))
      (fun (n, ai) ->
        let rng = rng_of ((n * 17) + ai) in
        let p = random_instance rng ~n ~max_tuples:3 in
        let alpha = List.nth [ Rat.of_ints 1 4; Rat.half; Rat.of_ints 3 4 ] ai in
        let budget = 1 + Random.State.int rng 6 in
        let bi = Bicriteria.min_makespan p ~budget ~alpha in
        Bicriteria.satisfies_guarantees bi);
    prop "bi-criteria min-resource guarantees hold" 15 QCheck.(int_range 4 8) (fun n ->
        let rng = rng_of (n + 4000) in
        let p = random_instance rng ~n ~max_tuples:3 in
        let base = Schedule.makespan p (Schedule.zero_allocation p) in
        let target = max 1 (base / 2) in
        match Bicriteria.min_resource p ~target ~alpha:Rat.half with
        | None -> true (* target unreachable *)
        | Some bi ->
            Rat.(Rat.of_int bi.Bicriteria.rounded.Rounding.makespan <= bi.Bicriteria.makespan_bound)
            && Rat.(Rat.of_int bi.Bicriteria.rounded.Rounding.budget_used <= bi.Bicriteria.budget_bound));
    prop "rounded allocation is honest (feasible within inflated budget)" 20 QCheck.(int_range 4 8)
      (fun n ->
        let rng = rng_of (n + 300) in
        let p = random_instance rng ~n ~max_tuples:3 in
        let budget = 1 + Random.State.int rng 5 in
        let bi = Bicriteria.min_makespan p ~budget ~alpha:Rat.half in
        let alloc = bi.Bicriteria.rounded.Rounding.allocation in
        (* vertex-level makespan can only be better than the d2-level one *)
        Schedule.makespan p alloc <= bi.Bicriteria.rounded.Rounding.makespan
        && Schedule.min_budget p alloc <= bi.Bicriteria.rounded.Rounding.budget_used);
    prop "binary 4-approx (Theorem 3.10)" 20 QCheck.(int_range 4 7) (fun n ->
        let rng = rng_of (n + 900) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Binary in
        let budget = 1 + Random.State.int rng 5 in
        let approx = Binary_approx.min_makespan p ~budget in
        let opt = Exact.min_makespan p ~budget in
        approx.Binary_approx.budget_used <= budget
        && approx.Binary_approx.makespan <= 4 * opt.Exact.makespan);
    prop "kway 5-approx (Theorem 3.9)" 20 QCheck.(int_range 4 7) (fun n ->
        let rng = rng_of (n + 1900) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Kway in
        let budget = 1 + Random.State.int rng 5 in
        let approx = Kway_approx.min_makespan p ~budget in
        let opt = Exact.min_makespan p ~budget in
        approx.Kway_approx.budget_used <= budget
        && approx.Kway_approx.makespan <= 5 * opt.Exact.makespan);
    prop "binary (4/3, 14/5) bi-criteria (Theorem 3.16)" 20 QCheck.(int_range 4 7) (fun n ->
        let rng = rng_of (n + 2900) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Binary in
        let budget = 1 + Random.State.int rng 5 in
        let r = Binary_bicriteria.min_makespan p ~budget in
        Binary_bicriteria.satisfies_guarantees r);
    prop "binary bi-criteria min-resource extension" 15 QCheck.(int_range 4 7) (fun n ->
        let rng = rng_of (n + 5900) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Binary in
        let base = Schedule.makespan p (Schedule.zero_allocation p) in
        let target = max 1 ((2 * base) / 3) in
        (match Binary_bicriteria.min_resource p ~target with
        | None -> true
        | Some r ->
            Binary_bicriteria.satisfies_guarantees r
            && (match Exact.min_resource p ~target with
               | Some opt ->
                   (* the rounded resources are within 4/3 of the true optimum *)
                   let floor_opt = Stdlib.max 1 opt.Exact.budget_used in
                   Rat.(Rat.of_int r.Binary_bicriteria.budget_used
                        <= Rat.mul (Rat.of_ints 4 3) (Rat.of_int floor_opt))
                   || r.Binary_bicriteria.budget_used = 0
               | None -> true)));
    prop "approx makespan never beats the exact optimum" 20 QCheck.(int_range 4 7) (fun n ->
        let rng = rng_of (n + 3900) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Binary in
        let budget = 1 + Random.State.int rng 4 in
        let approx = Binary_approx.min_makespan p ~budget in
        let opt = Exact.min_makespan p ~budget in
        approx.Binary_approx.makespan >= opt.Exact.makespan);
  ]

let best_alpha_units =
  [
    Alcotest.test_case "best_alpha fits the budget when any alpha does" `Quick (fun () ->
        let rng = rng_of 61 in
        for _ = 1 to 10 do
          let p = random_instance rng ~n:(4 + Random.State.int rng 5) ~max_tuples:3 in
          let budget = 1 + Random.State.int rng 6 in
          let auto = Bicriteria.best_alpha p ~budget in
          (* dominates the three standard fixed choices whenever it fits *)
          List.iter
            (fun alpha ->
              let fixed = Bicriteria.min_makespan p ~budget ~alpha in
              if
                fixed.Bicriteria.rounded.Rounding.budget_used <= budget
                && auto.Bicriteria.rounded.Rounding.budget_used <= budget
              then
                Alcotest.(check bool) "dominates" true
                  (auto.Bicriteria.rounded.Rounding.makespan
                  <= fixed.Bicriteria.rounded.Rounding.makespan))
            [ Rat.of_ints 1 4; Rat.half; Rat.of_ints 3 4 ];
          Alcotest.(check bool) "guarantees" true (Bicriteria.satisfies_guarantees auto)
        done);
    Alcotest.test_case "best_alpha on the all-constant instance" `Quick (fun () ->
        let g = Dag.of_edges ~n:2 [ (0, 1) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.constant 3) in
        let r = Bicriteria.best_alpha p ~budget:5 in
        Alcotest.(check int) "makespan" 6 r.Bicriteria.rounded.Rounding.makespan;
        Alcotest.(check int) "budget" 0 r.Bicriteria.rounded.Rounding.budget_used);
  ]

let binary_round_units =
  [
    Alcotest.test_case "Section 3.3 rounding rule" `Quick (fun () ->
        let r = Binary_bicriteria.round_resource ~max_level:64 in
        List.iter
          (fun (num, den, want) ->
            Alcotest.(check int)
              (Printf.sprintf "round %d/%d" num den)
              want
              (r (Rat.of_ints num den)))
          [
            (1, 2, 0) (* < 1 -> 0 *);
            (1, 1, 1) (* [1, 1.5) -> 1 *);
            (3, 2, 2) (* [1.5, 2) -> 2 *);
            (2, 1, 2);
            (5, 2, 2) (* 2.5 < 3 -> down to 2 *);
            (3, 1, 4) (* [3, 4) -> up to 4 *);
            (9, 2, 4) (* 4.5 < 6 -> down *);
            (6, 1, 8) (* [6, 8) -> up *);
            (13, 1, 16);
          ]);
    Alcotest.test_case "rounding respects the cap" `Quick (fun () ->
        Alcotest.(check int) "capped" 8 (Binary_bicriteria.round_resource (Rat.of_int 100) ~max_level:8));
  ]

let sp_units =
  [
    Alcotest.test_case "leaf table is the duration function" `Quick (fun () ->
        let d = Duration.make [ (0, 9); (2, 4); (5, 1) ] in
        let table = Sp_exact.makespan_table (Sp.leaf d) ~budget:6 in
        Alcotest.(check (list int)) "table" [ 9; 9; 4; 4; 4; 1; 1 ] (Array.to_list table));
    Alcotest.test_case "series adds, parallel splits" `Quick (fun () ->
        let d = Duration.make [ (0, 6); (2, 2) ] in
        let series = Sp_exact.makespan_table (Sp.series (Sp.leaf d) (Sp.leaf d)) ~budget:2 in
        (* same 2 units serve both jobs in series *)
        Alcotest.(check (list int)) "series" [ 12; 12; 4 ] (Array.to_list series);
        let par = Sp_exact.makespan_table (Sp.parallel (Sp.leaf d) (Sp.leaf d)) ~budget:2 in
        (* in parallel they compete: 2 units only fix one branch *)
        Alcotest.(check (list int)) "parallel" [ 6; 6; 6 ] (Array.to_list par));
    Alcotest.test_case "allocation tree achieves the reported makespan" `Quick (fun () ->
        let rng = rng_of 5 in
        for _ = 1 to 20 do
          let tree =
            Sp.map
              (fun _ -> Binary_split.to_duration ~work:(2 + Random.State.int rng 20))
              (Gen.random_sp rng ~leaves:(2 + Random.State.int rng 5) ~series_bias:0.5)
          in
          let budget = Random.State.int rng 8 in
          let ms, alloc = Sp_exact.min_makespan tree ~budget in
          (* walk both trees simultaneously and recompute *)
          let rec eval t a =
            match (t, a) with
            | Sp.Leaf d, Sp.Leaf r -> (Duration.eval d r, r)
            | Sp.Series (t1, t2), Sp.Series (a1, a2) ->
                let m1, r1 = eval t1 a1 and m2, r2 = eval t2 a2 in
                (m1 + m2, max r1 r2)
            | Sp.Parallel (t1, t2), Sp.Parallel (a1, a2) ->
                let m1, r1 = eval t1 a1 and m2, r2 = eval t2 a2 in
                (max m1 m2, r1 + r2)
            | _ -> Alcotest.fail "allocation tree shape mismatch"
          in
          let ms', used = eval tree alloc in
          Alcotest.(check int) "makespan" ms ms';
          Alcotest.(check bool) "within budget" true (used <= budget)
        done);
    Alcotest.test_case "min_resource finds the threshold" `Quick (fun () ->
        let d = Duration.make [ (0, 6); (2, 2) ] in
        let tree = Sp.series (Sp.leaf d) (Sp.leaf d) in
        Alcotest.(check (option int)) "target 4" (Some 2) (Sp_exact.min_resource tree ~target:4);
        Alcotest.(check (option int)) "target 12" (Some 0) (Sp_exact.min_resource tree ~target:12);
        Alcotest.(check (option int)) "target 3" None (Sp_exact.min_resource tree ~target:3));
  ]

let sp_props =
  [
    prop "SP DP matches brute force (Section 3.4)" 25 QCheck.(int_range 2 6) (fun leaves ->
        let rng = rng_of (leaves + 10_000) in
        let tree =
          Sp.map
            (fun _ ->
              if Random.State.bool rng then Binary_split.to_duration ~work:(2 + Random.State.int rng 15)
              else Kway.to_duration ~work:(2 + Random.State.int rng 15))
            (Gen.random_sp rng ~leaves ~series_bias:0.5)
        in
        let budget = Random.State.int rng 7 in
        let ms, _ = Sp_exact.min_makespan tree ~budget in
        let g, jobs = Sp.to_dag tree in
        let p = Problem.make g ~durations:(fun v -> jobs.(v)) in
        let opt = Exact.min_makespan p ~budget in
        ms = opt.Exact.makespan);
    prop "SP table is non-increasing in budget" 25 QCheck.(int_range 2 6) (fun leaves ->
        let rng = rng_of (leaves + 20_000) in
        let tree =
          Sp.map
            (fun _ -> Binary_split.to_duration ~work:(2 + Random.State.int rng 15))
            (Gen.random_sp rng ~leaves ~series_bias:0.5)
        in
        let table = Sp_exact.makespan_table tree ~budget:8 in
        let ok = ref true in
        for l = 0 to Array.length table - 2 do
          if table.(l + 1) > table.(l) then ok := false
        done;
        !ok);
  ]

let exact_units =
  [
    Alcotest.test_case "budget 0 equals base makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let r = Exact.min_makespan p ~budget:0 in
        Alcotest.(check int) "makespan" 11 r.Exact.makespan;
        Alcotest.(check int) "budget" 0 r.Exact.budget_used);
    Alcotest.test_case "monotone in budget" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let prev = ref max_int in
        for b = 0 to 6 do
          let r = Exact.min_makespan p ~budget:b in
          Alcotest.(check bool) (Printf.sprintf "B=%d" b) true (r.Exact.makespan <= !prev);
          prev := r.Exact.makespan
        done);
    Alcotest.test_case "min_resource inverts min_makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        match Exact.min_resource p ~target:10 with
        | Some r ->
            Alcotest.(check int) "budget" 2 r.Exact.budget_used;
            Alcotest.(check bool) "achieves" true (Schedule.makespan p r.Exact.allocation <= 10)
        | None -> Alcotest.fail "reachable target");
    Alcotest.test_case "min_resource None when unreachable" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        Alcotest.(check bool) "none" true (Exact.min_resource p ~target:2 = None));
    Alcotest.test_case "explodes gracefully" `Quick (fun () ->
        let rng = rng_of 1 in
        let g = Gen.erdos_renyi rng ~n:40 ~edge_prob:0.3 in
        let p = Problem.of_race_dag g Problem.Binary in
        match Exact.min_makespan ~max_states:10 p ~budget:8 with
        | exception Exact.Too_large _ -> ()
        | _ -> Alcotest.fail "expected Too_large");
    Alcotest.test_case "returned allocation is feasible and achieves makespan" `Quick (fun () ->
        let rng = rng_of 2 in
        for _ = 1 to 10 do
          let g = Gen.erdos_renyi rng ~n:6 ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let budget = Random.State.int rng 5 in
          let r = Exact.min_makespan p ~budget in
          Alcotest.(check int) "achieves" r.Exact.makespan (Schedule.makespan p r.Exact.allocation);
          Alcotest.(check bool) "feasible" true (Schedule.feasible p ~budget r.Exact.allocation)
        done);
  ]

(* The reference branch-and-bound: Exact's search with its bound
   computed from scratch, one [Longest_path.makespan] (and so one
   topological sort) per node plus one more for a leaf's makespan. It
   ticks, offers checkpoints and calls min-flow where Exact does, so the
   two must agree on the answer, the fuel and every snapshot. *)
module Exact_ref = struct
  let options_of (p : Problem.t) ~cap =
    Array.init (Problem.n_jobs p) (fun v ->
        let tuples = Duration.tuples p.Problem.durations.(v) in
        match List.filter (fun (r, _) -> r <= cap) tuples with
        | [] -> [ (0, Duration.base_time p.Problem.durations.(v)) ]
        | l -> l)

  let bound (p : Problem.t) time n_set =
    Longest_path.makespan p.Problem.dag ~weight:(fun v ->
        if v < n_set then time.(v) else Duration.best_time p.Problem.durations.(v))

  let usable n = function
    | Some a when Array.length a = n && Array.for_all (fun r -> r >= 0) a -> Some a
    | _ -> None

  let min_makespan ?warm_start ?warm_hint (p : Problem.t) ~budget =
    let options = options_of p ~cap:budget in
    let n = Problem.n_jobs p in
    let best = ref { Exact.makespan = max_int; budget_used = 0; allocation = Array.make n 0 } in
    (match usable n warm_start with
    | Some a ->
        let used = Schedule.min_budget p a in
        if used <= budget then
          best :=
            {
              Exact.makespan = Schedule.makespan p a;
              budget_used = used;
              allocation = Array.copy a;
            }
    | None -> ());
    let cap = ref max_int in
    (match usable n warm_hint with
    | Some a -> if Schedule.min_budget p a <= budget then cap := Schedule.makespan p a + 1
    | None -> ());
    let alloc = Array.make n 0 and time = Array.make n 0 in
    let rec go v =
      Budget.tick ~stage:"exact";
      if !best.Exact.makespan < max_int then Budget.checkpoint (fun () -> Exact.snapshot_of !best);
      if bound p time v >= min !best.Exact.makespan !cap then ()
      else if v = n then begin
        let ms = Longest_path.makespan p.Problem.dag ~weight:(fun u -> time.(u)) in
        if ms < !best.Exact.makespan then begin
          let used = Schedule.min_budget p alloc in
          if used <= budget then
            best := { Exact.makespan = ms; budget_used = used; allocation = Array.copy alloc }
        end
      end
      else
        List.iter
          (fun (r, t) ->
            alloc.(v) <- r;
            time.(v) <- t;
            go (v + 1))
          options.(v)
    in
    go 0;
    !best

  let min_resource (p : Problem.t) ~target =
    let options = options_of p ~cap:(Problem.max_meaningful_budget p) in
    let n = Problem.n_jobs p in
    let best = ref None in
    let alloc = Array.make n 0 and time = Array.make n 0 in
    let rec go v =
      Budget.tick ~stage:"exact";
      if bound p time v > target then ()
      else if v = n then begin
        let ms = Longest_path.makespan p.Problem.dag ~weight:(fun u -> time.(u)) in
        if ms <= target then begin
          let used = Schedule.min_budget p alloc in
          match !best with
          | Some b when b.Exact.budget_used <= used -> ()
          | _ ->
              best :=
                Some { Exact.makespan = ms; budget_used = used; allocation = Array.copy alloc }
        end
      end
      else
        List.iter
          (fun (r, t) ->
            alloc.(v) <- r;
            time.(v) <- t;
            go (v + 1))
          options.(v)
    in
    go 0;
    !best
end

(* the same graph with its vertices renumbered at random, so that
   vertex order stops being a topological order *)
let relabel rng g =
  let n = Dag.n_vertices g in
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  Dag.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Dag.edges g))

(* chains of feeders fanning into hubs, the session workload's shape;
   a hub fed by 6 or more has a binary-split tradeoff *)
let hub_dag rng =
  let g = Dag.create () in
  let prev = ref (Dag.add_vertex g) in
  for _ = 1 to 1 + Random.State.int rng 2 do
    let hub = Dag.add_vertex g in
    for _ = 1 to 4 + Random.State.int rng 4 do
      let f = Dag.add_vertex g in
      Dag.add_edge g !prev f;
      Dag.add_edge g f hub
    done;
    prev := hub
  done;
  g

(* forward edges only, with no super source or sink: [Problem.make]
   adds them whenever there are several sources or sinks *)
let loose_dag rng ~n =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1. < 0.3 then es := (u, v) :: !es
    done
  done;
  Dag.of_edges ~n !es

let differential_instance seed =
  let rng = rng_of seed in
  let g =
    match Random.State.int rng 3 with
    | 0 -> Gen.layered rng ~layers:(2 + Random.State.int rng 2) ~width:3 ~edge_prob:0.3
    | 1 -> hub_dag rng
    | _ -> loose_dag rng ~n:(4 + Random.State.int rng 4)
  in
  let g = if Random.State.bool rng then relabel rng g else g in
  (* in the two [Problem.make] cases at most 5 vertices get a tradeoff,
     of at most 3 options each, which keeps every search small *)
  let traded = Array.make (Dag.n_vertices g) false in
  for _ = 1 to 5 do
    traded.(Random.State.int rng (Dag.n_vertices g)) <- true
  done;
  let durations tradeoff v =
    if traded.(v) then tradeoff v else Duration.constant (Random.State.int rng 6)
  in
  match Random.State.int rng 3 with
  | 0 -> Problem.of_race_dag g Problem.Binary
  | 1 ->
      (* binary splits: only works of 6 or more have a tradeoff, and
         small DAGs rarely have such in-degrees *)
      Problem.make g
        ~durations:(durations (fun _ -> Binary_split.to_duration ~work:(6 + Random.State.int rng 4)))
  | _ -> Problem.make g ~durations:(durations (step_durations rng ~max_tuples:3))

(* answer, fuel and checkpoint snapshots of one solve *)
let observe f =
  let snaps = ref [] in
  Budget.with_fuel None (fun () ->
      let r = Budget.with_checkpoint ~every:3 (fun s -> snaps := s :: !snaps) f in
      (r, Budget.spent (), !snaps))

let differential_props =
  [
    prop "min_makespan equals the reference search: answer, fuel, snapshots" 100
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let p = differential_instance seed in
        let rng = rng_of (seed + 1) in
        let n = Problem.n_jobs p in
        let random_alloc () =
          Array.init n (fun v ->
              match Duration.tuples (Problem.duration p v) with
              | [] -> 0
              | ts -> fst (List.nth ts (Random.State.int rng (List.length ts))))
        in
        let prev = ref (Array.make n 0) and ok = ref true in
        for budget = 0 to Problem.max_meaningful_budget p do
          let same ?warm_start ?warm_hint () =
            let want =
              observe (fun () -> Exact_ref.min_makespan ?warm_start ?warm_hint p ~budget)
            in
            let got = observe (fun () -> Exact.min_makespan ?warm_start ?warm_hint p ~budget) in
            if got <> want then ok := false;
            let r, _, _ = got in
            r
          in
          let cold = same () in
          ignore (same ~warm_start:!prev ());
          ignore (same ~warm_hint:!prev ());
          ignore (same ~warm_start:(random_alloc ()) ~warm_hint:(random_alloc ()) ());
          prev := cold.Exact.allocation
        done;
        !ok);
    prop "min_resource equals the reference search: answer and fuel" 100 QCheck.(int_range 0 100_000)
      (fun seed ->
        let p = differential_instance seed in
        let zero = Schedule.makespan p (Schedule.zero_allocation p) in
        let full = Exact.min_makespan p ~budget:(Problem.max_meaningful_budget p) in
        let best = full.Exact.makespan in
        List.for_all
          (fun target ->
            observe (fun () -> Exact.min_resource p ~target)
            = observe (fun () -> Exact_ref.min_resource p ~target))
          (List.sort_uniq compare [ 0; max 0 (best - 1); best; (best + zero) / 2; zero ]));
  ]

let reuse_units =
  [
    Alcotest.test_case "chain: paths and global collapse to one job's worth" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.make [ (0, 4); (2, 1) ]) in
        let b = Reuse.budgets p [| 2; 2; 2 |] in
        Alcotest.(check int) "none" 6 b.Reuse.none;
        Alcotest.(check int) "paths" 2 b.Reuse.over_paths;
        Alcotest.(check int) "global" 2 b.Reuse.global);
    Alcotest.test_case "parallel branches: no reuse possible" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
        let p = Problem.make g ~durations:(fun _ -> Duration.make [ (0, 4); (2, 1) ]) in
        let b = Reuse.budgets p [| 0; 2; 2; 0 |] in
        Alcotest.(check int) "none" 4 b.Reuse.none;
        Alcotest.(check int) "paths" 4 b.Reuse.over_paths;
        (* the two branches run concurrently, so even globally 4 are live *)
        Alcotest.(check int) "global" 4 b.Reuse.global);
    Alcotest.test_case "global beats paths when windows are disjoint off-path" `Quick (fun () ->
        (* two parallel branches with different lengths: the long branch's
           job runs while the short branch is already done, but no s-t
           path serves both -> paths needs 4, global only needs 2 *)
        let g = Dag.of_edges ~n:5 [ (0, 1); (0, 2); (2, 3); (1, 4); (3, 4) ] in
        let p =
          Problem.make g ~durations:(fun v ->
              if v = 1 || v = 3 then Duration.make [ (0, 4); (2, 1) ]
              else if v = 2 then Duration.constant 10
              else Duration.constant 0)
        in
        let b = Reuse.budgets p [| 0; 2; 0; 2; 0 |] in
        Alcotest.(check int) "paths" 4 b.Reuse.over_paths;
        Alcotest.(check int) "global" 2 b.Reuse.global);
    Alcotest.test_case "ordering holds on random instances" `Quick (fun () ->
        let rng = rng_of 12 in
        for _ = 1 to 30 do
          let g = Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 10) ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let alloc =
            Array.map
              (fun d ->
                let m = Duration.max_useful_resource d in
                if m = 0 then 0 else Random.State.int rng (m + 1))
              p.Problem.durations
          in
          let b = Reuse.budgets p alloc in
          Alcotest.(check bool) "global <= paths" true (b.Reuse.global <= b.Reuse.over_paths);
          Alcotest.(check bool) "paths <= none" true (b.Reuse.over_paths <= b.Reuse.none)
        done);
  ]

let io_units =
  [
    Alcotest.test_case "round-trip through the text format" `Quick (fun () ->
        let rng = rng_of 77 in
        for _ = 1 to 10 do
          let g = Gen.erdos_renyi rng ~n:8 ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let p' = Io.of_string (Io.to_string p) in
          Alcotest.(check int) "jobs" (Problem.n_jobs p) (Problem.n_jobs p');
          (* behaviour-level equality: same makespans across budgets *)
          for b = 0 to 4 do
            Alcotest.(check int)
              (Printf.sprintf "B=%d" b)
              (Exact.min_makespan p ~budget:b).Exact.makespan
              (Exact.min_makespan p' ~budget:b).Exact.makespan
          done
        done);
    Alcotest.test_case "rejects malformed input with a line number" `Quick (fun () ->
        List.iter
          (fun (s, want_line) ->
            match Io.of_string s with
            | exception Io.Parse_error { line; _ } ->
                Alcotest.(check int) (Printf.sprintf "line of %S" s) want_line line
            | _ -> Alcotest.failf "accepted %S" s)
          [
            ("", 0);
            ("vertices 0", 1);
            ("vertices 2\nedge 0 5", 2);
            ("vertices x", 1);
            ("vertices 2\nduration 0 nope", 2);
            ("vertices 2\nbogus 1 2", 2);
            ("vertices 2\nduration 0", 2);
            ("vertices 2\nedge 0", 2);
            ("vertices 2\nedge 0 1\nedge 1 0", 1);
            ("vertices 2\nvertices 3", 2);
          ]);
    Alcotest.test_case "comments and blank lines ignored" `Quick (fun () ->
        let p = Io.of_string "# a comment\n\nvertices 2\nduration 0 0:5\nedge 0 1\n" in
        Alcotest.(check int) "jobs" 2 (Problem.n_jobs p));
  ]

let greedy_units =
  [
    Alcotest.test_case "never worse than the zero allocation" `Quick (fun () ->
        let rng = rng_of 21 in
        for _ = 1 to 15 do
          let g = Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 6) ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let budget = Random.State.int rng 6 in
          let r = Greedy.min_makespan p ~budget in
          Alcotest.(check bool) "improves" true
            (r.Greedy.makespan <= Schedule.makespan p (Schedule.zero_allocation p));
          Alcotest.(check bool) "within budget" true (r.Greedy.budget_used <= budget);
          Alcotest.(check bool) "feasible" true (Schedule.feasible p ~budget r.Greedy.allocation);
          Alcotest.(check int) "consistent" r.Greedy.makespan (Schedule.makespan p r.Greedy.allocation)
        done);
    Alcotest.test_case "matches exact on the Figure 4/5 instance" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let r = Greedy.min_makespan p ~budget:2 in
        Alcotest.(check int) "makespan" 10 r.Greedy.makespan);
    Alcotest.test_case "zero budget does nothing" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let r = Greedy.min_makespan p ~budget:0 in
        Alcotest.(check int) "makespan" 11 r.Greedy.makespan;
        Alcotest.(check int) "steps" 0 r.Greedy.steps);
    Alcotest.test_case "never beats the exact optimum" `Quick (fun () ->
        let rng = rng_of 22 in
        for _ = 1 to 10 do
          let g = Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 3) ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let budget = Random.State.int rng 5 in
          let greedy = Greedy.min_makespan p ~budget in
          let opt = Exact.min_makespan p ~budget in
          Alcotest.(check bool) "opt <= greedy" true (opt.Exact.makespan <= greedy.Greedy.makespan)
        done);
  ]

let processors_units =
  [
    Alcotest.test_case "one processor serializes all work" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let alloc = Schedule.zero_allocation p in
        let total = Array.fold_left ( + ) 0 (Schedule.durations_at p alloc) in
        Alcotest.(check int) "T_1 = W" total
          (Processors.list_schedule p alloc ~processors:1).Processors.finish);
    Alcotest.test_case "many processors reach the makespan" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let alloc = Schedule.zero_allocation p in
        let t = Processors.list_schedule p alloc ~processors:(Problem.n_jobs p) in
        Alcotest.(check int) "T_inf" (Schedule.makespan p alloc) t.Processors.finish);
    Alcotest.test_case "graham sandwich on random instances" `Quick (fun () ->
        let rng = rng_of 23 in
        for _ = 1 to 20 do
          let g = Gen.erdos_renyi rng ~n:(6 + Random.State.int rng 8) ~edge_prob:0.35 in
          let p = Problem.of_race_dag g Problem.Binary in
          let alloc = Schedule.zero_allocation p in
          let w = Array.fold_left ( + ) 0 (Schedule.durations_at p alloc) in
          let t_inf = Schedule.makespan p alloc in
          List.iter
            (fun k ->
              let tp = (Processors.list_schedule p alloc ~processors:k).Processors.finish in
              Alcotest.(check bool) "lower" true (tp >= max t_inf ((w + k - 1) / k));
              Alcotest.(check bool) "upper (Graham)" true (tp <= (w / k) + t_inf))
            [ 1; 2; 3; 4 ]
        done);
    Alcotest.test_case "speedup curve is non-increasing" `Quick (fun () ->
        let rng = rng_of 24 in
        let g = Gen.erdos_renyi rng ~n:12 ~edge_prob:0.3 in
        let p = Problem.of_race_dag g Problem.Binary in
        let curve = Processors.speedup_curve p (Schedule.zero_allocation p) ~processors:[ 1; 2; 4; 8 ] in
        let rec mono = function
          | (_, a) :: (((_, b) :: _) as rest) -> b <= a && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (mono curve));
    Alcotest.test_case "schedule is a valid assignment" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let alloc = Schedule.zero_allocation p in
        let t = Processors.list_schedule p alloc ~processors:2 in
        let d = Schedule.durations_at p alloc in
        (* jobs on the same processor do not overlap *)
        let n = Problem.n_jobs p in
        for a = 0 to n - 1 do
          for b = a + 1 to n - 1 do
            if t.Processors.processor_of_job.(a) = t.Processors.processor_of_job.(b) then begin
              let sa = t.Processors.start_times.(a) and sb = t.Processors.start_times.(b) in
              Alcotest.(check bool) "no overlap" true (sa + d.(a) <= sb || sb + d.(b) <= sa)
            end
          done
        done;
        (* precedence respected *)
        List.iter
          (fun (u, v) ->
            Alcotest.(check bool) "precedence" true
              (t.Processors.start_times.(u) + d.(u) <= t.Processors.start_times.(v)))
          (Rtt_dag.Dag.edges p.Problem.dag));
  ]

let pareto_units =
  [
    Alcotest.test_case "exact frontier on Figure 4/5" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let curve = Pareto.exact ~max_budget:6 p in
        (* the sweep caps at the largest meaningful budget *)
        let expected = min 6 (Problem.max_meaningful_budget p) + 1 in
        Alcotest.(check int) "points" expected (List.length curve);
        Alcotest.(check int) "B=0" 11 (List.nth curve 0).Pareto.makespan;
        Alcotest.(check int) "B=2" 10 (List.nth curve 2).Pareto.makespan;
        (* monotone non-increasing *)
        let rec mono = function
          | a :: (b :: _ as rest) -> a.Pareto.makespan >= b.Pareto.makespan && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (mono curve));
    Alcotest.test_case "knees are the strict improvements" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        let curve = Pareto.exact ~max_budget:6 p in
        let ks = Pareto.knees curve in
        Alcotest.(check bool) "strictly decreasing" true
          (let rec go = function
             | a :: (b :: _ as rest) -> a.Pareto.makespan > b.Pareto.makespan && go rest
             | _ -> true
           in
           go ks));
    Alcotest.test_case "approximate frontier dominates nothing it should not" `Quick (fun () ->
        let rng = rng_of 31 in
        let g = Gen.erdos_renyi rng ~n:6 ~edge_prob:0.4 in
        let p = Problem.of_race_dag g Problem.Binary in
        let ex = Pareto.exact ~max_budget:5 p in
        let ap = Pareto.approximate ~max_budget:5 p in
        (* the approximation never claims better than exact at a budget it
           respects (its budget may overshoot by 4/3, so compare makespans
           only where its real cost fits) *)
        List.iter2
          (fun e a ->
            if Schedule.min_budget p a.Pareto.allocation <= e.Pareto.budget then
              Alcotest.(check bool) "not better than OPT" true (a.Pareto.makespan >= e.Pareto.makespan))
          ex ap;
        (* approximate curve is monotone by construction *)
        let rec mono = function
          | x :: (y :: _ as rest) -> x.Pareto.makespan >= y.Pareto.makespan && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (mono ap));
  ]

let nonreusable_units =
  [
    Alcotest.test_case "path reuse never costs more than no reuse" `Quick (fun () ->
        let rng = rng_of 41 in
        for _ = 1 to 12 do
          let g = Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 4) ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let budget = 1 + Random.State.int rng 5 in
          let reuse = Exact.min_makespan p ~budget in
          let noreuse = Nonreusable.exact p ~budget in
          (* with the same budget, reuse can only help *)
          Alcotest.(check bool) "reuse at least as good" true
            (reuse.Exact.makespan <= noreuse.Exact.makespan)
        done);
    Alcotest.test_case "figure 4/5: reuse is immaterial for a single hot node" `Quick (fun () ->
        let p = Problem.of_race_dag (fig45 ()) Problem.Binary in
        Alcotest.(check int) "same optimum" (Exact.min_makespan p ~budget:2).Exact.makespan
          (Nonreusable.exact p ~budget:2).Exact.makespan);
    Alcotest.test_case "chain of hot nodes: reuse wins" `Quick (fun () ->
        (* two hubs in series: path reuse serves both with 2 units,
           no-reuse needs 4 *)
        let g = Dag.create () in
        let s = Dag.add_vertex g in
        let mk_hub prev =
          let hub = Dag.add_vertex g in
          List.iter
            (fun f ->
              Dag.add_edge g prev f;
              Dag.add_edge g f hub)
            (List.init 8 (fun _ -> Dag.add_vertex g));
          hub
        in
        let h1 = mk_hub s in
        let h2 = mk_hub h1 in
        let t = Dag.add_vertex g in
        Dag.add_edge g h2 t;
        let p = Problem.of_race_dag g Problem.Binary in
        let reuse = Exact.min_makespan p ~budget:2 in
        let noreuse = Nonreusable.exact p ~budget:2 in
        Alcotest.(check bool) "reuse strictly better" true
          (reuse.Exact.makespan < noreuse.Exact.makespan));
    Alcotest.test_case "skutella bi-criteria guarantees hold" `Quick (fun () ->
        let rng = rng_of 43 in
        for _ = 1 to 10 do
          let p = random_instance rng ~n:(4 + Random.State.int rng 4) ~max_tuples:3 in
          let budget = 1 + Random.State.int rng 5 in
          let r = Nonreusable.min_makespan p ~budget ~alpha:Rat.half in
          Alcotest.(check bool) "guarantees" true (Nonreusable.satisfies_guarantees r);
          (* the no-reuse LP budget counts sums, so the rounded allocation
             really costs its sum *)
          Alcotest.(check int) "cost is the sum" r.Nonreusable.budget_used
            (Array.fold_left ( + ) 0 r.Nonreusable.allocation)
        done);
    Alcotest.test_case "no-reuse LP lower-bounds its exact optimum" `Quick (fun () ->
        let rng = rng_of 44 in
        for _ = 1 to 8 do
          let g = Gen.erdos_renyi rng ~n:(5 + Random.State.int rng 3) ~edge_prob:0.4 in
          let p = Problem.of_race_dag g Problem.Binary in
          let budget = 1 + Random.State.int rng 4 in
          let r = Nonreusable.min_makespan p ~budget ~alpha:Rat.half in
          let opt = Nonreusable.exact p ~budget in
          Alcotest.(check bool) "lp <= opt" true
            Rat.(r.Nonreusable.lp_makespan <= Rat.of_int opt.Exact.makespan)
        done);
  ]

let () =
  Alcotest.run "rtt_core"
    [
      ("problem", problem_units);
      ("schedule", schedule_units);
      ("transform", transform_units);
      ("lp-relaxation", lp_units);
      ("rounding-rule", binary_round_units);
      ("best-alpha", best_alpha_units);
      ("approximation-properties", approx_props);
      ("series-parallel-dp", sp_units);
      ("series-parallel-properties", sp_props);
      ("exact", exact_units);
      ("exact-differential", differential_props);
      ("reuse-regimes", reuse_units);
      ("io", io_units);
      ("greedy", greedy_units);
      ("processors", processors_units);
      ("pareto", pareto_units);
      ("nonreusable", nonreusable_units);
    ]
