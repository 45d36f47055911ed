(* Tests for the hardened solver engine: structured errors, fuel
   budgets, fallback chains, certificate validation, and fault
   injection. The acceptance-critical scenarios: an injected simplex
   fault degrades to the greedy rung (visibly, not as an exception);
   exhausting fuel on the exact rung of a 20-job instance terminates
   with Fuel_exhausted and falls back; corrupting a returned allocation
   by one unit on one vertex is caught as Certificate_mismatch. *)

open Rtt_dag
open Rtt_core
open Rtt_num
open Rtt_engine

let rng_of seed = Random.State.make [| seed |]

(* The Figure 4/5 instance: node c (vertex 3) has in-degree 6; the
   optimum at budget 2 puts both units on c for makespan 10. *)
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
  Problem.of_race_dag g Problem.Binary

let random_instance rng ~n kind =
  Problem.of_race_dag (Gen.erdos_renyi rng ~n ~edge_prob:0.35) kind

let check_ok what = function
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: engine failed with %s" what (Error.to_string e)

let plain_claim rung allocation makespan budget_used budget =
  {
    Validate.rung;
    allocation;
    makespan;
    budget_used;
    budget;
    alpha = None;
    lp_makespan = None;
    lp_budget = None;
  }

(* ------------------------------------------------------------------ *)
(* (a) without fuel limits or faults, the engine is a transparent
   wrapper: same answers as calling the algorithms directly            *)

let agreement_units =
  let check_rung rung ~seed ~runs check =
    let rng = rng_of seed in
    for _ = 1 to runs do
      let p = random_instance rng ~n:(6 + Random.State.int rng 3) Problem.Binary in
      let budget = Random.State.int rng 5 in
      let s = check_ok (Policy.rung_name rung) (Engine.solve ~policy:[ rung ] p ~budget) in
      Alcotest.(check (list bool)) "not degraded" [] (List.map (fun _ -> true) s.Engine.degraded);
      check p ~budget s
    done
  in
  [
    Alcotest.test_case "exact rung equals direct Exact" `Quick (fun () ->
        check_rung Policy.Exact ~seed:101 ~runs:12 (fun p ~budget s ->
            let r = Exact.min_makespan p ~budget in
            Alcotest.(check int) "makespan" r.Exact.makespan s.Engine.makespan;
            Alcotest.(check int) "budget" r.Exact.budget_used s.Engine.budget_used));
    Alcotest.test_case "bicriteria rung equals direct Bicriteria" `Quick (fun () ->
        check_rung Policy.Bicriteria ~seed:102 ~runs:12 (fun p ~budget s ->
            let bi = Bicriteria.min_makespan p ~budget ~alpha:Rat.half in
            Alcotest.(check int) "makespan" bi.Bicriteria.rounded.Rounding.makespan
              s.Engine.makespan;
            Alcotest.(check int) "budget" bi.Bicriteria.rounded.Rounding.budget_used
              s.Engine.budget_used));
    Alcotest.test_case "greedy rung equals direct Greedy" `Quick (fun () ->
        check_rung Policy.Greedy ~seed:103 ~runs:12 (fun p ~budget s ->
            let r = Greedy.min_makespan p ~budget in
            Alcotest.(check int) "makespan" r.Greedy.makespan s.Engine.makespan;
            Alcotest.(check int) "budget" r.Greedy.budget_used s.Engine.budget_used));
    Alcotest.test_case "default policy answers from the exact rung" `Quick (fun () ->
        let rng = rng_of 104 in
        for _ = 1 to 8 do
          let p = random_instance rng ~n:7 Problem.Binary in
          let budget = Random.State.int rng 4 in
          let s = check_ok "default" (Engine.solve p ~budget) in
          Alcotest.(check string) "rung" "exact" (Policy.rung_name s.Engine.rung);
          Alcotest.(check bool) "not degraded" false (Engine.degraded_to s);
          Alcotest.(check int) "optimal" (Exact.min_makespan p ~budget).Exact.makespan
            s.Engine.makespan
        done);
    Alcotest.test_case "every rung validates its own genuine answer" `Quick (fun () ->
        List.iter
          (fun rung ->
            let rng = rng_of 105 in
            for _ = 1 to 6 do
              let kind = if rung = Policy.Kway then Problem.Kway else Problem.Binary in
              let p = random_instance rng ~n:(5 + Random.State.int rng 4) kind in
              let budget = Random.State.int rng 5 in
              ignore (check_ok (Policy.rung_name rung) (Engine.solve ~policy:[ rung ] p ~budget))
            done)
          Policy.all_rungs);
    Alcotest.test_case "deterministic: same query, same outcome" `Quick (fun () ->
        let p = random_instance (rng_of 106) ~n:10 Problem.Binary in
        let once () =
          match Engine.solve ~fuel:400 p ~budget:3 with
          | Ok s ->
              ( "ok",
                Policy.rung_name s.Engine.rung,
                s.Engine.makespan,
                s.Engine.fuel_spent,
                List.length s.Engine.degraded )
          | Error e -> (Error.class_name e, "", 0, 0, 0)
        in
        let a = once () and b = once () in
        Alcotest.(check bool) "equal outcomes" true (a = b));
  ]

(* ------------------------------------------------------------------ *)
(* (b) fallback chains: every rung is reachable under injected faults  *)

let fallback_units =
  [
    Alcotest.test_case "injected LP fault degrades to greedy, not an exception" `Quick (fun () ->
        let p = random_instance (rng_of 201) ~n:9 Problem.Binary in
        let s =
          Faults.with_fault Faults.Lp_infeasible (fun () ->
              check_ok "lp fault" (Engine.solve ~policy:[ Policy.Bicriteria; Policy.Greedy ] p ~budget:3))
        in
        Alcotest.(check string) "rung" "greedy" (Policy.rung_name s.Engine.rung);
        Alcotest.(check bool) "degraded" true (Engine.degraded_to s);
        (match s.Engine.degraded with
        | [ { Engine.rung = Policy.Bicriteria; error = Error.Lp_failure _ } ] -> ()
        | _ -> Alcotest.fail "expected a single bicriteria/Lp_failure report");
        let direct = Greedy.min_makespan p ~budget:3 in
        Alcotest.(check int) "greedy answer" direct.Greedy.makespan s.Engine.makespan);
    Alcotest.test_case "fuel exhaustion on exact (20 jobs) falls back" `Quick (fun () ->
        let p = random_instance (rng_of 202) ~n:20 Problem.Binary in
        (* fewer steps than one branch-and-bound dive over 20 jobs, so
           the exact rung cannot even reach its first leaf *)
        let s = check_ok "fuel" (Engine.solve ~fuel:15 p ~budget:3) in
        Alcotest.(check bool) "not exact" true (s.Engine.rung <> Policy.Exact);
        (match s.Engine.degraded with
        | { Engine.rung = Policy.Exact; error = Error.Fuel_exhausted { stage; spent } } :: _ ->
            Alcotest.(check string) "stage" "exact" stage;
            Alcotest.(check bool) "spent counted" true (spent > 0)
        | _ -> Alcotest.fail "expected exact to fail first with Fuel_exhausted"));
    Alcotest.test_case "fuel-zero fault reaches the bicriteria rung" `Quick (fun () ->
        let p = random_instance (rng_of 203) ~n:8 Problem.Binary in
        let s =
          Faults.with_fault ~after:5 Faults.Fuel_zero (fun () ->
              check_ok "fuel zero" (Engine.solve ~fuel:1_000_000_000 p ~budget:3))
        in
        Alcotest.(check string) "rung" "bicriteria" (Policy.rung_name s.Engine.rung);
        match s.Engine.degraded with
        | [ { Engine.rung = Policy.Exact; error = Error.Fuel_exhausted _ } ] -> ()
        | _ -> Alcotest.fail "expected exact to die of the zeroed fuel");
    Alcotest.test_case "two faults reach the greedy rung of the default chain" `Quick (fun () ->
        let p = random_instance (rng_of 204) ~n:8 Problem.Binary in
        let s =
          Fun.protect ~finally:Faults.reset (fun () ->
              Faults.arm ~after:5 Faults.Fuel_zero;
              Faults.arm Faults.Lp_infeasible;
              check_ok "two faults" (Engine.solve ~fuel:1_000_000_000 p ~budget:3))
        in
        Alcotest.(check string) "rung" "greedy" (Policy.rung_name s.Engine.rung);
        Alcotest.(check int) "two rungs skipped" 2 (List.length s.Engine.degraded));
    Alcotest.test_case "flow-abort fault degrades greedy to baseline" `Quick (fun () ->
        let p = fig45 () in
        let s =
          Faults.with_fault Faults.Flow_abort (fun () ->
              check_ok "flow abort"
                (Engine.solve ~policy:[ Policy.Greedy; Policy.Baseline ] p ~budget:2))
        in
        Alcotest.(check string) "rung" "baseline" (Policy.rung_name s.Engine.rung);
        (match s.Engine.degraded with
        | [ { Engine.rung = Policy.Greedy; error } ] -> (
            match error with
            | Error.Fault_injected _ | Error.Flow_failure _ -> ()
            | e -> Alcotest.failf "unexpected error class %s" (Error.class_name e))
        | _ -> Alcotest.fail "expected a single greedy report");
        Alcotest.(check int) "baseline budget" 0 s.Engine.budget_used;
        Alcotest.(check int) "baseline makespan" 11 s.Engine.makespan);
    Alcotest.test_case "zero fuel degrades all the way to baseline" `Quick (fun () ->
        let p = fig45 () in
        let s = check_ok "zero fuel" (Engine.solve ~fuel:0 p ~budget:2) in
        Alcotest.(check string) "rung" "baseline" (Policy.rung_name s.Engine.rung);
        Alcotest.(check int) "three rungs skipped" 3 (List.length s.Engine.degraded);
        List.iter
          (fun (r : Engine.report) ->
            match r.Engine.error with
            | Error.Fuel_exhausted _ -> ()
            | e -> Alcotest.failf "expected fuel exhaustion, got %s" (Error.class_name e))
          s.Engine.degraded);
    Alcotest.test_case "a one-rung chain fails with its own error class" `Quick (fun () ->
        let p = random_instance (rng_of 205) ~n:20 Problem.Binary in
        match Engine.solve ~fuel:10 ~policy:[ Policy.Exact ] p ~budget:3 with
        | Error (Error.Fuel_exhausted { stage = "exact"; _ }) -> ()
        | Error e -> Alcotest.failf "expected Fuel_exhausted, got %s" (Error.class_name e)
        | Ok _ -> Alcotest.fail "expected failure under 10 fuel");
    Alcotest.test_case "faults do not leak into later solves" `Quick (fun () ->
        let p = fig45 () in
        (try
           ignore
             (Faults.with_fault Faults.Lp_infeasible (fun () ->
                  Engine.solve ~policy:[ Policy.Bicriteria ] p ~budget:2))
         with _ -> ());
        let s = check_ok "clean" (Engine.solve ~policy:[ Policy.Bicriteria ] p ~budget:2) in
        Alcotest.(check bool) "not degraded" false (Engine.degraded_to s));
  ]

(* ------------------------------------------------------------------ *)
(* (c) certificate validation                                          *)

let validation_units =
  [
    Alcotest.test_case "genuine exact certificate validates" `Quick (fun () ->
        let p = fig45 () in
        let r = Exact.min_makespan p ~budget:2 in
        let claim = plain_claim Policy.Exact r.Exact.allocation r.Exact.makespan r.Exact.budget_used 2 in
        match Validate.check p claim with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rejected a genuine certificate: %s" (Error.to_string e));
    Alcotest.test_case "corrupting one vertex by -1 is a Certificate_mismatch" `Quick (fun () ->
        let p = fig45 () in
        let r = Exact.min_makespan p ~budget:2 in
        (* vertex 3 is c, the fan-in hub holding both units *)
        Alcotest.(check int) "c gets both units" 2 r.Exact.allocation.(3);
        let claim =
          plain_claim Policy.Exact
            (Validate.corrupt r.Exact.allocation ~vertex:3 ~delta:(-1))
            r.Exact.makespan r.Exact.budget_used 2
        in
        (match Validate.check p claim with
        | Error (Error.Certificate_mismatch _) -> ()
        | Error e -> Alcotest.failf "wrong error class %s" (Error.class_name e)
        | Ok () -> Alcotest.fail "validator accepted a corrupted allocation"));
    Alcotest.test_case "corrupting one vertex by +1 is a Certificate_mismatch" `Quick (fun () ->
        let p = fig45 () in
        let r = Exact.min_makespan p ~budget:2 in
        let claim =
          plain_claim Policy.Exact
            (Validate.corrupt r.Exact.allocation ~vertex:3 ~delta:1)
            r.Exact.makespan r.Exact.budget_used 2
        in
        (match Validate.check p claim with
        | Error (Error.Certificate_mismatch _) -> ()
        | Error e -> Alcotest.failf "wrong error class %s" (Error.class_name e)
        | Ok () -> Alcotest.fail "validator accepted a corrupted allocation"));
    Alcotest.test_case "randomized: validator flags exactly the real corruptions" `Quick (fun () ->
        let rng = rng_of 301 in
        for _ = 1 to 10 do
          let p = random_instance rng ~n:(6 + Random.State.int rng 3) Problem.Binary in
          let budget = 1 + Random.State.int rng 4 in
          let r = Exact.min_makespan p ~budget in
          for v = 0 to Problem.n_jobs p - 1 do
            List.iter
              (fun delta ->
                if r.Exact.allocation.(v) + delta >= 0 then begin
                  let corrupted = Validate.corrupt r.Exact.allocation ~vertex:v ~delta in
                  let really_changed =
                    Schedule.makespan p corrupted <> r.Exact.makespan
                    || Schedule.min_budget p corrupted <> r.Exact.budget_used
                  in
                  let claim =
                    plain_claim Policy.Exact corrupted r.Exact.makespan r.Exact.budget_used budget
                  in
                  match (Validate.check p claim, really_changed) with
                  | Error (Error.Certificate_mismatch _), true | Ok (), false -> ()
                  | Ok (), true -> Alcotest.fail "validator missed a corrupted certificate"
                  | Error e, false ->
                      Alcotest.failf "validator rejected an unchanged certificate: %s"
                        (Error.to_string e)
                  | Error e, true -> Alcotest.failf "wrong error class %s" (Error.class_name e)
                end)
              [ -1; 1 ]
          done
        done);
    Alcotest.test_case "claimed approximation bound is enforced" `Quick (fun () ->
        let p = fig45 () in
        let bi = Bicriteria.min_makespan p ~budget:2 ~alpha:Rat.half in
        let base =
          {
            Validate.rung = Policy.Bicriteria;
            allocation = bi.Bicriteria.rounded.Rounding.allocation;
            makespan = bi.Bicriteria.rounded.Rounding.makespan;
            budget_used = bi.Bicriteria.rounded.Rounding.budget_used;
            budget = 2;
            alpha = Some Rat.half;
            lp_makespan = Some bi.Bicriteria.lp.Lp_relax.makespan;
            lp_budget = Some bi.Bicriteria.lp.Lp_relax.budget_used;
          }
        in
        (match Validate.check p base with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rejected a genuine bicriteria claim: %s" (Error.to_string e));
        (* shrink the claimed LP bound until the 1/alpha factor is violated *)
        let tiny = Rat.of_ints 1 100 in
        let forged = { base with Validate.lp_makespan = Some tiny } in
        match Validate.check p forged with
        | Error (Error.Certificate_mismatch { what = "approximation bound"; _ }) -> ()
        | Error e -> Alcotest.failf "wrong error class %s" (Error.class_name e)
        | Ok () -> Alcotest.fail "validator accepted a forged LP bound");
    Alcotest.test_case "an LP budget above the budget is a Certificate_mismatch" `Quick (fun () ->
        (* every job at its largest useful level, claiming an LP budget
           equal to that allocation's use: the use then fits both
           rungs' factor of the claimed LP budget, so the claim must be
           refused for the LP budget itself exceeding the budget *)
        let rng = rng_of 1904 in
        let forged = ref 0 in
        for _ = 1 to 20 do
          let g = Gen.layered rng ~layers:3 ~width:3 ~edge_prob:0.4 in
          let p =
            Problem.make g ~durations:(fun _ ->
                let t0 = 2 + Random.State.int rng 8 in
                Rtt_duration.Duration.two_point ~t0 ~r:(1 + Random.State.int rng 3)
                  ~t1:(Random.State.int rng t0))
          in
          let budget = 1 + Random.State.int rng 3 in
          let allocation =
            Array.init (Problem.n_jobs p) (fun v ->
                Rtt_duration.Duration.max_useful_resource (Problem.duration p v))
          in
          let used = Schedule.min_budget p allocation in
          if used > budget then begin
            incr forged;
            let bi = Bicriteria.min_makespan p ~budget ~alpha:Rat.half in
            let bb = Binary_bicriteria.min_makespan p ~budget in
            List.iter
              (fun (rung, alpha, (lp : Lp_relax.solution)) ->
                let claim =
                  {
                    Validate.rung;
                    allocation;
                    makespan = Schedule.makespan p allocation;
                    budget_used = used;
                    budget;
                    alpha;
                    lp_makespan = Some lp.Lp_relax.makespan;
                    lp_budget = Some (Rat.of_int used);
                  }
                in
                match Validate.check p claim with
                | Error (Error.Certificate_mismatch { what = "LP budget"; _ }) -> ()
                | Error e -> Alcotest.failf "wrong rejection: %s" (Error.to_string e)
                | Ok () ->
                    Alcotest.failf "%s: accepted an LP budget of %d over a budget of %d"
                      (Policy.rung_name rung) used budget)
              [
                (Policy.Bicriteria, Some Rat.half, bi.Bicriteria.lp);
                (Policy.Binary_bicriteria, None, bb.Binary_bicriteria.lp);
              ]
          end
        done;
        Alcotest.(check bool) "some allocations use more than the budget" true (!forged > 0));
    Alcotest.test_case "wrong-length allocation is a Certificate_mismatch" `Quick (fun () ->
        let p = fig45 () in
        let claim = plain_claim Policy.Baseline [| 0 |] 11 0 0 in
        match Validate.check p claim with
        | Error (Error.Certificate_mismatch _) -> ()
        | _ -> Alcotest.fail "expected a mismatch");
  ]

(* ------------------------------------------------------------------ *)
(* structured errors at the boundary                                   *)

let boundary_units =
  [
    Alcotest.test_case "parse errors carry line numbers through the engine" `Quick (fun () ->
        (match Engine.load_string "vertices 2\nduration 0 nope" with
        | Error (Error.Parse_error { line = 2; _ }) -> ()
        | Error e -> Alcotest.failf "wrong error %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "accepted malformed input");
        match Engine.load "/nonexistent/instance.rtt" with
        | Error (Error.Io_error _) -> ()
        | Error e -> Alcotest.failf "wrong error %s" (Error.to_string e)
        | Ok _ -> Alcotest.fail "loaded a nonexistent file");
    Alcotest.test_case "invalid requests are rejected, not raised" `Quick (fun () ->
        let p = fig45 () in
        (match Engine.solve p ~budget:(-1) with
        | Error (Error.Invalid_request _) -> ()
        | _ -> Alcotest.fail "negative budget accepted");
        (match Engine.solve ~alpha:Rat.two p ~budget:2 with
        | Error (Error.Invalid_request _) -> ()
        | _ -> Alcotest.fail "alpha = 2 accepted");
        match Engine.solve ~policy:[] p ~budget:2 with
        | Error (Error.Invalid_request _) -> ()
        | _ -> Alcotest.fail "empty policy accepted");
    Alcotest.test_case "exit codes are stable and distinct per class" `Quick (fun () ->
        let samples =
          [
            Error.Parse_error { line = 1; msg = "" };
            Error.Io_error "";
            Error.Invalid_instance "";
            Error.Invalid_request "";
            Error.Too_large { states = 0 };
            Error.Fuel_exhausted { stage = ""; spent = 0 };
            Error.Lp_failure "";
            Error.Flow_failure "";
            Error.Fault_injected { site = "" };
            Error.Certificate_mismatch { what = ""; expected = ""; got = "" };
            Error.All_rungs_failed [];
            Error.Internal "";
          ]
        in
        let codes = List.map Error.exit_code samples in
        Alcotest.(check bool) "all nonzero" true (List.for_all (fun c -> c > 1) codes);
        Alcotest.(check int) "distinct" (List.length codes)
          (List.length (List.sort_uniq compare codes)));
    Alcotest.test_case "policy round-trips through of_string" `Quick (fun () ->
        (match Policy.of_string (Policy.to_string Policy.default) with
        | Ok p -> Alcotest.(check string) "round trip" (Policy.to_string Policy.default)
                    (Policy.to_string p)
        | Error m -> Alcotest.failf "rejected default policy: %s" m);
        (match Policy.of_string "exact, greedy" with
        | Ok [ Policy.Exact; Policy.Greedy ] -> ()
        | _ -> Alcotest.fail "spaces around commas should be accepted");
        match Policy.of_string "exact,nope" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown rung accepted");
    Alcotest.test_case "too-large exact instances fail structurally" `Quick (fun () ->
        (* fig45's hub vertex has two duration options at budget 2, so
           the state space strictly exceeds a cap of one state *)
        let p = fig45 () in
        match Engine.solve ~max_states:1 ~policy:[ Policy.Exact ] p ~budget:2 with
        | Error (Error.Too_large { states }) -> Alcotest.(check bool) "states" true (states > 1)
        | Error e -> Alcotest.failf "wrong error %s" (Error.class_name e)
        | Ok _ -> Alcotest.fail "expected Too_large");
  ]

(* ------------------------------------------------------------------ *)
(* (e) content addressing: the fingerprint digest and the result cache *)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rtt-%s-%d-%d" tag (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* keep the [vertices] header first (the parser needs the count before
   any directive that references a vertex), shuffle everything else *)
let shuffle_instance_text rng text =
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' text) with
  | [] -> text
  | header :: rest ->
      let tagged = List.map (fun l -> (Random.State.bits rng, l)) rest in
      let shuffled = List.map snd (List.sort compare tagged) in
      String.concat "\n" (header :: shuffled) ^ "\n"

let third = Rat.make Bigint.one (Bigint.of_int 3)

let fingerprint_units =
  [
    prop "digest: declaration order is irrelevant" 60
      QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
      (fun (iseed, sseed) ->
        let p = random_instance (rng_of iseed) ~n:8 Problem.Binary in
        let text = Io.to_string p in
        let p2 = Io.of_string (shuffle_instance_text (rng_of sseed) text) in
        Fingerprint.digest p ~budget:3 = Fingerprint.digest p2 ~budget:3);
    prop "digest: budget, alpha, and policy are all part of the key" 40
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let p = random_instance (rng_of seed) ~n:7 Problem.Binary in
        let base = Fingerprint.digest p ~budget:3 in
        base <> Fingerprint.digest p ~budget:4
        && base <> Fingerprint.digest ~alpha:third p ~budget:3
        && base <> Fingerprint.digest ~policy:[ Policy.Greedy ] p ~budget:3);
    Alcotest.test_case "digest: the file name is not part of the key" `Quick (fun () ->
        let p = fig45 () in
        let dir = fresh_dir "name" in
        let write name =
          Io.write_file (Filename.concat dir name) p;
          match Engine.load (Filename.concat dir name) with
          | Ok p -> Fingerprint.digest p ~budget:2
          | Error e -> Alcotest.failf "load: %s" (Error.to_string e)
        in
        Alcotest.(check string) "same digest" (write "alpha.rtt") (write "renamed_copy.rtt"));
    Alcotest.test_case "digest: one duration point moves it" `Quick (fun () ->
        let p = fig45 () in
        let bump v' d =
          match Rtt_duration.Duration.tuples d with
          | (0, t0) :: rest when v' = 3 -> Rtt_duration.Duration.make ((0, t0 + 1) :: rest)
          | _ -> d
        in
        let p2 = Problem.make p.Problem.dag ~durations:(fun v -> bump v (Problem.duration p v)) in
        Alcotest.(check bool)
          "digests differ" true
          (Fingerprint.digest p ~budget:2 <> Fingerprint.digest p2 ~budget:2));
    Alcotest.test_case "digest: one edge moves it" `Quick (fun () ->
        let p = fig45 () in
        let text = Io.to_string p in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
        let edges, others =
          List.partition (fun l -> String.length l > 5 && String.sub l 0 5 = "edge ") lines
        in
        let dropped =
          match edges with
          | [] -> Alcotest.fail "no edges in fig45"
          | _ :: rest -> others @ rest
        in
        let p2 = Io.of_string (String.concat "\n" dropped ^ "\n") in
        Alcotest.(check bool)
          "digests differ" true
          (Fingerprint.digest p ~budget:2 <> Fingerprint.digest p2 ~budget:2));
  ]

let roundtrip_claim (s : Engine.success) ~budget : Validate.claim =
  {
    Validate.rung = s.Engine.rung;
    allocation = s.Engine.allocation;
    makespan = s.Engine.makespan;
    budget_used = s.Engine.budget_used;
    budget;
    alpha = (if s.Engine.rung = Policy.Bicriteria then Some Rat.half else None);
    lp_makespan = s.Engine.lp_makespan;
    lp_budget = s.Engine.lp_budget;
  }

let cache_units =
  [
    Alcotest.test_case "round-trip: a stored solve reads back validate-clean" `Quick (fun () ->
        let p = fig45 () in
        let dir = fresh_dir "cache" in
        let s = check_ok "solve" (Engine.solve p ~budget:2) in
        let key = Fingerprint.digest p ~budget:2 in
        Cache.store ~dir ~key s;
        Alcotest.(check int) "one entry" 1 (Cache.entries ~dir);
        match Cache.lookup ~dir ~key with
        | None -> Alcotest.fail "expected a hit"
        | Some c ->
            Alcotest.(check int) "makespan" s.Engine.makespan c.Engine.makespan;
            Alcotest.(check int) "budget_used" s.Engine.budget_used c.Engine.budget_used;
            Alcotest.(check (array int)) "allocation" s.Engine.allocation c.Engine.allocation;
            Alcotest.(check int) "no fuel charged" 0 c.Engine.fuel_spent;
            (match Validate.check p (roundtrip_claim c ~budget:2) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "re-validation rejected the hit: %s" (Error.to_string e)));
    Alcotest.test_case "round-trip: a bicriteria result keeps its LP evidence" `Quick (fun () ->
        let p = fig45 () in
        let dir = fresh_dir "cache-bi" in
        List.iter
          (fun rung ->
            let s = check_ok "solve" (Engine.solve ~policy:[ rung ] p ~budget:2) in
            let key = Fingerprint.digest ~policy:[ rung ] p ~budget:2 in
            Cache.store ~dir ~key s;
            match Cache.lookup ~dir ~key with
            | None -> Alcotest.fail "expected a hit"
            | Some c -> (
                Alcotest.(check bool)
                  "lp_makespan kept" true
                  (c.Engine.lp_makespan = s.Engine.lp_makespan);
                match Validate.check p (roundtrip_claim c ~budget:2) with
                | Ok () -> ()
                | Error e ->
                    Alcotest.failf "re-validation rejected the hit: %s" (Error.to_string e)))
          [ Policy.Bicriteria; Policy.Binary_bicriteria ]);
    Alcotest.test_case "a corrupted entry is a miss, not a wrong answer" `Quick (fun () ->
        let p = fig45 () in
        let dir = fresh_dir "cache-corrupt" in
        let s = check_ok "solve" (Engine.solve p ~budget:2) in
        let key = Fingerprint.digest p ~budget:2 in
        Cache.store ~dir ~key s;
        let path = Cache.path ~dir ~key in
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let flip i =
          let b = Bytes.of_string text in
          Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out oc
        in
        (* corrupt the payload: checksum mismatch *)
        flip (String.length text - 1);
        Alcotest.(check bool) "payload corruption -> miss" true (Cache.lookup ~dir ~key = None);
        (* truncate: no room for a checksum *)
        let oc = open_out_bin path in
        output_string oc (String.sub text 0 10);
        close_out oc;
        Alcotest.(check bool) "truncated -> miss" true (Cache.lookup ~dir ~key = None);
        Alcotest.(check bool) "absent key -> miss" true
          (Cache.lookup ~dir ~key:(String.make 32 'f') = None);
        Alcotest.(check int) "missing dir counts zero" 0
          (Cache.entries ~dir:(Filename.concat dir "nowhere")));
    prop "round-trip: arbitrary successes survive store/lookup" 40
      QCheck.(
        quad (int_range 0 1000) (int_range 0 50)
          (small_list (int_range 0 9))
          (pair bool (int_range 1 50)))
      (fun (makespan, budget_used, alloc, (with_lp, lp_num)) ->
        let dir = fresh_dir "cache-prop" in
        let s =
          {
            Engine.rung = Policy.Exact;
            allocation = Array.of_list alloc;
            makespan;
            budget_used;
            lp_makespan = (if with_lp then Some (Rat.make (Bigint.of_int lp_num) (Bigint.of_int 7)) else None);
            lp_budget = None;
            degraded = [];
            fuel_spent = 12345;
          }
        in
        let key = String.make 32 'a' in
        Cache.store ~dir ~key s;
        match Cache.lookup ~dir ~key with
        | None -> false
        | Some c ->
            c.Engine.makespan = makespan && c.Engine.budget_used = budget_used
            && c.Engine.allocation = Array.of_list alloc
            && c.Engine.lp_makespan = s.Engine.lp_makespan
            && c.Engine.fuel_spent = 0);
  ]

let () =
  Alcotest.run "engine"
    [
      ("agreement", agreement_units);
      ("fallback", fallback_units);
      ("validation", validation_units);
      ("boundary", boundary_units);
      ("fingerprint", fingerprint_units);
      ("cache", cache_units);
    ]
