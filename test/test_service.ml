(* Tests for the crash-safe batch service: journal wire format and
   replay semantics (qcheck properties included), retry classification
   and deterministic backoff, checkpoint sidecars, kernel
   checkpoint/resume (exact warm start, SP table snapshots), the
   in-process supervisor (drain, fault-driven retry, fuel deadlines),
   and the process-level acceptance scenarios: SIGKILL crash recovery
   and SIGTERM graceful shutdown against the real rtt binary. *)

open Rtt_dag
open Rtt_duration
open Rtt_budget
open Rtt_core
open Rtt_engine
open Rtt_service

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)
let rng_of seed = Random.State.make [| seed |]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)

let fresh_spool =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let write_job ~spool name p = write_file (Filename.concat spool name) (Io.to_string p)

let cheap_instance seed =
  Problem.of_race_dag (Gen.erdos_renyi (rng_of seed) ~n:6 ~edge_prob:0.35) Problem.Binary

(* n independent vertices between s and t, each with a flat resource-time
   tradeoff (r, 10 - r). The branch-and-bound's best-case lower bound
   stays below the optimum almost everywhere, so a cold exact search
   visits a large share of its opts^n states — genuinely slow to solve
   cold, yet it collapses under an incumbent warm start, which is
   exactly the shape the crash/resume tests need. *)
let wide_flat ~n ~opts =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let t = Dag.add_vertex ~label:"t" g in
  let vs = List.init n (fun _ -> Dag.add_vertex g) in
  List.iter
    (fun v ->
      Dag.add_edge g s v;
      Dag.add_edge g v t)
    vs;
  Problem.make g ~durations:(fun v ->
      if v = s || v = t then Duration.constant 0
      else Duration.make (List.init opts (fun r -> (r, 10 - r))))

let fuel_of f =
  Budget.with_fuel (Some 50_000_000) (fun () ->
      let r = f () in
      (r, Budget.spent ()))

let record_testable =
  let pp fmt (r : Journal.record) = Format.pp_print_string fmt (Journal.encode r) in
  Alcotest.testable pp ( = )

(* ------------------------------------------------------------------ *)
(* journal wire format and replay                                      *)

let job_name_gen =
  QCheck.Gen.(
    map
      (fun chars -> String.concat "" (List.map (String.make 1) chars))
      (list_size (int_range 1 20)
         (oneof
            [
              char_range 'a' 'z';
              char_range '0' '9';
              oneofl [ '.'; '-'; '_'; ' '; '%'; '\n' ];
            ])))

let event_gen =
  QCheck.Gen.(
    let attempt = int_range 1 9 in
    let cls = oneofl [ "fuel-exhausted"; "lp-failure"; "parse-error"; "retries-exhausted" ] in
    oneof
      [
        return Journal.Queued;
        map (fun attempt -> Journal.Started { attempt }) attempt;
        map
          (fun ((attempt, cached), (makespan, budget_used, fuel)) ->
            Journal.Done { attempt; makespan; budget_used; fuel; cached })
          (pair (pair attempt bool) (triple (int_range 0 1000) (int_range 0 50) (int_range 0 100000)));
        map
          (fun (attempt, error_class, (transient, backoff)) ->
            Journal.Failed { attempt; error_class; transient; backoff })
          (triple attempt cls (pair bool (int_range 0 2200)));
        map (fun attempt -> Journal.Abandoned { attempt }) attempt;
      ])

let record_gen =
  QCheck.make
    ~print:(fun r -> Journal.encode r)
    QCheck.Gen.(map (fun (job, event) -> { Journal.job; event }) (pair job_name_gen event_gen))

let records_gen =
  QCheck.make
    ~print:(fun rs -> String.concat " | " (List.map Journal.encode rs))
    QCheck.Gen.(list_size (int_range 0 25) (QCheck.gen record_gen))

(* Reference for [Journal.states]: the association-list fold the index
   replaced, in first-encounter order, copying the list on every step.
   The index must agree with it entry for entry. *)
let oracle_apply states { Journal.job; event } =
  let rec go = function
    | [] -> [ (job, Journal.step None event) ]
    | (j, s) :: rest when j = job -> (j, Journal.step (Some s) event) :: rest
    | entry :: rest -> entry :: go rest
  in
  go states

let oracle_fold records = List.fold_left oracle_apply [] records

(* a small pool, so jobs repeat and late events land after a Done;
   hostile names included (the index is keyed by the raw name) *)
let pooled_job_names =
  [ "a.rtt"; "b.rtt"; ""; "with space"; "%41"; "line\nbreak"; "x\000y"; String.make 64 'f' ]

let pooled_records_gen =
  QCheck.make
    ~print:(fun rs -> String.concat " | " (List.map Journal.encode rs))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (map
           (fun (job, event) -> { Journal.job; event })
           (pair (oneofl pooled_job_names) event_gen)))

let journal_props =
  [
    prop "encode/decode roundtrip (incl. hostile job names)" 300 record_gen (fun r ->
        Journal.decode (Journal.encode r) = Some r);
    prop "file roundtrip: append all, replay all" 50 records_gen (fun records ->
        let spool = fresh_spool "jrt" in
        let j = Journal.open_ ~spool in
        List.iter (Journal.append j) records;
        Journal.close j;
        Journal.replay ~spool = records);
    prop "replay is idempotent: fold a prefix, then the rest" 120
      QCheck.(pair records_gen small_nat)
      (fun (records, k) ->
        let k = k mod (List.length records + 1) in
        let prefix = List.filteri (fun i _ -> i < k) records in
        let rest = List.filteri (fun i _ -> i >= k) records in
        Journal.to_list (List.fold_left Journal.apply (Journal.fold prefix) rest)
        = Journal.to_list (Journal.fold records));
    prop "index agrees with the association-list oracle" 300 pooled_records_gen (fun records ->
        let states = Journal.fold records and oracle = oracle_fold records in
        Journal.to_list states = oracle
        && List.for_all
             (fun job -> Journal.find states job = List.assoc_opt job oracle)
             ("absent.rtt" :: pooled_job_names));
    prop "torn tail: a truncated final record is dropped, prefix survives" 50 records_gen
      (fun records ->
        let spool = fresh_spool "torn" in
        let j = Journal.open_ ~spool in
        List.iter (Journal.append j) records;
        Journal.close j;
        match records with
        | [] -> Journal.replay ~spool = []
        | _ ->
            (* chop the file mid-way through its final line (the newline
               and two more bytes), simulating a torn write *)
            let text =
              let ic = open_in_bin (Journal.path ~spool) in
              let s = really_input_string ic (in_channel_length ic) in
              close_in ic;
              s
            in
            write_file (Journal.path ~spool) (String.sub text 0 (String.length text - 3));
            let expect = List.filteri (fun i _ -> i < List.length records - 1) records in
            Journal.replay ~spool = expect);
    (* the replication-grade guarantee: truncate a valid multi-record
       journal at EVERY byte offset; replay never raises and recovers
       exactly the longest committed (newline-terminated) prefix *)
    prop "truncation at every byte offset recovers the committed prefix" 15
      (QCheck.make
         ~print:(fun rs -> String.concat " | " (List.map Journal.encode rs))
         QCheck.Gen.(list_size (int_range 1 6) (QCheck.gen record_gen)))
      (fun records ->
        let spool = fresh_spool "chop" in
        let j = Journal.open_ ~spool in
        List.iter (Journal.append j) records;
        Journal.close j;
        let text =
          let ic = open_in_bin (Journal.path ~spool) in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        (* cumulative end offset of each record's newline-terminated line *)
        let boundaries =
          List.fold_left
            (fun acc r -> (List.hd acc + String.length (Journal.encode r) + 1) :: acc)
            [ 0 ] records
          |> List.rev |> List.tl
        in
        let ok = ref true in
        for k = 0 to String.length text do
          write_file (Journal.path ~spool) (String.sub text 0 k);
          (* committed = records whose full line (incl. '\n') fits in k *)
          let m = List.length (List.filter (fun b -> b <= k) boundaries) in
          let committed = List.filteri (fun i _ -> i < m) records in
          let lines, bytes = Journal.replay_wire ~spool in
          if lines <> List.map Journal.encode committed then ok := false;
          if bytes <> List.fold_left (fun a b -> if b <= k then max a b else a) 0 boundaries
          then ok := false;
          (* plain replay may additionally see a COMPLETE final line whose
             newline was cut — decodable, but still torn at the byte level *)
          let replayed = Journal.replay ~spool in
          let extra_ok =
            replayed = committed
            || List.exists (fun b -> b = k + 1) boundaries
               && replayed = List.filteri (fun i _ -> i <= m) records
          in
          if not extra_ok then ok := false;
          (* sealing the truncated file, then appending, must land the new
             record cleanly after the committed prefix *)
          if k = String.length text / 2 then begin
            let sealed = Journal.seal ~spool in
            if sealed <> m then ok := false;
            let j = Journal.open_ ~spool in
            let fresh = { Journal.job = "fresh"; event = Journal.Queued } in
            Journal.append j fresh;
            Journal.close j;
            if Journal.replay ~spool <> committed @ [ fresh ] then ok := false
          end
        done;
        !ok);
  ]

let journal_units =
  [
    Alcotest.test_case "CRC-corrupt record ends the valid prefix" `Quick (fun () ->
        let spool = fresh_spool "crc" in
        let r i = { Journal.job = Printf.sprintf "j%d" i; event = Journal.Queued } in
        let lines = List.init 4 (fun i -> Journal.encode (r i)) in
        (* flip one payload byte of the third record without updating
           its CRC; it and the fourth must both be dropped *)
        let corrupt =
          List.mapi
            (fun i line ->
              if i = 2 then (
                let b = Bytes.of_string line in
                Bytes.set b (Bytes.length b - 1) '?';
                Bytes.to_string b)
              else line)
            lines
        in
        write_file (Journal.path ~spool) (String.concat "\n" corrupt ^ "\n");
        Alcotest.(check (list record_testable)) "prefix" [ r 0; r 1 ] (Journal.replay ~spool));
    Alcotest.test_case "missing journal replays as empty" `Quick (fun () ->
        Alcotest.(check (list record_testable))
          "empty" [] (Journal.replay ~spool:(fresh_spool "none")));
    Alcotest.test_case "completed is absorbing: a result is reported once, ever" `Quick (fun () ->
        let after =
          Journal.fold
            [
              { Journal.job = "a"; event = Journal.Queued };
              { Journal.job = "a"; event = Journal.Started { attempt = 1 } };
              {
                Journal.job = "a";
                event =
                  Journal.Done { attempt = 1; makespan = 9; budget_used = 2; fuel = 40; cached = false };
              };
              (* events a buggy or crashed writer might still emit *)
              { Journal.job = "a"; event = Journal.Started { attempt = 2 } };
              {
                Journal.job = "a";
                event =
                  Journal.Done { attempt = 2; makespan = 1; budget_used = 0; fuel = 1; cached = true };
              };
              { Journal.job = "a"; event = Journal.Abandoned { attempt = 2 } };
            ]
        in
        Alcotest.(check (list string)) "one job" [ "a" ] (List.map fst (Journal.to_list after));
        match Journal.find after "a" with
        | Some (Journal.Completed { attempt; makespan; _ }) ->
            Alcotest.(check int) "first attempt won" 1 attempt;
            Alcotest.(check int) "first makespan kept" 9 makespan
        | _ -> Alcotest.fail "expected a completed entry");
    Alcotest.test_case "status machine: transient failure re-pends, permanent kills" `Quick
      (fun () ->
        let st =
          Journal.fold
            [
              { Journal.job = "a"; event = Journal.Started { attempt = 1 } };
              {
                Journal.job = "a";
                event =
                  Journal.Failed
                    { attempt = 1; error_class = "lp-failure"; transient = true; backoff = 120 };
              };
            ]
        in
        (match Journal.to_list st with
        | [ ("a", Journal.Pending { attempts = 1 }) ] -> ()
        | _ -> Alcotest.fail "expected pending after transient failure");
        let st =
          List.fold_left Journal.apply st
            [
              { Journal.job = "a"; event = Journal.Started { attempt = 2 } };
              {
                Journal.job = "a";
                event =
                  Journal.Failed
                    { attempt = 2; error_class = "parse-error"; transient = false; backoff = 0 };
              };
            ]
        in
        (match Journal.find st "a" with
        | Some (Journal.Dead { attempts = 2; error_class = "parse-error" }) -> ()
        | _ -> Alcotest.fail "expected dead after permanent failure");
        Alcotest.(check bool) "unknown job" true (Journal.find st "b" = None));
    (* the daemon applies ~3 records per job to a state that holds its
       whole history; a step must not copy that history. Allocation is
       deterministic, so this bound cannot flake the way a timing would *)
    Alcotest.test_case "one step on a 20,000-job state allocates O(log n) words" `Quick
      (fun () ->
        let name i =
          Digest.to_hex (Digest.string (string_of_int i))
          ^ Digest.to_hex (Digest.string (string_of_int (-i)))
          ^ ".rtt"
        in
        let history =
          List.concat_map
            (fun i ->
              let job = name i in
              [
                { Journal.job; event = Journal.Queued };
                { Journal.job; event = Journal.Started { attempt = 1 } };
                {
                  Journal.job;
                  event =
                    Journal.Done
                      { attempt = 1; makespan = i; budget_used = 1; fuel = 7; cached = false };
                };
              ])
            (List.init 20_000 Fun.id)
        in
        let states = Journal.fold history in
        let fresh = { Journal.job = name 20_000; event = Journal.Queued } in
        let before = Gc.minor_words () in
        let after = Sys.opaque_identity (Journal.apply states fresh) in
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool) "fresh job added" true
          (Journal.find after fresh.Journal.job = Some (Journal.Pending { attempts = 0 }));
        if words >= 1000. then
          Alcotest.failf "one apply allocated %.0f minor words (bound 1000)" words);
  ]

(* ------------------------------------------------------------------ *)
(* retry policy                                                        *)

let retry_units =
  [
    Alcotest.test_case "classification: solver trouble is transient, bad input is not" `Quick
      (fun () ->
        let t e =
          Alcotest.(check bool) (Error.class_name e) true (Retry.classify e = Retry.Transient)
        in
        let p e =
          Alcotest.(check bool) (Error.class_name e) true (Retry.classify e = Retry.Permanent)
        in
        t (Error.Fuel_exhausted { stage = "exact"; spent = 10 });
        t (Error.Lp_failure "infeasible");
        t (Error.Flow_failure "aborted");
        t (Error.Fault_injected { site = "lp.infeasible" });
        t (Error.Internal "bug");
        t (Error.Certificate_mismatch { what = "makespan"; expected = "3"; got = "4" });
        p (Error.Parse_error { line = 1; msg = "bad" });
        p (Error.Io_error "gone");
        p (Error.Invalid_instance "cycle");
        p (Error.Invalid_request "negative budget");
        p (Error.Too_large { states = 1_000_000_000 }));
    Alcotest.test_case "all-rungs-failed is transient iff any component is" `Quick (fun () ->
        let mixed =
          Error.All_rungs_failed
            [
              ("exact", Error.Too_large { states = 5 });
              ("bicriteria", Error.Fuel_exhausted { stage = "simplex"; spent = 2 });
            ]
        in
        Alcotest.(check bool) "mixed" true (Retry.classify mixed = Retry.Transient);
        let all_permanent =
          Error.All_rungs_failed
            [ ("exact", Error.Too_large { states = 5 }); ("greedy", Error.Invalid_request "x") ]
        in
        Alcotest.(check bool) "all permanent" true (Retry.classify all_permanent = Retry.Permanent));
    Alcotest.test_case "backoff: deterministic, capped exponential, jittered" `Quick (fun () ->
        let b a = Retry.backoff ~seed:3 ~job:"job_07.rtt" ~attempt:a in
        Alcotest.(check int) "deterministic" (b 1) (b 1);
        let base a = min Retry.max_backoff (Retry.base_backoff * (1 lsl (a - 1))) in
        List.iter
          (fun a ->
            let v = b a in
            Alcotest.(check bool)
              (Printf.sprintf "attempt %d: %d in [%d, %d)" a v (base a)
                 (base a + (Retry.base_backoff / 2)))
              true
              (v >= base a && v < base a + (Retry.base_backoff / 2)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        Alcotest.(check bool) "saturates at the cap" true
          (b 40 < Retry.max_backoff + (Retry.base_backoff / 2));
        Alcotest.check_raises "attempts are 1-based"
          (Invalid_argument "Retry.backoff: attempts are 1-based") (fun () -> ignore (b 0)));
    (* the saturating doubling must hold for ANY attempt count — the
       naive [base * 2^(attempt-1)] overflows to garbage (negative
       backoffs, Invalid sleeps) past attempt ~55 *)
    prop "backoff: bounded and overflow-free over attempt in [0, 10_000]" 500
      QCheck.(triple small_nat (int_range 0 10_000) small_string)
      (fun (seed, attempt, job) ->
        if attempt = 0 then
          match Retry.backoff ~seed ~job ~attempt with
          | exception Invalid_argument _ -> true
          | _ -> false
        else
          let v = Retry.backoff ~seed ~job ~attempt in
          let again = Retry.backoff ~seed ~job ~attempt in
          v = again
          && v >= Retry.base_backoff
          && v < Retry.max_backoff + (Retry.base_backoff / 2)
          && (attempt < 6 || v >= Retry.max_backoff));
  ]

(* ------------------------------------------------------------------ *)
(* checkpoint sidecars                                                 *)

let checkpoint_units =
  [
    Alcotest.test_case "store/load roundtrip; store replaces; clear removes" `Quick (fun () ->
        let spool = fresh_spool "ckpt" in
        let job = "a.rtt" in
        Checkpoint.store ~spool ~job "exact1 10 0 0,0,0";
        Alcotest.(check (option string))
          "loaded" (Some "exact1 10 0 0,0,0")
          (Checkpoint.load ~spool ~job);
        Checkpoint.store ~spool ~job "exact1 9 1 1,0,0";
        Alcotest.(check (option string))
          "replaced" (Some "exact1 9 1 1,0,0")
          (Checkpoint.load ~spool ~job);
        Checkpoint.clear ~spool ~job;
        Alcotest.(check (option string)) "cleared" None (Checkpoint.load ~spool ~job);
        (* clearing a missing sidecar is a no-op, not an error *)
        Checkpoint.clear ~spool ~job);
    Alcotest.test_case "corrupt or missing sidecar degrades to a cold start" `Quick (fun () ->
        let spool = fresh_spool "ckpt2" in
        Alcotest.(check (option string)) "missing" None (Checkpoint.load ~spool ~job:"a");
        write_file (Checkpoint.path ~spool ~job:"a") "deadbeef exact1 10 0 0,0";
        Alcotest.(check (option string)) "bad crc" None (Checkpoint.load ~spool ~job:"a");
        write_file (Checkpoint.path ~spool ~job:"a") "short";
        Alcotest.(check (option string)) "unframed" None (Checkpoint.load ~spool ~job:"a"));
  ]

(* ------------------------------------------------------------------ *)
(* engine load validation                                              *)

let load_units =
  [
    Alcotest.test_case "duplicate edge rejected as invalid-request, offender named" `Quick
      (fun () ->
        match Engine.load_string "vertices 3\nedge 0 1\nedge 1 2\nedge 0 1\n" with
        | Error (Error.Invalid_request msg) ->
            List.iter
              (fun needle ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S mentions %S" msg needle)
                  true (contains ~needle msg))
              [ "duplicate edge"; "0 -> 1" ]
        | Error e -> Alcotest.failf "wrong class %s" (Error.class_name e)
        | Ok _ -> Alcotest.fail "duplicate edge accepted");
    Alcotest.test_case "cycle diagnostics name a witness vertex" `Quick (fun () ->
        match Engine.load_string "vertices 2\nedge 0 1\nedge 1 0\n" with
        | Error (Error.Parse_error { msg; _ }) ->
            Alcotest.(check bool) "names a vertex" true (contains ~needle:"cycle through vertex" msg)
        | Error e -> Alcotest.failf "wrong class %s" (Error.class_name e)
        | Ok _ -> Alcotest.fail "cycle accepted");
    Alcotest.test_case "unreadable path is an io-error" `Quick (fun () ->
        match Engine.load "/nonexistent/definitely/missing.rtt" with
        | Error (Error.Io_error _) -> ()
        | Error e -> Alcotest.failf "wrong class %s" (Error.class_name e)
        | Ok _ -> Alcotest.fail "loaded a ghost");
  ]

(* ------------------------------------------------------------------ *)
(* kernel checkpoint/resume                                            *)

let resume_units =
  [
    Alcotest.test_case "exact snapshot roundtrip; malformed is rejected" `Quick (fun () ->
        let p = cheap_instance 11 in
        let r = Exact.min_makespan p ~budget:2 in
        Alcotest.(check (option (array int)))
          "roundtrip" (Some r.Exact.allocation)
          (Exact.allocation_of_snapshot (Exact.snapshot_of r));
        List.iter
          (fun s -> Alcotest.(check (option (array int))) s None (Exact.allocation_of_snapshot s))
          [ ""; "exact1"; "exact2 1 2 0,0"; "exact1 1 2 0,x,0"; "garbage here" ]);
    Alcotest.test_case "exact warm start: identical optimum, strictly less fuel" `Slow (fun () ->
        let p = wide_flat ~n:8 ~opts:4 in
        let cold, cold_fuel = fuel_of (fun () -> Exact.min_makespan p ~budget:3) in
        let warm, warm_fuel =
          fuel_of (fun () -> Exact.min_makespan ~warm_start:cold.Exact.allocation p ~budget:3)
        in
        Alcotest.(check int) "same makespan" cold.Exact.makespan warm.Exact.makespan;
        Alcotest.(check (array int)) "same allocation" cold.Exact.allocation warm.Exact.allocation;
        Alcotest.(check bool)
          (Printf.sprintf "warm %d < cold %d" warm_fuel cold_fuel)
          true (warm_fuel < cold_fuel));
    Alcotest.test_case "an infeasible warm start is ignored" `Quick (fun () ->
        let p = cheap_instance 12 in
        let good = Exact.min_makespan p ~budget:2 in
        List.iter
          (fun ws ->
            let r = Exact.min_makespan ~warm_start:ws p ~budget:2 in
            Alcotest.(check int) "unaffected" good.Exact.makespan r.Exact.makespan)
          [ [| 9 |]; [||] ]);
    Alcotest.test_case "sp table resumes from a snapshot with less fuel" `Quick (fun () ->
        let tree =
          let rng = rng_of 77 in
          Sp.map
            (fun _ -> Binary_split.to_duration ~work:(5 + Random.State.int rng 40))
            (Gen.random_sp (rng_of 42) ~leaves:30 ~series_bias:0.5)
        in
        let budget = 60 in
        let full, cold_fuel = fuel_of (fun () -> Sp_exact.makespan_table tree ~budget) in
        let snap = ref None in
        (match
           Budget.with_checkpoint ~every:200
             (fun s -> snap := Some s)
             (fun () ->
               Budget.with_fuel
                 (Some (cold_fuel / 2))
                 (fun () -> Sp_exact.makespan_table tree ~budget))
         with
        | _ -> Alcotest.fail "expected the interrupted run to exhaust its fuel"
        | exception Budget.Fuel_exhausted _ -> ());
        let snapshot =
          match !snap with Some s -> s | None -> Alcotest.fail "no snapshot offered"
        in
        let resumed, resumed_fuel =
          fuel_of (fun () -> Sp_exact.makespan_table ~snapshot tree ~budget)
        in
        Alcotest.(check (array int)) "same table" full resumed;
        Alcotest.(check bool)
          (Printf.sprintf "resumed %d < cold %d" resumed_fuel cold_fuel)
          true (resumed_fuel < cold_fuel);
        (* a snapshot taken at another budget is ignored, not misused *)
        let other, _ = fuel_of (fun () -> Sp_exact.makespan_table ~snapshot tree ~budget:50) in
        let fresh, _ = fuel_of (fun () -> Sp_exact.makespan_table tree ~budget:50) in
        Alcotest.(check (array int)) "budget-mismatched snapshot ignored" fresh other);
  ]

(* ------------------------------------------------------------------ *)
(* in-process supervisor                                               *)

let count_events records job pred =
  List.length (List.filter (fun r -> r.Journal.job = job && pred r.Journal.event) records)

let is_done = function Journal.Done _ -> true | _ -> false
let is_started = function Journal.Started _ -> true | _ -> false

let supervisor_units =
  [
    Alcotest.test_case "drains a mixed spool: results, statuses, exit code" `Quick (fun () ->
        let spool = fresh_spool "drain" in
        write_job ~spool "ok_a.rtt" (cheap_instance 21);
        write_job ~spool "ok_b.rtt" (cheap_instance 22);
        write_file (Filename.concat spool "bad.rtt") "vertices 1\nedge 0 0\n";
        let cfg = { (Supervisor.default_config ~spool) with sleep = false; budget = 2 } in
        Alcotest.(check int) "exit" Supervisor.failed_jobs_exit_code (Supervisor.run cfg);
        let statuses = Supervisor.report ~spool in
        let state job =
          Option.fold ~none:"absent" ~some:Journal.status_name (Journal.find statuses job)
        in
        Alcotest.(check string) "bad is dead" "failed" (state "bad.rtt");
        Alcotest.(check string) "ok_a done" "done" (state "ok_a.rtt");
        (match Supervisor.read_result ~spool ~job:"ok_a.rtt" with
        | Some kvs ->
            Alcotest.(check bool) "result has allocation" true (List.mem_assoc "allocation" kvs);
            Alcotest.(check string) "attempt recorded" "1" (List.assoc "attempt" kvs)
        | None -> Alcotest.fail "missing result file");
        (* a second run is a no-op: nothing re-runs, nothing double-reports *)
        let before = List.length (Journal.replay ~spool) in
        Alcotest.(check int) "still failed exit" Supervisor.failed_jobs_exit_code
          (Supervisor.run cfg);
        Alcotest.(check int) "no new records" before (List.length (Journal.replay ~spool)));
    Alcotest.test_case "fault-driven retry: transient on attempt 1, success on attempt 2" `Quick
      (fun () ->
        let spool = fresh_spool "retry" in
        write_job ~spool "only.rtt" (cheap_instance 23);
        Faults.reset ();
        Faults.arm ~after:0 Faults.Lp_infeasible;
        let cfg =
          {
            (Supervisor.default_config ~spool) with
            policy = [ Policy.Bicriteria ];
            sleep = false;
            seed = 7;
            budget = 2;
          }
        in
        let code = Supervisor.run cfg in
        Faults.reset ();
        Alcotest.(check int) "drained" Supervisor.drained_exit_code code;
        let records = Journal.replay ~spool in
        Alcotest.(check int) "two attempts" 2 (count_events records "only.rtt" is_started);
        Alcotest.(check int) "one result" 1 (count_events records "only.rtt" is_done);
        (match
           List.find_map
             (fun r ->
               match r.Journal.event with
               | Journal.Failed { attempt; transient; backoff; _ }
                 when r.Journal.job = "only.rtt" ->
                   Some (attempt, transient, backoff)
               | _ -> None)
             records
         with
        | Some (attempt, transient, backoff) ->
            Alcotest.(check bool) "journaled as transient" true transient;
            Alcotest.(check int) "attempt 1 failed" 1 attempt;
            (* the journaled backoff is exactly the deterministic policy
               value for (seed, job, attempt): runs are reproducible *)
            Alcotest.(check int) "backoff deterministic under the seed"
              (Retry.backoff ~seed:7 ~job:"only.rtt" ~attempt:1)
              backoff
        | None -> Alcotest.fail "no failure journaled");
        match Journal.find (Supervisor.report ~spool) "only.rtt" with
        | Some (Journal.Completed { attempt = 2; _ }) -> ()
        | Some s ->
            Alcotest.failf "expected completion on attempt 2, got %s" (Journal.status_name s)
        | None -> Alcotest.fail "only.rtt missing from the report");
    Alcotest.test_case "fuel deadline: transient retries, then retries exhaust" `Quick (fun () ->
        let spool = fresh_spool "deadline" in
        write_job ~spool "slow.rtt" (cheap_instance 24);
        let cfg =
          {
            (Supervisor.default_config ~spool) with
            policy = [ Policy.Exact ];
            deadline_fuel = Some 3;
            max_attempts = 2;
            sleep = false;
            budget = 2;
          }
        in
        Alcotest.(check int) "failed exit" Supervisor.failed_jobs_exit_code (Supervisor.run cfg);
        let records = Journal.replay ~spool in
        Alcotest.(check int) "both attempts consumed" 2 (count_events records "slow.rtt" is_started);
        Alcotest.(check int) "no result" 0 (count_events records "slow.rtt" is_done);
        match Journal.find (Supervisor.report ~spool) "slow.rtt" with
        | Some (Journal.Dead _) -> ()
        | Some s -> Alcotest.failf "expected dead, got %s" (Journal.status_name s)
        | None -> Alcotest.fail "slow.rtt missing from the report");
  ]

(* ------------------------------------------------------------------ *)
(* process-level acceptance: SIGKILL crash recovery, SIGTERM shutdown  *)

let rtt_exe = Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rtt.exe"

let spawn_serve ~spool =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    [| rtt_exe; "serve"; "--spool"; spool; "-b"; "3"; "--checkpoint-every"; "50"; "--no-sleep" |]
  in
  let pid = Unix.create_process rtt_exe argv Unix.stdin null null in
  Unix.close null;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> `Exited c
  | _, Unix.WSIGNALED s -> `Signaled s
  | _, Unix.WSTOPPED _ -> `Stopped

let wait_for ?(timeout = 60.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      ignore (Unix.select [] [] [] 0.005);
      go ()
    end
  in
  go ()

let expensive_instance () = wide_flat ~n:10 ~opts:4

let fill_crash_spool spool =
  for i = 0 to 19 do
    let name = Printf.sprintf "job_%02d.rtt" i in
    if i = 10 then write_job ~spool name (expensive_instance ())
    else write_job ~spool name (cheap_instance (100 + i))
  done

let result_field ~spool ~job key =
  match Supervisor.read_result ~spool ~job with
  | Some kvs -> List.assoc_opt key kvs
  | None -> None

let process_units =
  [
    Alcotest.test_case "SIGKILL mid-solve: restart completes every job exactly once" `Slow
      (fun () ->
        (* uninterrupted baseline over an identical spool *)
        let base = fresh_spool "crash_base" in
        fill_crash_spool base;
        (match wait_exit (spawn_serve ~spool:base) with
        | `Exited 0 -> ()
        | _ -> Alcotest.fail "baseline serve did not drain");
        (* the run under test: SIGKILL while job_10 is mid-solve (its
           checkpoint sidecar appearing proves the solve is in flight) *)
        let spool = fresh_spool "crash" in
        fill_crash_spool spool;
        let ckpt = Checkpoint.path ~spool ~job:"job_10.rtt" in
        let pid = spawn_serve ~spool in
        if not (wait_for (fun () -> Sys.file_exists ckpt)) then begin
          Unix.kill pid Sys.sigkill;
          ignore (wait_exit pid);
          Alcotest.fail "no checkpoint appeared before timeout"
        end;
        Unix.kill pid Sys.sigkill;
        (match wait_exit pid with
        | `Signaled s when s = Sys.sigkill -> ()
        | _ -> Alcotest.fail "expected the process to die by SIGKILL");
        (* the journal survived the kill: job_10 is an in-flight attempt *)
        (match Journal.find (Journal.fold (Journal.replay ~spool)) "job_10.rtt" with
        | Some (Journal.Running { attempt = 1 }) -> ()
        | Some s -> Alcotest.failf "job_10 after crash: %s" (Journal.status_name s)
        | None -> Alcotest.fail "job_10 missing from journal");
        (* restart over the same spool: drains clean *)
        (match wait_exit (spawn_serve ~spool) with
        | `Exited 0 -> ()
        | `Exited c -> Alcotest.failf "restart exited %d" c
        | _ -> Alcotest.fail "restart died");
        let records = Journal.replay ~spool in
        for i = 0 to 19 do
          let job = Printf.sprintf "job_%02d.rtt" i in
          Alcotest.(check int) (job ^ " done exactly once") 1 (count_events records job is_done)
        done;
        (* the interrupted job resumed (attempt 2) rather than restarting
           its attempt count *)
        (match Journal.find (Journal.fold records) "job_10.rtt" with
        | Some (Journal.Completed { attempt = 2; _ }) -> ()
        | Some s -> Alcotest.failf "job_10 final state: %s" (Journal.status_name s)
        | None -> Alcotest.fail "job_10 missing from journal");
        (* the resumed allocation is identical to the uninterrupted run's,
           and the warm-started attempt burned measurably less fuel *)
        Alcotest.(check (option string))
          "same allocation"
          (result_field ~spool:base ~job:"job_10.rtt" "allocation")
          (result_field ~spool ~job:"job_10.rtt" "allocation");
        Alcotest.(check (option string))
          "same makespan"
          (result_field ~spool:base ~job:"job_10.rtt" "makespan")
          (result_field ~spool ~job:"job_10.rtt" "makespan");
        let fuel_in spool =
          match result_field ~spool ~job:"job_10.rtt" "fuel" with
          | Some f -> int_of_string f
          | None -> Alcotest.fail "no fuel recorded"
        in
        let cold = fuel_in base and warm = fuel_in spool in
        Alcotest.(check bool)
          (Printf.sprintf "resumed fuel %d < cold %d" warm cold)
          true (warm < cold));
    Alcotest.test_case "SIGTERM: exit 30, abandoned journaled, resume is cheaper" `Slow (fun () ->
        let spool = fresh_spool "term" in
        write_job ~spool "job_00.rtt" (expensive_instance ());
        write_job ~spool "job_01.rtt" (cheap_instance 7);
        let ckpt = Checkpoint.path ~spool ~job:"job_00.rtt" in
        let pid = spawn_serve ~spool in
        if not (wait_for (fun () -> Sys.file_exists ckpt)) then begin
          Unix.kill pid Sys.sigkill;
          ignore (wait_exit pid);
          Alcotest.fail "no checkpoint appeared before timeout"
        end;
        Unix.kill pid Sys.sigterm;
        (match wait_exit pid with
        | `Exited c ->
            Alcotest.(check int) "documented shutdown exit code" Supervisor.shutdown_exit_code c
        | _ -> Alcotest.fail "expected a graceful exit");
        let records = Journal.replay ~spool in
        Alcotest.(check int) "abandoned journaled" 1
          (count_events records "job_00.rtt" (function
            | Journal.Abandoned _ -> true
            | _ -> false));
        (match Journal.find (Journal.fold records) "job_00.rtt" with
        | Some (Journal.Interrupted { attempt = 1 }) -> ()
        | Some s -> Alcotest.failf "after shutdown: %s" (Journal.status_name s)
        | None -> Alcotest.fail "job_00 missing from journal");
        Alcotest.(check bool) "checkpoint kept for resume" true (Sys.file_exists ckpt);
        Alcotest.(check int) "undone job never started" 0
          (count_events records "job_01.rtt" is_started);
        (* resume: drains clean, and the resumed solve is measurably
           cheaper than a cold one thanks to the checkpointed incumbent *)
        (match wait_exit (spawn_serve ~spool) with
        | `Exited 0 -> ()
        | _ -> Alcotest.fail "resume did not drain");
        let cold_fuel =
          match Engine.solve ~policy:[ Policy.Exact ] (expensive_instance ()) ~budget:3 with
          | Ok s -> s.Engine.fuel_spent
          | Error e -> Alcotest.failf "cold reference solve failed: %s" (Error.to_string e)
        in
        match result_field ~spool ~job:"job_00.rtt" "fuel" with
        | Some f ->
            let warm = int_of_string f in
            Alcotest.(check bool)
              (Printf.sprintf "resumed fuel %d < cold %d" warm cold_fuel)
              true (warm < cold_fuel)
        | None -> Alcotest.fail "no fuel recorded for the resumed job");
  ]

(* ------------------------------------------------------------------ *)
(* shared frame layer: round-trips, corruption rejection, reassembly   *)

let payload_gen =
  (* anything but '\n' — the framing's one reserved byte *)
  QCheck.Gen.(
    map
      (fun chars -> String.concat "" (List.map (String.make 1) chars))
      (list_size (int_range 0 60)
         (oneof [ char_range ' ' '~'; oneofl [ '\t'; '\r'; '%'; '\255'; '\000' ] ])))

let arbitrary_bytes_gen =
  QCheck.Gen.(map Bytes.unsafe_to_string (bytes_size (int_range 0 60)))

let frame_props =
  [
    prop "frame/unframe round-trip" 500
      (QCheck.make ~print:String.escaped payload_gen)
      (fun p -> Frame.unframe (Frame.frame p) = Some p);
    prop "any single corrupted byte is rejected" 500
      (QCheck.make
         ~print:(fun (p, pos, b) -> Printf.sprintf "%S pos=%d byte=%d" p pos b)
         QCheck.Gen.(triple payload_gen (int_range 0 1000) (int_range 0 255)))
      (fun (p, pos, b) ->
        let line = Frame.frame p in
        let pos = pos mod String.length line in
        let c = Char.chr b in
        QCheck.assume (c <> line.[pos] && c <> '\n');
        let corrupted = Bytes.of_string line in
        Bytes.set corrupted pos c;
        Frame.unframe (Bytes.to_string corrupted) = None);
    prop "escape/unescape round-trip on arbitrary bytes" 500
      (QCheck.make ~print:String.escaped arbitrary_bytes_gen)
      (fun s ->
        let e = Frame.escape s in
        String.for_all (fun c -> c <> ' ' && c <> '\n' && c <> '\r') e
        && Frame.unescape e = Some s);
    prop "reader reassembles any chunking of any frame stream" 200
      (QCheck.make
         ~print:(fun (ps, cuts) ->
           Printf.sprintf "%d payloads, cuts [%s]" (List.length ps)
             (String.concat ";" (List.map string_of_int cuts)))
         QCheck.Gen.(pair (list_size (int_range 0 8) payload_gen) (list (int_range 1 17))))
      (fun (payloads, cuts) ->
        let stream = String.concat "" (List.map (fun p -> Frame.frame p ^ "\n") payloads) in
        let r = Frame.reader () in
        let got = ref [] in
        let pos = ref 0 in
        let cuts = ref (cuts @ [ String.length stream ]) in
        while !pos < String.length stream do
          let step =
            match !cuts with
            | c :: rest ->
                cuts := rest;
                min c (String.length stream - !pos)
            | [] -> String.length stream - !pos
          in
          got := !got @ Frame.feed r (String.sub stream !pos step);
          pos := !pos + step
        done;
        !got = List.map (fun p -> `Frame p) payloads && Frame.buffered r = 0);
    prop "torn tail: the incomplete line is held, then completed" 200
      (QCheck.make ~print:String.escaped payload_gen)
      (fun p ->
        let line = Frame.frame p ^ "\n" in
        let cut = max 1 (String.length line - 3) in
        let r = Frame.reader () in
        let first = Frame.feed r (String.sub line 0 cut) in
        let rest = Frame.feed r (String.sub line cut (String.length line - cut)) in
        first = [] && rest = [ `Frame p ]);
  ]

let frame_units =
  [
    Alcotest.test_case "a complete unframed line reads as corrupt" `Quick (fun () ->
        match Frame.feed (Frame.reader ()) "garbage\n" with
        | [ `Corrupt "garbage" ] -> ()
        | _ -> Alcotest.fail "expected [`Corrupt]");
    Alcotest.test_case "an overlong line poisons the reader for good" `Quick (fun () ->
        let r = Frame.reader ~max_frame:64 () in
        (match Frame.feed r (String.make 100 'x') with
        | [ `Overflow ] -> ()
        | _ -> Alcotest.fail "expected [`Overflow]");
        (* even a well-formed follow-up cannot resynchronize *)
        match Frame.feed r (Frame.frame "ok" ^ "\n") with
        | [ `Overflow ] -> ()
        | _ -> Alcotest.fail "poisoned reader must keep reporting `Overflow");
    Alcotest.test_case "overflow triggers on accumulation across feeds" `Quick (fun () ->
        let r = Frame.reader ~max_frame:64 () in
        Alcotest.(check (list reject)) "no items yet" [] (Frame.feed r (String.make 40 'x'));
        match Frame.feed r (String.make 40 'y') with
        | [ `Overflow ] -> ()
        | _ -> Alcotest.fail "expected [`Overflow] on the second feed");
    Alcotest.test_case "journal encode is the shared framing" `Quick (fun () ->
        let r = { Journal.job = "a b.rtt"; event = Journal.Queued } in
        match Frame.unframe (Journal.encode r) with
        | Some payload -> Alcotest.(check bool) "decodes" true (Journal.decode (Frame.frame payload) <> None)
        | None -> Alcotest.fail "journal lines must unframe");
  ]

(* ------------------------------------------------------------------ *)
(* shared JSON escaper (Rtt_engine.Jsonout) — used by [rtt jobs --json]
   and [bench --json]; the decoder exists purely so we can assert the
   round trip over arbitrary byte strings *)

let arb_bytes =
  QCheck.make
    ~print:String.escaped
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_range 0 48))

let jsonout_props =
  [
    prop "escape/unescape round-trips arbitrary bytes" 500 arb_bytes (fun s ->
        Jsonout.unescape (Jsonout.escape s) = Some s);
    prop "quote is escape in double quotes" 200 arb_bytes (fun s ->
        let q = Jsonout.quote s in
        String.length q >= 2
        && q.[0] = '"'
        && q.[String.length q - 1] = '"'
        && String.sub q 1 (String.length q - 2) = Jsonout.escape s);
    prop "quoted literal has no control bytes and terminates only at the end" 200 arb_bytes
      (fun s ->
        let q = Jsonout.quote s in
        let n = String.length q in
        (* walk the body: a backslash consumes the next byte; an
           unescaped quote before position n-1 would cut the literal
           short, a control byte would break line-oriented readers *)
        let rec scan i =
          if i = n - 1 then true
          else if i > n - 1 then false
          else
            let c = q.[i] in
            if c < ' ' || c = '"' then false
            else if c = '\\' then scan (i + 2)
            else scan (i + 1)
        in
        n >= 2 && scan 1);
  ]

let jsonout_units =
  [
    Alcotest.test_case "known escapes" `Quick (fun () ->
        Alcotest.(check string) "mixed" "a\\\"b\\\\c\\n\\t\\u0001"
          (Jsonout.escape "a\"b\\c\n\t\001"));
    Alcotest.test_case "unescape accepts standard optional escapes" `Quick (fun () ->
        Alcotest.(check (option string)) "solidus" (Some "/") (Jsonout.unescape "\\/");
        Alcotest.(check (option string)) "u0041" (Some "A") (Jsonout.unescape "\\u0041");
        Alcotest.(check (option string)) "backspace" (Some "\b") (Jsonout.unescape "\\b");
        Alcotest.(check (option string)) "formfeed" (Some "\012") (Jsonout.unescape "\\f"));
    Alcotest.test_case "unescape rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check (option string)) (String.escaped s) None (Jsonout.unescape s))
          [ "\\"; "\\x"; "\\u00"; "\\u00zz"; "\\u0100" ]);
  ]

let () =
  Alcotest.run "service"
    [
      ("frame-props", frame_props);
      ("frame", frame_units);
      ("journal-props", journal_props);
      ("journal", journal_units);
      ("retry", retry_units);
      ("checkpoint", checkpoint_units);
      ("load", load_units);
      ("resume", resume_units);
      ("supervisor", supervisor_units);
      ("process", process_units);
      ("jsonout-props", jsonout_props);
      ("jsonout", jsonout_units);
    ]
