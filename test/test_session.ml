(* Tests for the session subsystem: the mutation language round-trips
   over its wire form, a warm re-solve answers byte-for-byte what a
   cold solve of the same instance answers (the central invariant,
   checked as a qcheck property over random instances and random
   mutation sequences), rejected
   mutations leave the session untouched, remove-job cascades and
   renumbers, and the per-session journal survives torn tails and
   replays to the identical state. *)

open Rtt_num
open Rtt_dag
open Rtt_duration
open Rtt_core
open Rtt_engine
open Rtt_session

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let rng_of seed = Random.State.make [| seed |]

let fresh_spool =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_session_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

let journal_path spool sid =
  Filename.concat (Filename.concat (Filename.concat spool "sessions") sid) "journal.log"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let must = function Ok v -> v | Error m -> Alcotest.fail m

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let must_solve t =
  match Session.solve t with
  | Ok s -> s
  | Error e -> Alcotest.fail (Error.to_string e)

let random_instance rng ~n =
  Problem.of_race_dag (Gen.erdos_renyi rng ~n ~edge_prob:0.4) Problem.Binary

(* a chain 0 -> 1 -> 2 with one two-step duration, for the unit tests *)
let chain3 () =
  let g = Dag.create () in
  let a = Dag.add_vertex g and b = Dag.add_vertex g and c = Dag.add_vertex g in
  Dag.add_edge g a b;
  Dag.add_edge g b c;
  Problem.make g ~durations:(fun v ->
      if v = 0 then Duration.make [ (0, 4); (1, 2) ] else Duration.make [ (0, 3) ])

(* ------------------------------------------------------------------ *)
(* op wire form                                                        *)

let random_tuples rng =
  let base = 1 + Random.State.int rng 7 in
  if Random.State.bool rng then [ (0, base) ]
  else [ (0, base); (1 + Random.State.int rng 3, base / 2) ]

let random_op rng ~n =
  match Random.State.int rng 12 with
  | 0 | 1 -> Session.Add_job (random_tuples rng)
  | 2 | 3 | 4 ->
      Session.Add_edge (Random.State.int rng n, Random.State.int rng n)
  | 5 | 6 -> Session.Set_duration (Random.State.int rng n, random_tuples rng)
  | 7 -> Session.Remove_job (Random.State.int rng n)
  | 8 ->
      Session.Set_alpha
        (List.nth
           [ Rat.of_ints 1 3; Rat.of_ints 2 5; Rat.of_ints 3 4 ]
           (Random.State.int rng 3))
  | 9 -> Session.Seed (Io.to_string (random_instance rng ~n:(3 + Random.State.int rng 3)))
  | _ -> Session.Set_budget (Random.State.int rng 7)

let op_units =
  [
    prop "ops round-trip through their wire form" 200 QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = rng_of seed in
        let op = random_op rng ~n:(1 + Random.State.int rng 8) in
        Session.op_of_string (Session.op_to_string op) = Ok op);
    Alcotest.test_case "seed bodies with hostile bytes survive escaping" `Quick (fun () ->
        let body = "vertices 1\n% \x00\xff tail" in
        match Session.op_of_string (Session.op_to_string (Session.Seed body)) with
        | Ok (Session.Seed body') -> Alcotest.(check string) "body" body body'
        | _ -> Alcotest.fail "seed did not round-trip");
    Alcotest.test_case "garbage op lines are rejected, not parsed" `Quick (fun () ->
        List.iter
          (fun line ->
            match Session.op_of_string line with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" line))
          [ ""; "frobnicate 3"; "add-edge 1"; "add-edge one two"; "set-budget"; "add-job 0:x" ]);
  ]

(* ------------------------------------------------------------------ *)
(* the central invariant: warm == cold, byte for byte                  *)

(* Drive one session through a seed + random mutation stream; after
   every accepted mutation, the session's (warm) answer must equal the
   answer a second, freshly replayed session — which holds no warm
   state — computes for the identical journaled instance. *)
let warm_equals_cold seed =
  let rng = rng_of seed in
  let spool = fresh_spool "prop" in
  let store = Session.create_store ~spool in
  let t = must (Session.open_ store "p") in
  let p0 = random_instance rng ~n:(4 + Random.State.int rng 3) in
  ignore (must (Session.mutate t (Session.Seed (Io.to_string p0))));
  ignore (must (Session.mutate t (Session.Set_budget (1 + Random.State.int rng 4))));
  let n = ref (Problem.n_jobs p0) in
  let checks = ref 0 in
  for _ = 1 to 4 + Random.State.int rng 3 do
    let op = random_op rng ~n:!n in
    match Session.mutate t op with
    | Error _ -> () (* rejected mutations are exercised, not required *)
    | Ok _ ->
        (match op with
        | Session.Add_job _ -> incr n
        | Session.Remove_job _ -> decr n
        | Session.Seed text -> n := Problem.n_jobs (Io.of_string text)
        | _ -> ());
        let w = must_solve t in
        (* a second store replays the same journal but remembers no
           previous answer: its solve is the cold reference *)
        let cold_store = Session.create_store ~spool in
        let c = must_solve (must (Session.open_ cold_store "p")) in
        if c.Session.warm then Alcotest.fail "replayed session claimed warm state";
        if not (String.equal w.Session.rendered c.Session.rendered) then
          Alcotest.fail
            (Printf.sprintf "warm and cold answers diverge after %s:\n--- warm\n%s--- cold\n%s"
               (Session.op_to_string op) w.Session.rendered c.Session.rendered);
        (* A warm re-solve may pay a few ticks MORE than cold on tiny
           instances: a stale basis hint costs one crash attempt (a
           tick per standard-form row) before the solve falls back,
           while the cold float advisor is free in exact ticks. The
           bound asserts warm re-solves never blow up; the >= 2x
           aggregate saving is what the S1 bench section gates. *)
        let warm_fuel = w.Session.success.Engine.fuel_spent in
        let cold_fuel = c.Session.success.Engine.fuel_spent in
        if warm_fuel > cold_fuel + max 16 (cold_fuel / 4) then
          Alcotest.fail
            (Printf.sprintf "warm re-solve burned far more fuel than the cold solve (%d > %d)"
               warm_fuel cold_fuel);
        incr checks
  done;
  !checks > 0

let warm_props =
  [
    prop "warm re-solve == cold solve, byte for byte (Bland)" 12 QCheck.(int_range 0 100_000)
      (fun seed -> warm_equals_cold (2 * seed));
  ]

(* ------------------------------------------------------------------ *)
(* mutation semantics                                                  *)

let mutation_units =
  [
    Alcotest.test_case "seeded session answers what the engine answers" `Quick (fun () ->
        let spool = fresh_spool "seeded" in
        let store = Session.create_store ~spool in
        let t = must (Session.open_ store "s") in
        let p = chain3 () in
        ignore (must (Session.mutate t (Session.Seed (Io.to_string p))));
        ignore (must (Session.mutate t (Session.Set_budget 2)));
        let got = must_solve t in
        let cold =
          match Engine.solve p ~budget:2 with
          | Ok s -> s
          | Error e -> Alcotest.fail (Error.to_string e)
        in
        Alcotest.(check string) "rendered" (Session.cold_render p cold) got.Session.rendered;
        Alcotest.(check bool) "first solve is cold" false got.Session.warm;
        Alcotest.(check bool) "second solve is warm" true (must_solve t).Session.warm);
    Alcotest.test_case "rejected mutation leaves revision and answer untouched" `Quick (fun () ->
        let spool = fresh_spool "reject" in
        let store = Session.create_store ~spool in
        let t = must (Session.open_ store "s") in
        ignore (must (Session.mutate t (Session.Seed (Io.to_string (chain3 ())))));
        ignore (must (Session.mutate t (Session.Set_budget 1)));
        let rev = Session.revision t in
        let before = (must_solve t).Session.rendered in
        (match Session.mutate t (Session.Add_edge (0, 1)) with
        | Error msg ->
            Alcotest.(check bool) "names the edge" true
              (contains ~affix:"0 -> 1" msg || contains ~affix:"0 1" msg)
        | Ok _ -> Alcotest.fail "duplicate edge accepted");
        (match Session.mutate t (Session.Add_edge (2, 0)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "cycle accepted");
        (match Session.mutate t (Session.Add_edge (0, 7)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "out-of-range vertex accepted");
        Alcotest.(check int) "revision unchanged" rev (Session.revision t);
        Alcotest.(check string) "answer unchanged" before (must_solve t).Session.rendered);
    Alcotest.test_case "remove-job cascades edges and renumbers vertices" `Quick (fun () ->
        let spool = fresh_spool "cascade" in
        let store = Session.create_store ~spool in
        let t = must (Session.open_ store "s") in
        ignore (must (Session.mutate t (Session.Seed (Io.to_string (chain3 ())))));
        ignore (must (Session.mutate t (Session.Set_budget 1)));
        (* drop the middle of 0 -> 1 -> 2: both incident edges go, and
           vertex 2 becomes vertex 1 *)
        ignore (must (Session.mutate t (Session.Remove_job 1)));
        (match Session.mutate t (Session.Add_edge (1, 2)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stale vertex number accepted after renumbering");
        ignore (must (Session.mutate t (Session.Add_edge (0, 1))));
        ignore (must_solve t));
  ]

(* ------------------------------------------------------------------ *)
(* journal durability                                                  *)

let journal_units =
  [
    Alcotest.test_case "torn journal tail is sealed on reopen" `Quick (fun () ->
        let spool = fresh_spool "torn" in
        let store = Session.create_store ~spool in
        let t = must (Session.open_ store "s") in
        ignore (must (Session.mutate t (Session.Seed (Io.to_string (chain3 ())))));
        ignore (must (Session.mutate t (Session.Set_budget 2)));
        ignore (must (Session.mutate t (Session.Add_edge (0, 2))));
        let before = (must_solve t).Session.rendered in
        let j = journal_path spool "s" in
        let intact = read_file j in
        append_bytes j "mut half-a-frame with no terminating newl";
        (* a fresh store is the restarted process: the torn tail is
           sealed, the committed prefix replays, the answer is intact *)
        let store2 = Session.create_store ~spool in
        let t2 = must (Session.open_ store2 "s") in
        Alcotest.(check int) "revision replayed" 3 (Session.revision t2);
        Alcotest.(check string) "journal sealed" intact (read_file j);
        Alcotest.(check string) "answer identical" before (must_solve t2).Session.rendered);
    Alcotest.test_case "seal_journal truncates to the committed prefix" `Quick (fun () ->
        let spool = fresh_spool "seal" in
        let store = Session.create_store ~spool in
        let t = must (Session.open_ store "s") in
        ignore (must (Session.mutate t (Session.Seed (Io.to_string (chain3 ())))));
        ignore (must (Session.mutate t (Session.Set_budget 3)));
        let j = journal_path spool "s" in
        let intact = read_file j in
        (* cut the last committed record in half, as a crash mid-append
           would: only the first record survives the seal *)
        let cut = String.length intact - 7 in
        let oc = open_out_bin j in
        output_string oc (String.sub intact 0 cut);
        close_out oc;
        Alcotest.(check int) "committed records" 1 (Session.seal_journal j);
        let sealed = read_file j in
        Alcotest.(check bool) "sealed to a record boundary" true
          (String.length sealed < cut && String.length sealed > 0);
        let store2 = Session.create_store ~spool in
        let t2 = must (Session.open_ store2 "s") in
        Alcotest.(check int) "only the seed survived" 1 (Session.revision t2));
    Alcotest.test_case "close deletes; list_sids tracks journals" `Quick (fun () ->
        let spool = fresh_spool "list" in
        let store = Session.create_store ~spool in
        let a = must (Session.open_ store "a") in
        let b = must (Session.open_ store "b") in
        ignore (must (Session.mutate a (Session.Set_budget 1)));
        ignore (must (Session.mutate b (Session.Set_budget 1)));
        Alcotest.(check (list string)) "both listed" [ "a"; "b" ] (Session.list_sids ~spool);
        Session.close store a;
        Alcotest.(check (list string)) "a gone" [ "b" ] (Session.list_sids ~spool);
        Alcotest.(check bool) "a forgotten" true (Session.find store "a" = None);
        let a' = must (Session.open_ store "a") in
        Alcotest.(check int) "reopened fresh" 0 (Session.revision a'));
    Alcotest.test_case "bad session ids are refused" `Quick (fun () ->
        List.iter
          (fun sid -> Alcotest.(check bool) sid false (Session.valid_sid sid))
          [ ""; "."; ".."; "a/b"; "a b"; String.make 65 'x' ];
        List.iter
          (fun sid -> Alcotest.(check bool) sid true (Session.valid_sid sid))
          [ "a"; "bench-s1"; "A.b_c-9"; String.make 64 'x' ]);
  ]

let () =
  Alcotest.run "session"
    [
      ("ops", op_units);
      ("warm-equals-cold", warm_props);
      ("mutations", mutation_units);
      ("journal", journal_units);
    ]
