(* Tests for the network daemon: protocol codec round-trips (qcheck,
   hostile strings included), submit length-check rejection, the
   bounded admission queue (shed, duplicate, force, retry-after), and
   the process-level acceptance scenarios against the real rtt binary:
   a submit --wait whose result is byte-identical to a local solve,
   duplicate coalescing, shed under a full queue, SIGKILL crash safety
   (no accepted job lost, no unaccepted job journaled), and SIGTERM
   drain that still answers in-flight waiters. *)

open Rtt_net

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* protocol codec                                                      *)

let hostile_string_gen = QCheck.Gen.(map Bytes.unsafe_to_string (bytes_size (int_range 0 40)))

let request_gen =
  QCheck.Gen.(
    let s = hostile_string_gen in
    oneof
      [
        map (fun version -> Protocol.Hello { version }) (int_range 0 9);
        map (fun (name, body) -> Protocol.Submit { name; body }) (pair s s);
        map
          (fun (name, bodies) -> Protocol.Submit_many { name; bodies })
          (pair s (list_size (int_range 0 5) s));
        map (fun id -> Protocol.Status { id }) s;
        map (fun id -> Protocol.Wait { id }) s;
        return Protocol.Ping;
        return Protocol.Bye;
        map
          (fun (version, watermark) -> Protocol.Repl_hello { version; watermark })
          (pair (int_range 0 9) (int_range 0 100_000));
        map (fun watermark -> Protocol.Repl_ack { watermark }) (int_range 0 100_000);
        return Protocol.Promote;
        return Protocol.Stats;
        map (fun (sid, body) -> Protocol.Session_open { sid; body }) (pair s (opt s));
        map (fun (sid, op) -> Protocol.Session_mutate { sid; op }) (pair s s);
        map (fun sid -> Protocol.Session_solve { sid }) s;
        map (fun sid -> Protocol.Session_close { sid }) s;
      ])

let response_gen =
  QCheck.Gen.(
    let s = hostile_string_gen in
    let n = int_range 0 10_000 in
    oneof
      [
        map (fun (version, max_frame) -> Protocol.Welcome { version; max_frame }) (pair (int_range 0 9) n);
        map (fun id -> Protocol.Accepted { id }) s;
        map (fun retry_after_ms -> Protocol.Shed { retry_after_ms }) n;
        map (fun (id, json) -> Protocol.Status_is { id; json }) (pair s s);
        map (fun (id, rendered) -> Protocol.Result { id; rendered }) (pair s s);
        map
          (fun (id, error_class, attempts) -> Protocol.Failed { id; error_class; attempts })
          (triple s s (int_range 0 9));
        map (fun (code, msg) -> Protocol.Errored { code; msg }) (pair s s);
        return Protocol.Pong;
        map (fun (version, records) -> Protocol.Repl_welcome { version; records }) (pair (int_range 0 9) n);
        map (fun (seq, line) -> Protocol.Repl_frame { seq; line }) (pair n s);
        map (fun (job, body) -> Protocol.Repl_instance { job; body }) (pair s s);
        map (fun (job, body) -> Protocol.Repl_result { job; body }) (pair s s);
        map (fun (key, body) -> Protocol.Repl_cache { key; body }) (pair s s);
        map (fun json -> Protocol.Stats_is { json }) s;
        return Protocol.Promoting;
        map (fun (sid, revision) -> Protocol.Session_ok { sid; revision }) (pair s n);
        map
          (fun ((sid, fuel), (warm, rendered)) ->
            Protocol.Session_result { sid; fuel; warm; rendered })
          (pair (pair s n) (pair bool s));
      ])

let protocol_props =
  [
    prop "request encode/parse round-trip (hostile strings)" 500
      (QCheck.make ~print:Protocol.encode_request request_gen)
      (fun r -> Protocol.parse_request (Protocol.encode_request r) = Ok r);
    prop "response encode/parse round-trip (hostile strings)" 500
      (QCheck.make ~print:Protocol.encode_response response_gen)
      (fun r -> Protocol.parse_response (Protocol.encode_response r) = Ok r);
    prop "encoded payloads survive the frame layer" 200
      (QCheck.make ~print:Protocol.encode_request request_gen)
      (fun r ->
        let open Rtt_service in
        Frame.unframe (Frame.frame (Protocol.encode_request r)) = Some (Protocol.encode_request r));
    (* the pipelining contract: a client may write many framed requests
       back to back, and the server's incremental reader must recover
       each one in order no matter how the kernel chunks the stream *)
    prop "pipelined frames survive arbitrary chunking" 200
      (QCheck.make
         ~print:(fun (rs, chunk) ->
           Printf.sprintf "chunk=%d [%s]" chunk
             (String.concat " | " (List.map Protocol.encode_request rs)))
         QCheck.Gen.(pair (list_size (int_range 0 8) request_gen) (int_range 1 7)))
      (fun (rs, chunk) ->
        let open Rtt_service in
        let stream =
          String.concat ""
            (List.map (fun r -> Frame.frame (Protocol.encode_request r) ^ "\n") rs)
        in
        let reader = Frame.reader () in
        let got = ref [] in
        let n = String.length stream in
        let rec go i =
          if i < n then begin
            let len = min chunk (n - i) in
            List.iter
              (function
                | `Frame p -> got := Protocol.parse_request p :: !got
                | `Corrupt _ | `Overflow -> got := Error "corrupt" :: !got)
              (Frame.feed reader (String.sub stream i len));
            go (i + len)
          end
        in
        go 0;
        List.rev !got = List.map (fun r -> Ok r) rs && Frame.buffered reader = 0);
  ]

let protocol_units =
  [
    Alcotest.test_case "stats codec round-trips the lp factorization fields" `Quick (fun () ->
        (* the exact JSON the daemon serves: replica stats with the live
           LP engine counters embedded — the codec must carry every new
           factorization field through unscathed *)
        let json =
          Rtt_service.Replica.stats_json
            ~lp:(Rtt_lp.Simplex.lp_stats_json ())
            ~role:"primary" ~records:5 ~sync_replicas:1 ~held:0 ~followers:[ ("unix", 5, 5) ] ()
        in
        (match Protocol.parse_response (Protocol.encode_response (Protocol.Stats_is { json })) with
        | Ok (Protocol.Stats_is { json = json' }) ->
            Alcotest.(check string) "round-trip" json json'
        | _ -> Alcotest.fail "stats response did not round-trip");
        let has key =
          let needle = Printf.sprintf "\"%s\":" key in
          let nl = String.length needle and jl = String.length json in
          let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
          Alcotest.(check bool) (key ^ " present") true (scan 0)
        in
        List.iter has
          [ "pivots"; "warm_accepted"; "warm_rejected"; "refactors"; "etas"; "eta_peak"; "nnz";
            "cells" ]);
    Alcotest.test_case "submit length mismatch is rejected" `Quick (fun () ->
        let good = Protocol.encode_request (Protocol.Submit { name = "n"; body = "vertices 1" }) in
        (* splice a wrong declared length into the otherwise valid frame *)
        let bad =
          match String.split_on_char ' ' good with
          | [ verb; name; _len; body ] -> String.concat " " [ verb; name; "3"; body ]
          | _ -> Alcotest.fail "unexpected submit shape"
        in
        (match Protocol.parse_request bad with
        | Error msg -> Alcotest.(check bool) "mentions mismatch" true (contains ~needle:"mismatch" msg)
        | Ok _ -> Alcotest.fail "length mismatch must not parse"));
    Alcotest.test_case "unknown verbs and bad arity are errors" `Quick (fun () ->
        List.iter
          (fun payload ->
            match Protocol.parse_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S must not parse" payload)
          [ ""; "frobnicate"; "hello"; "hello x"; "submit a b"; "status"; "wait a b"; "ping extra" ]);
    Alcotest.test_case "malformed escapes are errors, not misparses" `Quick (fun () ->
        match Protocol.parse_request "status %zz" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bad escape must not parse");
    Alcotest.test_case "repl attachment length mismatch is rejected" `Quick (fun () ->
        let good =
          Protocol.encode_response (Protocol.Repl_instance { job = "j"; body = "vertices 1" })
        in
        let bad =
          match String.split_on_char ' ' good with
          | [ verb; job; _len; body ] -> String.concat " " [ verb; job; "3"; body ]
          | _ -> Alcotest.fail "unexpected repl.instance shape"
        in
        (match Protocol.parse_response bad with
        | Error msg -> Alcotest.(check bool) "mentions mismatch" true (contains ~needle:"mismatch" msg)
        | Ok _ -> Alcotest.fail "length mismatch must not parse"));
    Alcotest.test_case "submit-many: batch arity mismatch is rejected" `Quick (fun () ->
        let req = Protocol.Submit_many { name = "batch"; bodies = [ "vertices 1"; ""; "a b" ] } in
        let enc = Protocol.encode_request req in
        Alcotest.(check bool) "round-trips" true (Protocol.parse_request enc = Ok req);
        (* drop the final token: the declared count now exceeds the
           entries present, which must be an arity error, not a
           truncated batch *)
        let tokens = String.split_on_char ' ' enc in
        let short =
          String.concat " " (List.filteri (fun i _ -> i < List.length tokens - 1) tokens)
        in
        (match Protocol.parse_request short with
        | Error msg -> Alcotest.(check bool) "mentions arity" true (contains ~needle:"arity" msg)
        | Ok _ -> Alcotest.fail "arity mismatch must not parse");
        List.iter
          (fun payload ->
            match Protocol.parse_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S must not parse" payload)
          [ "submit-many"; "submit-many n"; "submit-many n x"; "submit-many n 1";
            "submit-many n 1 3"; "submit-many n 2 0  0" ]);
    Alcotest.test_case "submit-many: per-entry length mismatch is rejected" `Quick (fun () ->
        let good =
          Protocol.encode_request (Protocol.Submit_many { name = "n"; bodies = [ "vertices 1" ] })
        in
        let bad =
          match String.split_on_char ' ' good with
          | [ verb; name; count; _len; body ] -> String.concat " " [ verb; name; count; "3"; body ]
          | _ -> Alcotest.fail "unexpected submit-many shape"
        in
        match Protocol.parse_request bad with
        | Error msg -> Alcotest.(check bool) "mentions mismatch" true (contains ~needle:"mismatch" msg)
        | Ok _ -> Alcotest.fail "length mismatch must not parse");
    Alcotest.test_case "shard_of_id: deterministic, in range, hex-prefix routed" `Quick (fun () ->
        (* the hex fast path: the first 7 digest nibbles, mod shards *)
        Alcotest.(check int) "shards=1 is always 0" 0
          (Daemon.shard_of_id ~shards:1 "deadbeefdeadbeefdeadbeefdeadbeef");
        Alcotest.(check int) "hex prefix mod shards" (0xdeadbee mod 4)
          (Daemon.shard_of_id ~shards:4 "deadbeefdeadbeefdeadbeefdeadbeef");
        for shards = 1 to 8 do
          List.iter
            (fun id ->
              let k = Daemon.shard_of_id ~shards id in
              Alcotest.(check bool) "in range" true (k >= 0 && k < shards);
              Alcotest.(check int) "deterministic" k (Daemon.shard_of_id ~shards id))
            [ ""; "x"; "0123456"; "0123456789abcdef"; "not-hex-at-all";
              "ffffffffffffffffffffffffffffffff" ]
        done);
    Alcotest.test_case "session verbs: bad arity is an error" `Quick (fun () ->
        List.iter
          (fun payload ->
            match Protocol.parse_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S must not parse" payload)
          [ "session.open"; "session.open a b"; "session.mutate a"; "session.solve";
            "session.solve a b"; "session.close"; "session.close a b" ]);
    Alcotest.test_case "session.open seed body length mismatch is rejected" `Quick (fun () ->
        let good =
          Protocol.encode_request (Protocol.Session_open { sid = "s"; body = Some "vertices 1" })
        in
        let bad =
          match String.split_on_char ' ' good with
          | [ verb; sid; _len; body ] -> String.concat " " [ verb; sid; "3"; body ]
          | _ -> Alcotest.fail "unexpected session.open shape"
        in
        match Protocol.parse_request bad with
        | Error msg -> Alcotest.(check bool) "mentions mismatch" true (contains ~needle:"mismatch" msg)
        | Ok _ -> Alcotest.fail "length mismatch must not parse");
    Alcotest.test_case "repl verbs: bad arity is an error" `Quick (fun () ->
        List.iter
          (fun payload ->
            match Protocol.parse_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%S must not parse" payload)
          [ "repl.hello"; "repl.hello 1"; "repl.hello 1 x"; "repl.ack"; "repl.ack x";
            "promote extra"; "stats extra" ]);
  ]

(* ------------------------------------------------------------------ *)
(* admission queue                                                     *)

let admission_units =
  [
    Alcotest.test_case "admit to capacity, then shed with a hint" `Quick (fun () ->
        let a = Admission.create ~capacity:2 () in
        Alcotest.(check bool) "first" true (Admission.offer a ~id:"a" = `Admitted);
        Alcotest.(check bool) "second" true (Admission.offer a ~id:"b" = `Admitted);
        (match Admission.offer a ~id:"c" with
        | `Shed ms -> Alcotest.(check bool) "hint in [100ms,60s]" true (ms >= 100 && ms <= 60_000)
        | _ -> Alcotest.fail "expected shed");
        Alcotest.(check int) "queued" 2 (Admission.queued a));
    Alcotest.test_case "duplicates never consume a second slot" `Quick (fun () ->
        let a = Admission.create ~capacity:2 () in
        ignore (Admission.offer a ~id:"a");
        Alcotest.(check bool) "dup" true (Admission.offer a ~id:"a" = `Duplicate);
        Alcotest.(check int) "queued" 1 (Admission.queued a);
        (* still a duplicate while in flight *)
        Alcotest.(check (option string)) "take" (Some "a") (Admission.take a);
        Alcotest.(check bool) "dup in flight" true (Admission.offer a ~id:"a" = `Duplicate);
        Alcotest.(check int) "in flight" 1 (Admission.in_flight a));
    Alcotest.test_case "finish frees the slot and feeds the EWMA" `Quick (fun () ->
        let a = Admission.create ~capacity:1 () in
        ignore (Admission.offer a ~id:"a");
        ignore (Admission.take a);
        Admission.finish a ~id:"a" ~elapsed_ms:10_000;
        Alcotest.(check bool) "slot free" true (Admission.offer a ~id:"b" = `Admitted);
        (* one 10 s sample pushes the smoothed hint well above the floor *)
        Alcotest.(check bool) "hint grew" true (Admission.retry_after_ms a > 1_000));
    Alcotest.test_case "force admits a restart backlog past capacity" `Quick (fun () ->
        let a = Admission.create ~capacity:1 () in
        Admission.force a ~id:"a";
        Admission.force a ~id:"b";
        Admission.force a ~id:"a";
        Alcotest.(check int) "both queued, no dup" 2 (Admission.queued a);
        match Admission.offer a ~id:"c" with
        | `Shed _ -> ()
        | _ -> Alcotest.fail "over capacity after force: fresh submits shed");
    Alcotest.test_case "aggregate of one snapshot matches retry_after_ms" `Quick (fun () ->
        let a = Admission.create ~capacity:8 () in
        ignore (Admission.offer a ~id:"a");
        ignore (Admission.offer a ~id:"b");
        ignore (Admission.take a);
        Admission.finish a ~id:"a" ~elapsed_ms:7_300;
        (* the snapshot carries the ewma at millisecond precision, so
           the fleet estimate for a one-shard fleet reproduces the
           local hint up to rounding *)
        let direct = Admission.retry_after_ms a in
        let fleet = Admission.aggregate [ Admission.snapshot a ] in
        Alcotest.(check bool)
          (Printf.sprintf "within 1ms: direct=%d fleet=%d" direct fleet)
          true
          (abs (direct - fleet) <= 1));
    Alcotest.test_case "aggregate skips torn snapshots, clamps when empty" `Quick (fun () ->
        let a = Admission.create ~capacity:8 () in
        ignore (Admission.offer a ~id:"a");
        Admission.finish a ~id:"a" ~elapsed_ms:10_000;
        let good = Admission.aggregate [ Admission.snapshot a ] in
        (* a torn or garbage stat file must not poison the estimate *)
        List.iter
          (fun torn ->
            Alcotest.(check int)
              (Printf.sprintf "torn %S skipped" torn)
              good
              (Admission.aggregate [ torn; Admission.snapshot a ]))
          [ ""; "garbage"; "3"; "-1 5.0"; "3 -2.0"; "x 5.0"; "3 y"; "1 2 3" ];
        (* no parseable snapshot at all: the floor of the clamp range *)
        Alcotest.(check int) "empty clamps to floor" 100 (Admission.aggregate []);
        Alcotest.(check int) "all torn clamps to floor" 100 (Admission.aggregate [ "nope" ]));
    Alcotest.test_case "aggregate spreads occupancy over the fleet" `Quick (fun () ->
        (* two idle shards drain twice as fast as one: with the same
           total occupancy and ewma, the two-shard hint is at most the
           one-shard hint (it halves, modulo the clamp floor) *)
        let a = Admission.create ~capacity:8 () in
        ignore (Admission.offer a ~id:"a");
        ignore (Admission.offer a ~id:"b");
        ignore (Admission.take a);
        Admission.finish a ~id:"a" ~elapsed_ms:20_000;
        let solo = Admission.aggregate [ Admission.snapshot a ] in
        let idle = "0 0.000" in
        let fleet = Admission.aggregate [ Admission.snapshot a; idle ] in
        Alcotest.(check bool)
          (Printf.sprintf "fleet hint %d <= solo hint %d" fleet solo)
          true (fleet <= solo);
        Alcotest.(check bool) "still clamped to range" true (fleet >= 100 && fleet <= 60_000));
    Alcotest.test_case "requeue returns an in-flight job to the tail" `Quick (fun () ->
        let a = Admission.create ~capacity:4 () in
        ignore (Admission.offer a ~id:"a");
        ignore (Admission.offer a ~id:"b");
        Alcotest.(check (option string)) "take a" (Some "a") (Admission.take a);
        Admission.requeue a ~id:"a";
        Alcotest.(check (option string)) "b first" (Some "b") (Admission.take a);
        Alcotest.(check (option string)) "then a again" (Some "a") (Admission.take a);
        (* untracked ids are not resurrected *)
        Admission.requeue a ~id:"ghost";
        Alcotest.(check (option string)) "no ghost" None (Admission.take a));
  ]

(* ------------------------------------------------------------------ *)
(* process-level acceptance                                            *)

let rtt_exe =
  (* under `dune runtest` the cwd is _build/default/test; under a bare
     `dune exec` it is the workspace root *)
  let candidates =
    [
      Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rtt.exe";
      Filename.concat (Sys.getcwd ()) "_build/default/bin/rtt.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_net_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* run rtt to completion, capturing stdout *)
let run_rtt args =
  let out = Filename.temp_file "rtt_net_out" ".txt" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process rtt_exe (Array.of_list (rtt_exe :: args)) Unix.stdin fd null in
  Unix.close fd;
  Unix.close null;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let spawn_rtt args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process rtt_exe (Array.of_list (rtt_exe :: args)) Unix.stdin null null in
  Unix.close null;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> `Exited c
  | _, Unix.WSIGNALED s -> `Signaled s
  | _, Unix.WSTOPPED _ -> `Stopped
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> `Reaped

let wait_for ?(timeout = 60.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      ignore (Unix.select [] [] [] 0.01);
      go ()
    end
  in
  go ()

let gen_instance ~seed ~n path =
  let code, text = run_rtt [ "gen"; "-k"; "hub"; "-n"; string_of_int n; "--seed"; string_of_int seed ] in
  Alcotest.(check int) "gen exits 0" 0 code;
  write_file path text

let spawn_daemon ?(extra = []) ~spool ~socket () =
  let pid =
    spawn_rtt ([ "daemon"; "--spool"; spool; "--socket"; socket; "-b"; "3" ] @ extra)
  in
  if not (wait_for (fun () -> Sys.file_exists socket)) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    Alcotest.fail "daemon never created its socket"
  end;
  pid

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let line_with ~needle text =
  List.find_opt (fun l -> contains ~needle l) (String.split_on_char '\n' text)

(* pull a ["key":"value"] string field out of one line of jobs --json *)
let json_field key line =
  let needle = Printf.sprintf {|"%s":"|} key in
  let n = String.length needle and h = String.length line in
  let rec find i =
    if i + n > h then None else if String.sub line i n = needle then Some (i + n) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))

(* the (id, state) outcomes a spool's journals record, sorted — the
   unit of comparison between a flat and a sharded deployment *)
let outcomes_of spool =
  let code, json = run_rtt [ "jobs"; spool; "--json" ] in
  Alcotest.(check int) "jobs --json exits 0" 0 code;
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         match (json_field "id" line, json_field "state" line) with
         | Some id, Some state -> Some (id, state)
         | _ -> None)
  |> List.sort compare

let process_units =
  [
    Alcotest.test_case "submit --wait is byte-identical to a local solve" `Slow (fun () ->
        let spool = fresh_dir "e2e" in
        let socket = Filename.concat spool "d.sock" in
        let inst = Filename.concat spool "instance.txt" in
        gen_instance ~seed:7 ~n:16 inst;
        let daemon = spawn_daemon ~spool ~socket () in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon))
          (fun () ->
            let net_code, net_out =
              run_rtt [ "submit"; inst; "--socket"; socket; "--wait"; "--timeout"; "60" ]
            in
            let local_code, local_out = run_rtt [ "solve"; inst; "--fallback"; "-b"; "3" ] in
            Alcotest.(check int) "daemon result exit 0" 0 net_code;
            Alcotest.(check int) "local solve exit 0" 0 local_code;
            Alcotest.(check string) "byte-identical output" local_out net_out;
            (* resubmission coalesces onto the same durable job id *)
            let c1, id1 = run_rtt [ "submit"; inst; "--socket"; socket ] in
            let c2, id2 = run_rtt [ "submit"; inst; "--socket"; socket ] in
            Alcotest.(check int) "resubmit ok" 0 c1;
            Alcotest.(check int) "resubmit ok" 0 c2;
            Alcotest.(check string) "duplicate submissions share one id" id1 id2;
            let id = String.trim id1 in
            (* daemon status and spool jobs --json agree on the rendering *)
            let sc, sjson = run_rtt [ "status"; id; "--socket"; socket ] in
            Alcotest.(check int) "status exit 0" 0 sc;
            Alcotest.(check bool) "status says done" true
              (contains ~needle:{|"state":"done"|} sjson);
            let jc, jjson = run_rtt [ "jobs"; spool; "--json" ] in
            Alcotest.(check int) "jobs --json exit 0" 0 jc;
            (match line_with ~needle:id jjson with
            | Some line ->
                Alcotest.(check string) "one serializer for both views" (String.trim sjson)
                  (String.trim line)
            | None -> Alcotest.fail "submitted job missing from rtt jobs --json");
            (* unknown jobs: state unknown, exit 43 *)
            let uc, ujson = run_rtt [ "status"; "feedfacedeadbeef"; "--socket"; socket ] in
            Alcotest.(check int) "unknown job exits 43" 43 uc;
            Alcotest.(check bool) "unknown state" true
              (contains ~needle:{|"state":"unknown"|} ujson)));
    Alcotest.test_case "full admission queue sheds instead of hanging" `Slow (fun () ->
        let spool = fresh_dir "shed" in
        let socket = Filename.concat spool "d.sock" in
        (* an exact-only chain with --deadline-fuel 1 fails transiently
           on every attempt (no baseline rung to degrade to), and the
           huge retry budget keeps the first job churning: it stays
           tracked by admission for the whole test, so with --queue 1
           every later submission must shed deterministically *)
        let daemon =
          spawn_daemon ~spool ~socket
            ~extra:
              [ "--queue"; "1"; "--max-attempts"; "100000"; "--deadline-fuel"; "1";
                "--fallback"; "exact" ]
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon))
          (fun () ->
            let occupant = Filename.concat spool "occupant.txt" in
            let late = Filename.concat spool "late.txt" in
            (* distinct sizes, not just seeds: the hub generator has few
               shapes per hub count, and [late] coalescing with
               [occupant] would defeat the shed assertion *)
            gen_instance ~seed:11 ~n:16 occupant;
            gen_instance ~seed:12 ~n:24 late;
            let c0, _ = run_rtt [ "submit"; occupant; "--socket"; socket ] in
            Alcotest.(check int) "occupant admitted" 0 c0;
            let c1, _ = run_rtt [ "submit"; late; "--socket"; socket ] in
            Alcotest.(check int) "second submission shed (exit 41)" 41 c1;
            (* a duplicate of the occupant still coalesces, full or not *)
            let c2, _ = run_rtt [ "submit"; occupant; "--socket"; socket ] in
            Alcotest.(check int) "duplicate coalesces through a full queue" 0 c2));
    Alcotest.test_case "SIGKILL: accepted jobs survive, journal never leads the spool" `Slow
      (fun () ->
        let spool = fresh_dir "crash" in
        let socket = Filename.concat spool "d.sock" in
        let daemon = spawn_daemon ~spool ~socket () in
        let accepted = ref [] in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon))
          (fun () ->
            for i = 0 to 5 do
              let inst = Filename.concat spool (Printf.sprintf "in_%d.txt" i) in
              (* n = 8*(i+1): one extra hub per instance, so the six
                 digests are distinct by construction *)
              gen_instance ~seed:(20 + i) ~n:(8 * (i + 1)) inst;
              let code, out = run_rtt [ "submit"; inst; "--socket"; socket ] in
              Alcotest.(check int) "accepted" 0 code;
              accepted := String.trim out :: !accepted
            done;
            (* kill the daemon mid-stream — accepted jobs are already
               durable (instance file + journaled Queued) by contract *)
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon));
        (* invariant: every journaled job has its instance file — the
           journal must never get ahead of the spool *)
        let jobs_of () =
          let _, json = run_rtt [ "jobs"; spool; "--json" ] in
          List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' json)
        in
        List.iter
          (fun line ->
            match String.index_opt line ':' with
            | None -> ()
            | Some _ ->
                let prefix = {|{"id":"|} in
                if String.length line > String.length prefix then begin
                  let rest = String.sub line 7 (String.length line - 7) in
                  let id = String.sub rest 0 (String.index rest '"') in
                  Alcotest.(check bool)
                    (Printf.sprintf "journaled %s has an instance file" id)
                    true
                    (Sys.file_exists (Filename.concat spool (id ^ ".rtt")))
                end)
          (jobs_of ());
        (* restart on the same spool and drain: no accepted job lost.
           SIGKILL left the old socket file behind; remove it so the
           file reappearing means the new daemon has actually bound
           (spawn_daemon polls for existence, not connectability) *)
        if Sys.file_exists socket then Sys.remove socket;
        let daemon2 = spawn_daemon ~spool ~socket () in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon2 Sys.sigkill;
            ignore (wait_exit daemon2))
          (fun () ->
            List.iter
              (fun id ->
                let code, out =
                  run_rtt [ "submit"; Filename.concat spool (id ^ ".rtt"); "--socket"; socket;
                            "--wait"; "--timeout"; "60" ]
                in
                Alcotest.(check int) (Printf.sprintf "job %s completes after restart" id) 0 code;
                Alcotest.(check bool) "result is a solve rendering" true
                  (contains ~needle:"makespan" out))
              !accepted));
    Alcotest.test_case "SIGTERM drain answers in-flight waiters, exits 0" `Slow (fun () ->
        let spool = fresh_dir "drain" in
        let socket = Filename.concat spool "d.sock" in
        let inst = Filename.concat spool "instance.txt" in
        gen_instance ~seed:31 ~n:20 inst;
        let daemon = spawn_daemon ~spool ~socket () in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon))
          (fun () ->
            (* a waiter in flight when the drain starts *)
            let out = Filename.concat spool "waiter.out" in
            let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            let waiter =
              Unix.create_process rtt_exe
                [| rtt_exe; "submit"; inst; "--socket"; socket; "--wait"; "--timeout"; "60" |]
                Unix.stdin fd null
            in
            Unix.close fd;
            Unix.close null;
            ignore (Unix.select [] [] [] 0.2);
            kill_quietly daemon Sys.sigterm;
            (match wait_exit waiter with
            | `Exited 0 -> ()
            | outcome ->
                Alcotest.failf "waiter should be answered through the drain, got %s"
                  (match outcome with
                  | `Exited c -> Printf.sprintf "exit %d" c
                  | `Signaled s -> Printf.sprintf "signal %d" s
                  | `Stopped -> "stopped"
                  | `Reaped -> "already reaped"));
            Alcotest.(check bool) "waiter printed a result" true
              (contains ~needle:"makespan" (read_file out));
            (match wait_exit daemon with
            | `Exited 0 -> ()
            | `Exited c -> Alcotest.failf "drained daemon must exit 0, got %d" c
            | _ -> Alcotest.fail "daemon killed by signal");
            (* a drained daemon sheds new submissions rather than
               accepting work it will never run — and after exit, the
               socket file is gone *)
            Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)));
    Alcotest.test_case "shards=4 journal outcomes equal shards=1, exactly-once per shard" `Slow
      (fun () ->
        let flat = fresh_dir "flat" in
        let sharded = fresh_dir "sharded" in
        let sock_flat = Filename.concat flat "d.sock" in
        let sock_sharded = Filename.concat sharded "d.sock" in
        let insts =
          List.map
            (fun i ->
              let p = Filename.concat flat (Printf.sprintf "in_%d.txt" i) in
              (* distinct hub counts keep the five digests distinct *)
              gen_instance ~seed:(40 + i) ~n:(8 * (i + 1)) p;
              p)
            [ 0; 1; 2; 3; 4 ]
        in
        let d_flat = spawn_daemon ~spool:flat ~socket:sock_flat () in
        let d_sharded =
          spawn_daemon ~extra:[ "--shards"; "4" ] ~spool:sharded ~socket:sock_sharded ()
        in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly d_flat Sys.sigkill;
            ignore (wait_exit d_flat);
            kill_quietly d_sharded Sys.sigkill;
            ignore (wait_exit d_sharded))
          (fun () ->
            let submit sock inst =
              let code, out =
                run_rtt [ "submit"; inst; "--socket"; sock; "--wait"; "--timeout"; "120" ]
              in
              Alcotest.(check int) (Printf.sprintf "submit --wait %s ok" inst) 0 code;
              out
            in
            List.iter
              (fun inst ->
                let o_flat = submit sock_flat inst in
                let o_sharded = submit sock_sharded inst in
                Alcotest.(check string) "same rendering from either topology" o_flat o_sharded)
              insts;
            (* a second pass over the sharded fleet: every digest must
               coalesce onto its owner's existing job, wherever the
               accepting shard was *)
            List.iter (fun inst -> ignore (submit sock_sharded inst)) insts;
            kill_quietly d_flat Sys.sigterm;
            kill_quietly d_sharded Sys.sigterm;
            (match wait_exit d_flat with
            | `Exited 0 -> ()
            | _ -> Alcotest.fail "flat daemon must drain to exit 0");
            match wait_exit d_sharded with
            | `Exited 0 -> ()
            | _ -> Alcotest.fail "sharded daemon must drain to exit 0");
        (* per fingerprint, both deployments journaled the same outcome *)
        let o_flat = outcomes_of flat in
        let o_sharded = outcomes_of sharded in
        Alcotest.(check (list (pair string string)))
          "same (id, state) outcomes either way" o_flat o_sharded;
        Alcotest.(check int) "five distinct jobs" 5 (List.length o_sharded);
        List.iter
          (fun (_, state) -> Alcotest.(check string) "all done" "done" state)
          o_sharded;
        (* exactly-once under sharding: each job's instance file lives
           in exactly one shard spool, and that shard is the one the
           router names — no double-journaling, no orphan copies *)
        let shard_dirs =
          Sys.readdir sharded |> Array.to_list
          |> List.filter (fun d ->
                 String.length d > 6
                 && String.sub d 0 6 = "shard-"
                 && Sys.is_directory (Filename.concat sharded d))
          |> List.sort compare
        in
        Alcotest.(check (list string)) "four shard spools"
          [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ] shard_dirs;
        List.iter
          (fun (id, _) ->
            let owners =
              List.filter
                (fun d -> Sys.file_exists (Filename.concat (Filename.concat sharded d) (id ^ ".rtt")))
                shard_dirs
            in
            Alcotest.(check (list string))
              (Printf.sprintf "job %s owned by exactly the shard the router names" id)
              [ Printf.sprintf "shard-%d" (Daemon.shard_of_id ~shards:4 id) ]
              owners)
          o_sharded);
    Alcotest.test_case "session: SIGKILL mid-mutation-stream replays to the uninterrupted answer"
      `Slow (fun () ->
        (* the same six mutations, streamed into two daemons; one of
           them is SIGKILLed halfway through the stream and restarted.
           The journaled session must replay and the final solve must
           render byte-identically to the never-interrupted run *)
        let first = [ [ "add-job"; "0:6"; "1:3" ]; [ "add-job"; "0:4"; "2:1" ];
                      [ "add-job"; "0:5"; "1:2" ] ]
        and rest = [ [ "add-edge"; "0"; "1" ]; [ "add-edge"; "1"; "2" ]; [ "set-budget"; "3" ] ]
        in
        let mutate sock words =
          run_rtt ([ "session"; "mutate"; "s1"; "--socket"; sock ] @ words)
        in
        let mutate_ok sock words =
          let code, _ = mutate sock words in
          Alcotest.(check int) (String.concat " " ("mutate" :: words)) 0 code
        in
        let solve sock =
          let code, out = run_rtt [ "session"; "solve"; "s1"; "--socket"; sock ] in
          Alcotest.(check int) "session solve exits 0" 0 code;
          Alcotest.(check bool) "solve rendered an answer" true (contains ~needle:"makespan" out);
          out
        in
        (* control: all six mutations, no interruption *)
        let control = fresh_dir "sess_ctl" in
        let sock_c = Filename.concat control "d.sock" in
        let d_c = spawn_daemon ~spool:control ~socket:sock_c () in
        let expected =
          Fun.protect
            ~finally:(fun () ->
              kill_quietly d_c Sys.sigkill;
              ignore (wait_exit d_c))
            (fun () ->
              let code, _ = run_rtt [ "session"; "open"; "s1"; "--socket"; sock_c ] in
              Alcotest.(check int) "open ok" 0 code;
              List.iter (mutate_ok sock_c) (first @ rest);
              solve sock_c)
        in
        (* crash run: three mutations land, the daemon dies, a restart
           replays them, and the stream continues where it stopped *)
        let spool = fresh_dir "sess_crash" in
        let sock = Filename.concat spool "d.sock" in
        let d1 = spawn_daemon ~spool ~socket:sock () in
        let got =
          Fun.protect
            ~finally:(fun () ->
              kill_quietly d1 Sys.sigkill;
              ignore (wait_exit d1))
            (fun () ->
              let code, _ = run_rtt [ "session"; "open"; "s1"; "--socket"; sock ] in
              Alcotest.(check int) "open ok" 0 code;
              List.iter (mutate_ok sock) first;
              kill_quietly d1 Sys.sigkill;
              ignore (wait_exit d1);
              if Sys.file_exists sock then Sys.remove sock;
              let d2 = spawn_daemon ~spool ~socket:sock () in
              Fun.protect
                ~finally:(fun () ->
                  kill_quietly d2 Sys.sigkill;
                  ignore (wait_exit d2))
                (fun () ->
                  (* no explicit reopen: the restarted daemon reattaches
                     the journaled session on first use *)
                  List.iter (mutate_ok sock) rest;
                  solve sock))
        in
        Alcotest.(check string) "crash-replayed answer is byte-identical" expected got);
    Alcotest.test_case "session: an injected mutate drop loses nothing but the ack" `Slow
      (fun () ->
        let spool = fresh_dir "sess_fault" in
        let socket = Filename.concat spool "d.sock" in
        (* the first two mutate probes pass, the third fires and disarms *)
        let daemon =
          spawn_daemon ~spool ~socket ~extra:[ "--inject"; "session.mutate.drop:2" ] ()
        in
        Fun.protect
          ~finally:(fun () ->
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon))
          (fun () ->
            let mutate words = run_rtt ([ "session"; "mutate"; "s1"; "--socket"; socket ] @ words) in
            let code, _ = run_rtt [ "session"; "open"; "s1"; "--socket"; socket ] in
            Alcotest.(check int) "open ok" 0 code;
            let c1, o1 = mutate [ "set-budget"; "2" ] in
            Alcotest.(check int) "first mutate ok" 0 c1;
            Alcotest.(check bool) "revision 1" true (contains ~needle:"revision 1" o1);
            let c2, _ = mutate [ "add-job"; "0:3" ] in
            Alcotest.(check int) "second mutate ok" 0 c2;
            let c3, _ = mutate [ "add-job"; "0:2"; "1:1" ] in
            Alcotest.(check bool) "injected drop surfaces as an error" true (c3 <> 0);
            (* the drop happened before journaling: the session is
               exactly as it was, so the retry lands as revision 3 *)
            let c4, o4 = mutate [ "add-job"; "0:2"; "1:1" ] in
            Alcotest.(check int) "retry ok" 0 c4;
            Alcotest.(check bool) "retry is revision 3" true (contains ~needle:"revision 3" o4);
            let sc, sout = run_rtt [ "session"; "solve"; "s1"; "--socket"; socket ] in
            Alcotest.(check int) "solve ok" 0 sc;
            Alcotest.(check bool) "solve answers" true (contains ~needle:"makespan" sout)));
  ]

let () =
  Alcotest.run "net"
    [
      ("protocol-props", protocol_props);
      ("protocol", protocol_units);
      ("admission", admission_units);
      ("process", process_units);
    ]
