(* Tests for the replicated job store: follower replay bookkeeping
   (apply_line's stale/gap/bad/applied contract, watermark recovery,
   catch-up slicing), the sync-replicas gate, the stats JSON — and the
   process-level two-node scenarios against the real rtt binary:
   byte-for-byte journal convergence, read-only follower serving,
   SIGKILL-the-primary failover with exactly-once completion on the
   promoted follower, follower restart catching up from its durable
   watermark (no full re-ship), the --sync-replicas durability gate,
   fault injection (repl.frame-drop, repl.ack-delay), and a
   submit --wait that rides out a daemon restart via client-side
   reconnect. *)

open Rtt_service

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_repl_%s_%d_%d" tag (Unix.getpid ()) !counter)
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

let record job event = { Journal.job; event }
let queued job = record job Journal.Queued

(* ------------------------------------------------------------------ *)
(* follower replay bookkeeping                                         *)

let replica_units =
  [
    Alcotest.test_case "fresh follower: watermark 0, empty states" `Quick (fun () ->
        let f = Replica.open_follower ~spool:(fresh_dir "fresh") in
        Alcotest.(check int) "watermark" 0 f.Replica.watermark;
        Alcotest.(check int) "states" 0 (List.length (Journal.to_list f.Replica.states));
        Replica.close_follower f);
    Alcotest.test_case "apply_line: applied / stale / gap / bad" `Quick (fun () ->
        let spool = fresh_dir "apply" in
        let f = Replica.open_follower ~spool in
        let l0 = Journal.encode (queued "a") in
        let l1 = Journal.encode (record "a" (Journal.Started { attempt = 1 })) in
        (match Replica.apply_line f ~seq:0 ~line:l0 with
        | `Applied r -> Alcotest.(check bool) "decoded" true (r = queued "a")
        | _ -> Alcotest.fail "seq 0 on watermark 0 must apply");
        Alcotest.(check int) "watermark advanced" 1 f.Replica.watermark;
        (* a re-ship of a record we already hold is stale, not an error *)
        Alcotest.(check bool) "stale" true (Replica.apply_line f ~seq:0 ~line:l0 = `Stale);
        Alcotest.(check int) "stale does not advance" 1 f.Replica.watermark;
        (* a skipped frame is a gap: nothing is applied out of order *)
        Alcotest.(check bool) "gap" true (Replica.apply_line f ~seq:2 ~line:l1 = `Gap);
        Alcotest.(check int) "gap does not advance" 1 f.Replica.watermark;
        (* an undecodable line is rejected without touching the journal *)
        Alcotest.(check bool) "bad" true (Replica.apply_line f ~seq:1 ~line:"garbage" = `Bad);
        Alcotest.(check bool) "in-order applies" true
          (match Replica.apply_line f ~seq:1 ~line:l1 with `Applied _ -> true | _ -> false);
        Replica.close_follower f;
        (* the journal holds exactly the applied lines, verbatim *)
        Alcotest.(check string) "byte-for-byte" (l0 ^ "\n" ^ l1 ^ "\n")
          (read_file (Journal.path ~spool));
        (* reopening recovers the same watermark and folded states *)
        let f2 = Replica.open_follower ~spool in
        Alcotest.(check int) "recovered watermark" 2 f2.Replica.watermark;
        (match Journal.find f2.Replica.states "a" with
        | Some (Journal.Running { attempt = 1 }) -> ()
        | _ -> Alcotest.fail "states must fold the applied prefix");
        Replica.close_follower f2);
    Alcotest.test_case "lines_from slices the committed suffix with true seqs" `Quick (fun () ->
        let spool = fresh_dir "slice" in
        let j = Journal.open_ ~spool in
        let rs = [ queued "a"; queued "b"; queued "c" ] in
        List.iter (Journal.append j) rs;
        Journal.close j;
        let all = Replica.lines_from ~spool 0 in
        Alcotest.(check int) "all" 3 (List.length all);
        List.iteri
          (fun i (seq, line) ->
            Alcotest.(check int) "seq" i seq;
            Alcotest.(check string) "line" (Journal.encode (List.nth rs i)) line)
          all;
        (match Replica.lines_from ~spool 2 with
        | [ (2, line) ] -> Alcotest.(check string) "tail" (Journal.encode (queued "c")) line
        | _ -> Alcotest.fail "from 2: exactly the last record");
        Alcotest.(check int) "past the end" 0 (List.length (Replica.lines_from ~spool 9)));
    Alcotest.test_case "write_blob lands atomically, no tmp left behind" `Quick (fun () ->
        let dir = fresh_dir "blob" in
        let path = Filename.concat dir "x.rtt" in
        Replica.write_blob ~path "vertices 2\n";
        Alcotest.(check string) "content" "vertices 2\n" (read_file path);
        Alcotest.(check int) "only the blob" 1 (Array.length (Sys.readdir dir)));
  ]

let sync_units =
  [
    Alcotest.test_case "replicas 0 never holds" `Quick (fun () ->
        let s = Replica.Sync.create ~replicas:0 in
        Replica.Sync.hold s ~seq:7 "t";
        Alcotest.(check (list string)) "released with no acks at all" [ "t" ]
          (Replica.Sync.release s ~watermarks:[]);
        Alcotest.(check int) "empty" 0 (Replica.Sync.pending s));
    Alcotest.test_case "release when K watermarks pass the seq, in hold order" `Quick (fun () ->
        let s = Replica.Sync.create ~replicas:2 in
        Replica.Sync.hold s ~seq:0 "a";
        Replica.Sync.hold s ~seq:1 "b";
        (* one follower past both records is not enough for K = 2 *)
        Alcotest.(check (list string)) "one ack" [] (Replica.Sync.release s ~watermarks:[ 2 ]);
        (* watermark w covers seq iff w > seq *)
        Alcotest.(check (list string)) "covers seq 0 only" [ "a" ]
          (Replica.Sync.release s ~watermarks:[ 2; 1 ]);
        Alcotest.(check int) "b still held" 1 (Replica.Sync.pending s);
        Alcotest.(check (list string)) "then seq 1" [ "b" ]
          (Replica.Sync.release s ~watermarks:[ 2; 2 ]);
        (* a follower vanishing can shrink coverage: nothing re-held *)
        Alcotest.(check (list string)) "idempotent" [] (Replica.Sync.release s ~watermarks:[]));
    Alcotest.test_case "drain gives back everything in hold order" `Quick (fun () ->
        let s = Replica.Sync.create ~replicas:1 in
        Replica.Sync.hold s ~seq:0 "a";
        Replica.Sync.hold s ~seq:1 "b";
        Alcotest.(check (list string)) "drained" [ "a"; "b" ] (Replica.Sync.drain s);
        Alcotest.(check int) "empty" 0 (Replica.Sync.pending s));
    Alcotest.test_case "stats_json shape" `Quick (fun () ->
        Alcotest.(check string) "exact"
          {|{"role":"primary","records":9,"sync_replicas":1,"held":2,"followers":[{"peer":"unix","sent":9,"acked":7,"lag":2}]}|}
          (Replica.stats_json ~role:"primary" ~records:9 ~sync_replicas:1 ~held:2
             ~followers:[ ("unix", 9, 7) ] ()));
    Alcotest.test_case "stats_json embeds the lp object verbatim" `Quick (fun () ->
        Alcotest.(check string) "exact"
          {|{"role":"follower","records":3,"sync_replicas":0,"held":0,"followers":[],"lp":{"engine":"sparse","pivots":7}}|}
          (Replica.stats_json ~lp:{|{"engine":"sparse","pivots":7}|} ~role:"follower" ~records:3
             ~sync_replicas:0 ~held:0 ~followers:[] ()));
  ]

(* ------------------------------------------------------------------ *)
(* two-node process scenarios                                          *)

let rtt_exe =
  let candidates =
    [
      Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rtt.exe";
      Filename.concat (Sys.getcwd ()) "_build/default/bin/rtt.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let run_rtt args =
  let out = Filename.temp_file "rtt_repl_out" ".txt" in
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

(* spawn with stderr captured: the catch-up assertions read the
   replica's own log ("offering watermark N") *)
let spawn_rtt ?log args =
  let err =
    match log with
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process rtt_exe (Array.of_list (rtt_exe :: args)) Unix.stdin null err in
  Unix.close null;
  Unix.close err;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> `Exited c
  | _, Unix.WSIGNALED s -> `Signaled s
  | _, Unix.WSTOPPED _ -> `Stopped
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> `Reaped

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pid =
  kill_quietly pid Sys.sigkill;
  ignore (wait_exit pid)

let wait_for ?(timeout = 60.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      ignore (Unix.select [] [] [] 0.02);
      go ()
    end
  in
  go ()

let gen_instance ~kind ~seed ~n path =
  let code, text =
    run_rtt [ "gen"; "-k"; kind; "-n"; string_of_int n; "--seed"; string_of_int seed ]
  in
  Alcotest.(check int) "gen exits 0" 0 code;
  write_file path text

let spawn_daemon ?(extra = []) ~spool ~socket () =
  let pid = spawn_rtt ([ "daemon"; "--spool"; spool; "--socket"; socket; "-b"; "3" ] @ extra) in
  if not (wait_for (fun () -> Sys.file_exists socket)) then begin
    reap pid;
    Alcotest.fail "daemon never created its socket"
  end;
  pid

let spawn_replica ?(extra = []) ?log ~spool ~socket ~primary () =
  let pid =
    spawn_rtt ?log
      ([ "replica"; "--spool"; spool; "--socket"; socket; "--primary"; primary; "-v" ] @ extra)
  in
  if not (wait_for (fun () -> Sys.file_exists socket)) then begin
    reap pid;
    Alcotest.fail "replica never created its socket"
  end;
  pid

let journal_text spool =
  let p = Journal.path ~spool in
  if Sys.file_exists p then read_file p else ""

let journals_converged a b =
  let ta = journal_text a in
  ta <> "" && ta = journal_text b

(* the status JSON for [id], asked of the node at [socket] *)
let status_of ~socket id = snd (run_rtt [ "status"; id; "--socket"; socket ])

let process_units =
  [
    Alcotest.test_case "two nodes converge byte-for-byte; follower is read-only" `Slow (fun () ->
        let dir = fresh_dir "pair" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let ca = Filename.concat dir "ca" and cb = Filename.concat dir "cb" in
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        let daemon = spawn_daemon ~spool:a ~socket:asock ~extra:[ "--cache-dir"; ca ] () in
        let replica =
          spawn_replica ~spool:b ~socket:bsock ~primary:asock ~extra:[ "--cache-dir"; cb ] ()
        in
        Fun.protect
          ~finally:(fun () ->
            reap replica;
            reap daemon)
          (fun () ->
            let inst = Filename.concat dir "i.rtt" in
            gen_instance ~kind:"hub" ~seed:7 ~n:16 inst;
            let code, _ = run_rtt [ "submit"; inst; "--socket"; asock; "--wait"; "--timeout"; "60" ] in
            Alcotest.(check int) "solved on the primary" 0 code;
            let _, id = run_rtt [ "submit"; inst; "--socket"; asock ] in
            let id = String.trim id in
            Alcotest.(check bool) "journals byte-identical at quiescence" true
              (wait_for (fun () -> journals_converged a b));
            (* the instance attachment landed before its queued frame *)
            Alcotest.(check bool) "instance replicated" true
              (Sys.file_exists (Filename.concat b (id ^ ".rtt")));
            Alcotest.(check bool) "cache entries replicated" true
              (Sys.file_exists cb && Array.length (Sys.readdir cb) > 0);
            (* the follower answers status locally, from replicated state *)
            Alcotest.(check bool) "follower sees the job done" true
              (wait_for (fun () -> contains ~needle:{|"state":"done"|} (status_of ~socket:bsock id)));
            (* and refuses writes *)
            let rc, _ = run_rtt [ "submit"; inst; "--socket"; bsock ] in
            Alcotest.(check int) "submit to a follower is refused" 40 rc;
            (* stats: roles, and zero lag once converged *)
            let _, astats = run_rtt [ "status"; "--socket"; asock ] in
            let _, bstats = run_rtt [ "status"; "--socket"; bsock ] in
            Alcotest.(check bool) "primary role" true (contains ~needle:{|"role":"primary"|} astats);
            Alcotest.(check bool) "follower role" true
              (contains ~needle:{|"role":"follower"|} bstats);
            Alcotest.(check bool) "no lag at quiescence" true
              (wait_for (fun () ->
                   let _, s = run_rtt [ "status"; "--socket"; asock ] in
                   contains ~needle:{|"lag":0|} s))));
    Alcotest.test_case "SIGKILL primary mid-flight: promoted follower finishes exactly once" `Slow
      (fun () ->
        let dir = fresh_dir "failover" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        (* an exact-only solve under a tight fuel deadline fails
           transiently on every cold attempt but accumulates checkpoint
           progress — the job is reliably mid-retry when we pull the
           plug, and reliably finishes on the survivor *)
        let churn =
          [ "--deadline-fuel"; "20"; "--fallback"; "exact"; "--max-attempts"; "100000" ]
        in
        let daemon = spawn_daemon ~spool:a ~socket:asock ~extra:churn () in
        let replica =
          spawn_replica ~spool:b ~socket:bsock ~primary:asock ~extra:[ "--max-attempts"; "100000" ]
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            reap replica;
            reap daemon)
          (fun () ->
            let inst = Filename.concat dir "i.rtt" in
            gen_instance ~kind:"layered" ~seed:42 ~n:9 inst;
            let code, id = run_rtt [ "submit"; inst; "--socket"; asock ] in
            Alcotest.(check int) "accepted" 0 code;
            let id = String.trim id in
            (* wait until the claim (a started record) is replicated to
               the follower, so the kill provably lands mid-assignment *)
            let started spool =
              List.exists
                (fun r ->
                  r.Journal.job = id ^ ".rtt"
                  && match r.Journal.event with Journal.Started _ -> true | _ -> false)
                (Journal.replay ~spool)
            in
            Alcotest.(check bool) "job started and claim replicated" true
              (wait_for (fun () -> started a && started b));
            kill_quietly daemon Sys.sigkill;
            ignore (wait_exit daemon);
            let pc, pout = run_rtt [ "promote"; "--socket"; bsock; "--connect-attempts"; "4" ] in
            Alcotest.(check int) "promote exits 0" 0 pc;
            Alcotest.(check bool) "answered promoting" true (contains ~needle:"promoting" pout);
            (* the promoted node resumes the drain and completes the job *)
            Alcotest.(check bool) "job completes on the promoted node" true
              (wait_for (fun () ->
                   contains ~needle:{|"state":"done"|}
                     (snd
                        (run_rtt
                           [ "status"; id; "--socket"; bsock; "--connect-attempts"; "4" ]))));
            (* exactly-once: across both lives of the job there is ONE
               done record, and the journal folds to Completed *)
            let records = Journal.replay ~spool:b in
            let dones =
              List.filter
                (fun r ->
                  r.Journal.job = id ^ ".rtt"
                  && match r.Journal.event with Journal.Done _ -> true | _ -> false)
                records
            in
            Alcotest.(check int) "exactly one done record" 1 (List.length dones);
            (match Journal.find (Journal.fold records) (id ^ ".rtt") with
            | Some (Journal.Completed _) -> ()
            | _ -> Alcotest.fail "journal must fold to Completed")));
    Alcotest.test_case "killed follower catches up from its watermark on restart" `Slow (fun () ->
        let dir = fresh_dir "catchup" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        let daemon = spawn_daemon ~spool:a ~socket:asock () in
        let replica = ref (spawn_replica ~spool:b ~socket:bsock ~primary:asock ()) in
        Fun.protect
          ~finally:(fun () ->
            reap !replica;
            reap daemon)
          (fun () ->
            let i1 = Filename.concat dir "i1.rtt" and i2 = Filename.concat dir "i2.rtt" in
            gen_instance ~kind:"hub" ~seed:11 ~n:16 i1;
            gen_instance ~kind:"hub" ~seed:12 ~n:24 i2;
            let c1, _ = run_rtt [ "submit"; i1; "--socket"; asock; "--wait"; "--timeout"; "60" ] in
            Alcotest.(check int) "first job done" 0 c1;
            Alcotest.(check bool) "replicated before the kill" true
              (wait_for (fun () -> journals_converged a b));
            kill_quietly !replica Sys.sigkill;
            ignore (wait_exit !replica);
            if Sys.file_exists bsock then Sys.remove bsock;
            (* the primary keeps serving with its follower dead *)
            let c2, _ = run_rtt [ "submit"; i2; "--socket"; asock; "--wait"; "--timeout"; "60" ] in
            Alcotest.(check int) "primary unaffected" 0 c2;
            (* restart on the same spool: it must offer its durable
               watermark (no full re-ship) and converge *)
            let log = Filename.concat dir "replica.log" in
            replica := spawn_replica ~log ~spool:b ~socket:bsock ~primary:asock ();
            Alcotest.(check bool) "converged after catch-up" true
              (wait_for (fun () -> journals_converged a b));
            Alcotest.(check bool) "offered a non-zero watermark" true
              (wait_for ~timeout:10.0 (fun () ->
                   let text = if Sys.file_exists log then read_file log else "" in
                   contains ~needle:"offering watermark" text
                   && not (contains ~needle:"offering watermark 0" text)))));
    Alcotest.test_case "--sync-replicas 1 holds acks until a follower is durable" `Slow (fun () ->
        let dir = fresh_dir "sync" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        let daemon = spawn_daemon ~spool:a ~socket:asock ~extra:[ "--sync-replicas"; "1" ] () in
        Fun.protect
          ~finally:(fun () -> reap daemon)
          (fun () ->
            let inst = Filename.concat dir "i.rtt" in
            gen_instance ~kind:"hub" ~seed:21 ~n:16 inst;
            (* no follower: the accepted reply is held past the client's
               patience — durability was asked for and cannot be given *)
            let c0, _ = run_rtt [ "submit"; inst; "--socket"; asock; "--timeout"; "2" ] in
            Alcotest.(check int) "unreplicated submit times out (42)" 42 c0;
            let replica = spawn_replica ~spool:b ~socket:bsock ~primary:asock () in
            Fun.protect
              ~finally:(fun () -> reap replica)
              (fun () ->
                (* with a follower attached the gate opens: both the
                   coalesced resubmit and a brand-new submission ack *)
                let c1, _ = run_rtt [ "submit"; inst; "--socket"; asock; "--timeout"; "30" ] in
                Alcotest.(check int) "resubmit acks once replicated" 0 c1;
                let i2 = Filename.concat dir "i2.rtt" in
                gen_instance ~kind:"hub" ~seed:22 ~n:24 i2;
                let c2, _ = run_rtt [ "submit"; i2; "--socket"; asock; "--timeout"; "30" ] in
                Alcotest.(check int) "fresh submit acks through the gate" 0 c2)));
    Alcotest.test_case "injected faults: frame drop and swallowed ack both converge" `Slow
      (fun () ->
        let dir = fresh_dir "faults" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        (* the primary drops the third shipped frame; the follower
           swallows its first per-frame ack. The gap forces a
           reconnect-from-watermark, the lost ack is covered by the
           heartbeat — and a sync-replicas submit still acks *)
        let daemon =
          spawn_daemon ~spool:a ~socket:asock
            ~extra:[ "--sync-replicas"; "1"; "--inject"; "repl.frame-drop:2" ]
            ()
        in
        let replica =
          spawn_replica ~spool:b ~socket:bsock ~primary:asock
            ~extra:[ "--inject"; "repl.ack-delay:0" ]
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            reap replica;
            reap daemon)
          (fun () ->
            let i1 = Filename.concat dir "i1.rtt" and i2 = Filename.concat dir "i2.rtt" in
            gen_instance ~kind:"hub" ~seed:31 ~n:16 i1;
            gen_instance ~kind:"hub" ~seed:32 ~n:24 i2;
            let c1, _ = run_rtt [ "submit"; i1; "--socket"; asock; "--timeout"; "30" ] in
            Alcotest.(check int) "acked despite the swallowed ack" 0 c1;
            let c2, _ = run_rtt [ "submit"; i2; "--socket"; asock; "--timeout"; "30" ] in
            Alcotest.(check int) "acked across the dropped frame" 0 c2;
            Alcotest.(check bool) "journals converge despite both faults" true
              (wait_for (fun () -> journals_converged a b))));
    Alcotest.test_case "submit --wait rides out a daemon restart" `Slow (fun () ->
        let dir = fresh_dir "ride" in
        let a = Filename.concat dir "a" in
        Unix.mkdir a 0o755;
        let asock = Filename.concat dir "a.sock" in
        let churn =
          [ "--deadline-fuel"; "20"; "--fallback"; "exact"; "--max-attempts"; "100000" ]
        in
        let daemon = ref (spawn_daemon ~spool:a ~socket:asock ~extra:churn ()) in
        Fun.protect
          ~finally:(fun () -> reap !daemon)
          (fun () ->
            let inst = Filename.concat dir "i.rtt" in
            gen_instance ~kind:"layered" ~seed:42 ~n:9 inst;
            (* a waiter in flight when the daemon dies: the client must
               reconnect with backoff and re-send the wait *)
            let out = Filename.concat dir "waiter.out" in
            let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            let waiter =
              Unix.create_process rtt_exe
                [|
                  rtt_exe; "submit"; inst; "--socket"; asock; "--wait"; "--timeout"; "120";
                  "--connect-attempts"; "12";
                |]
                Unix.stdin fd null
            in
            Unix.close fd;
            Unix.close null;
            (* let it be accepted and start churning, then pull the plug *)
            ignore (wait_for (fun () -> List.length (Journal.replay ~spool:a) >= 2));
            kill_quietly !daemon Sys.sigkill;
            ignore (wait_exit !daemon);
            if Sys.file_exists asock then Sys.remove asock;
            ignore (Unix.select [] [] [] 0.3);
            (* restart on the same spool and socket — keep the generous
               attempt budget (the churn already burned many) but drop
               the fuel deadline, so the adopted job can actually
               finish; the client's reconnect completes the story *)
            daemon := spawn_daemon ~spool:a ~socket:asock ~extra:[ "--max-attempts"; "100000" ] ();
            (match wait_exit waiter with
            | `Exited 0 -> ()
            | `Exited c -> Alcotest.failf "waiter must ride out the restart, exited %d" c
            | _ -> Alcotest.fail "waiter killed");
            Alcotest.(check bool) "waiter printed a result" true
              (contains ~needle:"makespan" (read_file out))));
  ]

let () =
  Alcotest.run "replica"
    [
      ("replica", replica_units);
      ("sync", sync_units);
      ("process", process_units);
    ]
