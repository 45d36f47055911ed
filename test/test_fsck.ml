(* Tests for the storage scrubber: finding taxonomy over every kind of
   spool/cache damage (torn journal tails, stranded records, missing
   or orphaned files, corrupt checkpoints, checksum-failing and forged
   cache entries), truncate-at-every-byte-offset properties for cache
   entries and checkpoint sidecars, local repair semantics, and the
   full acceptance scenario: a deliberately corrupted primary spool
   restored by `rtt fsck --repair` pulling from a live replica, after
   which a restarted daemon serves with exactly-once outcomes. *)

open Rtt_dag
open Rtt_core
open Rtt_engine
open Rtt_service

let rng_of seed = Random.State.make [| seed |]

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_fsck_%s_%d_%d" tag (Unix.getpid ()) !counter)
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
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let cheap_instance seed =
  Problem.of_race_dag (Gen.erdos_renyi (rng_of seed) ~n:6 ~edge_prob:0.35) Problem.Binary

(* a freshly drained spool + cache: the fixture most tests damage *)
let drained_spool ?(jobs = 2) tag =
  let dir = fresh_dir tag in
  let spool = Filename.concat dir "spool" in
  let cache = Filename.concat dir "cache" in
  Unix.mkdir spool 0o755;
  for i = 0 to jobs - 1 do
    write_file
      (Filename.concat spool (Printf.sprintf "j%d.rtt" i))
      (Io.to_string (cheap_instance (100 + i)))
  done;
  let cfg =
    { (Supervisor.default_config ~spool) with sleep = false; cache_dir = Some cache }
  in
  Alcotest.(check int) "drained" 0 (Supervisor.run cfg);
  (spool, cache)

let scan ?budget (spool, cache) = Fsck.scan ~spool ~cache_dir:cache ?budget ()

let codes report = List.map (fun f -> f.Fsck.code) report.Fsck.findings

let has_code c report = List.mem c (codes report)

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x01));
  write_file path (Bytes.to_string s)

(* ------------------------------------------------------------------ *)
(* the finding taxonomy                                                *)

let scan_units =
  [
    Alcotest.test_case "freshly drained spool scans clean" `Quick (fun () ->
        let sc = drained_spool "clean" in
        let r = scan sc ~budget:4 in
        Alcotest.(check bool) "not dirty" false (Fsck.dirty r);
        Alcotest.(check bool) "no backfill" false (Fsck.needs_backfill r);
        Alcotest.(check int) "records counted" 6 r.Fsck.records;
        Alcotest.(check int) "entries counted" 2 r.Fsck.cache_entries;
        Alcotest.(check bool) "fully committed" true
          (r.Fsck.journal_bytes = r.Fsck.committed_bytes));
    Alcotest.test_case "torn journal tail: found, sealed, clean after" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "torn" in
        let j = Journal.path ~spool in
        let intact = read_file j in
        write_file j (intact ^ "half a reco");
        let r = scan sc in
        Alcotest.(check bool) "dirty" true (Fsck.dirty r);
        Alcotest.(check bool) "torn tail found" true (has_code "journal-torn-tail" r);
        let performed, remaining = Fsck.repair ~spool r in
        Alcotest.(check int) "one repair" 1 (List.length performed);
        Alcotest.(check int) "nothing left" 0 (List.length remaining);
        Alcotest.(check string) "sealed to the committed prefix" intact (read_file j);
        Alcotest.(check bool) "clean after" false (Fsck.dirty (scan sc)));
    Alcotest.test_case "stranded records past a mid-file corruption" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "strand" in
        let j = Journal.path ~spool in
        let lines = String.split_on_char '\n' (read_file j) in
        (* corrupt the first line; the rest decode but cannot be
           trusted in sequence *)
        let corrupted =
          match lines with
          | first :: rest -> String.concat "\n" (("XX" ^ first) :: rest)
          | [] -> assert false
        in
        write_file j corrupted;
        let r = scan sc in
        Alcotest.(check bool) "torn tail" true (has_code "journal-torn-tail" r);
        Alcotest.(check bool) "stranded records reported" true
          (has_code "journal-stranded-records" r);
        Alcotest.(check int) "nothing committed" 0 r.Fsck.records);
    Alcotest.test_case "tmp litter is deleted on repair" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "tmp" in
        let litter = Filename.concat spool "j0.rtt.result.1234.tmp" in
        write_file litter "half-written";
        let r = scan sc in
        Alcotest.(check bool) "found" true (has_code "tmp-litter" r);
        ignore (Fsck.repair ~spool r);
        Alcotest.(check bool) "gone" false (Sys.file_exists litter);
        Alcotest.(check bool) "clean after" false (Fsck.dirty (scan sc)));
    Alcotest.test_case "missing result and instance: backfill, offer zero" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "missing" in
        Sys.remove (Filename.concat spool "j0.rtt.result");
        Sys.remove (Filename.concat spool "j1.rtt");
        let r = scan sc in
        Alcotest.(check bool) "missing result" true (has_code "missing-result" r);
        Alcotest.(check bool) "missing instance" true (has_code "missing-instance" r);
        Alcotest.(check bool) "needs backfill" true (Fsck.needs_backfill r);
        (* the damage is to committed records' attachments: only a
           full re-ship can restore them *)
        Alcotest.(check bool) "offer zero" true (Fsck.offer_zero r);
        (* local repair cannot fix these *)
        let performed, remaining = Fsck.repair ~spool r in
        Alcotest.(check int) "nothing performed" 0 (List.length performed);
        Alcotest.(check int) "both remain" 2 (List.length remaining));
    Alcotest.test_case "corrupt and stale checkpoints are quarantined" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "ckpt" in
        (* stale: a valid sidecar for a job already terminal *)
        Checkpoint.store ~spool ~job:"j0.rtt" "snapshot bytes";
        (* corrupt: fails the frame CRC *)
        write_file (Filename.concat spool "j1.rtt.ckpt") "not a framed line";
        let r = scan sc in
        Alcotest.(check bool) "stale found" true (has_code "checkpoint-stale" r);
        Alcotest.(check bool) "corrupt found" true (has_code "checkpoint-corrupt" r);
        ignore (Fsck.repair ~spool r);
        Alcotest.(check bool) "both deleted" true
          ((not (Sys.file_exists (Filename.concat spool "j0.rtt.ckpt")))
          && not (Sys.file_exists (Filename.concat spool "j1.rtt.ckpt")));
        Alcotest.(check bool) "clean after" false (Fsck.dirty (scan sc)));
    Alcotest.test_case "bit-flipped cache entry: quarantined on repair" `Quick (fun () ->
        let ((_, cache) as sc) = drained_spool "cachebit" in
        let key = List.hd (Cache.keys ~dir:cache) in
        flip_byte (Cache.path ~dir:cache ~key) 40;
        let r = scan sc in
        Alcotest.(check bool) "corrupt entry found" true (has_code "cache-entry-corrupt" r);
        ignore (Fsck.repair ~spool:(fst sc) r);
        Alcotest.(check bool) "entry deleted" false
          (Sys.file_exists (Cache.path ~dir:cache ~key));
        Alcotest.(check bool) "clean after" false (Fsck.dirty (scan sc)));
    Alcotest.test_case "forged cache entry: caught only by the fingerprint audit" `Quick
      (fun () ->
        let ((spool, cache) as sc) = drained_spool "forge" in
        (* overwrite j0's entry with a checksum-valid success computed
           for a DIFFERENT instance: internally consistent bytes, wrong
           answer *)
        let p = Option.get (Result.to_option (Engine.load (Filename.concat spool "j0.rtt"))) in
        let key = Fingerprint.digest ~alpha:Work.alpha p ~budget:4 in
        let foreign =
          Problem.of_race_dag (Gen.erdos_renyi (rng_of 999) ~n:9 ~edge_prob:0.3)
            Problem.Binary
        in
        let other = Option.get (Result.to_option (Engine.solve foreign ~budget:4)) in
        Cache.store ~dir:cache ~key other;
        (* the checksum audit is blind to it *)
        Alcotest.(check bool) "checksum-clean" false (Fsck.dirty (scan sc));
        (* the fingerprint audit is not *)
        let r = scan sc ~budget:4 in
        Alcotest.(check bool) "invalid entry found" true (has_code "cache-entry-invalid" r);
        ignore (Fsck.repair ~spool r);
        Alcotest.(check bool) "clean after" false (Fsck.dirty (scan sc ~budget:4)));
    Alcotest.test_case "render: one line per finding plus a summary" `Quick (fun () ->
        let ((spool, _) as sc) = drained_spool "render" in
        write_file (Filename.concat spool "x.tmp") "";
        let r = scan sc in
        let text = Fsck.render r in
        let contains needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "mentions the finding" true (contains "tmp-litter" text);
        Alcotest.(check bool) "ends with a newline" true
          (text <> "" && text.[String.length text - 1] = '\n'));
  ]

(* ------------------------------------------------------------------ *)
(* truncation properties: no prefix of a durable artifact is ever
   served, and fsck sees every one of them                             *)

let truncation_units =
  [
    Alcotest.test_case "cache entry truncated at every byte offset: never a hit" `Slow
      (fun () ->
        let dir = fresh_dir "trunc_cache" in
        let p = cheap_instance 7 in
        let key = Fingerprint.digest ~alpha:Work.alpha p ~budget:4 in
        let s = Option.get (Result.to_option (Engine.solve p ~budget:4)) in
        Cache.store ~dir ~key s;
        let whole = read_file (Cache.path ~dir ~key) in
        Alcotest.(check bool) "intact entry is served" true (Cache.lookup ~dir ~key <> None);
        for cut = 0 to String.length whole - 1 do
          write_file (Cache.path ~dir ~key) (String.sub whole 0 cut);
          Alcotest.(check bool)
            (Printf.sprintf "prefix of %d bytes is a miss" cut)
            true
            (Cache.lookup ~dir ~key = None);
          Alcotest.(check bool)
            (Printf.sprintf "prefix of %d bytes fails the audit" cut)
            true
            (Cache.audit ~dir ~key <> Ok ())
        done);
    Alcotest.test_case "checkpoint truncated at every byte offset: cold start, fsck sees it"
      `Slow (fun () ->
        let spool = fresh_dir "trunc_ckpt" in
        let job = "j.rtt" in
        Checkpoint.store ~spool ~job "incumbent 3 1 2 0 4";
        let path = Checkpoint.path ~spool ~job in
        let whole = read_file path in
        Alcotest.(check (option string))
          "intact sidecar loads" (Some "incumbent 3 1 2 0 4")
          (Checkpoint.load ~spool ~job);
        for cut = 0 to String.length whole - 1 do
          write_file path (String.sub whole 0 cut);
          Alcotest.(check (option string))
            (Printf.sprintf "prefix of %d bytes downgrades to a cold start" cut)
            None
            (Checkpoint.load ~spool ~job);
          let r = Fsck.scan ~spool () in
          Alcotest.(check bool)
            (Printf.sprintf "prefix of %d bytes is a finding" cut)
            true (has_code "checkpoint-corrupt" r)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* the acceptance scenario: corrupted primary spool, live replica,
   fsck --repair --from, daemon restart, exactly-once                  *)

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
  let out = Filename.temp_file "rtt_fsck_out" ".txt" in
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

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pid =
  kill_quietly pid Sys.sigkill;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

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

let done_counts spool =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun { Journal.job; event } ->
      match event with
      | Journal.Done _ ->
          Hashtbl.replace tbl job (1 + Option.value ~default:0 (Hashtbl.find_opt tbl job))
      | _ -> ())
    (Journal.replay ~spool);
  tbl

let process_units =
  [
    Alcotest.test_case
      "corrupted spool restored from a live replica; restarted daemon is exactly-once" `Slow
      (fun () ->
        let dir = fresh_dir "restore" in
        let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
        Unix.mkdir a 0o755;
        Unix.mkdir b 0o755;
        let ca = Filename.concat dir "ca" and cb = Filename.concat dir "cb" in
        let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
        let daemon =
          ref
            (spawn_rtt
               [ "daemon"; "--spool"; a; "--socket"; asock; "-b"; "3"; "--cache-dir"; ca ])
        in
        Alcotest.(check bool) "primary up" true
          (wait_for (fun () -> Sys.file_exists asock));
        let replica =
          spawn_rtt
            [ "replica"; "--spool"; b; "--socket"; bsock; "--primary"; asock;
              "--cache-dir"; cb ]
        in
        Fun.protect
          ~finally:(fun () ->
            reap !daemon;
            reap replica)
          (fun () ->
            Alcotest.(check bool) "replica up" true
              (wait_for (fun () -> Sys.file_exists bsock));
            (* three jobs, the last a duplicate of the first *)
            let files =
              List.init 3 (fun i ->
                  let path = Filename.concat dir (Printf.sprintf "i%d.rtt" i) in
                  write_file path
                    (Io.to_string (cheap_instance (if i = 2 then 0 else i)));
                  path)
            in
            List.iter
              (fun f ->
                let code, _ = run_rtt [ "submit"; f; "--socket"; asock; "--wait" ] in
                Alcotest.(check int) ("submit " ^ f) 0 code)
              files;
            (* byte convergence before we start breaking things *)
            Alcotest.(check bool) "journals converge" true
              (wait_for (fun () ->
                   let ta = read_file (Journal.path ~spool:a) in
                   ta <> ""
                   && Sys.file_exists (Journal.path ~spool:b)
                   && ta = read_file (Journal.path ~spool:b)));
            (* power-cut the primary; the replica stays up as the
               repair source *)
            kill_quietly !daemon Sys.sigkill;
            ignore (Unix.waitpid [] !daemon);
            (* damage spool a three ways: truncate the journal mid-line
               (drops trailing records AND leaves a torn tail), delete
               a result file, flip a bit in a cache entry *)
            let j = Journal.path ~spool:a in
            let intact = read_file j in
            write_file j (String.sub intact 0 (String.length intact - 50));
            (* delete the result of a job whose [done] record survived
               the cut — a missing attachment of a committed record,
               the finding that forces the pull to offer watermark 0 *)
            let committed_done =
              List.filter_map
                (fun (job, st) ->
                  match st with Journal.Completed _ -> Some job | _ -> None)
                (Journal.to_list (Journal.fold (Journal.replay ~spool:a)))
            in
            Alcotest.(check bool) "cut left at least one committed done" true
              (committed_done <> []);
            let some_result =
              Filename.concat a (List.hd committed_done ^ ".result")
            in
            let result_bytes = read_file some_result in
            Sys.remove some_result;
            let key = List.hd (Cache.keys ~dir:ca) in
            flip_byte (Cache.path ~dir:ca ~key) 40;
            (* the scrubber, against the live replica *)
            let code, out =
              run_rtt
                [ "fsck"; a; "--cache-dir"; ca; "-b"; "3"; "--repair"; "--from"; bsock ]
            in
            Alcotest.(check int) ("repaired: " ^ out) 51 code;
            let code, _ = run_rtt [ "fsck"; a; "--cache-dir"; ca; "-b"; "3" ] in
            Alcotest.(check int) "rescan clean" 0 code;
            (* everything the damage touched is back, byte-for-byte *)
            Alcotest.(check string) "journal restored" (read_file (Journal.path ~spool:b))
              (read_file j);
            Alcotest.(check string) "result restored" result_bytes (read_file some_result);
            Alcotest.(check bool) "cache entry restored" true
              (Cache.lookup ~dir:ca ~key <> None);
            (* the daemon restarts on the repaired spool and still
               serves — with exactly-once history *)
            daemon :=
              spawn_rtt
                [ "daemon"; "--spool"; a; "--socket"; asock; "-b"; "3"; "--cache-dir"; ca ];
            let code, _ =
              run_rtt [ "submit"; List.hd files; "--socket"; asock; "--wait" ]
            in
            Alcotest.(check int) "resubmit after repair" 0 code;
            Hashtbl.iter
              (fun job n ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %d done records" job n)
                  true (n <= 1))
              (done_counts a)))
  ]

let () =
  Alcotest.run "fsck"
    [
      ("scan", scan_units); ("truncation", truncation_units); ("restore", process_units);
    ]
