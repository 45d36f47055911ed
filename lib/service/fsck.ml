open Rtt_engine

type action =
  | Seal
  | Truncate of { path : string; bytes : int }
  | Delete of string
  | Backfill
  | Note

type finding = { code : string; file : string; detail : string; action : action }

type report = {
  findings : finding list;
  records : int;
  journal_bytes : int;
  committed_bytes : int;
  cache_entries : int;
}

let clean_exit_code = 0
let dirty_exit_code = 50
let repaired_exit_code = 51

let read_whole p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let list_dir dir = match Sys.readdir dir with exception Sys_error _ -> [] | a -> Array.to_list a

(* ------------------------------------------------------------------ *)
(* journal audit                                                       *)

let journal_findings ~spool ~records =
  let p = Journal.path ~spool in
  let _, ok = Journal.replay_wire ~spool in
  let size = match read_whole p with None -> 0 | Some s -> String.length s in
  let tail = ref [] in
  if size > ok then begin
    let s = Option.get (read_whole p) in
    let suffix = String.sub s ok (size - ok) in
    (* decodable complete lines past the corruption point are records
       the seal will drop: they cannot be trusted in sequence, but a
       peer that holds them can re-ship them after the seal *)
    let stranded =
      String.split_on_char '\n' suffix
      |> List.filter (fun l -> l <> "" && Journal.decode l <> None)
      |> List.length
    in
    tail :=
      {
        code = "journal-torn-tail";
        file = Filename.basename p;
        detail =
          Printf.sprintf "%d uncommitted byte%s past record %d" (size - ok)
            (if size - ok = 1 then "" else "s")
            records;
        action = Seal;
      }
      :: !tail;
    if stranded > 0 then
      tail :=
        {
          code = "journal-stranded-records";
          file = Filename.basename p;
          detail =
            Printf.sprintf
              "%d decodable record%s after the corruption point; sealing drops them (a peer \
               backfill restores them)"
              stranded
              (if stranded = 1 then "" else "s");
          action = Seal;
        }
        :: !tail
  end;
  (List.rev !tail, size, ok)

(* State-machine coherence over the committed prefix: the replayable
   grammar tolerates these (Done is final, late events are ignored),
   but their presence means some writer misbehaved — worth reporting
   even though nothing needs repair. *)
let coherence_findings records =
  let jpath = "journal.log" in
  let started : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let dones : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun { Journal.job; event } ->
      match event with
      | Journal.Started _ -> Hashtbl.replace started job ()
      | Journal.Done _ ->
          let n = Option.value ~default:0 (Hashtbl.find_opt dones job) in
          Hashtbl.replace dones job (n + 1);
          if n = 1 then
            out :=
              {
                code = "journal-duplicate-done";
                file = jpath;
                detail = Printf.sprintf "%s completed more than once (first done wins on replay)" job;
                action = Note;
              }
              :: !out;
          if n = 0 && not (Hashtbl.mem started job) then
            out :=
              {
                code = "journal-done-unstarted";
                file = jpath;
                detail = Printf.sprintf "%s has a done record but no started record" job;
                action = Note;
              }
              :: !out
      | _ -> ())
    records;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* spool files vs journal state                                        *)

let spool_findings ~spool states =
  let out = ref [] in
  let add f = out := f :: !out in
  let status = Journal.find states in
  let entries = list_dir spool in
  let present = Hashtbl.create (List.length entries) in
  List.iter (fun name -> Hashtbl.replace present name ()) entries;
  let has = Hashtbl.mem present in
  (* journaled jobs: their files must match their state *)
  List.iter
    (fun (job, st) ->
      if not (has job) then
        add
          {
            code = "missing-instance";
            file = job;
            detail = "journaled job has no instance file";
            action = Backfill;
          };
      match st with
      | Journal.Completed _ ->
          if not (has (job ^ ".result")) then
            add
              {
                code = "missing-result";
                file = job ^ ".result";
                detail = "job is done in the journal but its result file is gone";
                action = Backfill;
              }
      | Journal.Running { attempt } ->
          add
            {
              code = "journal-inflight";
              file = job;
              detail =
                Printf.sprintf "attempt %d was in flight at crash time (claim replays on restart)"
                  attempt;
              action = Note;
            }
      | _ -> ())
    (Journal.to_list states);
  (* spool files: anything the journal cannot account for *)
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        add
          {
            code = "tmp-litter";
            file = name;
            detail = "interrupted atomic write";
            action = Delete (Filename.concat spool name);
          }
      else if Filename.check_suffix name ".result" then begin
        let job = Filename.chop_suffix name ".result" in
        match status job with
        | Some (Journal.Completed _) -> ()
        | Some _ ->
            add
              {
                code = "result-without-done";
                file = name;
                detail = "result file exists but the journal never saw the job complete";
                action = Backfill;
              }
        | None ->
            add
              {
                code = "result-without-done";
                file = name;
                detail = "result file for a job the journal does not know";
                action = Backfill;
              }
      end
      else if Filename.check_suffix name ".ckpt" then begin
        let job = Filename.chop_suffix name ".ckpt" in
        let path = Filename.concat spool name in
        let ok =
          match read_whole path with None -> false | Some s -> Frame.unframe s <> None
        in
        if not ok then
          add
            {
              code = "checkpoint-corrupt";
              file = name;
              detail = "sidecar fails the frame CRC; the next attempt starts cold";
              action = Delete path;
            }
        else
          match status job with
          | Some (Journal.Completed _) | Some (Journal.Dead _) ->
              add
                {
                  code = "checkpoint-stale";
                  file = name;
                  detail = "sidecar for a terminal job (the clear was lost in a crash)";
                  action = Delete path;
                }
          | _ -> ()
      end
      else if Filename.check_suffix name Work.instance_suffix then begin
        if status name = None then
          add
            {
              code = "instance-unjournaled";
              file = name;
              detail = "instance file the journal has not seen (a daemon adopts these on start)";
              action = Note;
            }
      end)
    entries;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* session journals                                                    *)

(* One CRC-framed [mut <escaped-op>] line per committed session
   mutation, audited at the frame level — the op grammar itself is the
   session layer's concern (its replay rejects what a byte scan cannot
   see), but a torn or corrupt tail is exactly the journal-torn-tail
   damage class and repairs the same way: truncate to the committed
   prefix. The owning daemon performs the same seal on reattach; fsck
   does it offline. *)
let session_findings ~spool =
  let root = Filename.concat spool "sessions" in
  let out = ref [] in
  List.iter
    (fun sid ->
      let rel = Filename.concat (Filename.concat "sessions" sid) "journal.log" in
      let jpath = Filename.concat spool rel in
      match read_whole jpath with
      | None -> ()
      | Some s ->
          let n = String.length s in
          let ok = ref 0 and start = ref 0 and stop = ref false in
          while (not !stop) && !start < n do
            match String.index_from_opt s !start '\n' with
            | None -> stop := true
            | Some nl -> (
                let line = String.sub s !start (nl - !start) in
                match Frame.unframe line with
                | Some payload
                  when String.length payload >= 4 && String.sub payload 0 4 = "mut " ->
                    ok := nl + 1;
                    start := nl + 1
                | _ -> stop := true)
          done;
          if n > !ok then
            out :=
              {
                code = "session-journal-torn-tail";
                file = rel;
                detail =
                  Printf.sprintf "%d uncommitted byte%s past the committed mutation prefix"
                    (n - !ok)
                    (if n - !ok = 1 then "" else "s");
                action = Truncate { path = jpath; bytes = !ok };
              }
              :: !out)
    (List.sort compare (list_dir root));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* cache audit                                                         *)

let cache_findings ~spool ~cache_dir ~budget ~policy =
  match cache_dir with
  | None -> ([], 0)
  | Some dir ->
      let out = ref [] in
      let add f = out := f :: !out in
      let keys = Cache.keys ~dir in
      List.iter
        (fun key ->
          match Cache.audit ~dir ~key with
          | Error reason ->
              add
                {
                  code = "cache-entry-corrupt";
                  file = Filename.basename (Cache.path ~dir ~key);
                  detail = reason;
                  action = Delete (Cache.path ~dir ~key);
                }
          | Ok () ->
              if not (Fingerprint.is_digest key) then
                add
                  {
                    code = "cache-key-foreign";
                    file = Filename.basename (Cache.path ~dir ~key);
                    detail = "entry key is not a fingerprint digest";
                    action = Note;
                  })
        keys;
      List.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            add
              {
                code = "tmp-litter";
                file = name;
                detail = "interrupted atomic write";
                action = Delete (Filename.concat dir name);
              })
        (list_dir dir);
      (* fingerprint audit: every entry reachable from a spool instance
         must validate against that instance — a checksum-clean but
         wrong entry (forged, or stale after an incompatible change) is
         damage the checksum alone cannot see *)
      (match budget with
      | None -> ()
      | Some budget ->
          let policy = Option.value ~default:Policy.default policy in
          List.iter
            (fun job ->
              match Engine.load (Filename.concat spool job) with
              | Error _ -> ()
              | Ok p -> (
                  let key = Fingerprint.digest ~policy ~alpha:Work.alpha p ~budget in
                  match Cache.lookup ~dir ~key with
                  | None -> ()
                  | Some s -> (
                      match Validate.check p (Work.claim_of s ~budget) with
                      | Ok () -> ()
                      | Error e ->
                          add
                            {
                              code = "cache-entry-invalid";
                              file = Filename.basename (Cache.path ~dir ~key);
                              detail =
                                Printf.sprintf "entry for %s fails validation: %s" job
                                  (Error.to_string e);
                              action = Delete (Cache.path ~dir ~key);
                            })))
            (Work.jobs_in ~spool));
      (List.rev !out, List.length keys)

(* ------------------------------------------------------------------ *)
(* the scan                                                            *)

let scan ~spool ?cache_dir ?budget ?policy () =
  let lines, _ = Journal.replay_wire ~spool in
  let records = List.filter_map Journal.decode lines in
  let states = Journal.fold records in
  let journal, journal_bytes, committed_bytes =
    journal_findings ~spool ~records:(List.length records)
  in
  let cache, cache_entries = cache_findings ~spool ~cache_dir ~budget ~policy in
  {
    findings =
      journal @ coherence_findings records @ spool_findings ~spool states
      @ session_findings ~spool @ cache;
    records = List.length records;
    journal_bytes;
    committed_bytes;
    cache_entries;
  }

let dirty r = List.exists (fun f -> f.action <> Note) r.findings
let needs_backfill r = List.exists (fun f -> f.action = Backfill) r.findings

let offer_zero r =
  List.exists
    (fun f -> f.code = "missing-instance" || f.code = "missing-result")
    r.findings

let repair ~spool r =
  let performed = ref [] in
  let remaining = ref [] in
  let sealed = ref false in
  List.iter
    (fun f ->
      match f.action with
      | Seal ->
          if not !sealed then begin
            ignore (Journal.seal ~spool);
            sealed := true
          end;
          performed := f :: !performed
      | Truncate { path; bytes } ->
          (try
             let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
             Fun.protect
               ~finally:(fun () -> Unix.close fd)
               (fun () ->
                 Rtt_diskio.Diskio.ftruncate fd bytes;
                 Rtt_diskio.Diskio.fsync fd)
           with Unix.Unix_error _ -> ());
          performed := f :: !performed
      | Delete path ->
          (try Sys.remove path with Sys_error _ -> ());
          performed := f :: !performed
      | Backfill -> remaining := f :: !remaining
      | Note -> ())
    r.findings;
  (List.rev !performed, List.rev !remaining)

let render r =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      let verb =
        match f.action with
        | Seal -> "seal"
        | Truncate _ -> "truncate"
        | Delete _ -> "delete"
        | Backfill -> "backfill"
        | Note -> "note"
      in
      Buffer.add_string b (Printf.sprintf "%-24s %-9s %s: %s\n" f.code verb f.file f.detail))
    r.findings;
  let issues = List.length (List.filter (fun f -> f.action <> Note) r.findings) in
  Buffer.add_string b
    (Printf.sprintf "%d record%s (%d of %d bytes committed), %d cache entr%s, %d issue%s\n"
       r.records
       (if r.records = 1 then "" else "s")
       r.committed_bytes r.journal_bytes r.cache_entries
       (if r.cache_entries = 1 then "y" else "ies")
       issues
       (if issues = 1 then "" else "s"));
  Buffer.contents b
