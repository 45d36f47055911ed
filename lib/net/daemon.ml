open Rtt_service
module E = Rtt_engine
module Session = Rtt_session.Session

type config = {
  service : Work.config;
  socket_path : string;
  tcp : (string * int) option;
  queue_capacity : int;
  max_frame : int;
  idle_timeout : float;
  sync_replicas : int;
  shards : int;
}

let default_config ~spool ~socket_path =
  {
    service = Supervisor.default_config ~spool;
    socket_path;
    tcp = None;
    queue_capacity = 64;
    max_frame = 16 * 1024 * 1024;
    idle_timeout = 30.0;
    sync_replicas = 0;
    shards = 1;
  }

type repl_peer = { conn : Conn.t; mutable sent : int; mutable acked : int }

type worker = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  reader : Frame.reader;
  mutable current : (string * int) option;
}

(* a request relayed to the shard that owns its job id, waiting for the
   owner's response to come back over the link *)
type relay = { relay_id : string; deliver : Protocol.response -> unit }

type link = {
  peer_shard : int;
  lfd : Unix.file_descr;
  lreader : Frame.reader;
  mutable relays : relay list; (* FIFO *)
  mutable last_ping : float;
}

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> ()
  in
  go ()

let now () = Unix.gettimeofday ()

let listen_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
      (* a socket file is already there: probe it — refuse to evict a
         live daemon, but clean up after a crashed one *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let alive =
        try
          Unix.connect probe (Unix.ADDR_UNIX path);
          true
        with Unix.Unix_error _ -> false
      in
      Unix.close probe;
      if alive then begin
        Unix.close fd;
        failwith (Printf.sprintf "%s: a daemon is already listening" path)
      end
      else begin
        Unix.unlink path;
        Unix.bind fd (Unix.ADDR_UNIX path)
      end);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let listen_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "%s: unknown host" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (* shards share one bound descriptor inherited across fork, but
     SO_REUSEPORT additionally lets an operator run independently bound
     acceptors behind the same port during a rolling restart *)
  (try Unix.setsockopt fd Unix.SO_REUSEPORT true with Unix.Unix_error _ | Invalid_argument _ -> ());
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

(* deterministic digest -> shard routing, stable across processes and
   OCaml versions (no Hashtbl.hash): job ids are fingerprint digests,
   so the leading 28 bits of hex are already uniform; anything else
   (a client probing a made-up id) falls back to a polynomial hash so
   every id still routes somewhere fixed *)
let shard_of_id ~shards id =
  if shards <= 1 then 0
  else
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    let hex_prefix =
      if String.length id >= 7 then begin
        let ok = ref true in
        for i = 0 to 6 do
          if not (is_hex id.[i]) then ok := false
        done;
        if !ok then int_of_string_opt ("0x" ^ String.sub id 0 7) else None
      end
      else None
    in
    let h =
      match hex_prefix with
      | Some h -> h
      | None ->
          let acc = ref 0 in
          String.iter (fun ch -> acc := ((!acc * 131) + Char.code ch) land 0xFFFFFFF) id;
          !acc
    in
    h mod shards

let shard_spool ~spool k = Filename.concat spool (Printf.sprintf "shard-%d" k)
let intern_socket cfg k = Printf.sprintf "%s.shard%d" cfg.socket_path k
let stat_file ~root k = Filename.concat root (Printf.sprintf "admission-%d.stat" k)

let read_small_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (min 256 (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* one shard's serve loop (shards = 1 is the whole daemon)             *)

let serve cfg ~shard ~shards ~own_socket ls =
  let spool = cfg.service.Work.spool in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        if cfg.service.Work.verbose then
          Printf.eprintf "[daemon%s] %s\n%!"
            (if shards > 1 then Printf.sprintf ".%d" shard else "")
            s)
      fmt
  in
  (* open first: it seals a torn tail, so the replay below sees exactly
     the committed prefix that replication sequence numbers count *)
  let journal = Journal.open_ ~spool in
  let replayed = Journal.replay ~spool in
  let states = ref (Journal.fold replayed) in
  let nrecords = ref (List.length replayed) in
  let after_append : (int -> string -> unit) ref = ref (fun _ _ -> ()) in
  let record event job =
    let r = { Journal.job; event } in
    let line = Journal.encode r in
    Journal.append_line journal line;
    states := Journal.apply !states r;
    let seq = !nrecords in
    nrecords := seq + 1;
    !after_append seq line
  in
  let status_of job = Journal.find !states job in
  let terminal job =
    match status_of job with
    | Some (Journal.Completed _) | Some (Journal.Dead _) -> true
    | _ -> false
  in
  let id_of_job job =
    if Filename.check_suffix job Work.instance_suffix then
      Filename.chop_suffix job Work.instance_suffix
    else job
  in
  let job_of_id id = id ^ Work.instance_suffix in
  let next_attempt job =
    match status_of job with
    | Some (Journal.Completed _) | Some (Journal.Dead _) -> None
    | Some (Journal.Pending { attempts }) -> Some (attempts + 1)
    | Some (Journal.Running { attempt }) | Some (Journal.Interrupted { attempt }) ->
        Some (attempt + 1)
    | None -> Some 1
  in
  let admission = Admission.create ~capacity:cfg.queue_capacity () in
  let sessions = Session.create_store ~spool in
  let started_at : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let conns = ref ([] : Conn.t list) in
  let waiters : (string, Conn.t list) Hashtbl.t = Hashtbl.create 16 in
  let workers = ref ([] : worker list) in
  let listeners = ref ([] : Unix.file_descr list) in
  let links : (int, link) Hashtbl.t = Hashtbl.create 8 in
  let drain = ref false in
  let force = ref false in
  let followers = ref ([] : repl_peer list) in
  (* a sharded daemon does not replicate (each shard is its own journal
     writer; replication composes with shards = 1 only) *)
  let sync = Replica.Sync.create ~replicas:(if shards > 1 then 0 else cfg.sync_replicas) in
  let is_follower c = List.exists (fun p -> p.conn == c) !followers in
  let find_follower c = List.find_opt (fun p -> p.conn == c) !followers in
  let release_sync () =
    let watermarks = List.map (fun p -> p.acked) !followers in
    List.iter (fun (reply, resp) -> reply resp) (Replica.Sync.release sync ~watermarks)
  in
  let drop_conn c =
    (try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ());
    conns := List.filter (fun x -> x != c) !conns;
    if is_follower c then begin
      followers := List.filter (fun p -> p.conn != c) !followers;
      log "follower %s disconnected" (Conn.peer c)
    end
  in
  (* ---------------------------------------------------------------- *)
  (* cross-shard load figures: each shard publishes its admission
     snapshot ~1 Hz; a shed is answered with the fleet-wide hint       *)
  let stats_root = if shards > 1 then Filename.dirname spool else spool in
  let last_stat = ref 0.0 in
  let publish_stats () =
    if shards > 1 && now () -. !last_stat > 1.0 then begin
      last_stat := now ();
      try
        Rtt_diskio.Diskio.atomic_write
          ~path:(stat_file ~root:stats_root shard)
          (Admission.snapshot admission)
      with Sys_error _ | Unix.Unix_error _ -> ()
    end
  in
  let shed_hint () =
    if shards <= 1 then Admission.retry_after_ms admission
    else
      Admission.aggregate
        (List.filter_map
           (fun k ->
             if k = shard then Some (Admission.snapshot admission)
             else
               try Some (read_small_file (stat_file ~root:stats_root k))
               with Sys_error _ | Unix.Unix_error _ -> None)
           (List.init shards Fun.id))
  in
  (* ---------------------------------------------------------------- *)
  (* answering terminal jobs                                           *)
  let rendered_of job =
    match Work.read_result ~spool ~job with
    | None -> "(result file missing)\n"
    | Some kvs -> (
        match Option.bind (List.assoc_opt "rendered" kvs) Frame.unescape with
        | Some r -> r
        | None ->
            (* a result file from before the rendered blob existed:
               reconstruct the essentials rather than fail the wait *)
            let get k = Option.value ~default:"?" (List.assoc_opt k kvs) in
            Printf.sprintf "rung:     %s\nmakespan: %s\nbudget:   %s\nallocation: %s\n"
              (get "rung") (get "makespan") (get "budget_used") (get "allocation"))
  in
  let terminal_response job =
    let id = id_of_job job in
    match status_of job with
    | Some (Journal.Completed _) -> Protocol.Result { id; rendered = rendered_of job }
    | Some (Journal.Dead { attempts; error_class }) ->
        Protocol.Failed { id; error_class; attempts }
    | _ -> Protocol.Errored { code = "internal"; msg = "job not terminal" }
  in
  let notify_waiters job =
    match Hashtbl.find_opt waiters job with
    | None -> ()
    | Some cs ->
        Hashtbl.remove waiters job;
        let resp = terminal_response job in
        List.iter
          (fun c ->
            if List.memq c !conns then begin
              Conn.send c resp;
              Conn.remove_wait c (id_of_job job)
            end)
          cs
  in
  let complete job =
    let elapsed_ms =
      match Hashtbl.find_opt started_at job with
      | Some t0 ->
          Hashtbl.remove started_at job;
          int_of_float ((now () -. t0) *. 1000.)
      | None -> 0
    in
    Admission.finish admission ~id:job ~elapsed_ms;
    notify_waiters job
  in
  (* ---------------------------------------------------------------- *)
  (* workers: forked Pool.worker_loop children, pool wire protocol     *)
  let spawn () =
    let ar, aw = Unix.pipe () in
    let br, bw = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close aw;
        Unix.close br;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !listeners;
        List.iter (fun c -> try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ()) !conns;
        Hashtbl.iter (fun _ l -> try Unix.close l.lfd with Unix.Unix_error _ -> ()) links;
        List.iter
          (fun w ->
            Unix.close w.to_w;
            Unix.close w.from_w)
          !workers;
        (try Unix.close (Journal.fd journal) with Unix.Unix_error _ -> ());
        (* the parent's LP counters (warm-start stats, pivot counts) are
           inherited across fork; zero them so the worker's figures are
           its own *)
        Rtt_lp.Simplex.reset_stats ();
        Pool.worker_loop cfg.service ~from_parent:ar ~to_parent:bw
    | pid ->
        Unix.close ar;
        Unix.close bw;
        let w = { pid; to_w = aw; from_w = br; reader = Frame.reader (); current = None } in
        workers := !workers @ [ w ];
        log "spawned worker %d" pid
  in
  let handle_death w =
    (try Unix.close w.to_w with Unix.Unix_error _ -> ());
    (try Unix.close w.from_w with Unix.Unix_error _ -> ());
    reap w.pid;
    workers := List.filter (fun x -> x.pid <> w.pid) !workers;
    match w.current with
    | None -> ()
    | Some (job, attempt) ->
        (* claim replay: the attempt is consumed (states still Running),
           the job goes back in line and resumes from its checkpoint *)
        log "worker %d died holding %s (attempt %d)" w.pid job attempt;
        w.current <- None;
        if not !force then Admission.requeue admission ~id:job
  in
  let max_attempts = cfg.service.Work.max_attempts in
  let handle_report w payload =
    match (w.current, Pool.parse_report payload) with
    | ( Some (job, attempt),
        Some (Pool.Solved { attempt = a; makespan; budget_used; fuel; cached }) )
      when a = attempt ->
        record (Journal.Done { attempt; makespan; budget_used; fuel; cached }) job;
        w.current <- None;
        complete job
    | ( Some (job, attempt),
        Some (Pool.Failed { attempt = a; error_class; transient; backoff }) )
      when a = attempt ->
        w.current <- None;
        if transient && attempt < max_attempts then begin
          (* the deterministic backoff is journaled for forensics, but a
             serving daemon never idles a slot waiting for it *)
          record (Journal.Failed { attempt; error_class; transient = true; backoff }) job;
          Admission.requeue admission ~id:job
        end
        else begin
          record (Journal.Failed { attempt; error_class; transient = false; backoff = 0 }) job;
          complete job
        end
    | Some (job, attempt), Some (Pool.Abandoned { attempt = a }) when a = attempt ->
        record (Journal.Abandoned { attempt }) job;
        w.current <- None;
        if not !force then Admission.requeue admission ~id:job
    | _, _ -> log "unexpected worker message %S ignored" payload
  in
  let worker_readable w =
    let buf = Bytes.create 4096 in
    match Eintr.read w.from_w buf 0 4096 with
    | 0 -> handle_death w
    | n ->
        List.iter
          (function
            | `Frame payload -> handle_report w payload
            | `Corrupt line -> log "unframed line from worker %d ignored: %S" w.pid line
            | `Overflow -> handle_death w)
          (Frame.feed w.reader (Bytes.sub_string buf 0 n))
  in
  let rec assign_idle () =
    match List.find_opt (fun w -> w.current = None) !workers with
    | None -> ()
    | Some w -> (
        match Admission.take admission with
        | None -> ()
        | Some job -> (
            match next_attempt job with
            | None ->
                (* adopted twice or completed while queued *)
                complete job;
                assign_idle ()
            | Some attempt when attempt > max_attempts ->
                record
                  (Journal.Failed
                     {
                       attempt = max_attempts;
                       error_class = "retries-exhausted";
                       transient = false;
                       backoff = 0;
                     })
                  job;
                complete job;
                assign_idle ()
            | Some attempt ->
                record (Journal.Started { attempt }) job;
                Hashtbl.replace started_at job (now ());
                w.current <- Some (job, attempt);
                log "assign %s (attempt %d) to worker %d" job attempt w.pid;
                (try Pool.send w.to_w (Pool.assignment ~job ~attempt)
                 with Unix.Unix_error _ -> handle_death w);
                assign_idle ()))
  in
  (* ---------------------------------------------------------------- *)
  (* replication: ship committed journal lines (plus the spool files
     they reference) to followers, verbatim                            *)
  let attachments_for r =
    List.map
      (function
        | `Instance (job, body) -> Protocol.Repl_instance { job; body }
        | `Result (job, body) -> Protocol.Repl_result { job; body }
        | `Cache (key, body) -> Protocol.Repl_cache { key; body })
      (Replica.attachment_specs ~spool ~cache_dir:cfg.service.Work.cache_dir r)
  in
  let ship_line p (seq, line) =
    if Rtt_budget.Budget.probe ~site:E.Faults.repl_frame_drop_site then
      (* the frame is dropped but [sent] still advances: the follower
         sees the next frame's sequence gap and reconnects from its
         watermark — the failure mode the fault exists to exercise *)
      log "fault: dropped repl frame %d to %s" seq (Conn.peer p.conn)
    else begin
      (match Journal.decode line with
      | Some r -> List.iter (Conn.send p.conn) (attachments_for r)
      | None -> ());
      Conn.send p.conn (Protocol.Repl_frame { seq; line })
    end;
    p.sent <- max p.sent (seq + 1)
  in
  (after_append :=
     fun seq line ->
       List.iter (fun p -> if p.sent = seq then ship_line p (seq, line)) !followers);
  let repl_stats () =
    let fws = List.map (fun p -> (Conn.peer p.conn, p.sent, p.acked)) !followers in
    Replica.stats_json ~lp:(Rtt_lp.Simplex.lp_stats_json ()) ~role:"primary" ~records:!nrecords
      ~sync_replicas:(Replica.Sync.replicas sync) ~held:(Replica.Sync.pending sync)
      ~followers:fws ()
  in
  (* ---------------------------------------------------------------- *)
  (* cross-shard forwarding: a request whose job id routes elsewhere is
     relayed over a persistent link to the owner's internal socket.
     Immediate answers come back in request order (FIFO); deferred wait
     answers carry the job id and may overtake, so id-bearing responses
     match the first relay holding that id.                            *)
  let drop_link ?(code = "shard-unavailable") l reason =
    Hashtbl.remove links l.peer_shard;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    let pend = l.relays in
    l.relays <- [];
    if pend <> [] then log "link to shard %d down (%s): %d relays errored" l.peer_shard reason (List.length pend);
    List.iter (fun r -> r.deliver (Protocol.Errored { code; msg = reason })) pend
  in
  let link_to owner =
    match Hashtbl.find_opt links owner with
    | Some l -> Some l
    | None -> (
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Eintr.connect fd (Unix.ADDR_UNIX (intern_socket cfg owner)) with
        | () ->
            let l =
              { peer_shard = owner; lfd = fd; lreader = Frame.reader (); relays = [];
                last_ping = now () }
            in
            Hashtbl.replace links owner l;
            log "linked to shard %d" owner;
            Some l
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            None)
  in
  let forward ~owner ~id req ~deliver =
    match link_to owner with
    | None ->
        deliver
          (Protocol.Errored
             { code = "shard-unavailable"; msg = Printf.sprintf "shard %d is not answering" owner })
    | Some l -> (
        match Frame.write l.lfd (Protocol.encode_request req) with
        | () -> l.relays <- l.relays @ [ { relay_id = id; deliver } ]
        | exception Unix.Unix_error _ ->
            drop_link l "link write failed";
            deliver
              (Protocol.Errored
                 {
                   code = "shard-unavailable";
                   msg = Printf.sprintf "shard %d is not answering" owner;
                 }))
  in
  let relay_deliver l resp =
    let take pred =
      let rec go acc = function
        | [] -> None
        | r :: tl when pred r ->
            l.relays <- List.rev_append acc tl;
            Some r
        | r :: tl -> go (r :: acc) tl
      in
      go [] l.relays
    in
    let by_id id = match take (fun r -> r.relay_id = id) with Some r -> Some r | None -> take (fun _ -> true) in
    let taken =
      match resp with
      | Protocol.Pong -> None (* keepalive answer, not a relay *)
      | Protocol.Accepted { id }
      | Protocol.Status_is { id; _ }
      | Protocol.Result { id; _ }
      | Protocol.Failed { id; _ } ->
          by_id id
      | Protocol.Session_ok { sid; _ } | Protocol.Session_result { sid; _ } -> by_id sid
      | Protocol.Errored { code = "unknown-job" | "unknown-session"; msg } -> by_id msg
      | _ -> take (fun _ -> true)
    in
    match (taken, resp) with
    | Some r, _ -> r.deliver resp
    | None, Protocol.Pong -> ()
    | None, _ -> log "unmatched relay response from shard %d ignored" l.peer_shard
  in
  let link_readable l =
    let buf = Bytes.create 8192 in
    match Eintr.read l.lfd buf 0 8192 with
    | exception Unix.Unix_error _ -> drop_link l "link read failed"
    | 0 -> drop_link l "peer shard closed the link"
    | n ->
        List.iter
          (function
            | `Frame payload -> (
                match Protocol.parse_response payload with
                | Ok resp -> relay_deliver l resp
                | Error _ -> log "unparseable relay response ignored")
            | `Corrupt _ | `Overflow -> drop_link l "bad relay frame")
          (Frame.feed l.lreader (Bytes.sub_string buf 0 n))
  in
  let relays_pending () = Hashtbl.fold (fun _ l acc -> acc + List.length l.relays) links 0 in
  let ping_links () =
    (* the owner's idle sweep must not reap a quiet link while relays
       could still need it; pings well inside the idle timeout keep it
       warm, and pongs are filtered out of relay matching *)
    let dead =
      Hashtbl.fold
        (fun _ l acc ->
          if now () -. l.last_ping > 10.0 then begin
            l.last_ping <- now ();
            match Frame.write l.lfd (Protocol.encode_request Protocol.Ping) with
            | () -> acc
            | exception Unix.Unix_error _ -> l :: acc
          end
          else acc)
        links []
    in
    List.iter (fun l -> drop_link l "keepalive write failed") dead
  in
  (* ---------------------------------------------------------------- *)
  (* requests                                                          *)
  let write_instance ~job text =
    Rtt_diskio.Diskio.atomic_write ~path:(Filename.concat spool job) text
  in
  let submit_local ~reply ~name ~id p =
    let job = job_of_id id in
    if status_of job <> None then begin
      log "submit %s: coalesced onto %s" name id;
      reply (Protocol.Accepted { id })
    end
    else
      match Admission.offer admission ~id:job with
      | `Shed _ ->
          log "submit %s: shed (queue full)" name;
          reply (Protocol.Shed { retry_after_ms = shed_hint () })
      | `Duplicate -> reply (Protocol.Accepted { id })
      | `Admitted ->
          (* durability order: instance file, then journal record, then
             the accepted reply — a crash between any two steps leaves
             either an adoptable spool file or a fully journaled job,
             never an accepted ghost *)
          write_instance ~job (Rtt_core.Io.to_string p);
          record Journal.Queued job;
          log "submit %s: accepted as %s" name id;
          if Replica.Sync.replicas sync = 0 then reply (Protocol.Accepted { id })
          else
            (* --sync-replicas K: the accepted reply waits until K
               followers have durably applied the Queued record
               (coalesced duplicates above answered immediately — their
               record was already held or released) *)
            Replica.Sync.hold sync ~seq:(!nrecords - 1) (reply, Protocol.Accepted { id })
  in
  let submit_entry ~reply ~name ~body =
    if !drain then reply (Protocol.Shed { retry_after_ms = shed_hint () })
    else
      match E.Engine.load_string body with
      | Error e ->
          reply (Protocol.Errored { code = E.Error.class_name e; msg = E.Error.to_string e })
      | Ok p ->
          let id = Work.digest_of cfg.service p in
          let owner = shard_of_id ~shards id in
          if owner = shard then submit_local ~reply ~name ~id p
          else forward ~owner ~id (Protocol.Submit { name; body }) ~deliver:reply
  in
  (* sessions: a session journaled before a restart (or by a previous
     connection) reattaches lazily — but only if its journal exists, so
     a mutate against a typo'd id cannot conjure an empty session *)
  let find_session sid =
    match Session.find sessions sid with
    | Some t -> Some t
    | None ->
        if List.mem sid (Session.list_sids ~spool) then
          match Session.open_ sessions sid with Ok t -> Some t | Error _ -> None
        else None
  in
  let handle_request c =
    let reply_to_c resp = if List.memq c !conns then Conn.send c resp in
    (* session verbs route to the shard owning the sid, like jobs *)
    let session_owned sid req k =
      if not (Session.valid_sid sid) then
        Conn.send c
          (Protocol.Errored
             {
               code = "bad-request";
               msg = "bad session id (want 1-64 characters from [A-Za-z0-9._-])";
             })
      else
        let owner = shard_of_id ~shards sid in
        if owner <> shard then forward ~owner ~id:sid req ~deliver:reply_to_c else k ()
    in
    function
    | Protocol.Hello _ ->
        Conn.send c (Protocol.Welcome { version = Protocol.version; max_frame = cfg.max_frame })
    | Protocol.Ping -> Conn.send c Protocol.Pong
    | Protocol.Bye -> Conn.close_after_flush c
    | Protocol.Status { id } ->
        let owner = shard_of_id ~shards id in
        if owner <> shard then forward ~owner ~id (Protocol.Status { id }) ~deliver:reply_to_c
        else
          let json = Jobview.json_of ~id (status_of (job_of_id id)) in
          Conn.send c (Protocol.Status_is { id; json })
    | Protocol.Wait { id } ->
        let owner = shard_of_id ~shards id in
        if owner <> shard then begin
          (* the wait is relayed; mark the conn so the idle sweep keeps
             it alive until the owner answers *)
          Conn.add_wait c id;
          forward ~owner ~id (Protocol.Wait { id })
            ~deliver:(fun resp ->
              Conn.remove_wait c id;
              reply_to_c resp)
        end
        else
          let job = job_of_id id in
          if terminal job then Conn.send c (terminal_response job)
          else if status_of job <> None then begin
            Conn.add_wait c id;
            Hashtbl.replace waiters job
              (c :: Option.value ~default:[] (Hashtbl.find_opt waiters job))
          end
          else Conn.send c (Protocol.Errored { code = "unknown-job"; msg = id })
    | Protocol.Submit { name; body } -> submit_entry ~reply:reply_to_c ~name ~body
    | Protocol.Submit_many { name; bodies } ->
        (* per-entry acks in entry order: answers for local entries are
           synchronous, cross-shard and sync-held ones arrive later, so
           a reorder buffer releases the reply prefix as it fills *)
        let slots = Array.make (List.length bodies) None in
        let next = ref 0 in
        let fill i resp =
          if slots.(i) = None then begin
            slots.(i) <- Some resp;
            while !next < Array.length slots && slots.(!next) <> None do
              (match slots.(!next) with Some r -> reply_to_c r | None -> ());
              incr next
            done
          end
        in
        List.iteri
          (fun i body ->
            submit_entry ~reply:(fill i) ~name:(Printf.sprintf "%s[%d]" name i) ~body)
          bodies
    | Protocol.Repl_hello _ when shards > 1 ->
        Conn.send c
          (Protocol.Errored
             { code = "bad-role"; msg = "a sharded daemon does not replicate; run --shards 1" })
    | Protocol.Repl_ack _ when shards > 1 ->
        Conn.send c
          (Protocol.Errored
             { code = "bad-role"; msg = "a sharded daemon does not replicate; run --shards 1" })
    | Protocol.Repl_hello { version = _; watermark } ->
        let watermark = min watermark !nrecords in
        (match find_follower c with
        | Some p ->
            p.sent <- watermark;
            p.acked <- min p.acked watermark
        | None -> followers := { conn = c; sent = watermark; acked = watermark } :: !followers);
        Conn.send c (Protocol.Repl_welcome { version = Protocol.version; records = !nrecords });
        let p = Option.get (find_follower c) in
        (* catch-up from disk, then the live after_append forwarding
           keeps [sent] in lockstep with the journal *)
        List.iter (ship_line p) (Replica.lines_from ~spool watermark);
        log "follower %s joined at watermark %d of %d" (Conn.peer c) watermark !nrecords
    | Protocol.Repl_ack { watermark } -> (
        match find_follower c with
        | Some p ->
            p.acked <- max p.acked (min watermark !nrecords);
            release_sync ()
        | None -> Conn.send c (Protocol.Errored { code = "bad-role"; msg = "not a follower" }))
    | Protocol.Promote ->
        Conn.send c (Protocol.Errored { code = "bad-role"; msg = "already primary" })
    | Protocol.Stats -> Conn.send c (Protocol.Stats_is { json = repl_stats () })
    | Protocol.Session_open { sid; body } as req ->
        session_owned sid req (fun () ->
            match Session.open_ sessions sid with
            | Error msg -> Conn.send c (Protocol.Errored { code = "bad-request"; msg })
            | Ok t -> (
                match body with
                | Some text when Session.revision t = 0 -> (
                    (* the seed only lands in a fresh session: a reattach
                       keeps its journaled history, so retrying an open
                       after a crash is safe *)
                    match Session.mutate t (Session.Seed text) with
                    | Ok revision -> Conn.send c (Protocol.Session_ok { sid; revision })
                    | Error msg ->
                        Conn.send c (Protocol.Errored { code = "bad-request"; msg }))
                | _ ->
                    Conn.send c
                      (Protocol.Session_ok { sid; revision = Session.revision t })))
    | Protocol.Session_mutate { sid; op } as req ->
        session_owned sid req (fun () ->
            if Rtt_budget.Budget.probe ~site:E.Faults.session_mutate_drop_site then
              (* dropped before journaling or applying: the client sees
                 the error and the session is exactly as it was *)
              Conn.send c
                (Protocol.Errored { code = "fault-injected"; msg = "session.mutate.drop" })
            else
              match find_session sid with
              | None -> Conn.send c (Protocol.Errored { code = "unknown-session"; msg = sid })
              | Some t -> (
                  match Session.op_of_string op with
                  | Error msg -> Conn.send c (Protocol.Errored { code = "bad-request"; msg })
                  | Ok op -> (
                      match Session.mutate t op with
                      | Ok revision -> Conn.send c (Protocol.Session_ok { sid; revision })
                      | Error msg ->
                          Conn.send c (Protocol.Errored { code = "bad-request"; msg }))))
    | Protocol.Session_solve { sid } as req ->
        session_owned sid req (fun () ->
            match find_session sid with
            | None -> Conn.send c (Protocol.Errored { code = "unknown-session"; msg = sid })
            | Some t -> (
                match
                  Session.solve ?fuel:cfg.service.Work.deadline_fuel
                    ~policy:cfg.service.Work.policy t
                with
                | Ok s ->
                    Conn.send c
                      (Protocol.Session_result
                         {
                           sid;
                           fuel = s.Session.success.E.Engine.fuel_spent;
                           warm = s.Session.warm;
                           rendered = s.Session.rendered;
                         })
                | Error e ->
                    Conn.send c
                      (Protocol.Errored
                         { code = E.Error.class_name e; msg = E.Error.to_string e })))
    | Protocol.Session_close { sid } as req ->
        session_owned sid req (fun () ->
            match find_session sid with
            | None -> Conn.send c (Protocol.Errored { code = "unknown-session"; msg = sid })
            | Some t ->
                let revision = Session.revision t in
                Session.close sessions t;
                Conn.send c (Protocol.Session_ok { sid; revision }))
  in
  let conn_readable c =
    match Conn.read c ~now:(now ()) with
    | `Again -> ()
    | `Eof -> drop_conn c
    | `Frames items ->
        List.iter
          (fun item ->
            if not (Conn.closing c) then
              match item with
              | `Frame payload -> (
                  match Protocol.parse_request payload with
                  | Ok req -> handle_request c req
                  | Error msg -> Conn.send c (Protocol.Errored { code = "bad-request"; msg }))
              | `Corrupt _ ->
                  (* past a torn frame, stream sync cannot be trusted *)
                  Conn.send c
                    (Protocol.Errored { code = "bad-frame"; msg = "CRC or framing failure" });
                  Conn.close_after_flush c
              | `Overflow ->
                  Conn.send c
                    (Protocol.Errored
                       {
                         code = "frame-overflow";
                         msg = Printf.sprintf "line exceeds %d bytes" cfg.max_frame;
                       });
                  Conn.close_after_flush c)
          items
  in
  let conn_flush c =
    match Conn.flush c with
    | `Closed -> drop_conn c
    | `Done -> if Conn.closing c then drop_conn c
    | `Again -> ()
  in
  let accept_conn lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | fd, sa ->
        Unix.set_nonblock fd;
        let peer =
          match sa with
          | Unix.ADDR_UNIX _ -> "unix"
          | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        in
        conns := Conn.create ~max_frame:cfg.max_frame ~peer ~now:(now ()) fd :: !conns;
        log "accepted connection (%s)" peer
  in
  (* ---------------------------------------------------------------- *)
  (* shutdown                                                          *)
  let finish_workers () =
    if !force then
      List.iter
        (fun w -> try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ())
        !workers
    else
      List.iter
        (fun w -> try Pool.send w.to_w Pool.quit_payload with Unix.Unix_error _ -> ())
        !workers;
    let busy () = List.exists (fun w -> w.current <> None) !workers in
    let deadline = now () +. 30.0 in
    while busy () && now () < deadline do
      let fds = List.map (fun w -> w.from_w) !workers in
      let r, _, _ = Eintr.select fds [] [] 0.1 in
      List.iter
        (fun fd ->
          match List.find_opt (fun w -> w.from_w = fd) !workers with
          | Some w -> worker_readable w
          | None -> ())
        r
    done;
    List.iter
      (fun w ->
        (match w.current with
        | Some (job, attempt) ->
            (* unresponsive after the grace period: record the
               abandonment on its behalf and kill it *)
            record (Journal.Abandoned { attempt }) job;
            w.current <- None;
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | None -> ());
        (try Unix.close w.to_w with Unix.Unix_error _ -> ());
        (try Unix.close w.from_w with Unix.Unix_error _ -> ());
        reap w.pid)
      !workers;
    workers := []
  in
  let exit_code () =
    if !force then Supervisor.shutdown_exit_code
    else if Journal.exists (function Journal.Dead _ -> true | _ -> false) !states then
      Supervisor.failed_jobs_exit_code
    else Supervisor.drained_exit_code
  in
  (* ---------------------------------------------------------------- *)
  (* the event loop                                                    *)
  let on_signal _ = if !drain then force := true else drain := true in
  let saved_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let saved_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int;
      Sys.set_signal Sys.sigpipe saved_pipe;
      Journal.close journal)
    (fun () ->
      match
        if shards > 1 then [ listen_unix (intern_socket cfg shard) ] else []
      with
      | exception Failure msg ->
          Printf.eprintf "rtt: %s\n%!" msg;
          124
      | intern ->
          listeners := ls @ intern;
          (* adopt the startup backlog: every spool instance file is
             journaled and every non-terminal one re-admitted — the
             accepted jobs of a crashed daemon are solved, not lost *)
          let backlog = Work.jobs_in ~spool in
          List.iter (fun job -> if status_of job = None then record Journal.Queued job) backlog;
          List.iter
            (fun job -> if not (terminal job) then Admission.force admission ~id:job)
            backlog;
          for _ = 1 to max 1 cfg.service.Work.workers do
            spawn ()
          done;
          log "listening on %s (%d jobs adopted)" cfg.socket_path (Admission.queued admission);
          let running = ref true in
          while !running do
            if !force then running := false
            else begin
              assign_idle ();
              let workers_idle = List.for_all (fun w -> w.current = None) !workers in
              if
                !drain
                && Admission.queued admission = 0
                && Admission.in_flight admission = 0
                && workers_idle
                && relays_pending () = 0
              then running := false
              else begin
                let link_fds = Hashtbl.fold (fun _ l acc -> l.lfd :: acc) links [] in
                let reads =
                  !listeners
                  @ List.filter_map
                      (fun c -> if Conn.closing c then None else Some (Conn.fd c))
                      !conns
                  @ List.map (fun w -> w.from_w) !workers
                  @ link_fds
                in
                let writes =
                  List.filter_map
                    (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None)
                    !conns
                in
                (match Unix.select reads writes [] 0.25 with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | r, wr, _ ->
                    List.iter
                      (fun fd ->
                        if List.mem fd !listeners then accept_conn fd
                        else
                          match List.find_opt (fun w -> w.from_w = fd) !workers with
                          | Some w -> worker_readable w
                          | None -> (
                              match List.find_opt (fun c -> Conn.fd c = fd) !conns with
                              | Some c -> conn_readable c
                              | None -> (
                                  match
                                    Hashtbl.fold
                                      (fun _ l acc -> if l.lfd = fd then Some l else acc)
                                      links None
                                  with
                                  | Some l -> link_readable l
                                  | None -> ())))
                      r;
                    List.iter
                      (fun fd ->
                        match List.find_opt (fun c -> Conn.fd c = fd) !conns with
                        | Some c -> conn_flush c
                        | None -> ())
                      wr);
                (* opportunistic flush of freshly queued replies *)
                List.iter
                  (fun c -> if Conn.wants_write c || Conn.closing c then conn_flush c)
                  !conns;
                (* read-deadline sweep; unanswered waiters are exempt *)
                let t = now () in
                List.iter
                  (fun c ->
                    if
                      Conn.waits c = []
                      && (not (is_follower c))
                      && Conn.idle_for c ~now:t > cfg.idle_timeout
                    then begin
                      log "closing idle connection (%s)" (Conn.peer c);
                      drop_conn c
                    end)
                  !conns;
                if shards > 1 then begin
                  ping_links ();
                  publish_stats ()
                end;
                (* keep the worker complement up while there is work *)
                if (not !drain) || Admission.queued admission > 0 then begin
                  let width = max 1 cfg.service.Work.workers in
                  while List.length !workers < width do
                    spawn ()
                  done
                end
              end
            end
          done;
          log "%s" (if !force then "forced shutdown" else "drained; shutting down");
          finish_workers ();
          (* answer anything still waiting: terminal jobs truthfully, the
             rest (forced shutdown) with a shutdown error so the client
             knows to resubmit or re-wait against the next daemon *)
          Hashtbl.iter
            (fun job cs ->
              List.iter
                (fun c ->
                  if List.memq c !conns then
                    Conn.send c
                      (if terminal job then terminal_response job
                       else Protocol.Errored { code = "shutdown"; msg = id_of_job job }))
                cs)
            waiters;
          Hashtbl.reset waiters;
          (* relays still in flight (forced shutdown, or a wedged peer):
             an honest error beats a silent hang *)
          let open_links = Hashtbl.fold (fun _ l acc -> l :: acc) links [] in
          List.iter (fun l -> drop_link ~code:"shutdown" l "shutting down") open_links;
          (* held sync-replicas acks: the job is durable here but not
             yet on K followers — an honest error beats a ghost ack *)
          List.iter
            (fun (reply, _) ->
              reply
                (Protocol.Errored { code = "shutdown"; msg = "sync-replicas not satisfied" }))
            (Replica.Sync.drain sync);
          List.iter (fun c -> ignore (Conn.flush c)) !conns;
          List.iter (fun c -> try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ()) !conns;
          conns := [];
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !listeners;
          listeners := [];
          if shards > 1 then begin
            (try Unix.unlink (intern_socket cfg shard) with Unix.Unix_error _ -> ());
            (try Unix.unlink (stat_file ~root:stats_root shard) with Unix.Unix_error _ -> ())
          end;
          if own_socket then (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          exit_code ())

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)

let bind_listeners cfg =
  match
    let l = listen_unix cfg.socket_path in
    l :: (match cfg.tcp with Some hp -> [ listen_tcp hp ] | None -> [])
  with
  | exception Failure msg ->
      Printf.eprintf "rtt: %s\n%!" msg;
      Error 124
  | ls -> Ok ls

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) ->
      failwith (Printf.sprintf "%s: parent directory missing" dir)

(* the sharded front-end: the parent binds the listeners once, forks
   one acceptor per shard over the shared descriptors (the kernel
   distributes accepts), then supervises — forwarding SIGTERM/SIGINT
   and reaping. Each shard serves its own sub-spool and journal. *)
let run_sharded cfg =
  let n = cfg.shards in
  let spool = cfg.service.Work.spool in
  match bind_listeners cfg with
  | Error code -> code
  | Ok ls -> (
      match
        for k = 0 to n - 1 do
          mkdir_p (shard_spool ~spool k)
        done
      with
      | exception Failure msg ->
          Printf.eprintf "rtt: %s\n%!" msg;
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) ls;
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          124
      | () ->
          let children = ref [] in
          for k = 0 to n - 1 do
            match Unix.fork () with
            | 0 ->
                let cfg_k =
                  { cfg with service = { cfg.service with Work.spool = shard_spool ~spool k } }
                in
                (* each shard's LP counters start from zero, not from
                   whatever the parent accumulated before forking *)
                Rtt_lp.Simplex.reset_stats ();
                Stdlib.exit (serve cfg_k ~shard:k ~shards:n ~own_socket:false ls)
            | pid -> children := (k, pid) :: !children
          done;
          (* the parent only supervises: its copies of the listeners
             close so the shards alone own the accept queue *)
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) ls;
          let signalled = ref false in
          let forward s =
            List.iter (fun (_, pid) -> try Unix.kill pid s with Unix.Unix_error _ -> ()) !children
          in
          let on_signal s _ =
            signalled := true;
            forward s
          in
          let saved_term = Sys.signal Sys.sigterm (Sys.Signal_handle (on_signal Sys.sigterm)) in
          let saved_int = Sys.signal Sys.sigint (Sys.Signal_handle (on_signal Sys.sigint)) in
          Fun.protect
            ~finally:(fun () ->
              Sys.set_signal Sys.sigterm saved_term;
              Sys.set_signal Sys.sigint saved_int;
              try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
            (fun () ->
              let codes = Hashtbl.create n in
              let rec reap_all () =
                if Hashtbl.length codes < List.length !children then begin
                  match Unix.wait () with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_all ()
                  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
                  | pid, status ->
                      (match List.find_opt (fun (_, p) -> p = pid) !children with
                      | Some (k, _) ->
                          let code =
                            match status with
                            | Unix.WEXITED c -> c
                            | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
                                Supervisor.shutdown_exit_code
                          in
                          Hashtbl.replace codes k code;
                          (* a shard dying before any drain was requested
                             is a fleet failure: stop the others rather
                             than serve a partial keyspace *)
                          if not !signalled then begin
                            Printf.eprintf "rtt: shard %d exited %d unexpectedly; stopping\n%!" k
                              code;
                            signalled := true;
                            forward Sys.sigterm
                          end
                      | None -> ());
                      reap_all ()
                end
              in
              reap_all ();
              (* worst child verdict wins: 31 (failed jobs) over 30
                 (forced) over 0 (clean drain) *)
              Hashtbl.fold (fun _ c acc -> max c acc) codes 0))

let run cfg =
  if cfg.shards > 1 then run_sharded cfg
  else
    match bind_listeners cfg with
    | Error code -> code
    | Ok ls -> serve cfg ~shard:0 ~shards:1 ~own_socket:true ls
