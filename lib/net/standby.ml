open Rtt_service
module E = Rtt_engine

type config = {
  spool : string;
  socket_path : string;
  primary : Client.endpoint;
  cache_dir : string option;
  max_frame : int;
  takeover_after : float option;
  seed : int;
  verbose : bool;
}

let default_config ~spool ~socket_path ~primary =
  {
    spool;
    socket_path;
    primary;
    cache_dir = None;
    max_frame = 16 * 1024 * 1024;
    takeover_after = None;
    seed = 0;
    verbose = false;
  }

type outcome = Promote | Exit of int

type link = { fd : Unix.file_descr; reader : Frame.reader }

let now () = Unix.gettimeofday ()

let run cfg =
  let spool = cfg.spool in
  let log fmt =
    Printf.ksprintf (fun s -> if cfg.verbose then Printf.eprintf "[replica] %s\n%!" s) fmt
  in
  let f = Replica.open_follower ~spool in
  log "standing by at watermark %d" f.Replica.watermark;
  let status_of job = Journal.find f.Replica.states job in
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
  let rendered_of job =
    match Work.read_result ~spool ~job with
    | None -> "(result file missing)\n"
    | Some kvs -> (
        match Option.bind (List.assoc_opt "rendered" kvs) Frame.unescape with
        | Some r -> r
        | None ->
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
  (* ---------------------------------------------------------------- *)
  (* local read-only serving                                           *)
  let conns = ref ([] : Conn.t list) in
  let waiters : (string, Conn.t list) Hashtbl.t = Hashtbl.create 16 in
  let promote_via : Conn.t option ref = ref None in
  let stop = ref false in
  let drop_conn c =
    (try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ());
    conns := List.filter (fun x -> x != c) !conns
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
  let stats_json () =
    Replica.stats_json ~lp:(Rtt_lp.Simplex.lp_stats_json ()) ~role:"follower"
      ~records:f.Replica.watermark ~sync_replicas:0 ~held:0 ~followers:[] ()
  in
  let handle_request c = function
    | Protocol.Hello _ ->
        Conn.send c (Protocol.Welcome { version = Protocol.version; max_frame = cfg.max_frame })
    | Protocol.Ping -> Conn.send c Protocol.Pong
    | Protocol.Bye -> Conn.close_after_flush c
    | Protocol.Status { id } ->
        Conn.send c
          (Protocol.Status_is { id; json = Jobview.json_of ~id (status_of (job_of_id id)) })
    | Protocol.Stats -> Conn.send c (Protocol.Stats_is { json = stats_json () })
    | Protocol.Wait { id } ->
        let job = job_of_id id in
        if terminal job then Conn.send c (terminal_response job)
        else if status_of job <> None then begin
          Conn.add_wait c id;
          Hashtbl.replace waiters job
            (c :: Option.value ~default:[] (Hashtbl.find_opt waiters job))
        end
        else Conn.send c (Protocol.Errored { code = "unknown-job"; msg = id })
    | Protocol.Submit _ ->
        Conn.send c
          (Protocol.Errored { code = "read-only"; msg = "this is a follower; submit to the primary" })
    | Protocol.Submit_many { bodies; _ } ->
        (* one error per entry, preserving the batch's answer-count
           contract for a client that did not check the role first *)
        List.iter
          (fun _ ->
            Conn.send c
              (Protocol.Errored
                 { code = "read-only"; msg = "this is a follower; submit to the primary" }))
          bodies
    | Protocol.Promote ->
        log "promotion requested by %s" (Conn.peer c);
        Conn.send c Protocol.Promoting;
        promote_via := Some c
    | Protocol.Repl_hello { version = _; watermark } ->
        (* static catch-up serving: [rtt fsck --repair] can pull records
           and attachments from a live follower while the primary is
           dead. Unlike the primary's replication path this is a
           snapshot — we ship the committed prefix as of now and do not
           stream frames that arrive later. *)
        let records = f.Replica.watermark in
        let from = max 0 (min watermark records) in
        log "serving catch-up to %s from record %d of %d" (Conn.peer c) from records;
        Conn.send c (Protocol.Repl_welcome { version = Protocol.version; records });
        List.iter
          (fun (seq, line) ->
            (match Journal.decode line with
            | Some r ->
                List.iter
                  (fun spec ->
                    Conn.send c
                      (match spec with
                      | `Instance (job, body) -> Protocol.Repl_instance { job; body }
                      | `Result (job, body) -> Protocol.Repl_result { job; body }
                      | `Cache (key, body) -> Protocol.Repl_cache { key; body }))
                  (Replica.attachment_specs ~spool ~cache_dir:cfg.cache_dir r)
            | None -> ());
            Conn.send c (Protocol.Repl_frame { seq; line }))
          (Replica.lines_from ~spool from)
    | Protocol.Repl_ack _ ->
        (* a puller has no business acking a snapshot; ignore *)
        ()
    | Protocol.Session_open _ | Protocol.Session_mutate _ | Protocol.Session_solve _
    | Protocol.Session_close _ ->
        Conn.send c
          (Protocol.Errored
             { code = "read-only"; msg = "this is a follower; sessions live on the primary" })
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
  (* ---------------------------------------------------------------- *)
  (* the primary link                                                  *)
  let link = ref (None : link option) in
  let down_since = ref (now ()) in
  let attempt = ref 0 in
  let next_try = ref 0.0 in
  let last_ack = ref 0.0 in
  let send_ack l =
    if Rtt_budget.Budget.probe ~site:E.Faults.repl_ack_delay_site then
      (* fault: swallow this ack; the heartbeat below re-sends the
         watermark, so lag inflates but nothing deadlocks *)
      log "fault: delaying ack at watermark %d" f.Replica.watermark
    else begin
      (try Frame.write l.fd (Protocol.encode_request (Protocol.Repl_ack { watermark = f.Replica.watermark }))
       with Unix.Unix_error _ -> ());
      last_ack := now ()
    end
  in
  let drop_link reason =
    match !link with
    | None -> ()
    | Some l ->
        (try Unix.close l.fd with Unix.Unix_error _ -> ());
        link := None;
        down_since := now ();
        next_try := 0.0;
        log "primary link down (%s); will reconnect from watermark %d" reason f.Replica.watermark
  in
  let try_connect () =
    incr attempt;
    match Client.connect cfg.primary with
    | Ok c ->
        let fd = Client.fd c in
        attempt := 0;
        link := Some { fd; reader = Frame.reader ~max_frame:cfg.max_frame () };
        (try
           Frame.write fd
             (Protocol.encode_request
                (Protocol.Repl_hello
                   { version = Protocol.version; watermark = f.Replica.watermark }))
         with Unix.Unix_error _ -> drop_link "hello write failed");
        last_ack := now ();
        log "connected to primary, offering watermark %d" f.Replica.watermark
    | Error e ->
        let ms = Retry.backoff ~seed:cfg.seed ~job:"repl" ~attempt:(max 1 !attempt) in
        next_try := now () +. (float_of_int ms /. 1000.);
        log "primary unreachable (%s); retry in %d ms" (Client.error_to_string e) ms
  in
  let handle_repl l = function
    | Protocol.Repl_welcome { version = _; records } ->
        log "primary has %d records (we hold %d)" records f.Replica.watermark
    | Protocol.Repl_instance { job; body } ->
        Replica.write_blob ~path:(Filename.concat spool job) body
    | Protocol.Repl_result { job; body } ->
        Replica.write_blob ~path:(Work.result_path ~spool ~job) body
    | Protocol.Repl_cache { key; body } -> (
        match cfg.cache_dir with
        | Some dir -> E.Cache.store_raw ~dir ~key body
        | None -> ())
    | Protocol.Repl_frame { seq; line } -> (
        match Replica.apply_line f ~seq ~line with
        | `Applied r ->
            (match r.Journal.event with
            | Journal.Done _ | Journal.Failed { transient = false; _ } ->
                notify_waiters r.Journal.job
            | Journal.Failed _ | Journal.Queued | Journal.Started _ | Journal.Abandoned _ -> ());
            (* retries-exhausted arrives as a non-transient Failed, so
               the Dead fold is covered above; anything else waits *)
            send_ack l
        | `Stale -> ()
        | `Gap ->
            log "sequence gap at %d (watermark %d)" seq f.Replica.watermark;
            drop_link "sequence gap"
        | `Bad ->
            log "undecodable frame at seq %d" seq;
            drop_link "bad frame")
    | Protocol.Errored { code; msg } -> log "primary error %s: %s" code msg
    | _ -> ()
  in
  let link_readable l =
    let buf = Bytes.create 8192 in
    match Eintr.read l.fd buf 0 8192 with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_link "read error"
    | 0 -> drop_link "primary closed"
    | n ->
        List.iter
          (fun item ->
            if !link != None then
              match item with
              | `Frame payload -> (
                  match Protocol.parse_response payload with
                  | Ok resp -> handle_repl l resp
                  | Error msg -> log "unparseable frame from primary: %s" msg)
              | `Corrupt _ -> drop_link "corrupt frame"
              | `Overflow -> drop_link "frame overflow")
          (Frame.feed l.reader (Bytes.sub_string buf 0 n))
  in
  (* ---------------------------------------------------------------- *)
  (* event loop                                                        *)
  let on_signal _ = stop := true in
  let saved_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let saved_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let cleanup () =
    List.iter (fun c -> ignore (Conn.flush c)) !conns;
    List.iter (fun c -> try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ()) !conns;
    conns := [];
    (match !link with Some l -> (try Unix.close l.fd with Unix.Unix_error _ -> ()) | None -> ());
    link := None;
    Replica.close_follower f
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int;
      Sys.set_signal Sys.sigpipe saved_pipe)
    (fun () ->
      match Daemon.listen_unix cfg.socket_path with
      | exception Failure msg ->
          Printf.eprintf "rtt: %s\n%!" msg;
          cleanup ();
          Exit 124
      | listener ->
          let promote = ref false in
          while (not !stop) && not !promote do
            if !link = None && now () >= !next_try then try_connect ();
            (* auto-takeover: the link has been continuously dead past
               the deadline *)
            (match cfg.takeover_after with
            | Some d when !link = None && now () -. !down_since >= d ->
                log "primary dead for %.1fs; taking over" (now () -. !down_since);
                promote := true
            | _ -> ());
            if not !promote then begin
              (match !promote_via with
              | Some c -> if not (List.memq c !conns) || not (Conn.wants_write c) then promote := true
              | None -> ());
              if not !promote then begin
                let reads =
                  (listener :: (match !link with Some l -> [ l.fd ] | None -> []))
                  @ List.filter_map
                      (fun c -> if Conn.closing c then None else Some (Conn.fd c))
                      !conns
                in
                let writes =
                  List.filter_map
                    (fun c -> if Conn.wants_write c then Some (Conn.fd c) else None)
                    !conns
                in
                let r, wr, _ = Eintr.select reads writes [] 0.25 in
                List.iter
                  (fun fd ->
                    if fd = listener then (
                      match Unix.accept listener with
                      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                        -> ()
                      | cfd, _ ->
                          Unix.set_nonblock cfd;
                          conns := Conn.create ~max_frame:cfg.max_frame ~peer:"local" ~now:(now ()) cfd :: !conns)
                    else
                      match !link with
                      | Some l when l.fd = fd -> link_readable l
                      | _ -> (
                          match List.find_opt (fun c -> Conn.fd c = fd) !conns with
                          | Some c -> conn_readable c
                          | None -> ()))
                  r;
                List.iter
                  (fun fd ->
                    match List.find_opt (fun c -> Conn.fd c = fd) !conns with
                    | Some c -> conn_flush c
                    | None -> ())
                  wr;
                List.iter
                  (fun c -> if Conn.wants_write c || Conn.closing c then conn_flush c)
                  !conns;
                (* heartbeat: an idle link still proves liveness and
                   re-offers the watermark, covering any ack the
                   ack-delay fault swallowed *)
                (match !link with
                | Some l when now () -. !last_ack >= 1.0 -> send_ack l
                | _ -> ())
              end
            end
          done;
          (try Unix.close listener with Unix.Unix_error _ -> ());
          (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
          cleanup ();
          if !promote then begin
            (* fsync-seal the tail; the committed prefix is what the
               successor daemon replays (and replays claims from) *)
            let records = Journal.seal ~spool in
            log "promoting with %d committed records" records;
            Promote
          end
          else Exit 0)
