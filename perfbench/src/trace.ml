(* The traced replay: a workload's inputs pushed through each layer's
   public functions inside this process, in the order the daemon calls
   them, one span per call.

   For a job: decode -> load -> digest -> instance write -> append
   [Queued] -> append [Started] -> hand-off to a forked
   [Pool.worker_loop] (which runs [Work.attempt] there) -> [Work.attempt]
   in-process -> the attempt's parts split out (cache lookup, solve,
   cache store, result publish) -> append [Done] -> encode. The
   in-process attempt and the split parts run on twin spools and caches
   of their own, so every cache lookup misses, as it does in the daemon
   for distinct jobs. For a session step: decode, [Session.mutate],
   encode, decode, [Session.solve], encode; then, outside the step, a
   cold load and solve of the same revision, which both checks the
   answer and gives the warm-versus-cold fuel ratio. *)

open Rtt_engine
open Rtt_service
module Diskio = Rtt_diskio.Diskio
module Simplex = Rtt_lp.Simplex
module Session = Rtt_session.Session
module Protocol = Rtt_net.Protocol

type counters = { pivots : int; refactors : int; warm_accepted : int; warm_offered : int }

let counters () =
  let acc, rej = Simplex.warm_stats () in
  {
    pivots = Simplex.pivot_count ();
    refactors = (Simplex.factor_stats ()).Simplex.refactorizations;
    warm_accepted = acc;
    warm_offered = acc + rej;
  }

let diff a b =
  {
    pivots = b.pivots - a.pivots;
    refactors = b.refactors - a.refactors;
    warm_accepted = b.warm_accepted - a.warm_accepted;
    warm_offered = b.warm_offered - a.warm_offered;
  }

let zero = { pivots = 0; refactors = 0; warm_accepted = 0; warm_offered = 0 }

let add a b =
  {
    pivots = a.pivots + b.pivots;
    refactors = a.refactors + b.refactors;
    warm_accepted = a.warm_accepted + b.warm_accepted;
    warm_offered = a.warm_offered + b.warm_offered;
  }

type result = {
  spans : Spans.t;
  wall : float;  (* seconds for the whole replay *)
  units : int;  (* jobs or session steps replayed *)
  wrong : int;  (* answers that differ from the reference *)
  fuel : int;  (* total engine fuel *)
  lp : counters;  (* simplex counters around the workload's solves *)
  appends : int;  (* journal records written *)
  warm_fuel : int;  (* sessions: fuel of the warm re-solves *)
}

let ok_exn what = function Ok v -> v | Error _ -> failwith ("traced replay: " ^ what ^ " failed")

let mkdir root name =
  let d = Filename.concat root name in
  Daemon_proc.mkdir_p d;
  d

(* A worker forked exactly as the daemon forks its pool workers. *)
let fork_worker (cfg : Work.config) ~close =
  let ar, aw = Unix.pipe () in
  let br, bw = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close aw;
      Unix.close br;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close;
      Simplex.reset_stats ();
      Pool.worker_loop cfg ~from_parent:ar ~to_parent:bw
  | pid ->
      Unix.close ar;
      Unix.close bw;
      (pid, aw, br)

let read_report =
  let buf = Bytes.create 4096 in
  fun reader fd pending ->
    let rec go () =
      match Queue.take_opt pending with
      | Some payload -> Pool.parse_report payload
      | None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> None
          | n ->
              List.iter
                (function `Frame p -> Queue.push p pending | `Corrupt _ | `Overflow -> ())
                (Frame.feed reader (Bytes.sub_string buf 0 n));
              go ())
    in
    go ()

let jobs ~(cfg : Work.config) ~lp (jobs : Inputs.job array) ~root ~enabled =
  let twin name =
    { cfg with Work.spool = mkdir root ("spool-" ^ name); cache_dir = Some (mkdir root ("cache-" ^ name)) }
  in
  let cfg_a = twin "a" and cfg_b = twin "b" and cfg_c = twin "c" in
  let cache_c = Option.get cfg_c.Work.cache_dir in
  let journal = Journal.open_ ~spool:cfg_a.Work.spool in
  let pid, to_w, from_w = fork_worker cfg_a ~close:[ Journal.fd journal ] in
  let reader = Frame.reader () and pending = Queue.create () in
  let stop_worker () =
    (try Pool.send to_w Pool.quit_payload with Unix.Unix_error _ -> ());
    if not (Daemon_proc.wait_exit pid ~timeout:10.) then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Daemon_proc.wait_exit pid ~timeout:5.)
    end;
    Unix.close to_w;
    Unix.close from_w;
    Journal.close journal
  in
  let sp = Spans.create ~enabled in
  let wrong = ref 0 and fuel = ref 0 and lpc = ref zero and appends = ref 0 in
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:stop_worker @@ fun () ->
  Array.iteri
    (fun k (j : Inputs.job) ->
      let frame =
        Frame.frame
          (Protocol.encode_request (Protocol.Submit { name = string_of_int k; body = j.Inputs.body }))
      in
      let job = j.Inputs.id ^ Work.instance_suffix in
      let instance_text = Rtt_core.Io.to_string (Inputs.load_exn j.Inputs.body) in
      Diskio.atomic_write ~path:(Filename.concat cfg_b.Work.spool job) instance_text;
      let transform =
        if lp then Some (Rtt_core.Transform.of_problem (Lazy.force j.Inputs.problem)) else None
      in
      Spans.with_span sp ~job:j.Inputs.id "job" (fun parent ->
          let span name f = Spans.with_span sp ?parent ~job:j.Inputs.id name (fun _ -> f ()) in
          let append event =
            incr appends;
            span "journal.append" (fun () -> Journal.append journal { Journal.job; event })
          in
          let body =
            span "protocol.decode" (fun () ->
                match Option.map Protocol.parse_request (Frame.unframe frame) with
                | Some (Ok (Protocol.Submit { body; _ })) -> body
                | _ -> failwith "traced replay: submit frame did not decode")
          in
          let p = span "engine.load" (fun () -> ok_exn "load" (Engine.load_string body)) in
          let id = span "work.digest" (fun () -> Work.digest_of cfg_a p) in
          let text = Rtt_core.Io.to_string p in
          span "diskio.instance_write" (fun () ->
              Diskio.atomic_write ~path:(Filename.concat cfg_a.Work.spool job) text);
          append Journal.Queued;
          append (Journal.Started { attempt = 1 });
          let report =
            span "pool.handoff" (fun () ->
                Pool.send to_w (Pool.assignment ~job ~attempt:1);
                read_report reader from_w pending)
          in
          let attempt =
            span "work.attempt" (fun () ->
                Work.attempt cfg_b ~stop:(fun () -> false) ~log:ignore ~job ~attempt:1)
          in
          if span "cache.lookup" (fun () -> Cache.lookup ~dir:cache_c ~key:id) <> None then
            failwith "traced replay: cache lookup hit on a fresh cache";
          let before = counters () in
          let s =
            span "engine.solve" (fun () ->
                ok_exn "solve"
                  (Engine.solve ~policy:cfg.Work.policy ~alpha:Work.alpha p ~budget:cfg.Work.budget))
          in
          lpc := add !lpc (diff before (counters ()));
          fuel := !fuel + s.Engine.fuel_spent;
          span "cache.store" (fun () -> Cache.store ~dir:cache_c ~key:id s);
          let rendered = Work.render p s in
          span "work.publish" (fun () ->
              Work.write_result ~rendered ~spool:cfg_c.Work.spool ~job ~attempt:1 ~cached:false s);
          append
            (Journal.Done
               {
                 attempt = 1;
                 makespan = s.Engine.makespan;
                 budget_used = s.Engine.budget_used;
                 fuel = s.Engine.fuel_spent;
                 cached = false;
               });
          ignore
            (span "protocol.encode" (fun () ->
                 Frame.frame (Protocol.encode_response (Protocol.Result { id; rendered }))));
          (rendered, s, report, attempt))
      |> fun (rendered, s, report, attempt) ->
      let same_solve (m, f) = m = s.Engine.makespan && f = s.Engine.fuel_spent in
      let agrees =
        Some rendered = Check.expected_job cfg j
        && (match report with
           | Some (Pool.Solved { makespan; fuel; cached = false; _ }) -> same_solve (makespan, fuel)
           | _ -> false)
        &&
        match attempt with
        | Work.Solved (s', false) -> same_solve (s'.Engine.makespan, s'.Engine.fuel_spent)
        | _ -> false
      in
      if not agrees then incr wrong;
      Option.iter
        (fun tr ->
          Spans.with_span sp ~job:j.Inputs.id "lp_relax.solve" (fun _ ->
              ignore (Rtt_core.Lp_relax.min_makespan tr ~budget:cfg.Work.budget)))
        transform)
    jobs;
  let wall = Unix.gettimeofday () -. t0 in
  {
    spans = sp;
    wall;
    units = Array.length jobs;
    wrong = !wrong;
    fuel = !fuel;
    lp = !lpc;
    appends = !appends;
    warm_fuel = 0;
  }

let sessions ~seed ~count ~steps ~root ~enabled =
  let store = Session.create_store ~spool:(mkdir root "spool") in
  let live =
    Array.init count (fun i ->
        let sid = Printf.sprintf "s%d" i in
        let body = Inputs.session_seed ~seed i in
        let t = ok_exn "session open" (Session.open_ store sid) in
        ignore (ok_exn "session seed" (Session.mutate t (Session.Seed body)));
        (t, ref (Inputs.mirror_of_seed body), ref 0))
  in
  let sp = Spans.create ~enabled in
  let wrong = ref 0 and fuel = ref 0 and warm_fuel = ref 0 and lpc = ref zero in
  let t0 = Unix.gettimeofday () in
  for i = 0 to steps - 1 do
    let t, mirror, n = live.(i mod count) in
    let sid = Session.sid t in
    let op = Inputs.next_op !mirror !n in
    incr n;
    let mutate_frame =
      Frame.frame
        (Protocol.encode_request
           (Protocol.Session_mutate { sid; op = Session.op_to_string op }))
    in
    let solve_frame = Frame.frame (Protocol.encode_request (Protocol.Session_solve { sid })) in
    let decode frame =
      match Option.map Protocol.parse_request (Frame.unframe frame) with
      | Some (Ok req) -> req
      | _ -> failwith "traced replay: session frame did not decode"
    in
    let warm =
      Spans.with_span sp ~job:sid "step" (fun parent ->
          let span name f = Spans.with_span sp ?parent ~job:sid name (fun _ -> f ()) in
          let op =
            match span "protocol.decode" (fun () -> decode mutate_frame) with
            | Protocol.Session_mutate { op; _ } -> ok_exn "op parse" (Session.op_of_string op)
            | _ -> failwith "traced replay: not a mutation"
          in
          let revision = span "session.mutate" (fun () -> ok_exn "mutate" (Session.mutate t op)) in
          ignore
            (span "protocol.encode" (fun () ->
                 Frame.frame (Protocol.encode_response (Protocol.Session_ok { sid; revision }))));
          ignore (span "protocol.decode" (fun () -> decode solve_frame));
          let before = counters () in
          let w = span "session.solve" (fun () -> ok_exn "session solve" (Session.solve t)) in
          lpc := add !lpc (diff before (counters ()));
          ignore
            (span "protocol.encode" (fun () ->
                 Frame.frame
                   (Protocol.encode_response
                      (Protocol.Session_result
                         {
                           sid;
                           fuel = w.Session.success.Engine.fuel_spent;
                           warm = w.Session.warm;
                           rendered = w.Session.rendered;
                         }))));
          w)
    in
    mirror := Inputs.apply !mirror op;
    warm_fuel := !warm_fuel + warm.Session.success.Engine.fuel_spent;
    let text = Inputs.mirror_text !mirror in
    let p = Spans.with_span sp ~job:sid "engine.load" (fun _ -> Inputs.load_exn text) in
    let cold =
      Spans.with_span sp ~job:sid "engine.solve" (fun _ ->
          ok_exn "cold solve" (Engine.solve ~alpha:Rtt_num.Rat.half p ~budget:!mirror.Inputs.budget))
    in
    fuel := !fuel + cold.Engine.fuel_spent;
    if Session.cold_render p cold <> warm.Session.rendered then incr wrong
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter (fun (t, _, _) -> Session.close store t) live;
  {
    spans = sp;
    wall;
    units = steps;
    wrong = !wrong;
    fuel = !fuel;
    lp = !lpc;
    appends = steps;
    warm_fuel = !warm_fuel;
  }
