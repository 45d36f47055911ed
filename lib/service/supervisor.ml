type config = Work.config = {
  spool : string;
  budget : int;
  policy : Rtt_engine.Policy.t;
  max_attempts : int;
  deadline_fuel : int option;
  checkpoint_every : int;
  seed : int;
  sleep : bool;
  verbose : bool;
  workers : int;
  cache_dir : string option;
}

let default_config ~spool =
  {
    spool;
    budget = 4;
    policy = Rtt_engine.Policy.default;
    max_attempts = 3;
    deadline_fuel = None;
    checkpoint_every = 1000;
    seed = 0;
    sleep = true;
    verbose = false;
    workers = 1;
    cache_dir = None;
  }

let drained_exit_code = 0
let failed_jobs_exit_code = 31
let shutdown_exit_code = 30

exception Shutdown

let jobs_in = Work.jobs_in
let result_path = Work.result_path
let read_result = Work.read_result

(* ------------------------------------------------------------------ *)
(* the drain loop                                                      *)

let run ?(notify = fun _ -> ()) cfg =
  let spool = cfg.spool in
  let log fmt =
    Printf.ksprintf (fun s -> if cfg.verbose then Printf.eprintf "[serve] %s\n%!" s) fmt
  in
  let states = ref (Journal.fold (Journal.replay ~spool)) in
  let journal = Journal.open_ ~spool in
  let record event job =
    let r = { Journal.job; event } in
    Journal.append journal r;
    states := Journal.apply !states r;
    notify r
  in
  let stop = ref false in
  let install signal = Sys.signal signal (Sys.Signal_handle (fun _ -> stop := true)) in
  let saved_term = install Sys.sigterm in
  let saved_int = install Sys.sigint in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm saved_term;
      Sys.set_signal Sys.sigint saved_int;
      Journal.close journal)
    (fun () ->
      (* admit new spool files *)
      let jobs = jobs_in ~spool in
      List.iter (fun job -> if Journal.find !states job = None then record Journal.Queued job) jobs;
      (* each job's next attempt number, per the journal: completed and
         dead jobs are done; a Running state at startup is a crashed
         attempt (the process died holding the job) with the same
         recovery as a graceful abandon — the attempt is consumed,
         resume from the checkpoint *)
      let next_attempt job =
        match Journal.find !states job with
        | Some (Journal.Completed _) | Some (Journal.Dead _) -> None
        | Some (Journal.Pending { attempts }) -> Some (attempts + 1)
        | Some (Journal.Running { attempt }) | Some (Journal.Interrupted { attempt }) ->
            Some (attempt + 1)
        | None -> Some 1
      in
      let exhausted job =
        record
          (Journal.Failed
             { attempt = cfg.max_attempts; error_class = "retries-exhausted"; transient = false;
               backoff = 0 })
          job
      in
      let exit_code () =
        if !stop then shutdown_exit_code
        else if Journal.exists (function Journal.Dead _ -> true | _ -> false) !states then
          failed_jobs_exit_code
        else drained_exit_code
      in
      if cfg.workers > 1 then begin
        let worklist =
          List.filter_map
            (fun job ->
              match next_attempt job with
              | None -> None
              | Some attempt when attempt > cfg.max_attempts ->
                  exhausted job;
                  None
              | Some attempt -> Some (job, attempt))
            jobs
        in
        Pool.drain cfg ~record ~jobs:worklist ~stop ~log:(fun s -> log "%s" s);
        exit_code ()
      end
      else begin
        (* one attempt; returns [`Done | `Dead | `Retry of int] *)
        let attempt_once job ~attempt =
          record (Journal.Started { attempt }) job;
          match
            Work.attempt cfg ~stop:(fun () -> !stop) ~log:(fun s -> log "%s" s) ~job ~attempt
          with
          | exception Work.Interrupted ->
              record (Journal.Abandoned { attempt }) job;
              log "%s attempt %d: abandoned on shutdown (checkpoint kept)" job attempt;
              raise Shutdown
          | Work.Solved (s, cached) ->
              record
                (Journal.Done
                   {
                     attempt;
                     makespan = s.Rtt_engine.Engine.makespan;
                     budget_used = s.Rtt_engine.Engine.budget_used;
                     fuel = s.Rtt_engine.Engine.fuel_spent;
                     cached;
                   })
                job;
              `Done
          | Work.Failed { error_class; transient; backoff } ->
              if transient && attempt < cfg.max_attempts then begin
                record (Journal.Failed { attempt; error_class; transient = true; backoff }) job;
                `Retry backoff
              end
              else begin
                record (Journal.Failed { attempt; error_class; transient = false; backoff = 0 }) job;
                `Dead
              end
        in
        let rec drive job ~attempt =
          if !stop then raise Shutdown;
          if attempt > cfg.max_attempts then exhausted job
          else
            match attempt_once job ~attempt with
            | `Done | `Dead -> ()
            | `Retry backoff ->
                if cfg.sleep then Unix.sleepf (float_of_int backoff /. 1000.);
                drive job ~attempt:(attempt + 1)
        in
        match
          List.iter
            (fun job ->
              match next_attempt job with
              | None -> ()
              | Some attempt -> drive job ~attempt)
            jobs
        with
        | () -> exit_code ()
        | exception Shutdown ->
            log "shutdown requested; exiting";
            shutdown_exit_code
      end)

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)

(* report every spool file as if [run] had just admitted it: a Queued
   leaves a journaled job as it is, so only unseen files are added,
   pending, after every journaled job *)
let report ~spool =
  List.fold_left
    (fun states job -> Journal.apply states { Journal.job; event = Journal.Queued })
    (Journal.fold (Journal.replay ~spool))
    (jobs_in ~spool)

let render_report ~spool =
  let entries = Journal.to_list (report ~spool) in
  let buf = Buffer.create 256 in
  let width =
    List.fold_left (fun acc (job, _) -> max acc (String.length job)) (String.length "job") entries
  in
  Buffer.add_string buf (Printf.sprintf "%-*s | state\n" width "job");
  List.iter
    (fun (job, status) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s | %s\n" width job (Format.asprintf "%a" Journal.pp_status status)))
    entries;
  let hits =
    List.fold_left
      (fun acc -> function _, Journal.Completed { cached = true; _ } -> acc + 1 | _ -> acc)
      0 entries
  in
  if hits > 0 then Buffer.add_string buf (Printf.sprintf "%d completed from cache\n" hits);
  Buffer.contents buf
