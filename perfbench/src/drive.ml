(* The load phases, driven from this single-threaded process over the
   daemon's socket.

   Every submit is pipelined with a wait for the same job id (the id is
   the instance fingerprint, which the client computes itself), so one
   connection carries both the durable acknowledgement and the answer.
   [accepted] and [shed] answer submits in request order; results,
   failures and unknown-job errors carry the job id. *)

module Protocol = Rtt_net.Protocol

type outcome = {
  ack : float option array;  (** seconds from due time to [accepted] *)
  result : float option array;  (** seconds from due time to [result] *)
  rendered : string option array;
  failed : bool array;  (** shed, errored, failed or never answered *)
}

let outcome n =
  {
    ack = Array.make n None;
    result = Array.make n None;
    rendered = Array.make n None;
    failed = Array.make n false;
  }

(* Bookkeeping shared by both job phases. Request slot [k] is job
   [jobs.(first + k)]. *)
type tracker = {
  conn : Wire.t;
  jobs : Inputs.job array;
  first : int;
  out : outcome;
  due : float array;
  fifo : int Queue.t;  (* slots whose submit is not yet answered *)
  by_id : (string, int) Hashtbl.t;  (* slots whose result is outstanding *)
  mutable open_ : int;  (* slots not yet finished *)
  mutable completed : (float * int) list;  (* (time, slot) of each result *)
  mutable slices : Slices.t option;  (* the timed window, once it has started *)
}

let tracker conn jobs ~first ~count =
  {
    conn;
    jobs;
    first;
    out = outcome count;
    due = Array.make count 0.;
    fifo = Queue.create ();
    by_id = Hashtbl.create 256;
    open_ = 0;
    completed = [];
    slices = None;
  }

let submit tr k ~due =
  let j = tr.jobs.(tr.first + k) in
  tr.due.(k) <- due;
  Queue.push k tr.fifo;
  Hashtbl.replace tr.by_id j.Inputs.id k;
  tr.open_ <- tr.open_ + 1;
  Wire.send tr.conn (Protocol.Submit { name = string_of_int (tr.first + k); body = j.Inputs.body });
  Wire.send tr.conn (Protocol.Wait { id = j.Inputs.id })

let finish tr k ~failed =
  if Hashtbl.mem tr.by_id tr.jobs.(tr.first + k).Inputs.id then begin
    Hashtbl.remove tr.by_id tr.jobs.(tr.first + k).Inputs.id;
    tr.open_ <- tr.open_ - 1;
    if failed then tr.out.failed.(k) <- true
  end

let handle tr ~now = function
  | Ok (Protocol.Accepted { id }) -> (
      match Queue.take_opt tr.fifo with
      | Some k when tr.jobs.(tr.first + k).Inputs.id = id -> tr.out.ack.(k) <- Some (now -. tr.due.(k))
      | Some k -> finish tr k ~failed:true
      | None -> ())
  | Ok (Protocol.Shed _) -> Option.iter (fun k -> finish tr k ~failed:true) (Queue.take_opt tr.fifo)
  | Ok (Protocol.Result { id; rendered }) -> (
      match Hashtbl.find_opt tr.by_id id with
      | Some k ->
          tr.out.result.(k) <- Some (now -. tr.due.(k));
          tr.out.rendered.(k) <- Some rendered;
          tr.completed <- (now, k) :: tr.completed;
          finish tr k ~failed:false
      | None -> ())
  | Ok (Protocol.Failed { id; _ }) | Ok (Protocol.Errored { code = "unknown-job"; msg = id }) ->
      Option.iter (fun k -> finish tr k ~failed:true) (Hashtbl.find_opt tr.by_id id)
  | Ok (Protocol.Errored _) | Ok _ | Error _ ->
      (* a request-level error answers the oldest unanswered submit *)
      Option.iter (fun k -> finish tr k ~failed:true) (Queue.take_opt tr.fifo)

let pump tr ~timeout =
  let answers = Wire.poll tr.conn ~timeout in
  let now = Unix.gettimeofday () in
  Option.iter (fun s -> Slices.tick s now) tr.slices;
  List.iter (handle tr ~now) answers

(* Waits for every outstanding answer; whatever has not arrived by the
   deadline counts as failed. *)
let drain tr ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  while tr.open_ > 0 && Unix.gettimeofday () < deadline do
    pump tr ~timeout:(deadline -. Unix.gettimeofday ())
  done;
  Hashtbl.iter (fun _ k -> tr.out.failed.(k) <- true) tr.by_id

type open_loop = {
  o : outcome;
  due : float array;  (* each slot's due time *)
  late : float array;
  slices : Slices.t;  (* the schedule's span, sliced *)
}

(* Open loop: [count] jobs at [rate] per second, each timed from its
   due time. *)
let open_loop conn jobs ~first ~count ~rate =
  let tr = tracker conn jobs ~first ~count in
  let clock = { Sched.now = Unix.gettimeofday; wait = (fun dt -> pump tr ~timeout:dt) } in
  let t0 = Unix.gettimeofday () in
  let slices = Slices.create ~t0 ~seconds:(float_of_int count /. rate) () in
  tr.slices <- Some slices;
  let late = Sched.open_loop clock ~t0 ~rate ~count ~send:(fun k ~due -> submit tr k ~due) in
  drain tr ~timeout:30.;
  Slices.finish slices;
  { o = tr.out; due = tr.due; late; slices }

type closed_loop = {
  c : outcome;
  sent_c : int;
  done_at : float list;  (* time of each result inside the window *)
  window_s : float;
  slices : Slices.t;
}

(* Closed loop: keep [window] jobs in flight for [seconds]; throughput
   counts the results that arrive inside the window. *)
let closed_loop conn jobs ~first ~available ~window ~seconds =
  let tr = tracker conn jobs ~first ~count:available in
  let t0 = Unix.gettimeofday () in
  let stop = t0 +. seconds in
  let slices = Slices.create ~t0 ~seconds () in
  tr.slices <- Some slices;
  let next = ref 0 in
  let refill () =
    let now = Unix.gettimeofday () in
    while tr.open_ < window && !next < available && now < stop do
      submit tr !next ~due:now;
      incr next
    done
  in
  refill ();
  while Unix.gettimeofday () < stop && tr.open_ > 0 do
    pump tr ~timeout:(stop -. Unix.gettimeofday ());
    refill ()
  done;
  let t_end = Float.min stop (Unix.gettimeofday ()) in
  let done_at = List.filter_map (fun (t, _) -> if t <= t_end then Some t else None) tr.completed in
  Slices.finish slices;
  drain tr ~timeout:30.;
  { c = tr.out; sent_c = !next; done_at; window_s = t_end -. t0; slices }

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)

type step = {
  mirror : Inputs.mirror;  (* the session after this step's mutation *)
  answer : string option;  (* the session-result's rendering *)
}

type sessions = {
  elapsed : float;
  slices : Slices.t;
  solved_at : float list;  (* time of each session-result *)
  mutate : (float * float) list;  (* (sent, seconds to session-ok) per session.mutate *)
  resolve : (float * float) list;  (* (sent, seconds to session-result) per session.solve *)
  steps : step list;  (* oldest first *)
  failures : int;
  attempted : int;
}

type live = { id : string; mutable mirror : Inputs.mirror; mutable n_steps : int }

let open_sessions conn ~seed ~count =
  List.init count (fun i ->
      let id = Printf.sprintf "s%d" i in
      let body = Inputs.session_seed ~seed i in
      Wire.send conn (Protocol.Session_open { sid = id; body = Some body });
      match Wire.next conn ~deadline:(Unix.gettimeofday () +. 30.) with
      | Some (Ok (Protocol.Session_ok _)) -> { id; mirror = Inputs.mirror_of_seed body; n_steps = 0 }
      | _ -> failwith ("session.open " ^ id ^ " was not acknowledged"))

(* Closed loop over the sessions, round-robin: one mutation from the
   fixed cycle, then one re-solve, per step. *)
let session_loop ?(max_steps = max_int) conn live ~seconds =
  let t0 = Unix.gettimeofday () in
  let stop = t0 +. seconds in
  let slices = Slices.create ~t0 ~seconds () in
  let mutate = ref [] and resolve = ref [] and steps = ref [] and solved_at = ref [] in
  let failures = ref 0 and attempted = ref 0 in
  let sessions = Array.of_list live in
  let i = ref 0 in
  let request req =
    incr attempted;
    let sent = Unix.gettimeofday () in
    Slices.tick slices sent;
    Wire.send conn req;
    let r = Wire.next conn ~deadline:(sent +. 30.) in
    ((sent, Unix.gettimeofday () -. sent), r)
  in
  while !i < max_steps && Unix.gettimeofday () < stop do
    let s = sessions.(!i mod Array.length sessions) in
    incr i;
    let op = Inputs.next_op s.mirror s.n_steps in
    s.n_steps <- s.n_steps + 1;
    let dt, r =
      request (Protocol.Session_mutate { sid = s.id; op = Rtt_session.Session.op_to_string op })
    in
    match r with
    | Some (Ok (Protocol.Session_ok _)) ->
        mutate := dt :: !mutate;
        s.mirror <- Inputs.apply s.mirror op;
        let dt, r = request (Protocol.Session_solve { sid = s.id }) in
        let answer =
          match r with
          | Some (Ok (Protocol.Session_result { rendered; _ })) ->
              resolve := dt :: !resolve;
              solved_at := Unix.gettimeofday () :: !solved_at;
              Some rendered
          | _ ->
              incr failures;
              None
        in
        steps := { mirror = s.mirror; answer } :: !steps
    | _ ->
        (* a refused mutation changes nothing, so the mirror stays put *)
        incr failures
  done;
  Slices.finish slices;
  {
    elapsed = Unix.gettimeofday () -. t0;
    slices;
    solved_at = !solved_at;
    mutate = List.rev !mutate;
    resolve = List.rev !resolve;
    steps = List.rev !steps;
    failures = !failures;
    attempted = !attempted;
  }
