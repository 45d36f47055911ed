(* Seeded inputs for the three workloads.

   Every instance is a function of (seed, workload, index) alone, so
   the untraced run, the traced replay and the answer check all see
   the same bytes, and a longer run only appends instances. *)

open Rtt_dag
open Rtt_duration
open Rtt_core
open Rtt_engine

let rng ~seed ~tag k = Random.State.make [| seed; tag; k |]

(* A layered race DAG with one extra constant-duration job after the
   sink. Its duration is unique per index, which makes every instance's
   fingerprint distinct without touching the part the solver works on. *)
let with_tail rng ~layers ~width ~edge_prob ~tail ~duration =
  let g = Gen.layered rng ~layers ~width ~edge_prob in
  let sink = List.hd (Dag.sinks g) in
  let t = Dag.add_vertex g in
  Dag.add_edge g sink t;
  let works = Problem.works g in
  Problem.make g ~durations:(fun v ->
      if v = t then Duration.constant tail else duration rng ~work:works.(v))

let binary _rng ~work = Binary_split.to_duration ~work

(* General non-increasing step durations, the duration model of the
   bench's E1 section. *)
let steps rng ~work:_ =
  let base = 2 + Random.State.int rng 9 in
  let rec go r t k acc =
    if k = 0 || t = 0 then List.rev acc
    else
      let r' = r + 1 + Random.State.int rng 3 in
      let t' = max 0 (t - 1 - Random.State.int rng 4) in
      if t' >= t then List.rev acc else go r' t' (k - 1) ((r', t') :: acc)
  in
  Duration.make ((0, base) :: go 0 base (Random.State.int rng 3) [])

type job_kind = Small | Mid

let instance ~seed kind k =
  match kind with
  | Small ->
      with_tail (rng ~seed ~tag:1 k) ~layers:3 ~width:3 ~edge_prob:0.4 ~tail:(k + 1)
        ~duration:binary
  | Mid ->
      with_tail (rng ~seed ~tag:2 k) ~layers:6 ~width:5 ~edge_prob:0.3 ~tail:(k + 1)
        ~duration:steps

type job = {
  body : string;  (** The instance text as submitted. *)
  id : string;  (** Its fingerprint: the daemon's job id. *)
  problem : Problem.t Lazy.t;
      (** The instance as a worker loads it back from the spool, which
          is what the daemon solves; needed only to check answers. *)
}

let load_exn text =
  match Engine.load_string text with
  | Ok p -> p
  | Error e -> failwith ("generated instance does not load: " ^ Error.to_string e)

let job (cfg : Rtt_service.Work.config) p =
  let body = Io.to_string p in
  let submitted = load_exn body in
  {
    body;
    id = Rtt_service.Work.digest_of cfg submitted;
    problem = lazy (load_exn (Io.to_string (load_exn body)));
  }

let jobs cfg ~seed kind ~count = Array.init count (fun k -> job cfg (instance ~seed kind k))

(* Number of repeated fingerprints; 0 means every job is distinct. *)
let duplicates jobs =
  let seen = Hashtbl.create (Array.length jobs) in
  Array.fold_left
    (fun dups j ->
      if Hashtbl.mem seen j.id then dups + 1
      else begin
        Hashtbl.add seen j.id ();
        dups
      end)
    0 jobs

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)

(* A hub race DAG: chains of feeders fanning into high in-degree hubs,
   where binary reducers make the tradeoff matter. *)
let hub_problem rng ~hubs ~fan =
  let g = Dag.create () in
  let s = Dag.add_vertex g in
  let prev = ref s in
  for _ = 1 to hubs do
    let hub = Dag.add_vertex g in
    let feeders = List.init (fan + Random.State.int rng fan) (fun _ -> Dag.add_vertex g) in
    List.iter
      (fun f ->
        Dag.add_edge g !prev f;
        Dag.add_edge g f hub)
      feeders;
    prev := hub
  done;
  let t = Dag.add_vertex g in
  Dag.add_edge g !prev t;
  Problem.of_race_dag g Problem.Binary

let session_seed ~seed i = Io.to_string (hub_problem (rng ~seed ~tag:3 i) ~hubs:3 ~fan:8)

(* The text-level state of a session, mirroring how the session layer
   renders its instance: one line per non-trivial duration in vertex
   order, then the edges in the loaded DAG's order. The answer check
   solves this text cold and compares with the daemon's warm answer. *)
type mirror = {
  n : int;
  durs : (int * (int * int) list) list;
  edges : (int * int) list;
  budget : int;
  tradeoff : int list;  (* vertices whose duration has a tradeoff *)
  original : (int * (int * int) list) list;
}

let mirror_of_seed text =
  let p = load_exn text in
  let durs = ref [] in
  Array.iteri
    (fun v d ->
      if not (Duration.is_constant d) || Duration.base_time d <> 0 then
        durs := (v, Duration.tuples d) :: !durs)
    p.Problem.durations;
  let durs = List.rev !durs in
  {
    n = Problem.n_jobs p;
    durs;
    edges = Dag.edges p.Problem.dag;
    budget = 0;
    tradeoff = List.filter_map (fun (v, t) -> if List.length t > 1 then Some v else None) durs;
    original = durs;
  }

let mirror_text m =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "vertices %d\n" m.n);
  List.iter
    (fun (v, tuples) ->
      Buffer.add_string buf (Printf.sprintf "duration %d" v);
      List.iter (fun (r, t) -> Buffer.add_string buf (Printf.sprintf " %d:%d" r t)) tuples;
      Buffer.add_char buf '\n')
    m.durs;
  List.iter (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" u v)) m.edges;
  Buffer.contents buf

(* The fixed mutation cycle, one op per step: a budget sweep, a
   duration change on one tradeoff job (alternating between a slower
   variant and the original), adding a job and removing it again. *)
let next_op m step =
  let cycle = step / 4 in
  match step mod 4 with
  | 0 -> Rtt_session.Session.Set_budget (1 + (cycle mod 6))
  | 1 ->
      let hubs = Array.of_list m.tradeoff in
      let v = hubs.(cycle mod Array.length hubs) in
      let tuples = List.assoc v m.original in
      let tuples =
        if cycle / Array.length hubs mod 2 = 0 then
          match tuples with (0, t0) :: rest -> (0, t0 + 1) :: rest | l -> l
        else tuples
      in
      Rtt_session.Session.Set_duration (v, tuples)
  | 2 -> Rtt_session.Session.Add_job [ (0, 2 + (cycle mod 3)); (1, 1) ]
  | _ -> Rtt_session.Session.Remove_job (m.n - 1)

let apply m = function
  | Rtt_session.Session.Set_budget b -> { m with budget = b }
  | Set_duration (v, tuples) ->
      let durs = List.filter (fun (u, _) -> u <> v) m.durs @ [ (v, tuples) ] in
      { m with durs = List.sort (fun (a, _) (b, _) -> compare a b) durs }
  | Add_job tuples -> { m with n = m.n + 1; durs = m.durs @ [ (m.n, tuples) ] }
  | Remove_job v ->
      (* only ever the job the cycle just added: no edges, nothing to
         renumber *)
      { m with n = m.n - 1; durs = List.filter (fun (u, _) -> u <> v) m.durs }
  | Seed _ | Add_edge _ | Set_alpha _ -> invalid_arg "Inputs.apply: not in the cycle"
