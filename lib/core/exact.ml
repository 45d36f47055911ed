open Rtt_dag
open Rtt_duration
open Rtt_budget

type t = { makespan : int; budget_used : int; allocation : int array }

exception Too_large of int

let check_size ~max_states options =
  let states =
    Array.fold_left
      (fun acc opts ->
        let n = List.length opts in
        if acc > max_states then acc else acc * max 1 n)
      1 options
  in
  if states > max_states then raise (Too_large states)

(* Per-vertex candidate allocations: the duration function's step points
   not exceeding the resource cap (no more than cap units can ever reach
   one vertex). *)
let options_of (p : Problem.t) ~cap =
  Array.init (Problem.n_jobs p) (fun v ->
      let tuples = Duration.tuples p.durations.(v) in
      match List.filter (fun (r, _) -> r <= cap) tuples with
      | [] -> [ (0, Duration.base_time p.durations.(v)) ]
      | l -> l)

(* The search's per-node weights: at the node deciding vertex [v],
   vertices [0 .. v - 1] hold their chosen duration and the rest their
   best one. The longest path over them lower-bounds the makespan of
   any completion, and at a leaf it is the makespan. [descend] sets a
   vertex's weight for each option and restores its best time after
   the last one, so the array is right at every node. *)
let descend weights best_time v options go =
  List.iter
    (fun (r, t) ->
      weights.(v) <- t;
      go r)
    options;
  weights.(v) <- best_time.(v)

(* Incumbent snapshots: the branch-and-bound state worth persisting is
   the best solution found so far. A resumed search primed with it prunes
   from the first node with the incumbent's makespan as upper bound, so
   every node it visits would also have been visited by the cold run —
   same final answer (strict-improvement updates preserve the search
   order's first optimum), strictly less fuel. *)
let snapshot_of { makespan; budget_used; allocation } =
  Printf.sprintf "exact1 %d %d %s" makespan budget_used
    (String.concat "," (Array.to_list (Array.map string_of_int allocation)))

let allocation_of_snapshot s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "exact1"; _; _; alloc ] -> (
      let parts = String.split_on_char ',' alloc in
      match List.map int_of_string_opt parts with
      | ints when List.for_all Option.is_some ints ->
          Some (Array.of_list (List.map Option.get ints))
      | _ -> None
      | exception _ -> None)
  | _ -> None

let min_makespan ?(max_states = 2_000_000) ?warm_start ?warm_hint (p : Problem.t) ~budget =
  if budget < 0 then invalid_arg "Exact.min_makespan: negative budget";
  let options = options_of p ~cap:budget in
  check_size ~max_states options;
  let n = Problem.n_jobs p in
  let best = ref { makespan = max_int; budget_used = 0; allocation = Array.make n 0 } in
  (* a warm start is a hint: silently ignored unless it is a feasible
     allocation for this instance and budget *)
  (match warm_start with
  | Some a when Array.length a = n && Array.for_all (fun r -> r >= 0) a ->
      let used = Schedule.min_budget p a in
      if used <= budget then
        best := { makespan = Schedule.makespan p a; budget_used = used; allocation = Array.copy a }
  | _ -> ());
  (* A warm HINT is weaker than a warm start: it never becomes the
     incumbent, it only caps exploration. A feasible hint of makespan
     m_W proves opt <= m_W, so subtrees whose lower bound exceeds m_W
     cannot contain the optimum — nor any leaf that participates in the
     cold run's final answer, which is the first enumerated feasible
     leaf achieving the optimum and whose ancestors all have lower
     bounds <= opt <= m_W. Every pruned-away leaf has makespan > m_W,
     so the surviving fold over feasible leaves reaches the identical
     final record: same answer as a cold run, strictly less fuel. *)
  let cap = ref max_int in
  (match warm_hint with
  | Some a when Array.length a = n && Array.for_all (fun r -> r >= 0) a ->
      if Schedule.min_budget p a <= budget then cap := Schedule.makespan p a + 1
  | _ -> ());
  let plan = Longest_path.plan p.dag in
  let best_time = Array.map Duration.best_time p.durations in
  let weights = Array.copy best_time and alloc = Array.make n 0 in
  let rec go v =
    Budget.tick ~stage:"exact";
    if !best.makespan < max_int then Budget.checkpoint (fun () -> snapshot_of !best);
    let bound = Longest_path.plan_makespan plan weights in
    if bound >= min !best.makespan !cap then ()
    else if v = n then begin
      (* a leaf's bound is its makespan, and it beats the incumbent *)
      let used = Schedule.min_budget p alloc in
      if used <= budget then
        best := { makespan = bound; budget_used = used; allocation = Array.copy alloc }
    end
    else
      descend weights best_time v options.(v) (fun r ->
          alloc.(v) <- r;
          go (v + 1))
  in
  go 0;
  (* the zero allocation is always feasible, so a solution exists *)
  assert (!best.makespan < max_int);
  !best

let min_resource ?(max_states = 2_000_000) (p : Problem.t) ~target =
  if target < 0 then invalid_arg "Exact.min_resource: negative target";
  let cap = Problem.max_meaningful_budget p in
  let options = options_of p ~cap in
  check_size ~max_states options;
  let n = Problem.n_jobs p in
  let best = ref None in
  let plan = Longest_path.plan p.dag in
  let best_time = Array.map Duration.best_time p.durations in
  let weights = Array.copy best_time and alloc = Array.make n 0 in
  let rec go v =
    Budget.tick ~stage:"exact";
    let bound = Longest_path.plan_makespan plan weights in
    if bound > target then ()
    else if v = n then begin
      let used = Schedule.min_budget p alloc in
      match !best with
      | Some b when b.budget_used <= used -> ()
      | _ -> best := Some { makespan = bound; budget_used = used; allocation = Array.copy alloc }
    end
    else
      descend weights best_time v options.(v) (fun r ->
          alloc.(v) <- r;
          go (v + 1))
  in
  go 0;
  !best
