(* The graph in the shape the longest-path pass reads: vertices in
   topological order, and the predecessors of [order.(i)] at
   [preds.(start.(i)) .. preds.(start.(i + 1) - 1)]. [finish] is the
   pass's scratch, indexed by vertex. *)
type plan = { order : int array; start : int array; preds : int array; finish : int array }

let plan g =
  let order = Array.of_list (Dag.topo_sort g) in
  let n = Array.length order in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i v -> start.(i + 1) <- start.(i) + List.length (Dag.pred g v)) order;
  let preds = Array.make start.(n) 0 in
  Array.iteri (fun i v -> List.iteri (fun k u -> preds.(start.(i) + k) <- u) (Dag.pred g v)) order;
  { order; start; preds; finish = Array.make n 0 }

let plan_makespan { order; start; preds; finish } weights =
  let makespan = ref 0 in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    let ready = ref 0 in
    for k = start.(i) to start.(i + 1) - 1 do
      let f = finish.(preds.(k)) in
      if f > !ready then ready := f
    done;
    let f = !ready + weights.(v) in
    finish.(v) <- f;
    if f > !makespan then makespan := f
  done;
  !makespan

let finish_times g ~weight =
  let p = plan g in
  ignore (plan_makespan p (Array.init (Dag.n_vertices g) weight));
  p.finish

let makespan g ~weight = plan_makespan (plan g) (Array.init (Dag.n_vertices g) weight)

let critical_path g ~weight =
  let finish = finish_times g ~weight in
  let n = Dag.n_vertices g in
  if n = 0 then (0, [])
  else begin
    let best = ref 0 in
    for v = 1 to n - 1 do
      if finish.(v) > finish.(!best) then best := v
    done;
    (* walk backwards through a predecessor explaining each finish time;
       terminates at a source (no predecessors) *)
    let rec walk v acc =
      let acc = v :: acc in
      let target = finish.(v) - weight v in
      match List.find_opt (fun u -> finish.(u) = target) (Dag.pred g v) with
      | Some u -> walk u acc
      | None -> acc
    in
    (finish.(!best), walk !best [])
  end

let edge_finish_times g ~weight =
  let order = Dag.topo_sort g in
  let time = Array.make (Dag.n_vertices g) 0 in
  List.iter
    (fun v ->
      let t = List.fold_left (fun acc u -> max acc (time.(u) + weight u v)) 0 (Dag.pred g v) in
      time.(v) <- t)
    order;
  time

let edge_makespan g ~weight = Array.fold_left max 0 (edge_finish_times g ~weight)
