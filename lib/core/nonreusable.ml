open Rtt_dag
open Rtt_duration
open Rtt_num
open Rtt_lp

type t = {
  lp_makespan : Rat.t;
  lp_budget_used : Rat.t;
  makespan : int;
  budget_used : int;
  allocation : int array;
  makespan_bound : Rat.t;
  budget_bound : Rat.t;
}

(* Skutella-style LP on D'': per-edge upgrade amounts x_e in [0, r_e],
   sum over all edges <= B, event-time precedence constraints. Unlike
   LP 6-10 there is no flow conservation - an upgrade is consumed. *)
let lp_relax (tr : Transform.t) ~budget =
  let lp = Lp.create () in
  let ne = Array.length tr.Transform.edges in
  let nv = Dag.n_vertices tr.Transform.graph in
  let xv =
    Array.map
      (fun (e : Transform.edge) -> match e.Transform.upgrade with Some _ -> Some (Lp.var lp "x") | None -> None)
      tr.Transform.edges
  in
  let tv = Array.init nv (fun _ -> Lp.var lp "T") in
  let tx v = Linexpr.var (Lp.var_index tv.(v)) in
  Lp.add_eq lp (tx tr.Transform.source) (Linexpr.const Rat.zero);
  Array.iteri
    (fun i (e : Transform.edge) ->
      let dur =
        match (e.Transform.upgrade, xv.(i)) with
        | Some r, Some x ->
            Lp.add_le lp (Linexpr.var (Lp.var_index x)) (Linexpr.const (Rat.of_int r));
            let slope = Rat.div (Rat.of_int e.Transform.t0) (Rat.of_int r) in
            Linexpr.add
              (Linexpr.const (Rat.of_int e.Transform.t0))
              (Linexpr.scale (Rat.neg slope) (Linexpr.var (Lp.var_index x)))
        | _ -> Linexpr.const (Rat.of_int e.Transform.t0)
      in
      Lp.add_le lp (Linexpr.add (tx e.Transform.src) dur) (tx e.Transform.dst))
    tr.Transform.edges;
  let total =
    Array.fold_left
      (fun acc x -> match x with Some x -> Linexpr.add acc (Linexpr.var (Lp.var_index x)) | None -> acc)
      Linexpr.zero xv
  in
  Lp.add_le lp total (Linexpr.const (Rat.of_int budget));
  match Lp.minimize lp (tx tr.Transform.sink) with
  | Lp.Optimal s ->
      let x_of i = match xv.(i) with Some x -> s.Lp.value x | None -> Rat.zero in
      (Array.init ne x_of, s.Lp.value tv.(tr.Transform.sink), s.Lp.expr_value total)
  | Lp.Infeasible | Lp.Unbounded -> assert false (* zero upgrades always feasible *)

let min_makespan p ~budget ~alpha =
  if budget < 0 then invalid_arg "Nonreusable.min_makespan: negative budget";
  if Rat.(alpha <= Rat.zero) || Rat.(alpha >= Rat.one) then
    invalid_arg "Nonreusable.min_makespan: alpha must be in (0, 1)";
  let tr = Transform.of_problem p in
  let x, lp_makespan, lp_budget = lp_relax tr ~budget in
  (* alpha-rounding, exactly as in Section 3.1 *)
  let upgraded =
    Array.mapi
      (fun i (e : Transform.edge) ->
        match e.Transform.upgrade with
        | None -> false
        | Some _ ->
            let t = Lp_relax.edge_duration e x.(i) in
            Rat.(t < Rat.mul alpha (Rat.of_int e.Transform.t0)))
      tr.Transform.edges
  in
  let allocation = Transform.allocation_of_upgrades tr ~upgraded:(fun i -> upgraded.(i)) in
  let makespan =
    Transform.makespan_with tr ~edge_time:(fun i ->
        if upgraded.(i) then 0 else tr.Transform.edges.(i).Transform.t0)
  in
  let budget_used = Array.fold_left ( + ) 0 allocation in
  {
    lp_makespan;
    lp_budget_used = lp_budget;
    makespan;
    budget_used;
    allocation;
    makespan_bound = Rat.div lp_makespan alpha;
    budget_bound = Rat.div lp_budget (Rat.sub Rat.one alpha);
  }

let satisfies_guarantees t =
  Rat.(Rat.of_int t.makespan <= t.makespan_bound)
  && Rat.(Rat.of_int t.budget_used <= t.budget_bound)

let exact ?(max_states = 2_000_000) (p : Problem.t) ~budget =
  if budget < 0 then invalid_arg "Nonreusable.exact: negative budget";
  let n = Problem.n_jobs p in
  let options =
    Array.init n (fun v ->
        List.filter (fun (r, _) -> r <= budget) (Duration.tuples p.Problem.durations.(v)))
  in
  let states =
    Array.fold_left (fun acc o -> if acc > max_states then acc else acc * max 1 (List.length o)) 1 options
  in
  if states > max_states then raise (Exact.Too_large states);
  let best = ref { Exact.makespan = max_int; budget_used = 0; allocation = Array.make n 0 } in
  let plan = Longest_path.plan p.Problem.dag in
  let alloc = Array.make n 0 and time = Array.make n 0 in
  let rec go v spent =
    if spent > budget then ()
    else if v = n then begin
      let ms = Longest_path.plan_makespan plan time in
      if ms < !best.Exact.makespan then
        best := { Exact.makespan = ms; budget_used = spent; allocation = Array.copy alloc }
    end
    else
      List.iter
        (fun (r, t) ->
          alloc.(v) <- r;
          time.(v) <- t;
          go (v + 1) (spent + r))
        options.(v)
  in
  go 0 0;
  assert (!best.Exact.makespan < max_int);
  !best
