open Rtt_dag
open Rtt_num
open Rtt_lp
open Rtt_budget

type solution = { flow : Rat.t array; times : Rat.t array; makespan : Rat.t; budget_used : Rat.t }

let edge_duration (e : Transform.edge) f =
  match e.upgrade with
  | None -> Rat.of_int e.t0
  | Some r ->
      let t0 = Rat.of_int e.t0 in
      Rat.max Rat.zero (Rat.sub t0 (Rat.mul (Rat.div t0 (Rat.of_int r)) f))

(* Builds the common constraint system; returns (lp, f vars, tv vars,
   budget expression). *)
let build (t : Transform.t) =
  let lp = Lp.create () in
  let ne = Array.length t.edges in
  let nv = Dag.n_vertices t.graph in
  let fv = Array.init ne (fun i -> Lp.var lp (Printf.sprintf "f%d" i)) in
  let tv = Array.init nv (fun v -> Lp.var lp (Printf.sprintf "T%d" v)) in
  let fx i = Linexpr.var (Lp.var_index fv.(i)) in
  let tx v = Linexpr.var (Lp.var_index tv.(v)) in
  let const_i i = Linexpr.const (Rat.of_int i) in
  (* T_source = 0 *)
  Lp.add_eq lp (tx t.source) (const_i 0);
  Array.iteri
    (fun i (e : Transform.edge) ->
      (* capacity on two-tuple edges *)
      (match e.upgrade with
      | Some r -> Lp.add_le lp (fx i) (const_i r)
      | None -> ());
      (* precedence: T_src + t_e(f) <= T_dst *)
      let dur_expr =
        match e.upgrade with
        | None -> const_i e.t0
        | Some r ->
            let slope = Rat.div (Rat.of_int e.t0) (Rat.of_int r) in
            Linexpr.add (const_i e.t0) (Linexpr.scale (Rat.neg slope) (fx i))
      in
      Lp.add_le lp (Linexpr.add (tx e.src) dur_expr) (tx e.dst))
    t.edges;
  (* conservation at internal vertices *)
  let inbound = Array.make nv [] and outbound = Array.make nv [] in
  Array.iteri
    (fun i (e : Transform.edge) ->
      inbound.(e.dst) <- i :: inbound.(e.dst);
      outbound.(e.src) <- i :: outbound.(e.src))
    t.edges;
  for v = 0 to nv - 1 do
    if v <> t.source && v <> t.sink then begin
      let sum l = List.fold_left (fun acc i -> Linexpr.add acc (fx i)) Linexpr.zero l in
      Lp.add_eq lp (sum inbound.(v)) (sum outbound.(v))
    end
  done;
  let budget_expr = List.fold_left (fun acc i -> Linexpr.add acc (fx i)) Linexpr.zero outbound.(t.source) in
  (lp, fv, tv, fx, tx, budget_expr)

(* The makespan LP: the common system plus the budget row; the
   objective is T_sink. *)
let makespan_lp (t : Transform.t) ~budget =
  let lp, fv, tv, _fx, tx, budget_expr = build t in
  Lp.add_le lp budget_expr (Linexpr.const (Rat.of_int budget));
  (lp, fv, tv, tx t.sink, budget_expr)

let dimensions (t : Transform.t) =
  let lp, _fv, _tv, _obj, _budget_expr = makespan_lp t ~budget:0 in
  (Lp.n_vars lp, Lp.n_constraints lp)

let makespan_rows (t : Transform.t) ~budget =
  let lp, _fv, _tv, obj, _budget_expr = makespan_lp t ~budget in
  let n = Lp.n_vars lp in
  (n, Lp.rows lp, Lp.to_dense n obj)

let extract (t : Transform.t) (s : Lp.solution) fv tv budget_expr =
  let flow = Array.map (fun v -> s.Lp.value v) fv in
  let times = Array.map (fun v -> s.Lp.value v) tv in
  { flow; times; makespan = times.(t.sink); budget_used = s.Lp.expr_value budget_expr }

let min_makespan (t : Transform.t) ~budget =
  if budget < 0 then invalid_arg "Lp_relax.min_makespan: negative budget";
  let lp, fv, tv, obj, budget_expr = makespan_lp t ~budget in
  match Lp.minimize lp obj with
  | Lp.Optimal s -> extract t s fv tv budget_expr
  | Lp.Infeasible ->
      (* zero flow is always feasible, so this only happens when the
         simplex itself misbehaves (or a fault is injected there) *)
      raise (Budget.Solver_failure { stage = "lp"; reason = "makespan LP reported infeasible" })
  | Lp.Unbounded ->
      raise (Budget.Solver_failure { stage = "lp"; reason = "makespan LP reported unbounded" })

let min_resource (t : Transform.t) ~target =
  let lp, fv, tv, _fx, tx, budget_expr = build t in
  Lp.add_le lp (tx t.sink) (Linexpr.const target);
  match Lp.minimize lp budget_expr with
  | Lp.Optimal s -> Some (extract t s fv tv budget_expr)
  | Lp.Infeasible -> None
  | Lp.Unbounded ->
      (* the budget expression is bounded below by 0 *)
      raise (Budget.Solver_failure { stage = "lp"; reason = "resource LP reported unbounded" })
