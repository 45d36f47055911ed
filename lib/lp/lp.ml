open Rtt_num

type var = int

type stored = { expr : Linexpr.t; relation : Simplex.relation; bound : Rat.t }

type t = { mutable names : string list; mutable n : int; mutable constrs : stored list }

let create () = { names = []; n = 0; constrs = [] }

let var lp name =
  let v = lp.n in
  lp.n <- lp.n + 1;
  lp.names <- name :: lp.names;
  v

let var_index v = v
let expr_of_var v = Linexpr.var v
let n_vars lp = lp.n

let add lp relation a b =
  (* a R b  <=>  (a - b without constant) R (const b - const a) *)
  let diff = Linexpr.sub a b in
  let bound = Rat.neg (Linexpr.constant diff) in
  let expr = Linexpr.sub diff (Linexpr.const (Linexpr.constant diff)) in
  lp.constrs <- { expr; relation; bound } :: lp.constrs

let add_le lp a b = add lp Simplex.Le a b
let add_ge lp a b = add lp Simplex.Ge a b
let add_eq lp a b = add lp Simplex.Eq a b
let n_constraints lp = List.length lp.constrs

type solution = { objective : Rat.t; value : var -> Rat.t; expr_value : Linexpr.t -> Rat.t }
type outcome = Optimal of solution | Infeasible | Unbounded

(* Fill a preallocated row straight from the sparse map — no
   intermediate bindings list per constraint. *)
let fill_dense arr n e = Linexpr.iter_terms (fun v c -> if v < n then arr.(v) <- c) e

let to_dense n e =
  let arr = Array.make n Rat.zero in
  fill_dense arr n e;
  arr

(* Already ascending, nonzero, and (after the guard) in range — exactly
   the shape Simplex.sparse_constr requires. *)
let to_sparse n e = List.filter (fun (v, _) -> v < n) (Linexpr.terms e)

let rows lp =
  let n = lp.n in
  (* constraints are stored newest-first; rev_map restores build order *)
  List.rev_map
    (fun { expr; relation; bound } ->
      { Simplex.sp_terms = to_sparse n expr; sp_relation = relation; sp_rhs = bound })
    lp.constrs

let solve direction lp obj =
  let n = lp.n in
  let constraints = rows lp in
  let obj_dense = to_dense n obj in
  let obj_const = Linexpr.constant obj in
  let result =
    match direction with
    | `Min -> Simplex.minimize_sparse ~n_vars:n constraints ~objective:obj_dense
    | `Max -> Simplex.maximize_sparse ~n_vars:n constraints ~objective:obj_dense
  in
  match result with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Optimal { objective; solution } ->
      let value v = solution.(v) in
      Optimal
        {
          objective = Rat.add objective obj_const;
          value;
          expr_value = (fun e -> Linexpr.eval e value);
        }

let minimize lp obj = solve `Min lp obj
let maximize lp obj = solve `Max lp obj

let pp_outcome fmt = function
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Unbounded -> Format.pp_print_string fmt "unbounded"
  | Optimal { objective; _ } -> Format.fprintf fmt "optimal %a" Rat.pp objective
