open Rtt_core
open Rtt_num
open Rtt_budget

type claim = {
  rung : Policy.rung;
  allocation : int array;
  makespan : int;
  budget_used : int;
  budget : int;
  alpha : Rat.t option;
  lp_makespan : Rat.t option;
  lp_budget : Rat.t option;
}

let mismatch what expected got =
  Error (Error.Certificate_mismatch { what; expected; got })

let mismatch_int what expected got = mismatch what (string_of_int expected) (string_of_int got)

(* Re-derive everything the claim asserts from the allocation alone:
   makespan by longest path, resource cost by min-flow, and — when an
   LP lower bound is part of the claim — the rung's proven
   approximation factor. Runs unmetered so validation can neither
   exhaust the caller's fuel nor trip an armed fault. *)
let check (p : Problem.t) (c : claim) =
  Budget.unmetered (fun () ->
      let n = Problem.n_jobs p in
      if Array.length c.allocation <> n then
        mismatch_int "allocation length" n (Array.length c.allocation)
      else if Array.exists (fun r -> r < 0) c.allocation then
        mismatch "allocation sign" "non-negative units" "a negative entry"
      else begin
        let makespan = Schedule.makespan p c.allocation in
        let budget_used = Schedule.min_budget p c.allocation in
        if makespan <> c.makespan then mismatch_int "makespan" c.makespan makespan
        else if budget_used <> c.budget_used then mismatch_int "budget" c.budget_used budget_used
        else begin
          (* Resource-side certificate: single-criteria rungs must fit
             the requested budget; the bi-criteria rungs may exceed it up
             to their proven factor of the LP's use, which itself must
             fit the budget. *)
          let rat_budget_bound bound what =
            if Rat.(Rat.of_int budget_used <= bound) then Ok ()
            else mismatch "budget bound" (Rat.to_string bound ^ what) (string_of_int budget_used)
          in
          let budget_ok =
            match (c.rung, c.alpha, c.lp_budget) with
            | (Policy.Bicriteria | Policy.Binary_bicriteria), _, Some lp_budget
              when Rat.(lp_budget > Rat.of_int c.budget) ->
                (* both rungs solve the LP with a budget row, so an
                   honest LP never uses more than the budget *)
                mismatch "LP budget"
                  (Printf.sprintf "<= %d (the budget)" c.budget)
                  (Rat.to_string lp_budget)
            | Policy.Bicriteria, Some alpha, Some lp_budget ->
                rat_budget_bound (Rat.div lp_budget (Rat.sub Rat.one alpha)) " (LP/(1-alpha))"
            | Policy.Binary_bicriteria, _, Some lp_budget ->
                rat_budget_bound (Rat.mul (Rat.of_ints 4 3) lp_budget) " (4/3 LP)"
            | _ ->
                if budget_used <= c.budget then Ok ()
                else mismatch_int "budget cap" c.budget budget_used
          in
          match budget_ok with
          | Error _ as e -> e
          | Ok () -> (
              (* Time-side certificate: claimed approximation factor
                 against the LP lower bound (Thms 3.4, 3.9, 3.10). *)
              let factor =
                match (c.rung, c.alpha) with
                | Policy.Binary, _ -> Some (Rat.of_int 4)
                | Policy.Kway, _ -> Some (Rat.of_int 5)
                | Policy.Bicriteria, Some alpha -> Some (Rat.inv alpha)
                | Policy.Binary_bicriteria, _ -> Some (Rat.of_ints 14 5)
                | _ -> None
              in
              match (factor, c.lp_makespan) with
              | Some f, Some lp ->
                  let bound = Rat.mul f lp in
                  if Rat.(Rat.of_int makespan <= bound) then Ok ()
                  else
                    mismatch "approximation bound"
                      (Printf.sprintf "makespan <= %s (%sx LP)" (Rat.to_string bound)
                         (Rat.to_string f))
                      (string_of_int makespan)
              | _ -> Ok ())
        end
      end)

let corrupt allocation ~vertex ~delta =
  let a = Array.copy allocation in
  a.(vertex) <- a.(vertex) + delta;
  a
