(* Answer checks, run after each timed window and outside it.

   A job's answer must equal, byte for byte, what an in-process
   [Engine.solve] of the same instance renders under the workload's
   budget and chain. A session's answer must equal the rendering of a
   cold solve of the same revision, replayed in-process from the
   mutation mirror; equal revisions are solved once. *)

open Rtt_engine
module Work = Rtt_service.Work

let expected_job (cfg : Work.config) (j : Inputs.job) =
  let p = Lazy.force j.Inputs.problem in
  match Engine.solve ~policy:cfg.Work.policy ~alpha:Work.alpha p ~budget:cfg.Work.budget with
  | Ok s -> Some (Work.render p s)
  | Error _ -> None

(* Number of answered slots whose answer differs from the in-process
   one. Slot [k] is job [jobs.(first + k)]. *)
let jobs cfg jobs ~first (o : Drive.outcome) =
  let wrong = ref 0 in
  Array.iteri
    (fun k answer ->
      match answer with
      | None -> ()
      | Some rendered ->
          if expected_job cfg jobs.(first + k) <> Some rendered then begin
            incr wrong;
            o.Drive.failed.(k) <- true
          end)
    o.Drive.rendered;
  !wrong

let cold_session (m : Inputs.mirror) =
  let p = Inputs.load_exn (Inputs.mirror_text m) in
  match Engine.solve ~alpha:Rtt_num.Rat.half p ~budget:m.Inputs.budget with
  | Ok s -> Some (Rtt_session.Session.cold_render p s)
  | Error _ -> None

let sessions (steps : Drive.step list) =
  let memo = Hashtbl.create 256 in
  List.fold_left
    (fun wrong (st : Drive.step) ->
      match st.Drive.answer with
      | None -> wrong
      | Some answer ->
          let key = (Inputs.mirror_text st.Drive.mirror, st.Drive.mirror.Inputs.budget) in
          let expected =
            match Hashtbl.find_opt memo key with
            | Some e -> e
            | None ->
                let e = cold_session st.Drive.mirror in
                Hashtbl.add memo key e;
                e
          in
          if expected = Some answer then wrong else wrong + 1)
    0 steps
