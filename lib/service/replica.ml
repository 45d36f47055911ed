type follower = {
  journal : Journal.t;
  spool : string;
  mutable watermark : int;
  mutable states : Journal.states;
}

let open_follower ~spool =
  (* Journal.open_ seals, so replay after it sees exactly the committed
     prefix the watermark counts. *)
  let journal = Journal.open_ ~spool in
  let lines, _bytes = Journal.replay_wire ~spool in
  let records = List.filter_map Journal.decode lines in
  { journal; spool; watermark = List.length lines; states = Journal.fold records }

let close_follower f = Journal.close f.journal

let apply_line f ~seq ~line =
  if seq < f.watermark then `Stale
  else if seq > f.watermark then `Gap
  else
    match Journal.decode line with
    | None -> `Bad
    | Some r ->
        Journal.append_line f.journal line;
        f.states <- Journal.apply f.states r;
        f.watermark <- f.watermark + 1;
        `Applied r

let lines_from ~spool from =
  let lines, _ = Journal.replay_wire ~spool in
  List.filteri (fun seq _ -> seq >= from) lines |> List.mapi (fun i line -> (from + i, line))

let write_blob ~path body = Rtt_diskio.Diskio.atomic_write ~path body

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Attachments ship before their frame so the receiver's journal never
   leads its spool — the same durability order the primary itself
   observes (instance before Queued, result before Done). Transport-
   free: the net layer maps each spec onto its Protocol response. *)
let attachment_specs ~spool ~cache_dir (r : Journal.record) =
  let job = r.Journal.job in
  let key =
    if Filename.check_suffix job Work.instance_suffix then
      Filename.chop_suffix job Work.instance_suffix
    else job
  in
  match r.Journal.event with
  | Journal.Queued -> (
      match read_file (Filename.concat spool job) with
      | Some body -> [ `Instance (job, body) ]
      | None -> [])
  | Journal.Done _ ->
      (match read_file (Work.result_path ~spool ~job) with
      | Some body -> [ `Result (job, body) ]
      | None -> [])
      @ (match cache_dir with
        | Some dir -> (
            match Rtt_engine.Cache.read_raw ~dir ~key with
            | Some body -> [ `Cache (key, body) ]
            | None -> [])
        | None -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* sync-replicas gate                                                  *)

module Sync = struct
  type 'a t = { replicas : int; mutable held : (int * 'a) list }

  let create ~replicas = { replicas = max 0 replicas; held = [] }
  let replicas t = t.replicas

  let hold t ~seq v = t.held <- t.held @ [ (seq, v) ]

  (* a watermark of w covers record seq iff w > seq: the follower has
     durably applied records 0..w-1 *)
  let release t ~watermarks =
    let covered seq =
      t.replicas = 0
      || List.length (List.filter (fun w -> w > seq) watermarks) >= t.replicas
    in
    let rel, keep = List.partition (fun (seq, _) -> covered seq) t.held in
    t.held <- keep;
    List.map snd rel

  let pending t = List.length t.held

  let drain t =
    let h = t.held in
    t.held <- [];
    List.map snd h
end

(* ------------------------------------------------------------------ *)
(* status                                                              *)

let stats_json ?lp ~role ~records ~sync_replicas ~held ~followers () =
  let quote = Rtt_engine.Jsonout.quote in
  let follower_json (peer, sent, acked) =
    Printf.sprintf "{\"peer\":%s,\"sent\":%d,\"acked\":%d,\"lag\":%d}" (quote peer) sent acked
      (max 0 (records - acked))
  in
  Printf.sprintf
    "{\"role\":%s,\"records\":%d,\"sync_replicas\":%d,\"held\":%d,\"followers\":[%s]%s}"
    (quote role) records sync_replicas held
    (String.concat "," (List.map follower_json followers))
    (match lp with None -> "" | Some j -> Printf.sprintf ",\"lp\":%s" j)
