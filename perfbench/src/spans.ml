(* In-memory spans for the traced replay.

   A span is one call into one layer: its name, start and end, the span
   that caused it, and the request (job or session) it belongs to.
   Spans are appended to an in-memory list while the replay runs and
   written out only when it ends, so recording costs two clock reads
   and one allocation. With recording disabled, [with_span] is a plain
   call — the difference between the two replays is the tracing
   overhead. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  job : string;
}

type t = { enabled : bool; mutable next : int; mutable spans : span list }

let create ~enabled = { enabled; next = 0; spans = [] }

let with_span t ?parent ~job name f =
  if not t.enabled then f None
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start = Unix.gettimeofday () in
    let result = f (Some id) in
    let stop = Unix.gettimeofday () in
    t.spans <- { id; name; start; stop; parent; job } :: t.spans;
    result
  end

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Each span paired with its self time: its duration minus the part of
   it that its children cover (overlapping children are counted once). *)
let self_times all =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Option.iter (fun p -> Hashtbl.add kids p (s.start, s.stop)) s.parent) all;
  List.map
    (fun s -> (s, duration s -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all kids s.id)))
    all

let to_json s =
  let quote = Rtt_engine.Jsonout.quote in
  Printf.sprintf "{\"id\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"parent\":%s,\"job\":%s}"
    s.id (quote s.name) s.start s.stop
    (match s.parent with None -> "null" | Some p -> string_of_int p)
    (quote s.job)

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun s -> output_string oc (to_json s ^ "\n")) (spans t))
