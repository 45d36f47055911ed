(* A minimal pipelining client for the daemon's framed protocol: the
   generator writes requests back to back and matches answers itself,
   so it never blocks on one request while others are due. *)

module Protocol = Rtt_net.Protocol
module Frame = Rtt_service.Frame

type t = { fd : Unix.file_descr; reader : Frame.reader; buf : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; reader = Frame.reader (); buf = Bytes.create 65536 }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req = Frame.write t.fd (Protocol.encode_request req)

exception Closed

(* Waits at most [timeout] seconds for input, then returns the answers
   that arrived (possibly none). *)
let poll t ~timeout =
  match Unix.select [ t.fd ] [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | [], _, _ -> []
  | _ -> (
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | 0 -> raise Closed
      | n ->
          List.map
            (function
              | `Frame payload -> Protocol.parse_response payload
              | `Corrupt line -> Error ("corrupt frame " ^ line)
              | `Overflow -> Error "frame overflow")
            (Frame.feed t.reader (Bytes.sub_string t.buf 0 n)))

(* The next answer, for closed-loop callers that keep one request
   outstanding; [None] on timeout. *)
let rec next t ~deadline =
  let timeout = deadline -. Unix.gettimeofday () in
  if timeout <= 0. then None
  else
    match poll t ~timeout with
    | [] -> next t ~deadline
    | [ r ] -> Some r
    | _ :: _ :: _ -> failwith "Wire.next: more than one answer to one request"
