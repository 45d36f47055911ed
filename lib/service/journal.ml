type event =
  | Queued
  | Started of { attempt : int }
  | Done of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
  | Abandoned of { attempt : int }

type record = { job : string; event : event }

(* The CRC-32 and the line framing now live in {!Frame}, shared with
   the pool pipes and the network daemon; the aliases below keep this
   module the journal-facing name for them. *)

let crc32 = Frame.crc32

(* wire format: "<crc-as-8-hex> <payload>"; payload tokens are space-
   separated, job names percent-encoded so any file name round-trips *)

let encode_job = Frame.escape
let decode_job = Frame.unescape

let payload_of { job; event } =
  let j = encode_job job in
  match event with
  | Queued -> Printf.sprintf "queued %s" j
  | Started { attempt } -> Printf.sprintf "started %s %d" j attempt
  | Done { attempt; makespan; budget_used; fuel; cached } ->
      Printf.sprintf "done %s %d %d %d %d %s" j attempt makespan budget_used fuel
        (if cached then "cached" else "fresh")
  | Failed { attempt; error_class; transient; backoff } ->
      Printf.sprintf "failed %s %d %s %s %d" j attempt error_class
        (if transient then "transient" else "permanent")
        backoff
  | Abandoned { attempt } -> Printf.sprintf "abandoned %s %d" j attempt

let record_of_payload payload =
  let int = int_of_string_opt in
  match String.split_on_char ' ' payload with
  | [ "queued"; j ] -> Option.map (fun job -> { job; event = Queued }) (decode_job j)
  | [ "started"; j; a ] -> (
      match (decode_job j, int a) with
      | Some job, Some attempt -> Some { job; event = Started { attempt } }
      | _ -> None)
  | [ "done"; j; a; ms; bu; fu ] -> (
      (* pre-cache journals: a five-field done is a fresh solve *)
      match (decode_job j, int a, int ms, int bu, int fu) with
      | Some job, Some attempt, Some makespan, Some budget_used, Some fuel ->
          Some { job; event = Done { attempt; makespan; budget_used; fuel; cached = false } }
      | _ -> None)
  | [ "done"; j; a; ms; bu; fu; (("cached" | "fresh") as src) ] -> (
      match (decode_job j, int a, int ms, int bu, int fu) with
      | Some job, Some attempt, Some makespan, Some budget_used, Some fuel ->
          Some
            { job; event = Done { attempt; makespan; budget_used; fuel; cached = src = "cached" } }
      | _ -> None)
  | [ "failed"; j; a; cls; tr; bo ] -> (
      match (decode_job j, int a, int bo, tr) with
      | Some job, Some attempt, Some backoff, ("transient" | "permanent") ->
          Some
            {
              job;
              event = Failed { attempt; error_class = cls; transient = tr = "transient"; backoff };
            }
      | _ -> None)
  | [ "abandoned"; j; a ] -> (
      match (decode_job j, int a) with
      | Some job, Some attempt -> Some { job; event = Abandoned { attempt } }
      | _ -> None)
  | _ -> None

let encode r = Frame.frame (payload_of r)
let decode line = Option.bind (Frame.unframe line) record_of_payload

(* ------------------------------------------------------------------ *)
(* durable log                                                         *)

type t = { fd : Unix.file_descr }

let path ~spool = Filename.concat spool "journal.log"

let read_whole p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* The committed prefix at the byte level: every line must both decode
   and carry its terminating newline. A final line that happens to
   decode but has no '\n' is still a torn write — counting it would let
   a subsequent append glue a new record onto it, corrupting both. *)
let replay_wire ~spool =
  match read_whole (path ~spool) with
  | None -> ([], 0)
  | Some s ->
      let n = String.length s in
      let lines = ref [] in
      let ok = ref 0 in
      let start = ref 0 in
      let stop = ref false in
      while (not !stop) && !start < n do
        match String.index_from_opt s !start '\n' with
        | None -> stop := true
        | Some nl -> (
            let line = String.sub s !start (nl - !start) in
            match decode line with
            | Some _ ->
                lines := line :: !lines;
                ok := nl + 1;
                start := nl + 1
            | None -> stop := true)
      done;
      (List.rev !lines, !ok)

let seal ~spool =
  let lines, ok = replay_wire ~spool in
  let p = path ~spool in
  (match Unix.stat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | st ->
      if st.Unix.st_size > ok then begin
        let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Rtt_diskio.Diskio.ftruncate fd ok;
            Rtt_diskio.Diskio.fsync fd)
      end);
  List.length lines

(* Sealing on open means an append after a torn final write lands on a
   newline boundary instead of being glued onto the torn line — which
   would make the new record (and everything after it) unreadable. *)
let open_ ~spool =
  ignore (seal ~spool);
  { fd = Unix.openfile (path ~spool) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 }

let append_line t line =
  let bytes = Bytes.of_string (line ^ "\n") in
  Rtt_diskio.Diskio.write_all t.fd bytes 0 (Bytes.length bytes);
  Rtt_diskio.Diskio.fsync t.fd

let append t r = append_line t (encode r)
let close t = Unix.close t.fd
let fd t = t.fd

let replay ~spool =
  match open_in (path ~spool) with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line -> (
                match decode line with
                | Some r -> go (r :: acc)
                (* an undecodable record ends the valid prefix: it is
                   either a torn final write or corruption, and nothing
                   after it can be trusted *)
                | None -> List.rev acc)
          in
          go [])

(* ------------------------------------------------------------------ *)
(* derived state                                                       *)

type status =
  | Pending of { attempts : int }
  | Running of { attempt : int }
  | Interrupted of { attempt : int }
  | Completed of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Dead of { attempts : int; error_class : string }

let step status event =
  match (status, event) with
  (* a Done is final: late or duplicate events never un-complete a job,
     so a result is reported at most once *)
  | (Some (Completed _ as c), _) -> c
  | _, Queued -> ( match status with Some s -> s | None -> Pending { attempts = 0 })
  | _, Started { attempt } -> Running { attempt }
  | _, Done { attempt; makespan; budget_used; fuel; cached } ->
      Completed { attempt; makespan; budget_used; fuel; cached }
  | _, Failed { attempt; transient = true; _ } -> Pending { attempts = attempt }
  | _, Failed { attempt; error_class; transient = false; _ } ->
      Dead { attempts = attempt; error_class }
  | _, Abandoned { attempt } -> Interrupted { attempt }

module Jobs = Map.Make (String)

(* [index] answers lookups and steps in O(log n); [newest] remembers
   first-encounter order (newest first), so an existing job's step
   touches only the map and a new job's adds one cons cell *)
type states = { index : status Jobs.t; newest : string list }

let empty = { index = Jobs.empty; newest = [] }
let find states job = Jobs.find_opt job states.index

let apply states { job; event } =
  match Jobs.find_opt job states.index with
  | Some s -> { states with index = Jobs.add job (step (Some s) event) states.index }
  | None -> { index = Jobs.add job (step None event) states.index; newest = job :: states.newest }

let fold records = List.fold_left apply empty records
let exists p states = Jobs.exists (fun _ s -> p s) states.index
let to_list states = List.rev_map (fun job -> (job, Jobs.find job states.index)) states.newest

let status_name = function
  | Pending _ -> "pending"
  | Running _ -> "running"
  | Interrupted _ -> "interrupted"
  | Completed _ -> "done"
  | Dead _ -> "failed"

let pp_status fmt = function
  | Pending { attempts } ->
      if attempts = 0 then Format.fprintf fmt "pending"
      else Format.fprintf fmt "pending (retry after %d attempt%s)" attempts
             (if attempts = 1 then "" else "s")
  | Running { attempt } -> Format.fprintf fmt "running (attempt %d)" attempt
  | Interrupted { attempt } -> Format.fprintf fmt "interrupted (attempt %d)" attempt
  | Completed { attempt; makespan; budget_used; fuel; cached } ->
      Format.fprintf fmt "done (attempt %d, makespan %d, budget %d, fuel %d%s)" attempt makespan
        budget_used fuel
        (if cached then ", cache hit" else "")
  | Dead { attempts; error_class } ->
      Format.fprintf fmt "failed permanently (%s after %d attempt%s)" error_class attempts
        (if attempts = 1 then "" else "s")
