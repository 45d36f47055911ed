(* Readers for the Linux /proc files the run-validity and per-process
   accounting figures come from. Parsing is separated from reading so
   the parsers can be tested on fixed text. *)

(* /proc reports CPU times in USER_HZ ticks, which Linux fixes at 100
   on every architecture it exports to user space. *)
let ticks_per_second = 100.

type proc = { ppid : int; utime : int; stime : int }

(* [/proc/<pid>/stat]: "pid (comm) state ppid ...". The command name
   may itself contain spaces and parentheses, so fields are counted
   from the last ')'. After it come state (field 3), ppid (4), ...,
   utime (14) and stime (15). *)
let parse_stat text =
  match String.rindex_opt text ')' with
  | None -> None
  | Some i -> (
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      let fields = String.split_on_char ' ' (String.trim rest) |> Array.of_list in
      let field n = int_of_string_opt fields.(n - 3) in
      if Array.length fields < 13 then None
      else
        match (field 4, field 14, field 15) with
        | Some ppid, Some utime, Some stime -> Some { ppid; utime; stime }
        | _ -> None)

let cpu_seconds p = float_of_int (p.utime + p.stime) /. ticks_per_second

(* [/proc/<pid>/status]: the voluntary and involuntary context-switch
   counts. *)
let parse_ctxsw text =
  let value key =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
            int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match (value "voluntary_ctxt_switches", value "nonvoluntary_ctxt_switches") with
  | Some v, Some nv -> Some (v, nv)
  | _ -> None

type host = { total : int; steal : int }

(* The aggregate "cpu" line of [/proc/stat]: user nice system idle
   iowait irq softirq steal guest guest_nice, in ticks. Guest time is
   already counted inside user and nice, so the total stops at steal. *)
let parse_host text =
  match String.split_on_char '\n' text with
  | first :: _ -> (
      match String.split_on_char ' ' first |> List.filter (fun w -> w <> "") with
      | "cpu" :: fields -> (
          let nums = List.filter_map int_of_string_opt fields in
          match nums with
          | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
              Some
                { total = user + nice + system + idle + iowait + irq + softirq + steal; steal }
          | _ -> None)
      | _ -> None)
  | [] -> None

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec go () =
            let n = input ic chunk 0 4096 in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              go ()
            end
          in
          go ();
          Some (Buffer.contents buf))

let stat pid = Option.bind (read_file (Printf.sprintf "/proc/%d/stat" pid)) parse_stat
let ctxsw pid = Option.bind (read_file (Printf.sprintf "/proc/%d/status" pid)) parse_ctxsw
let host () = Option.bind (read_file "/proc/stat") parse_host

(* Children of [pid], found by scanning every process's parent field. *)
let children pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map int_of_string_opt
      |> List.filter (fun c -> match stat c with Some p -> p.ppid = pid | None -> false)
      |> List.sort compare

(* Total size of the regular files under [path]. *)
let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + du (Filename.concat path e))
        0
        (try Sys.readdir path with Sys_error _ -> [||])
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
