(* Launching and stopping `rtt daemon` as a child process on a fresh
   spool. Paths are relative to the working directory, which keeps the
   socket path short whatever directory the benchmark runs from. *)

type t = {
  pid : int;
  spool : string;
  cache : string;
  socket : string;
  mutable workers : int list;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* Starts the daemon and returns once it accepts connections and its
   worker processes exist. *)
let start ~rtt ~dir ~args ~workers =
  rm_rf dir;
  mkdir_p dir;
  let spool = Filename.concat dir "spool" and cache = Filename.concat dir "cache" in
  Unix.mkdir spool 0o755;
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ([ rtt; "daemon"; "--spool"; spool; "--socket"; socket; "--cache-dir"; cache ] @ args)
  in
  let pid = Unix.create_process rtt argv devnull log log in
  Unix.close log;
  Unix.close devnull;
  let t = { pid; spool; cache; socket; workers = [] } in
  let deadline = Unix.gettimeofday () +. 30. in
  let give_up msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    List.iter (fun w -> try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ()) (Procfs.children pid);
    failwith (msg ^ "; see " ^ Filename.concat dir "daemon.log")
  in
  let rec await () =
    if Unix.gettimeofday () > deadline then give_up "rtt daemon did not come up within 30 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> give_up "rtt daemon exited during start-up");
    let listening =
      match Wire.connect socket with
      | Ok c ->
          Wire.close c;
          true
      | Error _ -> false
    in
    let kids = Procfs.children pid in
    if listening && List.length kids >= workers then t.workers <- kids
    else begin
      Unix.sleepf 0.0005;
      await ()
    end
  in
  await ();
  t

let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

(* SIGTERM drains the daemon, which reaps its workers; a daemon that
   does not exit in time is killed together with its workers. *)
let stop t =
  let kill sig_ pid = try Unix.kill pid sig_ with Unix.Unix_error _ -> () in
  kill Sys.sigterm t.pid;
  if not (wait_exit t.pid ~timeout:20.) then begin
    kill Sys.sigkill t.pid;
    ignore (wait_exit t.pid ~timeout:5.)
  end;
  List.iter (kill Sys.sigkill) (List.filter alive t.workers);
  let deadline = Unix.gettimeofday () +. 5. in
  while List.exists alive t.workers && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done
