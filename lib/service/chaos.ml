open Rtt_engine
module Gen = Rtt_dag.Gen
module Problem = Rtt_core.Problem
module Io = Rtt_core.Io

type schedule = (Faults.site * int) list

(* ------------------------------------------------------------------ *)
(* schedules                                                           *)

let inproc_pool =
  [
    Faults.Disk_fsync_fail;
    Faults.Disk_short_write;
    Faults.Disk_enospc;
    Faults.Disk_eio;
    Faults.Disk_rename_fail;
    Faults.Fuel_zero;
    Faults.Lp_infeasible;
    Faults.Flow_abort;
  ]

let nodes_pool = inproc_pool @ [ Faults.Repl_frame_drop; Faults.Repl_ack_delay ]

let schedule_of_seed ?(nodes = false) seed =
  let pool = if nodes then nodes_pool else inproc_pool in
  let rng = Random.State.make [| 0x5eed; seed |] in
  let narms = 1 + Random.State.int rng 3 in
  let rec pick acc k =
    if k = 0 then List.rev acc
    else
      let site = List.nth pool (Random.State.int rng (List.length pool)) in
      if List.mem_assoc site acc then pick acc k
      else pick ((site, Random.State.int rng 26) :: acc) (k - 1)
  in
  pick [] narms

let schedule_to_string schedule =
  String.concat ","
    (List.map (fun (site, after) -> Printf.sprintf "%s:%d" (Faults.name site) after) schedule)

let schedule_of_string s =
  let parse_arm a =
    let site_s, after =
      match String.index_opt a ':' with
      | None -> (a, Ok 0)
      | Some i -> (
          ( String.sub a 0 i,
            let n = String.sub a (i + 1) (String.length a - i - 1) in
            match int_of_string_opt n with
            | Some v when v >= 0 -> Ok v
            | _ -> Error (Printf.sprintf "bad trigger count %S" n) ))
    in
    match (Faults.of_string site_s, after) with
    | None, _ -> Error (Printf.sprintf "unknown fault site %S" site_s)
    | _, Error e -> Error e
    | Some site, Ok after -> Ok (site, after)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | a :: rest -> ( match parse_arm a with Ok arm -> go (arm :: acc) rest | Error e -> Error e)
  in
  go [] (List.filter (fun a -> a <> "") (String.split_on_char ',' s))

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_chaos_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* the workload: small dense race DAGs, cheap for every rung of the
   fallback chain; [index] keys the instance so a seed regenerates the
   identical spool *)
let instance_text ~seed ~index =
  let rng = Random.State.make [| 0x7a05; seed; index |] in
  Io.to_string (Problem.of_race_dag (Gen.erdos_renyi rng ~n:6 ~edge_prob:0.35) Problem.Binary)

(* index of the instance behind job slot [i]: the last slot duplicates
   the first, so every run exercises coalescing/cache sharing *)
let slot_index ~jobs i = if i = jobs - 1 && jobs > 1 then 0 else i

(* ------------------------------------------------------------------ *)
(* invariants                                                          *)

(* fsck findings a clean crash story is allowed to leave behind:
   interrupted atomic writes and checkpoint sidecars whose clear was
   lost — exactly the residue [rtt fsck --repair] exists to mop up *)
let benign f =
  f.Fsck.action = Fsck.Note || f.Fsck.code = "tmp-litter" || f.Fsck.code = "checkpoint-stale"

let check_spool ~spool ~cache_dir ~budget ~policy ~expected =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let lines, committed = Journal.replay_wire ~spool in
  let size =
    match Unix.stat (Journal.path ~spool) with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error _ -> 0
  in
  if size <> committed then
    add "journal holds %d uncommitted bytes at quiescence" (size - committed);
  let records = List.filter_map Journal.decode lines in
  let dones : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { Journal.job; event } ->
      match event with
      | Journal.Done _ ->
          let n = Option.value ~default:0 (Hashtbl.find_opt dones job) in
          Hashtbl.replace dones job (n + 1);
          if n = 1 then add "%s: second done record (exactly-once violated)" job
      | _ -> ())
    records;
  let states = Journal.fold records in
  List.iter
    (fun job ->
      match Journal.find states job with
      | Some (Journal.Completed _) ->
          if Work.read_result ~spool ~job = None then
            add "%s: completed but its result file is missing or unreadable" job
      | Some (Journal.Dead _) -> ()
      | Some st -> add "%s: not terminal at quiescence (%s)" job (Journal.status_name st)
      | None -> add "%s: never journaled" job)
    expected;
  (match cache_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun key ->
          match Cache.audit ~dir ~key with
          | Ok () -> ()
          | Error r -> add "cache entry %s: %s" key r)
        (Cache.keys ~dir));
  let report = Fsck.scan ~spool ?cache_dir ~budget ~policy () in
  List.iter
    (fun f ->
      if not (benign f) then add "fsck: %s %s (%s)" f.Fsck.code f.Fsck.file f.Fsck.detail)
    report.Fsck.findings;
  if Fsck.dirty report then begin
    ignore (Fsck.repair ~spool report);
    if Fsck.dirty (Fsck.scan ~spool ?cache_dir ~budget ~policy ()) then
      add "fsck --repair left the spool dirty"
  end;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* the in-process workload                                             *)

let run_inproc ?(jobs = 4) ~seed schedule =
  let dir = fresh_dir "inproc" in
  let spool = Filename.concat dir "spool" in
  let cache = Filename.concat dir "cache" in
  Unix.mkdir spool 0o755;
  let expected =
    List.init jobs (fun i ->
        let job = Printf.sprintf "j%02d.rtt" i in
        write_file (Filename.concat spool job)
          (instance_text ~seed ~index:(slot_index ~jobs i));
        job)
  in
  Faults.reset ();
  List.iter (fun (site, after) -> Faults.arm ~after site) schedule;
  let cfg =
    {
      (Supervisor.default_config ~spool) with
      seed;
      sleep = false;
      cache_dir = Some cache;
      (* metered and checkpoint-happy, so the fuel site has a context
         to fire in and checkpoint writes cross the fault shim often *)
      deadline_fuel = Some 500_000;
      checkpoint_every = 25;
    }
  in
  (* a fault that escapes an attempt (journal append, say) kills the
     supervisor exactly like a power cut; recovery is a re-run over the
     same spool. Arms not yet consumed stay armed across re-runs — a
     machine whose disk keeps failing. *)
  let rec drain rounds =
    if rounds = 0 then Error "supervisor did not quiesce within 8 crash/recovery rounds"
    else
      match Supervisor.run cfg with
      | (_ : int) -> Ok ()
      | exception _ -> drain (rounds - 1)
  in
  let outcome = drain 8 in
  Faults.reset ();
  let problems =
    match outcome with
    | Error m -> [ m ]
    | Ok () ->
        let base =
          check_spool ~spool ~cache_dir:(Some cache) ~budget:cfg.Work.budget
            ~policy:cfg.Work.policy ~expected
        in
        (* the duplicate pair is the same optimization question; two
           completions must agree on the answer *)
        if jobs > 1 then
          let first = List.hd expected and last = List.nth expected (jobs - 1) in
          let states = Journal.fold (Journal.replay ~spool) in
          match (Journal.find states first, Journal.find states last) with
          | ( Some (Journal.Completed { makespan = ma; _ }),
              Some (Journal.Completed { makespan = mb; _ }) )
            when ma <> mb ->
              base
              @ [
                  Printf.sprintf "duplicate pair disagrees: %s makespan %d, %s makespan %d"
                    first ma last mb;
                ]
          | _ -> base
        else base
  in
  match problems with
  | [] ->
      rm_rf dir;
      Ok ()
  | ps -> Error (String.concat "; " ps ^ Printf.sprintf " (spool kept at %s)" spool)

(* ------------------------------------------------------------------ *)
(* the two-node workload                                               *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_proc exe args =
  let out = Filename.temp_file "rtt_chaos_out" ".txt" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd null in
  Unix.close fd;
  Unix.close null;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255
  in
  let text = read_file out in
  Sys.remove out;
  (code, String.trim text)

let spawn exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null in
  Unix.close null;
  pid

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let stop_gently pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if not (alive pid) then ()
    else if Unix.gettimeofday () > deadline then reap pid
    else begin
      ignore (Unix.select [] [] [] 0.02);
      go ()
    end
  in
  go ()

let wait_for ?(timeout = 30.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.03);
      go ()
    end
  in
  go ()

let inject_args schedule =
  List.concat_map
    (fun (site, after) -> [ "--inject"; Printf.sprintf "%s:%d" (Faults.name site) after ])
    schedule

let run_nodes ~rtt ?(jobs = 3) ~seed schedule =
  let dir = fresh_dir "nodes" in
  let a = Filename.concat dir "a" and b = Filename.concat dir "b" in
  Unix.mkdir a 0o755;
  Unix.mkdir b 0o755;
  let ca = Filename.concat dir "ca" and cb = Filename.concat dir "cb" in
  let asock = Filename.concat dir "a.sock" and bsock = Filename.concat dir "b.sock" in
  let files =
    List.init jobs (fun i ->
        let path = Filename.concat dir (Printf.sprintf "i%d.rtt" i) in
        write_file path (instance_text ~seed ~index:(slot_index ~jobs i));
        path)
  in
  (* ack-delay is a follower-side site; everything else fires on the
     primary *)
  let replica_arms, daemon_arms =
    List.partition (fun (site, _) -> site = Faults.Repl_ack_delay) schedule
  in
  let daemon_args extra =
    [ "daemon"; "--spool"; a; "--socket"; asock; "-b"; "4"; "--cache-dir"; ca ] @ extra
  in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let daemon = ref (spawn rtt (daemon_args (inject_args daemon_arms))) in
  let restarts = ref 0 in
  (* a crashed primary is a power cut; restarting it over the same
     spool (injections spent with the dead process) is the recovery
     path under test *)
  let ensure_daemon () =
    if not (alive !daemon) then
      if !restarts >= 5 then add "primary crashed more than 5 times"
      else begin
        incr restarts;
        daemon := spawn rtt (daemon_args [])
      end
  in
  if not (wait_for ~timeout:15.0 (fun () -> Sys.file_exists asock || not (alive !daemon)))
  then add "primary never created its socket";
  ensure_daemon ();
  let replica =
    spawn rtt
      ([ "replica"; "--spool"; b; "--socket"; bsock; "--primary"; asock; "--cache-dir"; cb ]
      @ inject_args replica_arms)
  in
  let ids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      stop_gently !daemon;
      stop_gently replica)
    (fun () ->
      ignore (wait_for ~timeout:15.0 (fun () -> Sys.file_exists bsock || not (alive replica)));
      if not (alive replica) then add "replica died at startup";
      (* submit, riding out primary crashes *)
      List.iter
        (fun file ->
          let rec try_submit k =
            if k = 0 then add "submit of %s never accepted" (Filename.basename file)
            else begin
              ensure_daemon ();
              match run_proc rtt [ "submit"; file; "--socket"; asock ] with
              | 0, id -> if not (List.mem id !ids) then ids := id :: !ids
              | _ ->
                  ignore (Unix.select [] [] [] 0.1);
                  try_submit (k - 1)
            end
          in
          if !problems = [] then try_submit 8)
        files;
      let expected = List.rev_map (fun id -> id ^ Work.instance_suffix) !ids in
      let terminal () =
        let states = Journal.fold (Journal.replay ~spool:a) in
        List.for_all
          (fun job ->
            match Journal.find states job with
            | Some (Journal.Completed _) | Some (Journal.Dead _) -> true
            | _ -> false)
          expected
      in
      if !problems = [] then begin
        if
          not
            (wait_for ~timeout:60.0 (fun () ->
                 ensure_daemon ();
                 !problems <> [] || terminal ()))
        then add "jobs did not all reach a terminal state within 60s";
        (* byte convergence: the follower's journal becomes the
           primary's, byte for byte *)
        let converged () =
          let ta = try read_file (Journal.path ~spool:a) with Sys_error _ -> "" in
          ta <> "" && ta = (try read_file (Journal.path ~spool:b) with Sys_error _ -> "")
        in
        if !problems = [] then begin
          if
            not
              (wait_for ~timeout:30.0 (fun () ->
                   ensure_daemon ();
                   converged ()))
          then add "journals did not converge byte-for-byte within 30s"
        end
      end;
      (* graceful stop before auditing the spools *)
      stop_gently !daemon;
      stop_gently replica;
      if !problems = [] then begin
        List.iter (fun p -> problems := p :: !problems)
          (check_spool ~spool:a ~cache_dir:(Some ca) ~budget:4 ~policy:Policy.default
             ~expected);
        (* the follower's states must agree on every terminal outcome *)
        let sa = Journal.fold (Journal.replay ~spool:a) in
        let sb = Journal.fold (Journal.replay ~spool:b) in
        List.iter
          (fun job ->
            match (Journal.find sa job, Journal.find sb job) with
            | ( Some (Journal.Completed { makespan = ma; _ }),
                Some (Journal.Completed { makespan = mb; _ }) )
              when ma = mb ->
                ()
            | Some (Journal.Dead _), Some (Journal.Dead _) -> ()
            | x, y ->
                add "%s: primary %s, replica %s" job
                  (match x with Some s -> Journal.status_name s | None -> "absent")
                  (match y with Some s -> Journal.status_name s | None -> "absent"))
          expected
      end;
      match List.rev !problems with
      | [] ->
          rm_rf dir;
          Ok ()
      | ps -> Error (String.concat "; " ps ^ Printf.sprintf " (spools kept at %s)" dir))

(* ------------------------------------------------------------------ *)
(* shrinking and the seed driver                                       *)

let shrink ~check schedule reason =
  let rec drop sched reason =
    let rec try_each i =
      if i >= List.length sched then None
      else
        let cand = List.filteri (fun j _ -> j <> i) sched in
        if cand = [] then try_each (i + 1)
        else
          match check cand with Error r -> Some (cand, r) | Ok () -> try_each (i + 1)
    in
    match try_each 0 with Some (s, r) -> drop s r | None -> halve sched reason
  and halve sched reason =
    let rec try_each i =
      if i >= List.length sched then None
      else
        let cand =
          List.mapi (fun j (site, a) -> if j = i && a > 0 then (site, a / 2) else (site, a)) sched
        in
        if cand = sched then try_each (i + 1)
        else
          match check cand with Error r -> Some (cand, r) | Ok () -> try_each (i + 1)
    in
    match try_each 0 with Some (s, r) -> halve s r | None -> (sched, reason)
  in
  drop schedule reason

type failure = { seed : int option; mode : string; schedule : schedule; reason : string }

let render_failure f =
  let sched = schedule_to_string f.schedule in
  let seed_bit = match f.seed with Some s -> Printf.sprintf ", seed %d" s | None -> "" in
  let replay_seed =
    match f.seed with
    | Some s -> Printf.sprintf "  replay:  rtt chaos --mode %s --seed %d\n" f.mode s
    | None -> ""
  in
  let workload =
    match f.seed with Some s -> Printf.sprintf " --seed %d" s | None -> ""
  in
  Printf.sprintf
    "chaos: FAILED (%s%s)\n  reason:  %s\n  minimal: %s\n%s  exactly: rtt chaos --mode %s%s --schedule %s\n"
    f.mode seed_bit f.reason sched replay_seed f.mode workload sched

let run_seeds ?(jobs = 4) ?(nodes_every = 5) ?rtt ?(log = fun _ -> ()) ~mode ~first ~count ()
    =
  let runs = ref 0 in
  let failure = ref None in
  let check_of mname seed =
    match mname with
    | "nodes" -> (
        match rtt with
        | None -> invalid_arg "Chaos.run_seeds: nodes mode needs ~rtt"
        | Some rtt -> fun sched -> run_nodes ~rtt ~jobs ~seed sched)
    | _ -> fun sched -> run_inproc ~jobs ~seed sched
  in
  let one mname seed =
    if !failure = None then begin
      let sched = schedule_of_seed ~nodes:(mname = "nodes") seed in
      let check = check_of mname seed in
      match check sched with
      | Ok () ->
          incr runs;
          log (Printf.sprintf "seed %d %s ok  [%s]" seed mname (schedule_to_string sched))
      | Error reason ->
          log
            (Printf.sprintf "seed %d %s FAILED (%s); shrinking" seed mname
               (schedule_to_string sched));
          let minimal, reason = shrink ~check sched reason in
          failure := Some { seed = Some seed; mode = mname; schedule = minimal; reason }
    end
  in
  for seed = first to first + count - 1 do
    match mode with
    | `Inproc -> one "inproc" seed
    | `Nodes -> one "nodes" seed
    | `Both ->
        one "inproc" seed;
        if (seed - first) mod nodes_every = 0 then one "nodes" seed
  done;
  match !failure with Some f -> Error f | None -> Ok !runs
