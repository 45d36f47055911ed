(* Tests for the fork-based worker pool and the content-addressed
   result cache as used by the service: a pooled drain produces the
   same journal outcomes as the sequential drain (up to record order),
   forked workers replay the supervisor's deterministic backoff
   schedule, duplicate instances are solved once and re-submissions are
   served entirely from the cache, and the process-level crash
   scenarios — SIGKILL of the workers mid-solve, SIGTERM of the pool
   parent — preserve exactly-once completion. *)

open Rtt_dag
open Rtt_duration
open Rtt_core
open Rtt_service

let rng_of seed = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)

let fresh_spool =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "rtt_pool_%s_%d_%d" tag (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let write_job ~spool name p = write_file (Filename.concat spool name) (Io.to_string p)

let cheap_instance seed =
  Problem.of_race_dag (Gen.erdos_renyi (rng_of seed) ~n:6 ~edge_prob:0.35) Problem.Binary

(* see test_service: slow to solve cold, collapses under a warm start *)
let wide_flat ~n ~opts =
  let g = Dag.create () in
  let s = Dag.add_vertex ~label:"s" g in
  let t = Dag.add_vertex ~label:"t" g in
  let vs = List.init n (fun _ -> Dag.add_vertex g) in
  List.iter
    (fun v ->
      Dag.add_edge g s v;
      Dag.add_edge g v t)
    vs;
  Problem.make g ~durations:(fun v ->
      if v = s || v = t then Duration.constant 0
      else Duration.make (List.init opts (fun r -> (r, 10 - r))))

let count_events records job pred =
  List.length (List.filter (fun r -> r.Journal.job = job && pred r.Journal.event) records)

let is_done = function Journal.Done _ -> true | _ -> false

let sorted_journal ~spool = List.sort compare (List.map Journal.encode (Journal.replay ~spool))

let base_config ~spool = { (Supervisor.default_config ~spool) with sleep = false; budget = 2 }

(* ------------------------------------------------------------------ *)
(* in-process: pooled drain vs sequential drain                        *)

let fill_distinct spool n =
  List.init n (fun i ->
      let name = Printf.sprintf "job_%02d.rtt" i in
      write_job ~spool name (cheap_instance (500 + i));
      name)

let pool_units =
  [
    Alcotest.test_case "16 distinct jobs: --workers 4 journal equals --workers 1" `Slow (fun () ->
        let seq = fresh_spool "eq_seq" in
        let par = fresh_spool "eq_par" in
        let jobs = fill_distinct seq 16 in
        ignore (fill_distinct par 16);
        write_file (Filename.concat seq "bad.rtt") "vertices 1\nedge 0 0\n";
        write_file (Filename.concat par "bad.rtt") "vertices 1\nedge 0 0\n";
        let code_seq = Supervisor.run { (base_config ~spool:seq) with workers = 1 } in
        let code_par = Supervisor.run { (base_config ~spool:par) with workers = 4 } in
        Alcotest.(check int) "same exit code" code_seq code_par;
        Alcotest.(check int) "failed-jobs exit" Supervisor.failed_jobs_exit_code code_par;
        Alcotest.(check (list string))
          "same journal up to record order" (sorted_journal ~spool:seq) (sorted_journal ~spool:par);
        let records = Journal.replay ~spool:par in
        List.iter
          (fun job ->
            Alcotest.(check int) (job ^ " done exactly once") 1 (count_events records job is_done))
          jobs;
        (* the pooled results are the sequential results, field for field *)
        List.iter
          (fun job ->
            let strip = List.filter (fun (k, _) -> k <> "attempt") in
            Alcotest.(check bool)
              (job ^ " same result file") true
              (Option.map strip (Supervisor.read_result ~spool:seq ~job)
              = Option.map strip (Supervisor.read_result ~spool:par ~job)))
          jobs);
    Alcotest.test_case "forked workers replay the seeded backoff schedule" `Quick (fun () ->
        (* a fuel deadline every attempt exhausts: deterministic
           transient failures, so the journaled backoff schedule is the
           whole story of the run *)
        let seq = fresh_spool "seed_seq" in
        let par = fresh_spool "seed_par" in
        List.iter
          (fun spool ->
            write_job ~spool "a.rtt" (cheap_instance 31);
            write_job ~spool "b.rtt" (cheap_instance 32))
          [ seq; par ];
        let cfg spool workers =
          {
            (base_config ~spool) with
            workers;
            seed = 9;
            deadline_fuel = Some 3;
            max_attempts = 3;
            policy = [ Rtt_engine.Policy.Exact ];
          }
        in
        Alcotest.(check int) "sequential exit" Supervisor.failed_jobs_exit_code
          (Supervisor.run (cfg seq 1));
        Alcotest.(check int) "pool exit" Supervisor.failed_jobs_exit_code
          (Supervisor.run (cfg par 2));
        Alcotest.(check (list string))
          "same retry schedule" (sorted_journal ~spool:seq) (sorted_journal ~spool:par);
        let backoffs job =
          List.filter_map
            (fun r ->
              match r.Journal.event with
              | Journal.Failed { attempt; transient = true; backoff; _ } when r.Journal.job = job
                ->
                  Some (attempt, backoff)
              | _ -> None)
            (Journal.replay ~spool:par)
        in
        List.iter
          (fun job ->
            let bs = backoffs job in
            Alcotest.(check int) (job ^ " two transient failures") 2 (List.length bs);
            List.iter
              (fun (attempt, backoff) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s attempt %d backoff is Retry.backoff under seed 9" job attempt)
                  (Retry.backoff ~seed:9 ~job ~attempt)
                  backoff)
              bs)
          [ "a.rtt"; "b.rtt" ]);
    Alcotest.test_case "duplicates are solved once; re-submission is all cache hits" `Slow
      (fun () ->
        let spool = fresh_spool "dedup" in
        let cache = Filename.concat (fresh_spool "dedup_cache") "cache" in
        (* three distinct instances, each submitted twice *)
        List.iteri
          (fun i p ->
            write_job ~spool (Printf.sprintf "%c_first.rtt" (Char.chr (Char.code 'a' + i))) p;
            write_job ~spool (Printf.sprintf "%c_second.rtt" (Char.chr (Char.code 'a' + i))) p)
          [ cheap_instance 41; cheap_instance 42; cheap_instance 43 ];
        let cfg spool =
          { (base_config ~spool) with workers = 3; cache_dir = Some cache }
        in
        Alcotest.(check int) "drained" Supervisor.drained_exit_code (Supervisor.run (cfg spool));
        let records = Journal.replay ~spool in
        let cached, fresh =
          List.partition
            (fun r -> match r.Journal.event with Journal.Done { cached; _ } -> cached | _ -> false)
            (List.filter (fun r -> is_done r.Journal.event) records)
        in
        Alcotest.(check int) "three solved fresh" 3 (List.length fresh);
        Alcotest.(check int) "three served from cache" 3 (List.length cached);
        Alcotest.(check int) "three cache entries" 3 (Rtt_engine.Cache.entries ~dir:cache);
        (* duplicates agree with their originals *)
        List.iter
          (fun c ->
            let result job = Supervisor.read_result ~spool ~job in
            let pick key kvs = Option.bind kvs (List.assoc_opt key) in
            let first = result (Printf.sprintf "%c_first.rtt" c) in
            let second = result (Printf.sprintf "%c_second.rtt" c) in
            Alcotest.(check bool) "same makespan" true (pick "makespan" first = pick "makespan" second);
            Alcotest.(check bool)
              "same allocation" true
              (pick "allocation" first = pick "allocation" second))
          [ 'a'; 'b'; 'c' ];
        (* an identical spool re-submitted against the same cache
           completes with 100% hits and zero fuel *)
        let spool2 = fresh_spool "dedup2" in
        List.iteri
          (fun i p -> write_job ~spool:spool2 (Printf.sprintf "re_%d.rtt" i) p)
          [ cheap_instance 41; cheap_instance 42; cheap_instance 43 ];
        Alcotest.(check int) "re-submission drained" Supervisor.drained_exit_code
          (Supervisor.run (cfg spool2));
        let redone =
          List.filter (fun r -> is_done r.Journal.event) (Journal.replay ~spool:spool2)
        in
        Alcotest.(check int) "all three done" 3 (List.length redone);
        List.iter
          (fun r ->
            match r.Journal.event with
            | Journal.Done { cached; fuel; _ } ->
                Alcotest.(check bool) (r.Journal.job ^ " cache hit") true cached;
                Alcotest.(check int) (r.Journal.job ^ " zero fuel") 0 fuel
            | _ -> ())
          redone;
        Alcotest.(check int) "no new entries" 3 (Rtt_engine.Cache.entries ~dir:cache));
  ]

(* ------------------------------------------------------------------ *)
(* process-level: SIGKILL the workers, SIGTERM the pool parent         *)

let rtt_exe = Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rtt.exe"

let spawn_serve ?(extra = []) ~spool () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list
      ([ rtt_exe; "serve"; "--spool"; spool; "-b"; "3"; "--checkpoint-every"; "50"; "--no-sleep" ]
      @ extra)
  in
  let pid = Unix.create_process rtt_exe argv Unix.stdin null null in
  Unix.close null;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> `Exited c
  | _, Unix.WSIGNALED s -> `Signaled s
  | _, Unix.WSTOPPED _ -> `Stopped

let wait_for ?(timeout = 60.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      ignore (Unix.select [] [] [] 0.005);
      go ()
    end
  in
  go ()

(* direct children of [pid], via the Linux children file *)
let children_of pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim line))

let fill_crash_spool spool =
  for i = 0 to 11 do
    let name = Printf.sprintf "job_%02d.rtt" i in
    if i = 6 then write_job ~spool name (wide_flat ~n:10 ~opts:4)
    else write_job ~spool name (cheap_instance (700 + i))
  done

let process_units =
  [
    Alcotest.test_case "SIGKILL every worker mid-solve: pool recovers, exactly-once" `Slow
      (fun () ->
        let spool = fresh_spool "wkill" in
        fill_crash_spool spool;
        let ckpt = Checkpoint.path ~spool ~job:"job_06.rtt" in
        let pid = spawn_serve ~extra:[ "--workers"; "3" ] ~spool () in
        let die msg =
          Unix.kill pid Sys.sigkill;
          ignore (wait_exit pid);
          Alcotest.fail msg
        in
        if not (wait_for (fun () -> Sys.file_exists ckpt)) then
          die "no checkpoint appeared before timeout";
        (match children_of pid with
        | [] -> die "no worker children visible under /proc"
        | workers -> List.iter (fun w -> try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ()) workers);
        (* the parent notices the deaths, replays the claims on fresh
           workers, and still drains the whole spool *)
        (match wait_exit pid with
        | `Exited 0 -> ()
        | `Exited c -> Alcotest.failf "serve exited %d" c
        | _ -> Alcotest.fail "serve died");
        let records = Journal.replay ~spool in
        for i = 0 to 11 do
          let job = Printf.sprintf "job_%02d.rtt" i in
          Alcotest.(check int) (job ^ " done exactly once") 1 (count_events records job is_done)
        done;
        (* the killed worker's claim was consumed: the expensive job
           completed on a later attempt, resumed from its checkpoint *)
        match Journal.find (Journal.fold records) "job_06.rtt" with
        | Some (Journal.Completed { attempt; _ }) when attempt >= 2 -> ()
        | Some s -> Alcotest.failf "job_06 final state: %s" (Journal.status_name s)
        | None -> Alcotest.fail "job_06 missing from journal");
    Alcotest.test_case "SIGTERM the pool parent: exit 30, abandoned, resumable" `Slow (fun () ->
        let spool = fresh_spool "wterm" in
        fill_crash_spool spool;
        let ckpt = Checkpoint.path ~spool ~job:"job_06.rtt" in
        let pid = spawn_serve ~extra:[ "--workers"; "3" ] ~spool () in
        let die msg =
          Unix.kill pid Sys.sigkill;
          ignore (wait_exit pid);
          Alcotest.fail msg
        in
        if not (wait_for (fun () -> Sys.file_exists ckpt)) then
          die "no checkpoint appeared before timeout";
        Unix.kill pid Sys.sigterm;
        (match wait_exit pid with
        | `Exited c -> Alcotest.(check int) "shutdown exit" Supervisor.shutdown_exit_code c
        | _ -> Alcotest.fail "serve died instead of exiting");
        let aborted =
          List.filter
            (fun r -> match r.Journal.event with Journal.Abandoned _ -> true | _ -> false)
            (Journal.replay ~spool)
        in
        Alcotest.(check bool) "at least one abandoned attempt" true (aborted <> []);
        (* a pooled restart over the same spool finishes the work *)
        (match wait_exit (spawn_serve ~extra:[ "--workers"; "3" ] ~spool ()) with
        | `Exited 0 -> ()
        | `Exited c -> Alcotest.failf "restart exited %d" c
        | _ -> Alcotest.fail "restart died");
        let records = Journal.replay ~spool in
        for i = 0 to 11 do
          let job = Printf.sprintf "job_%02d.rtt" i in
          Alcotest.(check int) (job ^ " done exactly once") 1 (count_events records job is_done)
        done);
  ]

let () =
  Alcotest.run "pool"
    [ ("pool", pool_units); ("process", process_units) ]
