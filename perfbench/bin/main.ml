(* The daemon benchmark: one workload per run against a freshly
   launched `rtt daemon`, driven from this single-threaded process.
   Run from the repository root after building bin/rtt.exe (which
   perfbench/run.py does):

     main.exe --workload ingest|solve|session [--seed N] [--seconds S]
              [--trace 0|1]

   Prints one line per metric (name, value, unit, sample count), then,
   as the last line, a JSON object with the fields correct, attempted,
   failed and metrics: the end-to-end metrics with --trace 0, the
   per-layer ones (from a traced in-process replay of the same inputs)
   with --trace 1. Exits 1 when any answer is wrong. *)

open Rttbench
module Work = Rtt_service.Work
module Policy = Rtt_engine.Policy

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)

type jobs_spec = {
  size : Inputs.job_kind;
  budget : int;
  policy : Policy.t;
  flags : string list;  (* daemon flags beyond spool, socket and cache *)
  rate : float;  (* open-loop arrivals per second *)
  window : int;  (* saturation phase: jobs kept in flight *)
  warmup : int;  (* jobs run before timing starts *)
  ceiling : float;  (* jobs/s the saturation phase's inputs are sized for *)
  lp : bool;  (* answered by an LP rung, so the LP layer is on the path *)
  replay : int;  (* jobs in each traced replay *)
}

type spec = Jobs of jobs_spec | Sessions of { count : int; warmup : int; replay : int }

(* Paths relative to the repository root. Spools live under [work] and
   are removed after each run; the traced run's spans stay there. *)
let rtt = "_build/default/bin/rtt.exe"
let work = ".perfbench"

let common = [ "--shards"; "1"; "--workers"; "1" ]

(* ingest: small distinct jobs the exact rung answers in microseconds,
   so the durable path (decode, load, digest, instance write, journal
   appends, hand-off, result publish, cache store) is nearly all the
   work. solve: mid-size distinct jobs answered by Theorem 3.4's LP
   rounding, so the simplex dominates. session: live sessions taking
   small fsync'd mutations and warm re-solves, with no pool hand-off. *)
let workloads =
  [
    ( "ingest",
      Jobs
        {
          size = Inputs.Small;
          budget = 3;
          policy = Policy.default;
          flags = [ "-b"; "3" ] @ common;
          rate = 100.;
          window = 32;
          warmup = 50;
          ceiling = 1500.;
          lp = false;
          replay = 300;
        } );
    ( "solve",
      Jobs
        {
          size = Inputs.Mid;
          budget = 6;
          policy = [ Policy.Bicriteria ];
          flags = [ "-b"; "6"; "--fallback"; "bicriteria" ] @ common;
          rate = 15.;
          window = 8;
          warmup = 5;
          ceiling = 150.;
          lp = true;
          replay = 40;
        } );
    ("session", Sessions { count = 4; warmup = 40; replay = 400 });
  ]

(* ------------------------------------------------------------------ *)
(* output                                                              *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

(* The metrics BENCHMARK.json declares as end-to-end; the rest of the
   untraced run's figures are printed but not reported in the JSON. *)
let end_to_end = [ "setup_s"; "ack_p50_ms"; "result_p50_ms"; "jobs_per_s" ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric x =
  Printf.printf "  %-28s %14.4f %-6s %s\n" x.name x.value x.unit_ x.note

let latency_notes what (s : Slices.summary) =
  let tail =
    if Slices.p99_supported s then Printf.sprintf "n=%d, %d beyond p99" s.Slices.n s.Slices.beyond_p99
    else Printf.sprintf "n=%d, only %d beyond p99: estimate" s.Slices.n s.Slices.beyond_p99
  in
  [
    m (what ^ "_p50_ms") "ms" (s.Slices.p50 *. 1000.) ~note:(Printf.sprintf "n=%d" s.Slices.n);
    m (what ^ "_p90_ms") "ms" (s.Slices.p90 *. 1000.) ~note:(Printf.sprintf "n=%d" s.Slices.n);
    m (what ^ "_p99_ms") "ms" (s.Slices.p99 *. 1000.) ~note:tail;
  ]

(* ------------------------------------------------------------------ *)
(* /proc accounting around the timed windows                           *)

type snap = {
  daemon : Procfs.proc option;
  worker : Procfs.proc option;
  ctx : (int * int) option;
  host : Procfs.host option;
  gen : float;
}

let snap (d : Daemon_proc.t) =
  let t = Unix.times () in
  {
    daemon = Procfs.stat d.Daemon_proc.pid;
    worker = (match d.Daemon_proc.workers with w :: _ -> Procfs.stat w | [] -> None);
    ctx = Procfs.ctxsw d.Daemon_proc.pid;
    host = Procfs.host ();
    gen = t.Unix.tms_utime +. t.Unix.tms_stime;
  }

type usage = {
  daemon_cpu : float;
  worker_cpu : float;
  ctxsw : int;
  steal : int;
  ticks : int;
  gen_cpu : float;
}


let usage a b =
  let cpu f = match (f a, f b) with Some x, Some y -> Procfs.cpu_seconds y -. Procfs.cpu_seconds x | _ -> 0. in
  let host f = match (a.host, b.host) with Some x, Some y -> f y - f x | _ -> 0 in
  {
    daemon_cpu = cpu (fun s -> s.daemon);
    worker_cpu = cpu (fun s -> s.worker);
    ctxsw = (match (a.ctx, b.ctx) with Some (x, _), Some (y, _) -> y - x | _ -> 0);
    steal = host (fun h -> h.Procfs.steal);
    ticks = host (fun h -> h.Procfs.total);
    gen_cpu = b.gen -. a.gen;
  }

let plus a b =
  {
    daemon_cpu = a.daemon_cpu +. b.daemon_cpu;
    worker_cpu = a.worker_cpu +. b.worker_cpu;
    ctxsw = a.ctxsw + b.ctxsw;
    steal = a.steal + b.steal;
    ticks = a.ticks + b.ticks;
    gen_cpu = a.gen_cpu +. b.gen_cpu;
  }

let measured d f =
  let a = snap d in
  let r = f () in
  (r, usage a (snap d))

let per x n = if n = 0 then 0. else x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* one run                                                             *)

type run = {
  e2e : metric list;  (* from the untraced run; [end_to_end] names go to the JSON *)
  host : metric list;  (* /proc, generator and input-size figures of the same run *)
  layers : metric list;  (* from the traced replay; empty without --trace 1 *)
  attempted : int;
  failed : int;
  wrong : int;
}

let setups = 5

(* Sets up [setups] times — inputs, daemon, warm-up — keeping the last
   set-up for the timed windows; [setup_s] is the median. *)
let repeated_setup ~setup ~teardown =
  let rec go i times =
    let t0 = Unix.gettimeofday () in
    let s = setup () in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if i = setups then (s, Stats.median times)
    else begin
      teardown s;
      go (i + 1) times
    end
  in
  go 1 []

let setup_metric setup_s = m "setup_s" "s" setup_s ~note:(Printf.sprintf "median of %d set-ups" setups)

let stopping_on_error d f =
  match f () with
  | v -> v
  | exception e ->
      Daemon_proc.stop d;
      raise e

let connect (d : Daemon_proc.t) =
  match Wire.connect d.Daemon_proc.socket with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Unix.error_message e)

(* The traced replay over the same inputs, each time in fresh
   directories: spans off, on, off again, so that warming up does not
   count as overhead. Returns the traced result, the tracing overhead
   (against the mean untraced wall time) and the wrong answers of all
   three; the spans are written to [spans]. *)
let traced ~work ~spans replay =
  let run ~enabled tag =
    let root = Filename.concat work ("trace-" ^ tag) in
    Daemon_proc.rm_rf root;
    let r = replay ~root ~enabled in
    Daemon_proc.rm_rf root;
    r
  in
  let off1 = run ~enabled:false "off1" in
  let on = run ~enabled:true "on" in
  let off2 = run ~enabled:false "off2" in
  Spans.write on.Trace.spans ~path:spans;
  let off = (off1.Trace.wall +. off2.Trace.wall) /. 2. in
  (on, (on.Trace.wall -. off) /. off, off1.Trace.wrong + on.Trace.wrong + off2.Trace.wrong)

(* Per-layer figures from a traced replay: median self time per span
   name, and counts per job or step. The second result is the mean
   after-ack service of a job (append [Started], hand-off round trip,
   append [Done], encode), in microseconds. *)
let layer_metrics (tr : Trace.result) ~overhead =
  let all = Spans.spans tr.Trace.spans in
  let selfs = Spans.self_times all in
  let by_name = Hashtbl.create 32 in
  List.iter (fun ((s : Spans.span), self) -> Hashtbl.add by_name s.Spans.name self) selfs;
  let us name = match Hashtbl.find_all by_name name with [] -> 0. | l -> Stats.median l *. 1e6 in
  let mean_us name = match Hashtbl.find_all by_name name with [] -> 0. | l -> Stats.mean l *. 1e6 in
  (* the hand-off net of the same job's in-process attempt *)
  let per_job name =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (s : Spans.span) -> if s.Spans.name = name then Hashtbl.replace t s.Spans.job (Spans.duration s))
      all;
    t
  in
  let attempt = per_job "work.attempt" in
  let net =
    Hashtbl.fold
      (fun job h acc -> match Hashtbl.find_opt attempt job with Some a -> (h -. a) :: acc | None -> acc)
      (per_job "pool.handoff") []
  in
  let parents =
    List.filter (fun ((s : Spans.span), _) -> s.Spans.name = "job" || s.Spans.name = "step") selfs
  in
  let dur = List.fold_left (fun a (s, _) -> a +. Spans.duration s) 0. parents in
  let self = List.fold_left (fun a (_, x) -> a +. x) 0. parents in
  let n = tr.Trace.units and lp = tr.Trace.lp in
  let count x = float_of_int x in
  ( [
      m "protocol.decode_us" "us" (us "protocol.decode");
      m "engine.load_us" "us" (us "engine.load");
      m "work.digest_us" "us" (us "work.digest");
      m "diskio.instance_write_us" "us" (us "diskio.instance_write");
      m "journal.append_us" "us" (us "journal.append");
      m "journal.records_per_job" "count" (per (count tr.Trace.appends) n);
      m "pool.handoff_us" "us" (if net = [] then 0. else Stats.median net *. 1e6);
      m "work.attempt_us" "us" (us "work.attempt");
      m "cache.lookup_us" "us" (us "cache.lookup");
      m "cache.store_us" "us" (us "cache.store");
      m "work.publish_us" "us" (us "work.publish");
      m "protocol.encode_us" "us" (us "protocol.encode");
      m "engine.solve_us" "us" (us "engine.solve");
      m "engine.fuel_per_job" "count" (per (count tr.Trace.fuel) n);
      m "lp_relax.solve_us" "us" (us "lp_relax.solve");
      m "simplex.pivots_per_job" "count" (per (count lp.Trace.pivots) n);
      m "simplex.refactors_per_job" "count" (per (count lp.Trace.refactors) n);
      m "simplex.warm_accept_ratio" "ratio" (per (count lp.Trace.warm_accepted) lp.Trace.warm_offered);
      m "session.mutate_us" "us" (us "session.mutate");
      m "session.solve_us" "us" (us "session.solve");
      m "session.fuel_per_solve" "count" (per (count tr.Trace.warm_fuel) n);
      m "session.warm_fuel_ratio" "ratio" (per (count tr.Trace.warm_fuel) tr.Trace.fuel);
      m "trace.overhead_share" "share" overhead;
      m "trace.coverage" "share" (if dur > 0. then (dur -. self) /. dur else 0.);
    ],
    (mean_us "journal.append" *. 2.) +. mean_us "pool.handoff" +. mean_us "protocol.encode" )

let host_metrics u ~jobs ~bytes ~late ~problems =
  let avg f = List.fold_left (fun a p -> a +. float_of_int (f p)) 0. problems /. float_of_int (List.length problems) in
  let dims = List.map (fun p -> Rtt_core.Lp_relax.dimensions (Rtt_core.Transform.of_problem p)) problems in
  let avg_dim f = List.fold_left (fun a d -> a +. float_of_int (f d)) 0. dims /. float_of_int (List.length dims) in
  [
    m "daemon.cpu_ms_per_job" "ms" (per (u.daemon_cpu *. 1000.) jobs);
    m "pool.worker_cpu_ms_per_job" "ms" (per (u.worker_cpu *. 1000.) jobs);
    m "daemon.ctxsw_per_job" "count" (per (float_of_int u.ctxsw) jobs);
    m "diskio.bytes_per_job" "B" (per (float_of_int bytes) jobs);
    m "gen.late_p99_ms" "ms" (match late with [] -> 0. | l -> Stats.percentile l ~q:99. *. 1000.);
    m "gen.cpu_ms_per_job" "ms" (per (u.gen_cpu *. 1000.) jobs);
    m "host.steal_share" "share" (per (float_of_int u.steal) u.ticks);
    m "input.jobs_per_instance" "count" (avg Rtt_core.Problem.n_jobs);
    m "input.lp_rows" "count" (avg_dim snd);
    m "input.lp_cols" "count" (avg_dim fst);
  ]

let run_jobs spec ~seed ~seconds ~trace ~work ~spans =
  let cfg =
    { (Rtt_service.Supervisor.default_config ~spool:work) with Work.budget = spec.budget; policy = spec.policy }
  in
  let half = seconds /. 2. in
  let n_open = max 1 (int_of_float (spec.rate *. half)) in
  let n_sat = int_of_float (Float.ceil (spec.ceiling *. half)) in
  let total = spec.warmup + n_open + n_sat in
  let setup () =
    let jobs = Inputs.jobs cfg ~seed spec.size ~count:total in
    let dups = Inputs.duplicates jobs in
    if dups > 0 then failwith (Printf.sprintf "%d of %d fingerprints repeat" dups total);
    let d = Daemon_proc.start ~rtt ~dir:(Filename.concat work "daemon") ~args:spec.flags ~workers:1 in
    stopping_on_error d (fun () ->
        let conn = connect d in
        let w = Drive.closed_loop conn jobs ~first:0 ~available:spec.warmup ~window:spec.window ~seconds:120. in
        if Array.exists Fun.id w.Drive.c.Drive.failed then failwith "warm-up jobs failed";
        (jobs, d, conn))
  in
  let teardown (_, d, conn) =
    Wire.close conn;
    Daemon_proc.stop d
  in
  let ((jobs, d, conn) as live), setup_s = repeated_setup ~setup ~teardown in
  Fun.protect
    ~finally:(fun () -> teardown live)
    (fun () ->
      let first_open = spec.warmup and first_sat = spec.warmup + n_open in
      let ol, u1 =
        measured d (fun () -> Drive.open_loop conn jobs ~first:first_open ~count:n_open ~rate:spec.rate)
      in
      let wrong_open = Check.jobs cfg jobs ~first:first_open ol.Drive.o in
      let cl, u2 =
        measured d (fun () ->
            Drive.closed_loop conn jobs ~first:first_sat ~available:n_sat ~window:spec.window ~seconds:half)
      in
      let wrong_sat = Check.jobs cfg jobs ~first:first_sat cl.Drive.c in
      let bytes = Procfs.du d.Daemon_proc.spool + Procfs.du d.Daemon_proc.cache in
      let o = ol.Drive.o and c = cl.Drive.c in
      let somes a = Array.to_list a |> List.filter_map Fun.id in
      let failures (x : Drive.outcome) ~upto =
        Array.fold_left ( + ) 0 (Array.mapi (fun k f -> if f && k < upto then 1 else 0) x.Drive.failed)
      in
      let results = somes o.Drive.result in
      let timed a = List.filter_map (fun k -> Option.map (fun v -> (ol.Drive.due.(k), v)) a.(k)) (List.init n_open Fun.id) in
      let completed = List.length results + List.length (somes (Array.sub c.Drive.result 0 cl.Drive.sent_c)) in
      let exhausted = if cl.Drive.sent_c >= n_sat then " (inputs exhausted)" else "" in
      let e2e =
        (setup_metric setup_s :: latency_notes "ack" (Slices.summarize ol.Drive.slices (timed o.Drive.ack)))
        @ latency_notes "result" (Slices.summarize ol.Drive.slices (timed o.Drive.result))
        @ [
            m "jobs_per_s" "1/s"
              (Slices.rate cl.Drive.slices cl.Drive.done_at)
              ~note:
                (Printf.sprintf "n=%d in %.2f s, window %d%s" (List.length cl.Drive.done_at)
                   cl.Drive.window_s spec.window exhausted);
          ]
      in
      let problems = List.init (min 200 total) (fun k -> Lazy.force jobs.(k).Inputs.problem) in
      let host =
        host_metrics (plus u1 u2) ~jobs:completed ~bytes ~late:(Array.to_list ol.Drive.late) ~problems
      in
      let layers, wrong_trace =
        if not trace then ([], 0)
        else
          let replayed = min spec.replay n_open in
          let on, overhead, wrong =
            traced ~work ~spans (Trace.jobs ~cfg ~lp:spec.lp (Array.sub jobs first_open replayed))
          in
          let layers, after_ack_us = layer_metrics on ~overhead in
          (* mean (result - ack) of the replayed open-loop jobs, less the
             traced service a job needs after its ack: the rest is
             queueing *)
          let gap =
            List.init replayed (fun k ->
                match (o.Drive.ack.(k), o.Drive.result.(k)) with
                | Some a, Some r -> Some ((r -. a) *. 1000.)
                | _ -> None)
            |> List.filter_map Fun.id |> Stats.mean
          in
          (layers @ [ m "admission.wait_ms" "ms" (gap -. (after_ack_us /. 1000.)) ], wrong)
      in
      {
        e2e;
        host;
        layers;
        attempted = n_open + cl.Drive.sent_c;
        failed = failures o ~upto:n_open + failures c ~upto:cl.Drive.sent_c;
        wrong = wrong_open + wrong_sat + wrong_trace;
      })

let run_sessions ~count ~warmup ~replay ~seed ~seconds ~trace ~work ~spans =
  let setup () =
    let d = Daemon_proc.start ~rtt ~dir:(Filename.concat work "daemon") ~args:([ "-b"; "3" ] @ common) ~workers:1 in
    stopping_on_error d (fun () ->
        let conn = connect d in
        let sessions = Drive.open_sessions conn ~seed ~count in
        let w = Drive.session_loop conn sessions ~seconds:120. ~max_steps:warmup in
        if w.Drive.failures > 0 || Check.sessions w.Drive.steps > 0 then failwith "warm-up steps failed";
        (sessions, d, conn))
  in
  let teardown (_, d, conn) =
    Wire.close conn;
    Daemon_proc.stop d
  in
  let ((sessions, d, conn) as live), setup_s = repeated_setup ~setup ~teardown in
  Fun.protect
    ~finally:(fun () -> teardown live)
    (fun () ->
      let r, u = measured d (fun () -> Drive.session_loop conn sessions ~seconds) in
      let wrong = Check.sessions r.Drive.steps in
      let steps = List.length r.Drive.steps in
      let e2e =
        (setup_metric setup_s :: latency_notes "ack" (Slices.summarize r.Drive.slices r.Drive.mutate))
        @ latency_notes "result" (Slices.summarize r.Drive.slices r.Drive.resolve)
        @ [
            m "jobs_per_s" "1/s"
              (Slices.rate r.Drive.slices r.Drive.solved_at)
              ~note:
                (Printf.sprintf "n=%d steps in %.2f s, %d sessions" (List.length r.Drive.resolve)
                   r.Drive.elapsed count);
          ]
      in
      let problems = List.init count (fun i -> Inputs.load_exn (Inputs.session_seed ~seed i)) in
      let host = host_metrics u ~jobs:steps ~bytes:(Procfs.du d.Daemon_proc.spool) ~late:[] ~problems in
      let layers, wrong_trace =
        if not trace then ([], 0)
        else
          let on, overhead, wrong = traced ~work ~spans (Trace.sessions ~seed ~count ~steps:replay) in
          (fst (layer_metrics on ~overhead) @ [ m "admission.wait_ms" "ms" 0. ], wrong)
      in
      {
        e2e;
        host;
        layers;
        attempted = r.Drive.attempted;
        failed = r.Drive.failures + wrong;
        wrong = wrong + wrong_trace;
      })

(* ------------------------------------------------------------------ *)
(* command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1904 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ingest, solve or session");
      ("--seed", Arg.Set_int seed, "N input seed (default 1904)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let spec =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ " (want ingest, solve or session)");
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists rtt) then begin
    prerr_endline ("no rtt binary at " ^ rtt);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run_dir = Filename.concat work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  let spans = Filename.concat work (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
  Daemon_proc.mkdir_p run_dir;
  let trace = !trace = 1 and seconds = float_of_int !seconds in
  let r =
    Fun.protect
      ~finally:(fun () -> Daemon_proc.rm_rf run_dir)
      (fun () ->
        match spec with
        | Jobs s -> run_jobs s ~seed:!seed ~seconds ~trace ~work:run_dir ~spans
        | Sessions { count; warmup; replay } ->
            run_sessions ~count ~warmup ~replay ~seed:!seed ~seconds ~trace ~work:run_dir ~spans)
  in
  Printf.printf "workload %s, seed %d, %.0f s measured, trace %d\n" !workload !seed seconds
    (if trace then 1 else 0);
  Printf.printf "end to end:\n";
  List.iter print_metric r.e2e;
  Printf.printf "  %-28s %14.4f %-6s %d of %d\n" "failed_share" (per (float_of_int r.failed) r.attempted)
    "share" r.failed r.attempted;
  Printf.printf "run:\n";
  List.iter print_metric r.host;
  if trace then begin
    Printf.printf "per layer (traced replay, spans in %s):\n" spans;
    List.iter print_metric r.layers
  end;
  let shown = if trace then r.layers @ r.host else List.filter (fun x -> List.mem x.name end_to_end) r.e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (r.wrong = 0)
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            let quote = Rtt_engine.Jsonout.quote in
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote x.name) (number x.value) (quote x.unit_))
          shown));
  exit (if r.wrong = 0 then 0 else 1)
