(* rtt - command-line front end for the resource-time tradeoff library.

   Subcommands:
     solve    run an algorithm on an instance file
     gen      generate a random instance file
     exact    brute-force optimum of a (small) instance file
     sp       solve a random series-parallel instance with the exact DP
     reduce   run one of the paper's hardness reductions
     dot      export an instance's DAG as Graphviz
     demo     the Figure 4/5 walkthrough
     serve    drain a spool directory of jobs, crash-safely
     jobs     report the journaled state of a spool
     daemon   serve the batch service over a socket
     submit   send an instance to a running daemon
     status   ask a running daemon for one job's state
     session  drive a live mutable instance on a running daemon *)

open Cmdliner
open Rtt_dag
open Rtt_num
open Rtt_core
open Rtt_engine

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)

let instance_arg =
  let doc = "Instance file (see lib/core/io.mli for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc)

let budget_arg =
  let doc = "Resource budget B." in
  Arg.(value & opt int 4 & info [ "b"; "budget" ] ~docv:"B" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Every error class owns a stable nonzero exit code (Error.exit_code);
   the message goes to stderr so stdout stays machine-readable. *)
let report_error e =
  Format.eprintf "rtt: %s@." (Error.to_string e);
  Error.exit_code e

let with_instance path k =
  match Engine.load path with Error e -> report_error e | Ok p -> k p

let alpha_conv =
  let parse s =
    match Rat.of_string s with
    | a when Rat.(a > Rat.zero) && Rat.(a < Rat.one) -> Ok a
    | _ -> Error (`Msg (Printf.sprintf "alpha %s must lie strictly between 0 and 1" s))
    | exception _ ->
        Error (`Msg (Printf.sprintf "alpha %S is not a rational; write e.g. 1/2 or 2/3" s))
  in
  Arg.conv ~docv:"ALPHA" (parse, fun fmt a -> Format.pp_print_string fmt (Rat.to_string a))

let alpha_arg =
  let doc = "Rounding threshold alpha for the bicriteria rung, a rational strictly inside (0, 1)." in
  Arg.(value & opt alpha_conv Rat.half & info [ "alpha" ] ~docv:"ALPHA" ~doc)

let fuel_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "fuel %S must be a non-negative integer" s))
  in
  Arg.conv ~docv:"FUEL" (parse, Format.pp_print_int)

let fuel_arg =
  let doc =
    "Deterministic per-rung step budget (simplex pivots + flow augmentations + exact \
     enumeration steps). A rung that exhausts it fails with fuel-exhausted and the next \
     rung of the chain starts fresh. Unmetered when absent."
  in
  Arg.(value & opt (some fuel_conv) None & info [ "fuel" ] ~docv:"FUEL" ~doc)

let no_warmstart_arg =
  (* a unit term: evaluating it applies the toggle, so commands just
     prepend it and take a leading () *)
  let doc =
    "Disable the float-guided warm start of the exact simplex; every LP then runs the full \
     two-phase method from scratch. Results are identical either way — this is a performance \
     toggle for benchmarking and for auditing the float-free path."
  in
  let term = Arg.(value & flag & info [ "no-float-warmstart" ] ~doc) in
  Term.(const (fun off -> if off then Rtt_lp.Simplex.warmstart_enabled := false) $ term)

let pp_alloc = Engine.render_allocation

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

let algo_enum = Arg.enum (List.map (fun r -> (Policy.rung_name r, r)) Policy.all_rungs)

let policy_conv =
  let parse s = match Policy.of_string s with Ok p -> Ok p | Error m -> Error (`Msg m) in
  Arg.conv ~docv:"CHAIN" (parse, fun fmt p -> Format.pp_print_string fmt (Policy.to_string p))

let inject_conv =
  (* SITE or SITE:AFTER, e.g. lp-infeasible or flow-abort:2 *)
  let parse s =
    let site_str, after =
      match String.index_opt s ':' with
      | None -> (s, Ok 0)
      | Some i -> (
          let tail = String.sub s (i + 1) (String.length s - i - 1) in
          ( String.sub s 0 i,
            match int_of_string_opt tail with
            | Some n when n >= 0 -> Ok n
            | _ -> Error (`Msg (Printf.sprintf "bad trigger count %S" tail)) ))
    in
    match (Faults.of_string site_str, after) with
    | _, (Error _ as e) -> e
    | Some site, Ok after -> Ok (site, after)
    | None, _ ->
        Error
          (`Msg
             (Printf.sprintf "unknown fault site %S (expected %s)" site_str
                (String.concat "|" (List.map Faults.name Faults.all))))
  in
  let print fmt (site, after) = Format.fprintf fmt "%s:%d" (Faults.name site) after in
  Arg.conv ~docv:"SITE[:AFTER]" (parse, print)

let solve_cmd =
  let algo =
    let doc =
      "Single algorithm to run (a one-rung chain): exact | bicriteria | binary-bicriteria | \
       binary | kway | greedy | baseline. Ignored when $(b,--fallback) is given."
    in
    Arg.(value & opt algo_enum Policy.Bicriteria & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)
  in
  let fallback =
    let doc =
      "Degrade through a comma-separated fallback chain instead of a single algorithm, e.g. \
       $(b,exact,bicriteria,greedy). Plain $(b,--fallback) uses the default chain \
       exact,bicriteria,greedy,baseline. Each failed rung is reported, never silent."
    in
    Arg.(
      value
      & opt ~vopt:(Some Policy.default) (some policy_conv) None
      & info [ "fallback" ] ~docv:"CHAIN" ~doc)
  in
  let inject =
    let doc =
      "Arm a fault-injection site before solving (repeatable): lp-infeasible | flow-abort | \
       fuel-zero, optionally with a trigger count as SITE:AFTER. For exercising the fallback \
       chain and the certificate validator."
    in
    Arg.(value & opt_all inject_conv [] & info [ "inject" ] ~docv:"SITE[:AFTER]" ~doc)
  in
  let run () path algo fallback fuel alpha inject budget =
    with_instance path @@ fun p ->
    let policy = match fallback with Some chain -> chain | None -> [ algo ] in
    Faults.reset ();
    List.iter (fun (site, after) -> Faults.arm ~after site) inject;
    let result = Engine.solve ?fuel ~policy ~alpha p ~budget in
    Faults.reset ();
    match result with
    | Error e -> report_error e
    | Ok s ->
        Format.printf "%a@." Engine.pp_success s;
        Format.printf "allocation: %s@." (pp_alloc p s.Engine.allocation);
        0
  in
  let info =
    Cmd.info "solve"
      ~doc:
        "Solve an instance through the hardened engine: structured errors, optional fuel \
         budget, fallback chains, certificate validation."
  in
  Cmd.v info
    Term.(
      const run $ no_warmstart_arg $ instance_arg $ algo $ fallback $ fuel_arg $ alpha_arg
      $ inject $ budget_arg)

(* ------------------------------------------------------------------ *)
(* exact                                                               *)

let exact_cmd =
  let target =
    let doc = "Makespan target (switches to the minimum-resource objective)." in
    Arg.(value & opt (some int) None & info [ "t"; "target" ] ~docv:"T" ~doc)
  in
  let run path budget target fuel =
    with_instance path @@ fun p ->
    match target with
    | None -> (
        match Engine.solve ?fuel ~policy:[ Policy.Exact ] p ~budget with
        | Error e -> report_error e
        | Ok s ->
            Format.printf "optimal makespan: %d (budget used %d of %d)@." s.Engine.makespan
              s.Engine.budget_used budget;
            Format.printf "allocation: %s@." (pp_alloc p s.Engine.allocation);
            0)
    | Some t -> (
        match Rtt_budget.Budget.with_fuel fuel (fun () -> Exact.min_resource p ~target:t) with
        | Some r ->
            Format.printf "minimum resources for makespan <= %d: %d@." t r.Exact.budget_used;
            Format.printf "allocation: %s@." (pp_alloc p r.Exact.allocation);
            0
        | None ->
            Format.printf "target %d is unreachable at any budget@." t;
            0
        | exception Exact.Too_large states -> report_error (Error.Too_large { states })
        | exception Rtt_budget.Budget.Fuel_exhausted { stage; spent } ->
            report_error (Error.Fuel_exhausted { stage; spent }))
  in
  let info = Cmd.info "exact" ~doc:"Brute-force optimum of a small instance." in
  Cmd.v info Term.(const run $ instance_arg $ budget_arg $ target $ fuel_arg)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let kind =
    Arg.enum [ ("hub", `Hub); ("layered", `Layered); ("er", `Er) ]
    |> fun e ->
    Arg.(value & opt e `Hub & info [ "k"; "kind" ] ~docv:"KIND" ~doc:"hub | layered | er (hub instances have fan-in heavy nodes where reducers matter).")
  in
  let n =
    Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices (hubs x fan for hub; layers for layered).")
  in
  let run kind n seed =
    let rng = Random.State.make [| seed |] in
    let g =
      match kind with
      | `Layered -> Gen.layered rng ~layers:n ~width:4 ~edge_prob:0.3
      | `Er -> Gen.erdos_renyi rng ~n ~edge_prob:0.35
      | `Hub ->
          let g = Dag.create () in
          let s = Dag.add_vertex ~label:"s" g in
          let prev = ref s in
          let hubs = max 1 (n / 8) in
          for _ = 1 to hubs do
            let hub = Dag.add_vertex g in
            let feeders = List.init (6 + Random.State.int rng 6) (fun _ -> Dag.add_vertex g) in
            List.iter
              (fun f ->
                Dag.add_edge g !prev f;
                Dag.add_edge g f hub)
              feeders;
            prev := hub
          done;
          let t = Dag.add_vertex ~label:"t" g in
          Dag.add_edge g !prev t;
          g
    in
    let p = Problem.of_race_dag g Problem.Binary in
    print_string (Io.to_string p);
    0
  in
  let info = Cmd.info "gen" ~doc:"Generate a random instance on stdout." in
  Cmd.v info Term.(const run $ kind $ n $ seed_arg)

(* ------------------------------------------------------------------ *)
(* sp                                                                  *)

let sp_cmd =
  let leaves = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of jobs.") in
  let run leaves budget seed =
    let rng = Random.State.make [| seed |] in
    let tree =
      Sp.map
        (fun _ -> Rtt_duration.Binary_split.to_duration ~work:(4 + Random.State.int rng 28))
        (Gen.random_sp rng ~leaves ~series_bias:0.5)
    in
    Format.printf "structure: %a@." (Sp.pp (fun fmt d -> Rtt_duration.Duration.pp fmt d)) tree;
    let ms, alloc = Sp_exact.min_makespan tree ~budget in
    Format.printf "optimal makespan with B=%d: %d@." budget ms;
    Format.printf "allocation: %s@."
      (String.concat " " (List.map string_of_int (Sp.leaves alloc)));
    0
  in
  let info = Cmd.info "sp" ~doc:"Exact DP on a random series-parallel instance (Section 3.4)." in
  Cmd.v info Term.(const run $ leaves $ budget_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* reduce                                                              *)

let reduce_cmd =
  let kind =
    Arg.enum
      [ ("sat", `Sat); ("sat-split", `Split); ("minresource", `Minres); ("partition", `Partition); ("n3dm", `N3dm) ]
    |> fun e ->
    Arg.(required & pos 0 (some e) None & info [] ~docv:"KIND" ~doc:"sat | sat-split | minresource | partition | n3dm.")
  in
  let run kind seed =
    let open Rtt_reductions in
    let rng = Random.State.make [| seed |] in
    (match kind with
    | `Sat ->
        let f = Sat.random rng ~n_vars:3 ~n_clauses:2 in
        Format.printf "formula: %a@." Sat.pp f;
        let red = Gadget_general.reduce f in
        Format.printf "budget n+2m = %d, target 1, %d jobs@." red.Gadget_general.budget
          (Problem.n_jobs red.Gadget_general.instance.Aoa.problem);
        (match Gadget_general.decide_by_assignments red with
        | Some _ -> Format.printf "result: YES (matches SAT oracle: %b)@." (Sat.solve f <> None)
        | None -> Format.printf "result: NO (matches SAT oracle: %b)@." (Sat.solve f = None))
    | `Split ->
        let f = Sat.random rng ~n_vars:3 ~n_clauses:1 in
        Format.printf "formula: %a@." Sat.pp f;
        let red = Gadget_split.reduce f in
        Format.printf "x = %d, y = %d, budget 2n+4m = %d, target %d, %d cells@." red.Gadget_split.x
          red.Gadget_split.y red.Gadget_split.budget red.Gadget_split.target
          (Dag.n_vertices red.Gadget_split.dag);
        (match Gadget_split.decide_by_assignments red with
        | Some _ -> Format.printf "result: YES (oracle: %b)@." (Sat.solve f <> None)
        | None -> Format.printf "result: NO (oracle: %b)@." (Sat.solve f = None))
    | `Minres ->
        let f = Sat.random rng ~n_vars:4 ~n_clauses:3 in
        Format.printf "formula: %a@." Sat.pp f;
        let red = Minresource_red.reduce f in
        Format.printf "minimum units: %d (2 iff satisfiable; oracle satisfiable: %b)@."
          (Minresource_red.min_units red) (Sat.solve f <> None)
    | `Partition ->
        let items = Array.init (4 + Random.State.int rng 3) (fun _ -> 1 + Random.State.int rng 8) in
        Format.printf "items: [%s]@."
          (String.concat "; " (Array.to_list (Array.map string_of_int items)));
        let red = Partition_red.reduce items in
        Format.printf "budget %d, target %d, treewidth certificate width %d@." red.Partition_red.budget
          red.Partition_red.target
          (Treewidth.width (Partition_red.tree_decomposition red));
        Format.printf "result: %s (oracle: %b)@."
          (if Partition_red.decide_by_subsets red <> None then "YES" else "NO")
          (Partition_red.partition_exists items)
    | `N3dm ->
        let n = 2 + Random.State.int rng 2 in
        let rec gen () =
          let mk () = Array.init n (fun _ -> 1 + Random.State.int rng 5) in
          let a = mk () and b = mk () and c = mk () in
          let total = Array.fold_left ( + ) 0 (Array.concat [ a; b; c ]) in
          if total mod n = 0 then (a, b, c) else gen ()
        in
        let a, b, c = gen () in
        let show arr = String.concat ";" (Array.to_list (Array.map string_of_int arr)) in
        Format.printf "A=[%s] B=[%s] C=[%s]@." (show a) (show b) (show c);
        let red = Rtt_reductions.N3dm_red.reduce ~a ~b ~c in
        Format.printf "budget n^2 = %d, target 2M+T = %d@." (N3dm_red.budget red) (N3dm_red.target red);
        Format.printf "result: %s (oracle: %b)@."
          (if N3dm_red.decide_by_matchings red <> None then "YES" else "NO")
          (N3dm_red.n3dm_exists ~a ~b ~c <> None));
    0
  in
  let info = Cmd.info "reduce" ~doc:"Run one of the paper's hardness reductions on a random instance." in
  Cmd.v info Term.(const run $ kind $ seed_arg)

(* ------------------------------------------------------------------ *)
(* pareto                                                              *)

let pareto_cmd =
  let approx =
    Arg.(value & flag & info [ "approx" ] ~doc:"Use the (4/3,14/5) LP pipeline instead of brute force.")
  in
  let max_budget =
    Arg.(value & opt int 8 & info [ "max-budget" ] ~docv:"B" ~doc:"Largest budget to sweep (default 8; exact sweeps are exponential).")
  in
  let run () path approx max_budget =
    with_instance path @@ fun p ->
    let curve =
      if approx then Pareto.approximate ~max_budget p else Pareto.exact ~max_budget p
    in
    Format.printf "%8s | %10s@." "budget" "makespan";
    List.iter
      (fun (pt : Pareto.point) -> Format.printf "%8d | %10d@." pt.Pareto.budget pt.Pareto.makespan)
      curve;
    let knees = Pareto.knees curve in
    Format.printf "knees: %s@."
      (String.concat ", " (List.map (fun (k : Pareto.point) -> string_of_int k.Pareto.budget) knees));
    0
  in
  let info = Cmd.info "pareto" ~doc:"Sweep the space-time tradeoff curve of an instance." in
  Cmd.v info Term.(const run $ no_warmstart_arg $ instance_arg $ approx $ max_budget)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot_cmd =
  let run path =
    with_instance path @@ fun p ->
    print_string (Dot.to_dot ~name:"instance" p.Problem.dag);
    0
  in
  let info = Cmd.info "dot" ~doc:"Export an instance's DAG as Graphviz DOT on stdout." in
  Cmd.v info Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let demo_cmd =
  let run () =
    let g = Dag.create () in
    let s = Dag.add_vertex ~label:"s" g in
    let a = Dag.add_vertex ~label:"a" g in
    let b = Dag.add_vertex ~label:"b" g in
    let c = Dag.add_vertex ~label:"c" g in
    let d = Dag.add_vertex ~label:"d" g in
    let t = Dag.add_vertex ~label:"t" g in
    let xs = List.init 5 (fun i -> Dag.add_vertex ~label:(Printf.sprintf "x%d" i) g) in
    Dag.add_edge g s a;
    Dag.add_edge g a b;
    Dag.add_edge g b c;
    List.iter
      (fun x ->
        Dag.add_edge g s x;
        Dag.add_edge g x c)
      xs;
    Dag.add_edge g c d;
    Dag.add_edge g (List.hd xs) d;
    Dag.add_edge g d t;
    let p = Problem.of_race_dag g Problem.Binary in
    Format.printf "Figure 4/5 walkthrough: node c has in-degree 6, works = in-degrees.@.";
    let ms0, path = Schedule.critical_path p (Schedule.zero_allocation p) in
    Format.printf "no extra space: makespan %d along %s@." ms0
      (String.concat " -> "
         (List.map (fun v -> Option.value ~default:(string_of_int v) (Dag.label p.Problem.dag v)) path));
    let r = Exact.min_makespan p ~budget:2 in
    Format.printf "two units of space: makespan %d, allocation %s@." r.Exact.makespan
      (pp_alloc p r.Exact.allocation);
    0
  in
  let info = Cmd.info "demo" ~doc:"The Figure 4/5 walkthrough (makespan 11 -> 10 with 2 units)." in
  Cmd.v info Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* serve / jobs                                                        *)

let spool_arg =
  let doc = "Spool directory: instance files ($(b,*.rtt)) plus the journal and sidecars." in
  Arg.(required & opt (some dir) None & info [ "spool" ] ~docv:"DIR" ~doc)

let serve_cmd =
  let open Rtt_service in
  let max_attempts =
    let doc = "Attempts per job before it is declared dead." in
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let deadline_fuel =
    let doc = "Per-attempt fuel deadline; a job that exhausts it fails transiently and is retried." in
    Arg.(value & opt (some fuel_conv) None & info [ "deadline-fuel" ] ~docv:"F" ~doc)
  in
  let checkpoint_every =
    let doc = "Ticks between checkpoint snapshots of the in-flight solve." in
    Arg.(value & opt int 1000 & info [ "checkpoint-every" ] ~docv:"K" ~doc)
  in
  let fallback =
    let doc = "Fallback chain used for every job (default exact,bicriteria,greedy,baseline)." in
    Arg.(value & opt policy_conv Policy.default & info [ "fallback" ] ~docv:"CHAIN" ~doc)
  in
  let no_sleep =
    let doc = "Do not pause between retries (backoff is still journaled)." in
    Arg.(value & flag & info [ "no-sleep" ] ~doc)
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress lines on stderr.") in
  let workers =
    let doc =
      "Drain with $(docv) forked worker processes. The parent keeps sole ownership of the \
       journal; each worker solves in its own process with its own fuel deadline. 1 (the \
       default) drains in-process."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let cache_dir =
    let doc =
      "Content-addressed result cache directory. Solved instances are published under their \
       canonical digest; duplicate instances in the spool are solved once and re-submissions \
       are served from the cache with zero fuel."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let run () spool budget fallback max_attempts deadline_fuel checkpoint_every seed no_sleep
      verbose workers cache_dir =
    if checkpoint_every <= 0 then begin
      Format.eprintf "rtt: --checkpoint-every must be positive@.";
      124
    end
    else if max_attempts <= 0 then begin
      Format.eprintf "rtt: --max-attempts must be positive@.";
      124
    end
    else if workers <= 0 then begin
      Format.eprintf "rtt: --workers must be positive@.";
      124
    end
    else
      Supervisor.run
        {
          Supervisor.spool;
          budget;
          policy = fallback;
          max_attempts;
          deadline_fuel;
          checkpoint_every;
          seed;
          sleep = not no_sleep;
          verbose;
          workers;
          cache_dir;
        }
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Drain a spool directory through the engine, crash-safely: every state change is \
         journaled before it matters, interrupted solves resume from checkpoints, transient \
         failures retry with deterministic backoff. With $(b,--workers) N the drain fans out \
         over forked worker processes (same journal semantics, same outcomes); with \
         $(b,--cache-dir) duplicate instances are solved once and served from a \
         content-addressed cache. Exit 0 when drained, 31 when drained with permanently failed \
         jobs, 30 on SIGTERM/SIGINT."
  in
  Cmd.v info
    Term.(
      const run $ no_warmstart_arg $ spool_arg $ budget_arg $ fallback $ max_attempts
      $ deadline_fuel $ checkpoint_every $ seed_arg $ no_sleep $ verbose $ workers $ cache_dir)

let jobs_cmd =
  let run spool cache_dir json =
    (* a sharded daemon's spool is a directory of shard-<k> sub-spools,
       each with its own journal; the report is their union (jobs are
       partitioned by fingerprint, so no id appears twice) *)
    let shard_spools =
      match Sys.readdir spool with
      | exception Sys_error _ -> []
      | entries ->
          Array.to_list entries
          |> List.filter (fun d ->
                 String.length d > 6
                 && String.sub d 0 6 = "shard-"
                 && try Sys.is_directory (Filename.concat spool d) with Sys_error _ -> false)
          |> List.sort compare
          |> List.map (Filename.concat spool)
    in
    let spools = match shard_spools with [] -> [ spool ] | ds -> ds in
    if json then
      (* one Jobview object per job — the same serializer the daemon's
         `rtt status` answers with, so scripts parse one format *)
      List.iter
        (fun spool ->
          List.iter
            (fun (job, status) ->
              let id =
                let suffix = Rtt_service.Work.instance_suffix in
                if Filename.check_suffix job suffix then Filename.chop_suffix job suffix
                else job
              in
              print_endline (Rtt_service.Jobview.json_of ~id (Some status)))
            (Rtt_service.Journal.to_list (Rtt_service.Supervisor.report ~spool)))
        spools
    else begin
      List.iter
        (fun sp ->
          if List.length spools > 1 then Printf.printf "== %s ==\n" (Filename.basename sp);
          print_string (Rtt_service.Supervisor.render_report ~spool:sp))
        spools;
      match cache_dir with
      | Some dir -> Printf.printf "cache entries: %d\n" (Rtt_engine.Cache.entries ~dir)
      | None -> ()
    end;
    0
  in
  let spool_pos =
    let doc = "Spool directory: instance files ($(b,*.rtt)) plus the journal and sidecars." in
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc)
  in
  let cache_dir =
    let doc = "Also report the entry count of this result cache directory." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let json =
    let doc =
      "Machine-readable output: one JSON object per job (id, state, attempts, fuel, cache_hit, \
       error) — the same rendering $(b,rtt status) returns for daemon jobs."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let info =
    Cmd.info "jobs"
      ~doc:
        "Report the journaled state of every job in a spool, including which completions were \
         served from the result cache."
  in
  Cmd.v info Term.(const run $ spool_pos $ cache_dir $ json)

(* ------------------------------------------------------------------ *)
(* daemon / submit / status                                            *)

let socket_arg =
  let doc = "Unix-domain socket the daemon listens on (or the client connects to)." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let daemon_cmd =
  let open Rtt_net in
  let listen =
    let doc = "Also listen on TCP $(docv) (e.g. 127.0.0.1:7421)." in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let queue =
    let doc = "Admission bound: jobs queued or in flight beyond this are shed with a \
               retry-after hint, never silently dropped."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_frame =
    let doc = "Largest inbound protocol line in bytes; an overlong line poisons only the \
               offending connection."
    in
    Arg.(value & opt int (16 * 1024 * 1024) & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let idle_timeout =
    let doc = "Per-connection read deadline in seconds (connections with unanswered waits \
               are exempt)."
    in
    Arg.(value & opt float 30.0 & info [ "idle-timeout" ] ~docv:"SEC" ~doc)
  in
  let workers =
    let doc = "Forked solver workers (same wire protocol and journal semantics as \
               $(b,rtt serve --workers))."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let fallback =
    let doc = "Fallback chain used for every job (default exact,bicriteria,greedy,baseline)." in
    Arg.(value & opt policy_conv Policy.default & info [ "fallback" ] ~docv:"CHAIN" ~doc)
  in
  let max_attempts =
    let doc = "Attempts per job before it is declared dead." in
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let deadline_fuel =
    let doc = "Per-attempt fuel deadline; a job that exhausts it fails transiently and is retried." in
    Arg.(value & opt (some fuel_conv) None & info [ "deadline-fuel" ] ~docv:"F" ~doc)
  in
  let cache_dir =
    let doc = "Content-addressed result cache directory; duplicate submissions are solved once." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress lines on stderr.") in
  let sync_replicas =
    let doc =
      "Hold each submission's accepted reply until $(docv) followers have durably applied its \
       journal record. 0 (the default) acknowledges as soon as the local fsync returns."
    in
    Arg.(value & opt int 0 & info [ "sync-replicas" ] ~docv:"K" ~doc)
  in
  let inject =
    let doc =
      "Arm a fault-injection site (repeatable), e.g. $(b,repl.frame-drop) to drop a shipped \
       replication frame (the follower must detect the gap and re-sync) — SITE[:AFTER] as in \
       $(b,rtt solve --inject)."
    in
    Arg.(value & opt_all inject_conv [] & info [ "inject" ] ~docv:"SITE[:AFTER]" ~doc)
  in
  let shards =
    let doc =
      "Fork $(docv) acceptor shards over the shared listening socket(s): each shard owns a \
       sub-spool (journal, workers, admission queue) keyed by instance fingerprint, and \
       requests arriving at a non-owner shard are relayed internally — duplicate coalescing \
       and exactly-once stay fleet-wide. 1 (the default) keeps the flat single-process \
       daemon. Incompatible with $(b,--sync-replicas)."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let run () spool socket listen queue max_frame idle_timeout workers fallback max_attempts
      deadline_fuel cache_dir budget seed verbose sync_replicas shards inject =
    let invalid msg =
      Format.eprintf "rtt: %s@." msg;
      124
    in
    let tcp =
      match listen with
      | None -> Ok None
      | Some hp -> (
          match Rtt_net.Client.endpoint_of_string hp with
          | Ok (Rtt_net.Client.Tcp (h, p)) -> Ok (Some (h, p))
          | Ok _ | Error _ -> Error (Printf.sprintf "--listen %s: expected HOST:PORT" hp))
    in
    match tcp with
    | Error msg -> invalid msg
    | Ok tcp ->
        if workers <= 0 then invalid "--workers must be positive"
        else if max_attempts <= 0 then invalid "--max-attempts must be positive"
        else if queue <= 0 then invalid "--queue must be positive"
        else if max_frame < 64 then invalid "--max-frame must be at least 64 bytes"
        else if sync_replicas < 0 then invalid "--sync-replicas must be non-negative"
        else if shards < 1 then invalid "--shards must be at least 1"
        else if shards > 1 && sync_replicas > 0 then
          invalid "--shards and --sync-replicas are incompatible (replication follows one journal writer; run --shards 1)"
        else begin
          Faults.reset ();
          List.iter (fun (site, after) -> Faults.arm ~after site) inject;
          Daemon.run
            {
              Daemon.service =
                {
                  (Rtt_service.Supervisor.default_config ~spool) with
                  budget;
                  policy = fallback;
                  max_attempts;
                  deadline_fuel;
                  seed;
                  verbose;
                  workers;
                  cache_dir;
                };
              socket_path = socket;
              tcp;
              queue_capacity = queue;
              max_frame;
              idle_timeout;
              sync_replicas;
              shards;
            }
        end
  in
  let info =
    Cmd.info "daemon"
      ~doc:
        "Serve the batch service over a socket: framed CRC-checked wire protocol, bounded \
         admission with shed/retry-after, duplicate coalescing by instance digest, and the \
         same crash-safe spool + journal + worker machinery as $(b,rtt serve) — an accepted \
         job survives $(b,kill -9) and is adopted by the next daemon on the same spool. First \
         SIGTERM drains (submissions shed, in-flight clients answered, exit 0/31); a second \
         forces checkpoint-and-abandon (exit 30). With $(b,--shards) N the daemon forks N \
         acceptor processes over the shared socket, each a complete daemon over its own \
         fingerprint-keyed sub-spool."
  in
  Cmd.v info
    Term.(
      const run $ no_warmstart_arg $ spool_arg $ socket_arg $ listen $ queue $ max_frame
      $ idle_timeout $ workers $ fallback $ max_attempts $ deadline_fuel $ cache_dir
      $ budget_arg $ seed_arg $ verbose $ sync_replicas $ shards $ inject)

let connect_attempts_arg =
  let doc =
    "Connection attempts before giving up (capped exponential backoff with deterministic \
     jitter between tries) — enough to ride out a failover window while a follower promotes."
  in
  Arg.(value & opt int 8 & info [ "connect-attempts" ] ~docv:"N" ~doc)

let with_client ?(attempts = 8) socket k =
  let open Rtt_net in
  match Client.endpoint_of_string socket with
  | Error msg ->
      Format.eprintf "rtt: %s@." msg;
      Client.exit_connect
  | Ok ep -> (
      match Client.connect_retry ~attempts ep with
      | Error e ->
          Format.eprintf "rtt: %s@." (Client.error_to_string e);
          Client.exit_connect
      | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> k c))

let report_client_error e =
  let open Rtt_net in
  Format.eprintf "rtt: %s@." (Client.error_to_string e);
  match e with Client.Timeout -> Client.exit_timeout | _ -> Client.exit_connect

(* Map a terminal daemon answer onto this process's exit code: a result
   prints exactly what `rtt solve` would have; a dead job exits with the
   engine code of its journaled error class (31 when the class is
   service-level, e.g. retries-exhausted). *)
let finish_terminal = function
  | Rtt_net.Protocol.Result { rendered; _ } ->
      print_string rendered;
      0
  | Rtt_net.Protocol.Failed { id; error_class; attempts } ->
      Format.eprintf "rtt: job %s failed permanently after %d attempt(s): %s@." id attempts
        error_class;
      Option.value
        (Error.exit_code_of_class error_class)
        ~default:Rtt_service.Supervisor.failed_jobs_exit_code
  | Rtt_net.Protocol.Errored { code = "unknown-job"; msg } ->
      Format.eprintf "rtt: unknown job %s@." msg;
      Rtt_net.Client.exit_unknown_job
  | Rtt_net.Protocol.Errored { code; msg } ->
      Format.eprintf "rtt: daemon error %s: %s@." code msg;
      Rtt_net.Client.exit_connect
  | _ ->
      Format.eprintf "rtt: unexpected daemon response@.";
      Rtt_net.Client.exit_connect

let submit_cmd =
  let open Rtt_net in
  let wait =
    let doc = "Block until the job reaches a terminal state and print the result (byte-identical \
               to a local $(b,rtt solve) of the same instance under the daemon's configuration)."
    in
    Arg.(value & flag & info [ "wait" ] ~doc)
  in
  let timeout =
    let doc = "Give up waiting after $(docv) seconds (exit 42)." in
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let name_arg =
    let doc = "Label for the daemon's log; defaults to the instance file name." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let instance_opt =
    let doc = "Instance file (omit with $(b,--many))." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc)
  in
  let many_arg =
    let doc =
      "Batch submit: $(docv) is a manifest of instance file paths, one per line ($(b,-) reads \
       the manifest from stdin; blank lines and $(b,#) comments are skipped). The whole batch \
       rides one pipelined round trip and is acknowledged per entry, in entry order."
    in
    Arg.(value & opt (some string) None & info [ "many" ] ~docv:"MANIFEST" ~doc)
  in
  let read_body path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* batch path: one submit-many frame, n per-entry acks in order; with
     --wait, pipelined waits matched by id (completion order) *)
  let run_many manifest socket wait timeout name attempts =
    let manifest_lines =
      if manifest = "-" then (
        let acc = ref [] in
        (try
           while true do
             acc := input_line stdin :: !acc
           done
         with End_of_file -> ());
        List.rev !acc)
      else begin
        let ic = open_in manifest in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let acc = ref [] in
            (try
               while true do
                 acc := input_line ic :: !acc
               done
             with End_of_file -> ());
            List.rev !acc)
      end
    in
    let paths =
      List.filter_map
        (fun l ->
          let l = String.trim l in
          if l = "" || l.[0] = '#' then None else Some l)
        manifest_lines
    in
    match List.map (fun p -> (p, read_body p)) paths with
    | exception Sys_error msg ->
        Format.eprintf "rtt: --many: %s@." msg;
        124
    | [] ->
        Format.eprintf "rtt: --many %s: no instance paths in manifest@." manifest;
        124
    | entries -> (
        let name =
          Option.value name
            ~default:(if manifest = "-" then "stdin" else Filename.basename manifest)
        in
        let bodies = List.map snd entries in
        with_client ~attempts socket @@ fun c ->
        match Client.send c (Protocol.Submit_many { name; bodies }) with
        | Error e -> report_client_error e
        | Ok () -> (
            let deadline = Unix.gettimeofday () +. timeout in
            let rec collect k acc =
              if k = 0 then Ok (List.rev acc)
              else
                match Client.recv ~deadline c with
                | Error e -> Error e
                | Ok r -> collect (k - 1) (r :: acc)
            in
            match collect (List.length bodies) [] with
            | Error e -> report_client_error e
            | Ok resps ->
                let accepted = ref [] and shed = ref 0 and rejected = ref None in
                List.iter2
                  (fun (path, _) resp ->
                    match resp with
                    | Protocol.Accepted { id } ->
                        Printf.printf "%s %s\n" path id;
                        if not (List.mem id !accepted) then accepted := id :: !accepted
                    | Protocol.Shed { retry_after_ms } ->
                        incr shed;
                        Format.eprintf "rtt: %s shed; retry in %d ms@." path retry_after_ms
                    | Protocol.Errored { code; msg } ->
                        if !rejected = None then rejected := Some code;
                        Format.eprintf "rtt: %s rejected (%s): %s@." path code msg
                    | _ ->
                        if !rejected = None then rejected := Some "bad-response";
                        Format.eprintf "rtt: %s: unexpected daemon response@." path)
                  entries resps;
                let submit_code =
                  match !rejected with
                  | Some code ->
                      Option.value (Error.exit_code_of_class code) ~default:Client.exit_connect
                  | None -> if !shed > 0 then Client.exit_shed else 0
                in
                if (not wait) || !accepted = [] then submit_code
                else begin
                  (* pipelined waits: answers arrive in completion
                     order, so match them by job id *)
                  let ids = List.rev !accepted in
                  let pending = Hashtbl.create 16 in
                  List.iter (fun id -> Hashtbl.replace pending id ()) ids;
                  let send_err =
                    List.fold_left
                      (fun acc id ->
                        match acc with
                        | Some _ -> acc
                        | None -> (
                            match Client.send c (Protocol.Wait { id }) with
                            | Ok () -> None
                            | Error e -> Some e))
                      None ids
                  in
                  match send_err with
                  | Some e -> report_client_error e
                  | None ->
                      let failure = ref None in
                      let settle id code =
                        if Hashtbl.mem pending id then begin
                          Hashtbl.remove pending id;
                          match code with
                          | None -> Printf.printf "%s done\n" id
                          | Some c ->
                              if !failure = None then failure := Some c;
                              Printf.printf "%s failed\n" id
                        end
                      in
                      let rec drain () =
                        if Hashtbl.length pending = 0 then
                          if submit_code <> 0 then submit_code
                          else Option.value !failure ~default:0
                        else
                          match Client.recv ~deadline c with
                          | Error e -> report_client_error e
                          | Ok (Protocol.Result { id; _ }) ->
                              settle id None;
                              drain ()
                          | Ok (Protocol.Failed { id; error_class; _ }) ->
                              settle id
                                (Some
                                   (Option.value
                                      (Error.exit_code_of_class error_class)
                                      ~default:Rtt_service.Supervisor.failed_jobs_exit_code));
                              drain ()
                          | Ok (Protocol.Errored { code = "unknown-job"; msg }) ->
                              settle msg (Some Client.exit_unknown_job);
                              drain ()
                          | Ok _ -> drain ()
                      in
                      drain ()
                end))
  in
  let run path socket wait timeout name attempts many =
    match (path, many) with
    | None, None ->
        Format.eprintf "rtt: an INSTANCE file (or --many MANIFEST) is required@.";
        124
    | Some _, Some _ ->
        Format.eprintf "rtt: INSTANCE and --many are mutually exclusive@.";
        124
    | None, Some manifest -> run_many manifest socket wait timeout name attempts
    | Some path, None ->
    let body = read_body path in
    let name = Option.value name ~default:(Filename.basename path) in
    (* a wait that survives the daemon dying under it: reconnect with
       backoff and re-send the wait — the journal makes the answer
       durable, so a promoted follower (or restarted daemon) on the
       same socket answers it truthfully *)
    let rec wait_loop ~deadline c id =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then report_client_error Client.Timeout
      else
        match Client.request ~timeout:remaining c (Protocol.Wait { id }) with
        | Ok resp -> finish_terminal resp
        | Error Client.Timeout -> report_client_error Client.Timeout
        | Error e -> (
            Format.eprintf "rtt: connection lost (%s); reconnecting@."
              (Client.error_to_string e);
            match Client.endpoint_of_string socket with
            | Error _ -> report_client_error e
            | Ok ep -> (
                match Client.connect_retry ~attempts ep with
                | Error e -> report_client_error e
                | Ok c' ->
                    Fun.protect
                      ~finally:(fun () -> Client.close c')
                      (fun () -> wait_loop ~deadline c' id)))
    in
    with_client ~attempts socket @@ fun c ->
    match Client.request ~timeout c (Protocol.Submit { name; body }) with
    | Error e -> report_client_error e
    | Ok (Protocol.Shed { retry_after_ms }) ->
        Format.eprintf "rtt: submission shed; retry in %d ms@." retry_after_ms;
        Client.exit_shed
    | Ok (Protocol.Errored { code; msg }) ->
        Format.eprintf "rtt: rejected (%s): %s@." code msg;
        Option.value (Error.exit_code_of_class code) ~default:Client.exit_connect
    | Ok (Protocol.Accepted { id }) ->
        if not wait then begin
          print_endline id;
          0
        end
        else wait_loop ~deadline:(Unix.gettimeofday () +. timeout) c id
    | Ok _ ->
        Format.eprintf "rtt: unexpected daemon response@.";
        Client.exit_connect
  in
  let info =
    Cmd.info "submit"
      ~doc:
        "Submit an instance file to a running $(b,rtt daemon). Prints the durable job id (the \
         instance's content digest — duplicate submissions coalesce), or with $(b,--wait) \
         blocks for the result. Connections (and a $(b,--wait) interrupted by a failover) are \
         retried with backoff for up to $(b,--connect-attempts) tries. Exit codes: 0 success, \
         40 connect/protocol failure, 41 shed, 42 wait timeout; a permanently failed job exits \
         with its error class's engine code. With the daemon's $(b,--sync-replicas) K, the \
         accepted reply itself certifies the submission is durable on K followers. With \
         $(b,--many) MANIFEST, submits every listed instance in one pipelined batch — one \
         round trip, per-entry acks (and with $(b,--wait), one $(b,id done/failed) line per \
         distinct job)."
  in
  Cmd.v info
    Term.(
      const run $ instance_opt $ socket_arg $ wait $ timeout $ name_arg $ connect_attempts_arg
      $ many_arg)

let status_cmd =
  let open Rtt_net in
  let id_arg =
    let doc =
      "Job id as printed by $(b,rtt submit). When omitted, asks for the node's replication \
       stats instead (role, journal length, per-follower watermarks and lag)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB_ID" ~doc)
  in
  let run id socket attempts =
    with_client ~attempts socket @@ fun c ->
    match id with
    | None -> (
        match Client.request c Protocol.Stats with
        | Error e -> report_client_error e
        | Ok (Protocol.Stats_is { json }) ->
            print_endline json;
            0
        | Ok (Protocol.Errored { code; msg }) ->
            Format.eprintf "rtt: daemon error %s: %s@." code msg;
            Client.exit_connect
        | Ok _ ->
            Format.eprintf "rtt: unexpected daemon response@.";
            Client.exit_connect)
    | Some id -> (
        match Client.request c (Protocol.Status { id }) with
        | Error e -> report_client_error e
        | Ok (Protocol.Status_is { json; _ }) ->
            print_endline json;
            if
              (* state "unknown" is still printed, but signalled in the exit code *)
              let marker = {json|"state":"unknown"|json} in
              let rec contains i =
                i + String.length marker <= String.length json
                && (String.sub json i (String.length marker) = marker || contains (i + 1))
              in
              contains 0
            then Client.exit_unknown_job
            else 0
        | Ok (Protocol.Errored { code; msg }) ->
            Format.eprintf "rtt: daemon error %s: %s@." code msg;
            Client.exit_connect
        | Ok _ ->
            Format.eprintf "rtt: unexpected daemon response@.";
            Client.exit_connect)
  in
  let info =
    Cmd.info "status"
      ~doc:
        "Ask a running $(b,rtt daemon) (or $(b,rtt replica)) for one job's state as JSON (the \
         same object $(b,rtt jobs --json) prints from the spool), or — with no job id — for \
         the node's replication stats: role, journal length, per-follower sent/acked \
         watermarks and lag, and the depth of the $(b,--sync-replicas) gate. Exit 0, or 43 \
         when the daemon has no trace of the job."
  in
  Cmd.v info Term.(const run $ id_arg $ socket_arg $ connect_attempts_arg)

let session_cmd =
  let open Rtt_net in
  let action =
    let doc = "open | mutate | solve | close." in
    Arg.(
      required
      & pos 0
          (some (enum [ ("open", `Open); ("mutate", `Mutate); ("solve", `Solve); ("close", `Close) ]))
          None
      & info [] ~docv:"ACTION" ~doc)
  in
  let sid_arg =
    let doc = "Session id: 1-64 characters from [A-Za-z0-9._-]." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SID" ~doc)
  in
  let rest =
    let doc =
      "For $(b,open): an optional instance file that seeds a fresh session. For $(b,mutate): \
       the mutation, unquoted — e.g. $(b,add-edge 0 3), $(b,set-budget 4), $(b,add-job 1:5 \
       2:2), $(b,set-duration-option 1 1:4), $(b,set-alpha 2/3), $(b,remove-job 2), or \
       $(b,seed) followed by an instance file."
    in
    Arg.(value & pos_right 1 string [] & info [] ~docv:"ARG" ~doc)
  in
  let timeout =
    let doc = "Give up after $(docv) seconds (exit 42)." in
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let read_body path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run action sid rest socket timeout attempts =
    let usage msg =
      Format.eprintf "rtt: %s@." msg;
      124
    in
    let roundtrip req =
      with_client ~attempts socket @@ fun c ->
      match Client.request ~timeout c req with
      | Error e -> report_client_error e
      | Ok (Protocol.Session_ok { revision; _ }) ->
          Printf.printf "%s revision %d\n" sid revision;
          0
      | Ok (Protocol.Session_result { fuel; warm; rendered; _ }) ->
          (* the canonical answer on stdout (byte-identical to a cold
             solve); the per-solve cost on stderr where it cannot
             perturb a diff against one *)
          print_string rendered;
          Format.eprintf "fuel: %d steps (%s)@." fuel (if warm then "warm" else "cold");
          0
      | Ok (Protocol.Errored { code = "unknown-session"; msg }) ->
          Format.eprintf "rtt: unknown session %s@." msg;
          Client.exit_unknown_job
      | Ok (Protocol.Errored { code; msg }) ->
          Format.eprintf "rtt: daemon error %s: %s@." code msg;
          Option.value (Error.exit_code_of_class code) ~default:Client.exit_connect
      | Ok _ ->
          Format.eprintf "rtt: unexpected daemon response@.";
          Client.exit_connect
    in
    match action with
    | `Open -> (
        match rest with
        | [] -> roundtrip (Protocol.Session_open { sid; body = None })
        | [ path ] -> (
            match read_body path with
            | body -> roundtrip (Protocol.Session_open { sid; body = Some body })
            | exception Sys_error msg -> usage msg)
        | _ -> usage "session open takes at most one instance file")
    | `Mutate -> (
        match rest with
        | [] -> usage "session mutate needs a mutation, e.g. add-edge 0 3"
        | [ "seed"; path ] -> (
            (* the seed op carries a whole instance: accept a file path
               on the command line and escape it client-side *)
            match read_body path with
            | body ->
                roundtrip
                  (Protocol.Session_mutate
                     { sid; op = "seed " ^ Rtt_service.Frame.escape body })
            | exception Sys_error msg -> usage msg)
        | words -> roundtrip (Protocol.Session_mutate { sid; op = String.concat " " words }))
    | `Solve -> roundtrip (Protocol.Session_solve { sid })
    | `Close -> roundtrip (Protocol.Session_close { sid })
  in
  let info =
    Cmd.info "session"
      ~doc:
        "Drive a live session on a running $(b,rtt daemon): $(b,open) creates (or reattaches \
         to) a mutable instance, $(b,mutate) applies one validated, journaled mutation, \
         $(b,solve) re-solves warm from the previous answer (printing the canonical answer \
         text — byte-identical to a cold solve — on stdout and the fuel actually spent on \
         stderr), and $(b,close) discards the session. Every acknowledged mutation survives \
         $(b,kill -9): the daemon replays the session journal on reattach. Exit 0, 43 for an \
         unknown session, 40/42 for connection failures and timeouts."
  in
  Cmd.v info
    Term.(const run $ action $ sid_arg $ rest $ socket_arg $ timeout $ connect_attempts_arg)

let loadgen_cmd =
  let open Rtt_net in
  let clients =
    let doc = "Concurrent pipelined connections." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"C" ~doc)
  in
  let rate =
    let doc =
      "Offered load in jobs/sec across all connections, open-loop: the arrival schedule does \
       not slow down when the daemon does (no coordinated omission). 0 switches to \
       saturation mode: every connection is kept topped up to $(b,--depth) in-flight."
    in
    Arg.(value & opt float 0. & info [ "rate" ] ~docv:"JOBS/SEC" ~doc)
  in
  let depth =
    let doc = "Per-connection in-flight bound in saturation mode." in
    Arg.(value & opt int 32 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Measured seconds (after warmup)." in
    Arg.(value & opt float 10. & info [ "duration" ] ~docv:"SEC" ~doc)
  in
  let warmup =
    let doc = "Leading seconds excluded from the statistics." in
    Arg.(value & opt float 1. & info [ "warmup" ] ~docv:"SEC" ~doc)
  in
  let distinct =
    let doc =
      "Number of distinct generated instances cycled through (the daemon coalesces duplicate \
       fingerprints, so repeats of these measure the dedup/ack path, not fresh solves)."
    in
    Arg.(value & opt int 64 & info [ "distinct" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Also write the JSON report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run socket clients rate depth duration warmup distinct seed out =
    let invalid msg =
      Format.eprintf "rtt: %s@." msg;
      124
    in
    if clients < 1 then invalid "--clients must be positive"
    else if rate < 0. then invalid "--rate must be non-negative"
    else if depth < 1 then invalid "--depth must be positive"
    else if distinct < 1 then invalid "--distinct must be positive"
    else
      match Client.endpoint_of_string socket with
      | Error msg -> invalid msg
      | Ok endpoint -> (
          (* small hub instances, the bench workload shape: distinct
             seeds give distinct fingerprints, so shard routing spreads
             them and coalescing still gets exercised by the cycling *)
          let bodies =
            Array.init distinct (fun i ->
                let rng = Random.State.make [| seed + i |] in
                let g = Gen.layered rng ~layers:3 ~width:3 ~edge_prob:0.4 in
                Io.to_string (Problem.of_race_dag g Problem.Binary))
          in
          match
            Loadgen.run
              { Loadgen.endpoint; clients; rate; depth; duration; warmup; bodies }
          with
          | Error msg ->
              Format.eprintf "rtt: loadgen: %s@." msg;
              Client.exit_connect
          | Ok report ->
              let json = Loadgen.to_json report in
              print_endline json;
              (match out with
              | None -> ()
              | Some path -> Rtt_diskio.Diskio.atomic_write ~path (json ^ "\n"));
              if report.Loadgen.acked = 0 then Client.exit_connect else 0)
  in
  let info =
    Cmd.info "loadgen"
      ~doc:
        "Generate load against a running $(b,rtt daemon) and report throughput and latency \
         quantiles: $(b,--clients) concurrent pipelined connections submit generated \
         instances either open-loop at a fixed $(b,--rate) (latency under offered load, no \
         coordinated omission) or in saturation mode (peak jobs/sec), with ack latencies in \
         an HDR-style histogram. Prints one JSON object ($(b,rtt-loadgen/1)); \
         $(b,scripts/loadgen_gate.sh) turns it into a CI latency-SLO gate. Exit 0, or 40 if \
         nothing was acknowledged."
  in
  Cmd.v info
    Term.(
      const run $ socket_arg $ clients $ rate $ depth $ duration $ warmup $ distinct $ seed_arg
      $ out)

let replica_cmd =
  let open Rtt_net in
  let primary =
    let doc = "The primary to follow: a Unix-socket path or HOST:PORT." in
    Arg.(required & opt (some string) None & info [ "primary" ] ~docv:"ENDPOINT" ~doc)
  in
  let takeover_after =
    let doc =
      "Promote automatically once the primary link has been down $(docv) seconds. Without \
       this, only an explicit $(b,rtt promote) fails over."
    in
    Arg.(value & opt (some float) None & info [ "takeover-after" ] ~docv:"SEC" ~doc)
  in
  let cache_dir =
    let doc = "Where shipped cache entries land (and the cache served after promotion)." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let max_frame =
    let doc = "Largest inbound protocol line in bytes." in
    Arg.(value & opt int (16 * 1024 * 1024) & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let workers =
    let doc = "Forked solver workers once promoted (as $(b,rtt daemon --workers))." in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let fallback =
    let doc = "Fallback chain once promoted (default exact,bicriteria,greedy,baseline)." in
    Arg.(value & opt policy_conv Policy.default & info [ "fallback" ] ~docv:"CHAIN" ~doc)
  in
  let max_attempts =
    let doc = "Attempts per job before it is declared dead (once promoted)." in
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let deadline_fuel =
    let doc = "Per-attempt fuel deadline once promoted." in
    Arg.(value & opt (some fuel_conv) None & info [ "deadline-fuel" ] ~docv:"F" ~doc)
  in
  let queue =
    let doc = "Admission bound once promoted." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let inject =
    let doc =
      "Arm a fault-injection site (repeatable), e.g. $(b,repl.ack-delay) to swallow one \
       per-frame acknowledgement — SITE[:AFTER] as in $(b,rtt solve --inject)."
    in
    Arg.(value & opt_all inject_conv [] & info [ "inject" ] ~docv:"SITE[:AFTER]" ~doc)
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress lines on stderr.") in
  let run () spool socket primary takeover_after cache_dir max_frame workers fallback
      max_attempts deadline_fuel queue budget seed inject verbose =
    match Client.endpoint_of_string primary with
    | Error msg ->
        Format.eprintf "rtt: --primary %s@." msg;
        124
    | Ok ep -> (
        Faults.reset ();
        List.iter (fun (site, after) -> Faults.arm ~after site) inject;
        let outcome =
          Standby.run
            {
              Standby.spool;
              socket_path = socket;
              primary = ep;
              cache_dir;
              max_frame;
              takeover_after;
              seed;
              verbose;
            }
        in
        match outcome with
        | Standby.Exit code -> code
        | Standby.Promote ->
            (* same spool, same socket: the startup replay is the claim
               replay, so a job the dead primary had started resumes at
               attempt + 1 — exactly once *)
            Daemon.run
              {
                Daemon.service =
                  {
                    (Rtt_service.Supervisor.default_config ~spool) with
                    budget;
                    policy = fallback;
                    max_attempts;
                    deadline_fuel;
                    seed;
                    verbose;
                    workers;
                    cache_dir;
                  };
                socket_path = socket;
                tcp = None;
                queue_capacity = queue;
                max_frame;
                idle_timeout = 30.0;
                sync_replicas = 0;
                shards = 1;
              })
  in
  let info =
    Cmd.info "replica"
      ~doc:
        "Follow a running $(b,rtt daemon) as a warm standby: replay its journal stream \
         frame-by-frame into a local spool (byte-for-byte identical at quiescence), \
         acknowledge with a durable watermark, and serve read-only $(b,status)/$(b,stats)/\
         terminal $(b,wait)s locally. On $(b,rtt promote) — or when the primary stays dead \
         past $(b,--takeover-after) — seals the journal, replays claims, and takes over as \
         the primary on the same socket with exactly-once semantics preserved."
  in
  Cmd.v info
    Term.(
      const run $ no_warmstart_arg $ spool_arg $ socket_arg $ primary $ takeover_after
      $ cache_dir $ max_frame $ workers $ fallback $ max_attempts $ deadline_fuel $ queue
      $ budget_arg $ seed_arg $ inject $ verbose)

let promote_cmd =
  let open Rtt_net in
  let run socket attempts =
    with_client ~attempts socket @@ fun c ->
    match Client.request c Protocol.Promote with
    | Error e -> report_client_error e
    | Ok Protocol.Promoting ->
        print_endline "promoting";
        0
    | Ok (Protocol.Errored { code; msg }) ->
        Format.eprintf "rtt: %s: %s@." code msg;
        Client.exit_connect
    | Ok _ ->
        Format.eprintf "rtt: unexpected response@.";
        Client.exit_connect
  in
  let info =
    Cmd.info "promote"
      ~doc:
        "Tell an $(b,rtt replica) (by its socket) to stop following and take over as primary: \
         it fsync-seals its journal tail, replays claims, and starts serving on its socket. \
         Sent to a primary this is refused with $(b,bad-role)."
  in
  Cmd.v info Term.(const run $ socket_arg $ connect_attempts_arg)

let fsck_cmd =
  let open Rtt_service in
  let spool_pos =
    let doc = "Spool directory to audit: instance files, journal, result/checkpoint sidecars." in
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc)
  in
  let cache_dir =
    let doc = "Also audit this result cache directory (checksums, and quarantine on repair)." in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let budget =
    let doc =
      "Enable the fingerprint audit: re-validate each cache entry reachable from a spool \
       instance against that instance under budget $(docv) (must match the daemon's \
       $(b,--budget) for the digests to line up)."
    in
    Arg.(value & opt (some int) None & info [ "b"; "budget" ] ~docv:"B" ~doc)
  in
  let fallback =
    let doc = "Fallback chain the fingerprint audit digests under (as the daemon's)." in
    Arg.(value & opt policy_conv Policy.default & info [ "fallback" ] ~docv:"CHAIN" ~doc)
  in
  let repair =
    let doc =
      "Fix what is fixable: seal the journal tail, delete corrupt cache entries, bad \
       checkpoints and tmp litter, and — with $(b,--from) — backfill missing records and \
       files from a live peer."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let from =
    let doc =
      "A live primary or replica (Unix-socket path or HOST:PORT) to pull backfill findings \
       from over the replication protocol."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"ENDPOINT" ~doc)
  in
  let run spool cache_dir budget fallback repair from =
    let scan () = Fsck.scan ~spool ?cache_dir ?budget ~policy:fallback () in
    let report = scan () in
    print_string (Fsck.render report);
    if not (Fsck.dirty report) then Fsck.clean_exit_code
    else if not repair then Fsck.dirty_exit_code
    else begin
      let performed, remaining = Fsck.repair ~spool report in
      List.iter
        (fun f -> Printf.printf "repaired %s: %s\n" f.Fsck.code f.Fsck.file)
        performed;
      (* with a peer at hand, always catch up — a sealed journal that
         lost whole committed records looks locally self-consistent,
         so only the peer knows the tail is missing *)
      let pull_error =
        match (remaining, from) with
        | [], None -> None
        | _ :: _, None ->
            Some
              "backfill findings remain; pass --from ENDPOINT (a live primary or replica) \
               to pull them"
        | _, Some ep -> (
              match Rtt_net.Client.endpoint_of_string ep with
              | Error msg -> Some ("--from " ^ msg)
              | Ok ep -> (
                  let offer = if Fsck.offer_zero report then Some 0 else None in
                  match Rtt_net.Catchup.pull ~spool ?cache_dir ?offer ep with
                  | Ok p ->
                      Printf.printf
                        "backfilled %d record%s and %d attachment%s from a peer holding %d\n"
                        p.Rtt_net.Catchup.applied
                        (if p.Rtt_net.Catchup.applied = 1 then "" else "s")
                        p.Rtt_net.Catchup.attachments
                        (if p.Rtt_net.Catchup.attachments = 1 then "" else "s")
                        p.Rtt_net.Catchup.records;
                      None
                  | Error msg -> Some ("backfill failed: " ^ msg)))
      in
      (match pull_error with Some msg -> Printf.eprintf "rtt: %s\n%!" msg | None -> ());
      (* the verdict is a fresh audit, not bookkeeping: repaired means
         a rescan now comes back clean *)
      let after = scan () in
      if Fsck.dirty after then begin
        print_string (Fsck.render after);
        Fsck.dirty_exit_code
      end
      else Fsck.repaired_exit_code
    end
  in
  let info =
    Cmd.info "fsck"
      ~doc:
        "Audit a spool (and optionally its result cache) for every kind of damage a crash or \
         disk fault can leave: torn or truncated journal tails, stranded records, missing or \
         orphaned instance/result files, corrupt or stale checkpoint sidecars, \
         checksum-failing cache entries — and, with $(b,--budget), cache entries whose bytes \
         are intact but whose claim no longer validates against the instance. With \
         $(b,--repair), seals and deletes what is locally fixable and pulls the rest from a \
         live peer given by $(b,--from). Exit 0 when clean, 50 when damage remains, 51 when \
         damage was found and fully repaired."
  in
  Cmd.v info Term.(const run $ spool_pos $ cache_dir $ budget $ fallback $ repair $ from)

let chaos_cmd =
  let open Rtt_service in
  let seeds =
    let doc = "Number of seeded fault schedules to run, starting at $(b,--first-seed)." in
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let first_seed =
    let doc = "First seed of the batch." in
    Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"S" ~doc)
  in
  let seed =
    let doc =
      "Run exactly this one seed (for replaying a reported failure) instead of a batch."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"S" ~doc)
  in
  let schedule =
    let parse s = Result.map_error (fun m -> `Msg m) (Chaos.schedule_of_string s) in
    let sched_conv =
      Arg.conv ~docv:"SITE:AFTER,..."
        (parse, fun fmt s -> Format.pp_print_string fmt (Chaos.schedule_to_string s))
    in
    let doc =
      "Override the seed-derived schedule with this exact one (requires $(b,--seed) for the \
       workload), e.g. $(b,disk.fsync-fail:3,engine.fuel-zero:0)."
    in
    Arg.(value & opt (some sched_conv) None & info [ "schedule" ] ~docv:"SITE:AFTER,..." ~doc)
  in
  let mode =
    let doc =
      "Workload: $(b,inproc) (supervisor drain in this process), $(b,nodes) (a real \
       primary/replica pair per run), or $(b,both) (inproc every seed, nodes every \
       $(b,--nodes-every)-th)."
    in
    Arg.(
      value
      & opt (enum [ ("inproc", `Inproc); ("nodes", `Nodes); ("both", `Both) ]) `Both
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let nodes_every =
    let doc = "In $(b,both) mode, run the (costlier) two-node workload every $(docv)-th seed." in
    Arg.(value & opt int 5 & info [ "nodes-every" ] ~docv:"K" ~doc)
  in
  let jobs =
    let doc = "Jobs per run (the last duplicates the first to exercise coalescing)." in
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"K" ~doc)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"One progress line per run on stderr.")
  in
  let run seeds first_seed seed schedule mode nodes_every jobs verbose =
    let rtt = Sys.executable_name in
    let log s = if verbose then Printf.eprintf "[chaos] %s\n%!" s in
    match (seed, schedule) with
    | None, Some _ ->
        Format.eprintf "rtt: --schedule needs --seed (the workload is generated from it)@.";
        124
    | Some seed, sched -> (
        (* single run, optionally with an explicit schedule — the
           replay path for a reported failure *)
        let mname = match mode with `Nodes -> "nodes" | _ -> "inproc" in
        let sched =
          match sched with
          | Some s -> s
          | None -> Chaos.schedule_of_seed ~nodes:(mname = "nodes") seed
        in
        log (Printf.sprintf "seed %d %s  [%s]" seed mname (Chaos.schedule_to_string sched));
        let check s =
          if mname = "nodes" then Chaos.run_nodes ~rtt ~jobs ~seed s
          else Chaos.run_inproc ~jobs ~seed s
        in
        match check sched with
        | Ok () ->
            Printf.printf "chaos: 1 run passed\n";
            0
        | Error reason ->
            let minimal, reason = Chaos.shrink ~check sched reason in
            print_string
              (Chaos.render_failure
                 { Chaos.seed = Some seed; mode = mname; schedule = minimal; reason });
            1)
    | None, None -> (
        match
          Chaos.run_seeds ~jobs ~nodes_every ~rtt ~log ~mode ~first:first_seed ~count:seeds ()
        with
        | Ok n ->
            Printf.printf "chaos: %d runs passed (seeds %d..%d)\n" n first_seed
              (first_seed + seeds - 1);
            0
        | Error f ->
            print_string (Chaos.render_failure f);
            1)
  in
  let info =
    Cmd.info "chaos"
      ~doc:
        "Deterministic chaos testing: derive a fault schedule from each seed (disk faults — \
         fsync/short-write/ENOSPC/EIO/rename — plus solver and replication faults, each armed \
         with a trigger count), drive a real workload under it (an in-process supervisor \
         drain, and periodically a live primary/replica pair), crash and recover as needed, \
         then check the durability invariants: the journal replays clean, every job reaches \
         exactly one terminal outcome, cache entries stay checksum-valid, replicas converge \
         byte-for-byte, and $(b,rtt fsck) finds nothing beyond benign crash residue. On \
         failure the schedule is shrunk to a local minimum and the seed printed for replay. \
         Exit 0 when every run passes, 1 on a failure."
  in
  Cmd.v info
    Term.(
      const run $ seeds $ first_seed $ seed $ schedule $ mode $ nodes_every $ jobs $ verbose)

let main =
  let doc = "Discrete resource-time tradeoff with resource reuse over paths (SPAA '19 reproduction)." in
  let info = Cmd.info "rtt" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ solve_cmd; exact_cmd; gen_cmd; sp_cmd; reduce_cmd; pareto_cmd; dot_cmd; demo_cmd; serve_cmd;
      jobs_cmd; daemon_cmd; submit_cmd; status_cmd; session_cmd; loadgen_cmd; replica_cmd;
      promote_cmd; fsck_cmd; chaos_cmd ]

let () = exit (Cmd.eval' main)
