(* Tests for the benchmark's own logic: order statistics, the on-time
   schedule, the distinct-input check, span arithmetic and the /proc
   parsers. *)

open Rttbench

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* percentiles and sample counts                                       *)

let test_rank () =
  (* nearest rank: ceil(q/100 * n), clamped to [1, n] *)
  Alcotest.(check int) "p50 of 10" 5 (Stats.rank ~q:50. 10);
  Alcotest.(check int) "p99 of 10" 10 (Stats.rank ~q:99. 10);
  Alcotest.(check int) "p99 of 1000" 990 (Stats.rank ~q:99. 1000);
  Alcotest.(check int) "p99 of 1001" 991 (Stats.rank ~q:99. 1001);
  Alcotest.(check int) "p0 clamps to the first" 1 (Stats.rank ~q:0. 7);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~q:50. 0))

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "median" 50. (Stats.median xs);
  Alcotest.check close "p90" 90. (Stats.percentile xs ~q:90.);
  Alcotest.check close "p99" 99. (Stats.percentile xs ~q:99.);
  Alcotest.check close "odd count median" 2. (Stats.median [ 3.; 1.; 2. ])

(* A window of ten 1-s slices from t = 0 whose host counters advance
   100 ticks per slice, with [steal.(i)] of them stolen in slice i. *)
let window steal =
  let boundary = ref 0 in
  let sample () =
    let i = !boundary in
    incr boundary;
    let stolen = ref 0 in
    for j = 0 to i - 1 do
      stolen := !stolen + steal.(j)
    done;
    Some { Procfs.total = 100 * i; steal = !stolen }
  in
  let t = Slices.create ~sample ~t0:0. ~seconds:10. () in
  for step = 0 to 100 do
    Slices.tick t (float_of_int step /. 10.)
  done;
  t

let quiet_host = Array.make 10 0

let test_summary_counts () =
  let t = window quiet_host in
  let s = Slices.summarize t (List.init 1000 (fun i -> (float_of_int i /. 100., float_of_int i))) in
  Alcotest.(check int) "n" 1000 s.Slices.n;
  Alcotest.(check int) "ten beyond p99 of 1000" 10 s.Slices.beyond_p99;
  Alcotest.check close "p99 value" 989. s.Slices.p99;
  Alcotest.(check bool) "supported" true (Slices.p99_supported s);
  let small = Slices.summarize t (List.init 300 (fun i -> (float_of_int i /. 30., float_of_int i))) in
  Alcotest.(check int) "three beyond p99 of 300" 3 small.Slices.beyond_p99;
  Alcotest.(check bool) "flagged" false (Slices.p99_supported small);
  Alcotest.(check int) "empty" 0 (Slices.summarize t []).Slices.n

let test_quiet_slices () =
  (* slices 2 and 7 lose half their time to steal and run slow; the
     figure comes from the other eight *)
  let steal = [| 0; 0; 50; 0; 0; 0; 0; 50; 0; 0 |] in
  let t = window steal in
  Alcotest.(check (list int)) "quiet slices" [ 0; 1; 3; 4; 5; 6; 8; 9 ] (Slices.quiet t);
  Alcotest.check close "steal share of a noisy slice" 0.5 (Slices.steal t 2);
  let samples =
    List.init 1000 (fun i ->
        let time = float_of_int i /. 100. in
        let slice = i / 100 in
        (time, if steal.(slice) > 0 then 50. else 1. +. (float_of_int (i mod 3) *. 0.01)))
  in
  Alcotest.check close "noisy slices ignored" 1.01 (Slices.figure t samples Stats.median);
  Alcotest.check close "on a quiet host every slice counts" 1.01
    (Slices.figure (window quiet_host)
       (List.filteri (fun i _ -> steal.(i / 100) = 0) samples)
       Stats.median);
  Alcotest.check close "samples outside the window ignored" 1.01
    (Slices.figure t (samples @ [ (-1., 99.); (10.5, 99.) ]) Stats.median)

let test_rate () =
  (* 10 events per second, but only 2 in the stolen second *)
  let steal = [| 0; 0; 0; 0; 60; 0; 0; 0; 0; 0 |] in
  let times =
    List.concat
      (List.init 10 (fun s ->
           List.init (if s = 4 then 2 else 10) (fun i -> float_of_int s +. (float_of_int i /. 10.))))
  in
  Alcotest.check close "median quiet slice rate" 10. (Slices.rate (window steal) times);
  Alcotest.check close "events outside the window ignored" 10.
    (Slices.rate (window steal) (times @ [ 10.5; -1. ]))

(* ------------------------------------------------------------------ *)
(* the open-loop schedule                                              *)

let test_schedule_on_time () =
  let now = ref 100. in
  (* [wait] may return early; the loop must not send before the due time *)
  let clock = { Sched.now = (fun () -> !now); wait = (fun dt -> now := !now +. (dt *. 0.6)) } in
  let sent = ref [] in
  let late =
    Sched.open_loop clock ~t0:100. ~rate:50. ~count:20 ~send:(fun k ~due -> sent := (k, !now, due) :: !sent)
  in
  Alcotest.(check int) "all sent" 20 (List.length !sent);
  List.iter
    (fun (k, at, due) ->
      Alcotest.check close (Printf.sprintf "due time of %d" k) (100. +. (float_of_int k /. 50.)) due;
      Alcotest.(check bool) (Printf.sprintf "request %d not early" k) true (at >= due);
      Alcotest.check close (Printf.sprintf "lateness of %d" k) (at -. due) late.(k))
    !sent;
  Alcotest.(check (list int)) "in order" (List.init 20 Fun.id) (List.rev_map (fun (k, _, _) -> k) !sent)

let test_schedule_lateness () =
  (* a send that stalls 0.1 s makes the following requests late by
     what is left of the stall, measured from their own due times *)
  let now = ref 0. in
  let clock = { Sched.now = (fun () -> !now); wait = (fun dt -> now := !now +. dt) } in
  let late =
    Sched.open_loop clock ~t0:0. ~rate:100. ~count:5 ~send:(fun k ~due:_ ->
        if k = 0 then now := !now +. 0.1)
  in
  Alcotest.check close "first on time" 0. late.(0);
  Alcotest.check close "second late" 0.09 late.(1);
  Alcotest.check close "fifth late" 0.06 late.(4)

(* ------------------------------------------------------------------ *)
(* distinct inputs                                                     *)

let cfg budget policy =
  { (Rtt_service.Supervisor.default_config ~spool:".") with Rtt_service.Work.budget; policy }

let test_distinct () =
  let small = Inputs.jobs (cfg 3 Rtt_engine.Policy.default) ~seed:7 Inputs.Small ~count:300 in
  Alcotest.(check int) "small jobs distinct" 0 (Inputs.duplicates small);
  let mid = Inputs.jobs (cfg 6 [ Rtt_engine.Policy.Bicriteria ]) ~seed:7 Inputs.Mid ~count:50 in
  Alcotest.(check int) "mid jobs distinct" 0 (Inputs.duplicates mid);
  Alcotest.(check int) "a repeated job is counted" 2
    (Inputs.duplicates (Array.concat [ small; [| small.(3); small.(5) |] ]));
  let again = Inputs.jobs (cfg 3 Rtt_engine.Policy.default) ~seed:7 Inputs.Small ~count:300 in
  Alcotest.(check bool) "same seed, same inputs" true
    (Array.for_all2 (fun a b -> a.Inputs.body = b.Inputs.body && a.Inputs.id = b.Inputs.id) small again);
  let other = Inputs.jobs (cfg 3 Rtt_engine.Policy.default) ~seed:8 Inputs.Small ~count:300 in
  Alcotest.(check bool) "another seed, other inputs" false
    (Array.for_all2 (fun a b -> a.Inputs.body = b.Inputs.body) small other)

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

let span id ?parent start stop = { Spans.id; name = "x"; start; stop; parent; job = "j" }

let test_covered () =
  Alcotest.check close "disjoint" 3. (Spans.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]);
  Alcotest.check close "overlap counted once" 4. (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 5.) ]);
  Alcotest.check close "nested" 3. (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 3.) ]);
  Alcotest.check close "clipped to the parent" 1.5 (Spans.covered ~lo:2. ~hi:4. [ (0., 3.); (3.5, 9.) ]);
  Alcotest.check close "none" 0. (Spans.covered ~lo:0. ~hi:1. [])

let test_self_time () =
  let parent = span 0 0. 10. in
  let all =
    [ parent; span 1 ~parent:0 1. 3.; span 2 ~parent:0 2. 4.; span 3 ~parent:1 1.5 2.5; span 4 12. 13. ]
  in
  let self id = List.assoc id (List.map (fun ((s : Spans.span), t) -> (s.Spans.id, t)) (Spans.self_times all)) in
  Alcotest.check close "parent minus the union of its children" 7. (self 0);
  Alcotest.check close "child minus its own child" 1. (self 1);
  Alcotest.check close "leaf" 2. (self 2);
  Alcotest.check close "unrelated span" 1. (self 4)

let test_recorder () =
  let t = Spans.create ~enabled:true in
  let v =
    Spans.with_span t ~job:"a" "outer" (fun parent ->
        Spans.with_span t ?parent ~job:"a" "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Spans.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.Spans.name;
      Alcotest.(check (option int)) "parent link" (Some outer.Spans.id) inner.Spans.parent
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  let off = Spans.create ~enabled:false in
  Alcotest.(check int) "disabled still calls" 7 (Spans.with_span off ~job:"a" "x" (fun _ -> 7));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off))

(* ------------------------------------------------------------------ *)
(* /proc parsers                                                       *)

let stat_line comm =
  Printf.sprintf
    "4242 (%s) S 17 4242 17 0 -1 4194560 900 0 3 0 250 75 0 0 20 0 1 0 5000 12345678 900 \
     18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
    comm

let test_parse_stat () =
  (match Procfs.parse_stat (stat_line "rtt") with
  | Some p ->
      Alcotest.(check int) "ppid" 17 p.Procfs.ppid;
      Alcotest.(check int) "utime" 250 p.Procfs.utime;
      Alcotest.(check int) "stime" 75 p.Procfs.stime;
      Alcotest.check close "cpu seconds" 3.25 (Procfs.cpu_seconds p)
  | None -> Alcotest.fail "plain stat line");
  (match Procfs.parse_stat (stat_line "a b) (c") with
  | Some p -> Alcotest.(check int) "comm with spaces and parens" 250 p.Procfs.utime
  | None -> Alcotest.fail "odd command name");
  Alcotest.(check bool) "truncated" true (Procfs.parse_stat "4242 (rtt) S 17 4242" = None);
  Alcotest.(check bool) "garbage" true (Procfs.parse_stat "garbage" = None)

let test_parse_ctxsw () =
  let status =
    "Name:\trtt\nState:\tS (sleeping)\nvoluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n"
  in
  Alcotest.(check (option (pair int int))) "both counts" (Some (1234, 56)) (Procfs.parse_ctxsw status);
  Alcotest.(check (option (pair int int))) "missing" None (Procfs.parse_ctxsw "Name:\trtt\n")

let test_parse_host () =
  (match Procfs.parse_host "cpu  2728 5 1093 89367 581 7 72 446 30 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n" with
  | Some h ->
      Alcotest.(check int) "steal" 446 h.Procfs.steal;
      Alcotest.(check int) "total stops at steal" (2728 + 5 + 1093 + 89367 + 581 + 7 + 72 + 446) h.Procfs.total
  | None -> Alcotest.fail "cpu line");
  Alcotest.(check bool) "not the aggregate line" true (Procfs.parse_host "cpu0 1 2 3 4 5 6 7 8\n" = None);
  Alcotest.(check bool) "this host's /proc/stat parses" true (Procfs.host () <> None);
  Alcotest.(check bool) "this process's stat parses" true (Procfs.stat (Unix.getpid ()) <> None)

let () =
  Alcotest.run "rttbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "percentiles" `Quick test_percentile;
        ] );
      ( "slices",
        [
          Alcotest.test_case "sample counts beyond p99" `Quick test_summary_counts;
          Alcotest.test_case "noisy slices set aside" `Quick test_quiet_slices;
          Alcotest.test_case "median quiet slice rate" `Quick test_rate;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "never early, lateness from due time" `Quick test_schedule_on_time;
          Alcotest.test_case "a stall makes later requests late" `Quick test_schedule_lateness;
        ] );
      ("inputs", [ Alcotest.test_case "distinct fingerprints" `Quick test_distinct ]);
      ( "spans",
        [
          Alcotest.test_case "covered length" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "stat" `Quick test_parse_stat;
          Alcotest.test_case "context switches" `Quick test_parse_ctxsw;
          Alcotest.test_case "host steal" `Quick test_parse_host;
        ] );
    ]
