(* Tests for the DAG substrate: graph invariants, topological sorting,
   longest paths (the paper's makespan model), series-parallel
   machinery, tree decompositions, and the generators. *)

open Rtt_dag

let rng_of seed = Random.State.make [| seed |]

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let dag_units =
  [
    Alcotest.test_case "add_vertex allocates densely" `Quick (fun () ->
        let g = Dag.create () in
        let a = Dag.add_vertex g and b = Dag.add_vertex g in
        Alcotest.(check (list int)) "ids" [ 0; 1 ] [ a; b ];
        Alcotest.(check int) "count" 2 (Dag.n_vertices g));
    Alcotest.test_case "edges and degrees" `Quick (fun () ->
        let g = diamond () in
        Alcotest.(check int) "n_edges" 4 (Dag.n_edges g);
        Alcotest.(check int) "out 0" 2 (Dag.out_degree g 0);
        Alcotest.(check int) "in 3" 2 (Dag.in_degree g 3);
        Alcotest.(check bool) "mem" true (Dag.mem_edge g 0 1);
        Alcotest.(check bool) "not mem" false (Dag.mem_edge g 1 0));
    Alcotest.test_case "parallel edges accumulate" `Quick (fun () ->
        let g = Dag.of_edges ~n:2 [ (0, 1); (0, 1) ] in
        Alcotest.(check int) "n_edges" 2 (Dag.n_edges g);
        Alcotest.(check int) "in_degree counts multiplicity" 2 (Dag.in_degree g 1));
    Alcotest.test_case "self-loop rejected" `Quick (fun () ->
        let g = Dag.of_edges ~n:1 [] in
        Alcotest.check_raises "loop" (Invalid_argument "Dag.add_edge: self-loop") (fun () ->
            Dag.add_edge g 0 0));
    Alcotest.test_case "bad vertex rejected" `Quick (fun () ->
        let g = Dag.of_edges ~n:1 [] in
        Alcotest.check_raises "bad" (Invalid_argument "Dag.add_edge: bad vertex") (fun () ->
            Dag.add_edge g 0 5));
    Alcotest.test_case "topological order respects edges" `Quick (fun () ->
        let g = diamond () in
        let order = Dag.topo_sort g in
        let pos = Array.make 4 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.iter (fun (u, v) -> Alcotest.(check bool) "order" true (pos.(u) < pos.(v))) (Dag.edges g));
    Alcotest.test_case "cycle detection" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
        Alcotest.(check bool) "is_dag" false (Dag.is_dag g);
        Alcotest.check_raises "topo" Dag.Cycle (fun () -> ignore (Dag.topo_sort g)));
    Alcotest.test_case "sources and sinks" `Quick (fun () ->
        let g = diamond () in
        Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources g);
        Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks g));
    Alcotest.test_case "transpose reverses edges" `Quick (fun () ->
        let g = Dag.transpose (diamond ()) in
        Alcotest.(check bool) "mem" true (Dag.mem_edge g 1 0);
        Alcotest.(check (list int)) "sources" [ 3 ] (Dag.sources g));
    Alcotest.test_case "reachable" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 1); (2, 3) ] in
        let r = Dag.reachable g 0 in
        Alcotest.(check (list bool)) "marks" [ true; true; false; false ] (Array.to_list r));
    Alcotest.test_case "ensure_single_source_sink adds supernodes" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 2); (1, 2) ] in
        (* two sources 0,1; two sinks 2? no: sinks are 2 and 3 *)
        let s, t = Dag.ensure_single_source_sink g in
        Alcotest.(check (list int)) "single source" [ s ] (Dag.sources g);
        Alcotest.(check (list int)) "single sink" [ t ] (Dag.sinks g));
    Alcotest.test_case "ensure_single noop when already single" `Quick (fun () ->
        let g = diamond () in
        let n_before = Dag.n_vertices g in
        let s, t = Dag.ensure_single_source_sink g in
        Alcotest.(check int) "no new vertices" n_before (Dag.n_vertices g);
        Alcotest.(check int) "s" 0 s;
        Alcotest.(check int) "t" 3 t);
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let g = diamond () in
        let h = Dag.copy g in
        Dag.add_edge h 0 3;
        Alcotest.(check int) "g unchanged" 4 (Dag.n_edges g);
        Alcotest.(check int) "h changed" 5 (Dag.n_edges h));
    Alcotest.test_case "labels" `Quick (fun () ->
        let g = Dag.create () in
        let v = Dag.add_vertex ~label:"hello" g in
        Alcotest.(check (option string)) "get" (Some "hello") (Dag.label g v);
        Dag.set_label g v "world";
        Alcotest.(check (option string)) "set" (Some "world") (Dag.label g v));
  ]

let longest_path_units =
  [
    Alcotest.test_case "single vertex" `Quick (fun () ->
        let g = Dag.of_edges ~n:1 [] in
        Alcotest.(check int) "makespan" 7 (Longest_path.makespan g ~weight:(fun _ -> 7)));
    Alcotest.test_case "path sums vertex weights" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2) ] in
        Alcotest.(check int) "sum" 6 (Longest_path.makespan g ~weight:(fun v -> v + 1)));
    Alcotest.test_case "diamond takes heavier branch" `Quick (fun () ->
        let g = diamond () in
        let w = [| 0; 5; 1; 2 |] in
        Alcotest.(check int) "makespan" 7 (Longest_path.makespan g ~weight:(fun v -> w.(v)));
        let ms, path = Longest_path.critical_path g ~weight:(fun v -> w.(v)) in
        Alcotest.(check int) "cp value" 7 ms;
        Alcotest.(check (list int)) "cp path" [ 0; 1; 3 ] path);
    Alcotest.test_case "finish times are per-vertex" `Quick (fun () ->
        let g = diamond () in
        let ft = Longest_path.finish_times g ~weight:(fun _ -> 1) in
        Alcotest.(check (list int)) "finish" [ 1; 2; 2; 3 ] (Array.to_list ft));
    Alcotest.test_case "edge makespan (activity on arc)" `Quick (fun () ->
        let g = diamond () in
        let w u v = if (u, v) = (0, 1) then 5 else 1 in
        Alcotest.(check int) "events" 6 (Longest_path.edge_makespan g ~weight:w));
    Alcotest.test_case "critical path is a real path" `Quick (fun () ->
        let rng = rng_of 3 in
        for _ = 1 to 20 do
          let g = Gen.erdos_renyi rng ~n:12 ~edge_prob:0.3 in
          let w v = (v mod 5) + 1 in
          let ms, path = Longest_path.critical_path g ~weight:w in
          (* consecutive vertices are connected *)
          let rec ok = function
            | a :: (b :: _ as rest) -> Dag.mem_edge g a b && ok rest
            | _ -> true
          in
          Alcotest.(check bool) "path valid" true (ok path);
          Alcotest.(check int) "path sums to makespan" ms
            (List.fold_left (fun acc v -> acc + w v) 0 path)
        done);
  ]

let sp_units =
  [
    Alcotest.test_case "size and leaves" `Quick (fun () ->
        let t = Sp.series (Sp.leaf 1) (Sp.parallel (Sp.leaf 2) (Sp.leaf 3)) in
        Alcotest.(check int) "size" 3 (Sp.size t);
        Alcotest.(check (list int)) "leaves" [ 1; 2; 3 ] (Sp.leaves t));
    Alcotest.test_case "to_dag series is a chain" `Quick (fun () ->
        let t = Sp.series_of_list [ Sp.leaf 0; Sp.leaf 1; Sp.leaf 2 ] in
        let g, jobs = Sp.to_dag t in
        Alcotest.(check int) "vertices" 3 (Dag.n_vertices g);
        Alcotest.(check int) "edges" 2 (Dag.n_edges g);
        Alcotest.(check int) "single source" 1 (List.length (Dag.sources g));
        Alcotest.(check int) "jobs len" 3 (Array.length jobs));
    Alcotest.test_case "to_dag parallel has no edges" `Quick (fun () ->
        let t = Sp.parallel_of_list [ Sp.leaf 0; Sp.leaf 1; Sp.leaf 2 ] in
        let g, _ = Sp.to_dag t in
        Alcotest.(check int) "edges" 0 (Dag.n_edges g));
    Alcotest.test_case "to_dag series-of-parallel connects all" `Quick (fun () ->
        let t = Sp.series (Sp.parallel (Sp.leaf 0) (Sp.leaf 1)) (Sp.parallel (Sp.leaf 2) (Sp.leaf 3)) in
        let g, _ = Sp.to_dag t in
        Alcotest.(check int) "edges" 4 (Dag.n_edges g));
    Alcotest.test_case "recognize_ttsp accepts SP dags" `Quick (fun () ->
        (* diamond with both terminals *)
        let g = diamond () in
        Alcotest.(check bool) "diamond" true (Sp.recognize_ttsp g ~s:0 ~t:3));
    Alcotest.test_case "recognize_ttsp rejects crossing dag" `Quick (fun () ->
        (* the "N" / crossing structure is not two-terminal SP:
           s -> a, s -> b, a -> t, b -> t, a -> b' ... use the classic
           W-graph: s->a, s->b, a->c, b->c, a->t? build InterlockedDiamond *)
        let g = Dag.of_edges ~n:5 [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4); (3, 4) ] in
        Alcotest.(check bool) "not sp" false (Sp.recognize_ttsp g ~s:0 ~t:4));
    Alcotest.test_case "random sp converts and recognizes" `Quick (fun () ->
        let rng = rng_of 11 in
        for _ = 1 to 10 do
          let t = Gen.random_sp rng ~leaves:8 ~series_bias:0.5 in
          let g, _ = Sp.to_dag t in
          Alcotest.(check bool) "dag" true (Dag.is_dag g)
        done);
    Alcotest.test_case "decompose_ttsp on the diamond" `Quick (fun () ->
        let g = diamond () in
        match Sp.decompose_ttsp g ~s:0 ~t:3 with
        | Some tree ->
            Alcotest.(check int) "four edges" 4 (Sp.size tree);
            Alcotest.(check (list (pair int int))) "leaves are the edges"
              [ (0, 1); (0, 2); (1, 3); (2, 3) ]
              (List.sort compare (Sp.leaves tree))
        | None -> Alcotest.fail "diamond is TTSP");
    Alcotest.test_case "decompose_ttsp rejects the interlocked dag" `Quick (fun () ->
        let g = Dag.of_edges ~n:5 [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4); (3, 4) ] in
        Alcotest.(check bool) "none" true (Sp.decompose_ttsp g ~s:0 ~t:4 = None));
    Alcotest.test_case "decompose_ttsp handles parallel edges" `Quick (fun () ->
        let g = Dag.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
        match Sp.decompose_ttsp g ~s:0 ~t:1 with
        | Some tree -> Alcotest.(check int) "three leaves" 3 (Sp.size tree)
        | None -> Alcotest.fail "parallel edges are TTSP");
    Alcotest.test_case "decompose agrees with recognize on random graphs" `Quick (fun () ->
        let rng = rng_of 47 in
        for _ = 1 to 30 do
          let g = Gen.erdos_renyi rng ~n:(4 + Random.State.int rng 6) ~edge_prob:0.4 in
          let s = List.hd (Dag.sources g) and t = List.hd (Dag.sinks g) in
          Alcotest.(check bool) "agree" (Sp.recognize_ttsp g ~s ~t)
            (Sp.decompose_ttsp g ~s ~t <> None)
        done);
    Alcotest.test_case "map preserves shape" `Quick (fun () ->
        let t = Sp.series (Sp.leaf 1) (Sp.leaf 2) in
        Alcotest.(check (list int)) "mapped" [ 2; 4 ] (Sp.leaves (Sp.map (fun x -> 2 * x) t)));
  ]

let treewidth_units =
  [
    Alcotest.test_case "path decomposition of a path graph" `Quick (fun () ->
        let g = Dag.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
        let d = Treewidth.path_decomposition [| [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] |] in
        Alcotest.(check bool) "valid" true (Treewidth.is_valid g d);
        Alcotest.(check int) "width" 1 (Treewidth.width d));
    Alcotest.test_case "missing edge coverage fails" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
        let d = Treewidth.path_decomposition [| [ 0; 1 ]; [ 1; 2 ] |] in
        Alcotest.(check bool) "invalid" false (Treewidth.is_valid g d));
    Alcotest.test_case "disconnected occurrences fail" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2) ] in
        let d = Treewidth.path_decomposition [| [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] |] in
        (* vertex 0 occurs in bags 0 and 2 but not 1 *)
        Alcotest.(check bool) "invalid" false (Treewidth.is_valid g d));
    Alcotest.test_case "non-tree rejected" `Quick (fun () ->
        let d = Treewidth.make ~bags:[| [ 0 ]; [ 0 ]; [ 0 ] |] ~tree_edges:[ (0, 1) ] in
        Alcotest.(check bool) "not a tree" false (Treewidth.is_tree d));
    Alcotest.test_case "single bag covers clique" `Quick (fun () ->
        let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
        let d = Treewidth.make ~bags:[| [ 0; 1; 2 ] |] ~tree_edges:[] in
        Alcotest.(check bool) "valid" true (Treewidth.is_valid g d);
        Alcotest.(check int) "width" 2 (Treewidth.width d));
  ]

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let gen_props =
  [
    prop "erdos_renyi is a single-source single-sink dag" 30 QCheck.(int_range 2 30) (fun n ->
        let rng = rng_of n in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.3 in
        Dag.is_dag g && List.length (Dag.sources g) = 1 && List.length (Dag.sinks g) = 1);
    prop "layered is a single-source single-sink dag" 30 QCheck.(int_range 2 8) (fun layers ->
        let rng = rng_of layers in
        let g = Gen.layered rng ~layers ~width:4 ~edge_prob:0.3 in
        Dag.is_dag g && List.length (Dag.sources g) = 1 && List.length (Dag.sinks g) = 1);
    prop "random_sp has requested leaves" 30 QCheck.(int_range 1 30) (fun leaves ->
        let rng = rng_of leaves in
        Sp.size (Gen.random_sp rng ~leaves ~series_bias:0.5) = leaves);
    prop "topo_sort covers all vertices exactly once" 30 QCheck.(int_range 2 40) (fun n ->
        let rng = rng_of (n + 1000) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.25 in
        let order = Dag.topo_sort g in
        List.sort_uniq compare order = Dag.vertices g);
    prop "makespan at least any single weight" 30 QCheck.(int_range 2 20) (fun n ->
        let rng = rng_of (n + 2000) in
        let g = Gen.erdos_renyi rng ~n ~edge_prob:0.3 in
        let w v = (v * 7 mod 11) + 1 in
        let ms = Longest_path.makespan g ~weight:w in
        List.for_all (fun v -> ms >= w v) (Dag.vertices g));
    prop "a plan's makespan equals the memoised recursion" 60 QCheck.(int_range 0 25) (fun n ->
        let rng = rng_of (n + 3000) in
        (* forward edges over a shuffled numbering, some of them
           parallel, so vertex order is not a topological order *)
        let perm = Array.init n (fun i -> i) in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let edges = ref [] in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if Random.State.float rng 1. < 0.3 then edges := (perm.(i), perm.(j)) :: !edges;
            if Random.State.float rng 1. < 0.05 then edges := (perm.(i), perm.(j)) :: !edges
          done
        done;
        let g = Dag.of_edges ~n !edges in
        let plan = Longest_path.plan g in
        (* one plan, several weightings: the pass must not depend on
           what the previous one left in its scratch *)
        List.for_all
          (fun _ ->
            let w = Array.init n (fun _ -> Random.State.int rng 20) in
            let memo = Array.make n None in
            let rec finish v =
              match memo.(v) with
              | Some f -> f
              | None ->
                  let ready = List.fold_left (fun acc u -> max acc (finish u)) 0 (Dag.pred g v) in
                  let f = w.(v) + ready in
                  memo.(v) <- Some f;
                  f
            in
            let naive = List.fold_left (fun acc v -> max acc (finish v)) 0 (Dag.vertices g) in
            Longest_path.plan_makespan plan w = naive
            && Longest_path.finish_times g ~weight:(fun v -> w.(v)) = Array.init n finish)
          [ 1; 2; 3 ]);
  ]

let () =
  Alcotest.run "rtt_dag"
    [
      ("dag", dag_units);
      ("longest-path", longest_path_units);
      ("series-parallel", sp_units);
      ("treewidth", treewidth_units);
      ("generators+properties", gen_props);
    ]
