let test_bfs_distances () =
  let net = Topo.Builder.linear ~switches:5 ~hosts_per_end:1 in
  let d = Routing.Shortest.distances net 0 in
  Alcotest.(check (array int)) "chain distances" [| 0; 1; 2; 3; 4 |] d

let test_random_shortest_path_valid () =
  let g = Prng.create 17 in
  for _ = 1 to 30 do
    let net =
      Topo.Builder.random_connected g ~switches:(2 + Prng.int g 12)
        ~extra_edges:(Prng.int g 8) ~hosts:2
    in
    let n = Topo.Net.num_switches net in
    let src = Prng.int g n and dst = Prng.int g n in
    match Routing.Shortest.random_shortest_path g net ~src ~dst with
    | None -> Alcotest.fail "connected graph must have a path"
    | Some path ->
      let d = Routing.Shortest.distances net dst in
      Alcotest.(check int) "length is shortest" (d.(src) + 1)
        (List.length path);
      Alcotest.(check int) "starts at src" src (List.hd path);
      (* consecutive switches adjacent *)
      let rec check_adj = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "adjacent" true
            (List.mem b (Topo.Net.neighbors net a));
          check_adj rest
        | _ -> ()
      in
      check_adj path
  done

let test_table_grouping () =
  let p1 = Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1 ] () in
  let p2 = Routing.Path.make ~ingress:0 ~egress:2 ~switches:[ 0; 2 ] () in
  let p3 = Routing.Path.make ~ingress:3 ~egress:1 ~switches:[ 2; 1 ] () in
  let t = Routing.Table.of_paths [ p1; p2; p3 ] in
  Alcotest.(check int) "num paths" 3 (List.length (Routing.Table.paths t));
  Alcotest.(check (list int)) "ingresses" [ 0; 3 ] (Routing.Table.ingresses t);
  Alcotest.(check int) "paths from 0" 2
    (List.length (Routing.Table.paths_from t 0))

let test_spray_properties () =
  let g = Prng.create 23 in
  let net = Topo.Fattree.make 4 in
  let ingresses = [ 0; 1; 2; 3 ] in
  let t = Routing.Table.spray ~slice:true g net ~ingresses ~total_paths:40 in
  Alcotest.(check int) "total paths" 40 (List.length (Routing.Table.paths t));
  List.iter
    (fun (p : Routing.Path.t) ->
      Alcotest.(check bool) "ingress in set" true
        (List.mem p.Routing.Path.ingress ingresses);
      Alcotest.(check bool) "egress differs" true
        (p.Routing.Path.egress <> p.Routing.Path.ingress);
      (* Sliced flow points at the egress /24. *)
      Alcotest.(check bool) "flow matches egress prefix" true
        (Ternary.Prefix.equal
           (Topo.Net.host_prefix p.Routing.Path.egress)
           p.Routing.Path.flow.Ternary.Field.dst);
      Alcotest.(check int) "starts at ingress attach"
        (Topo.Net.host_attach net p.Routing.Path.ingress)
        p.Routing.Path.switches.(0))
    (Routing.Table.paths t)

let test_path_position () =
  let p = Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 4; 7; 9 ] () in
  Alcotest.(check (option int)) "pos head" (Some 0) (Routing.Path.position p 4);
  Alcotest.(check (option int)) "pos tail" (Some 2) (Routing.Path.position p 9);
  Alcotest.(check (option int)) "absent" None (Routing.Path.position p 5)

let suite =
  [
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "random shortest paths valid" `Quick test_random_shortest_path_valid;
    Alcotest.test_case "table grouping" `Quick test_table_grouping;
    Alcotest.test_case "spray properties" `Quick test_spray_properties;
    Alcotest.test_case "path position" `Quick test_path_position;
  ]

(* Batched routing computes one BFS row per destination switch and
   shares it across the batch.  A row takes no random draws, so from
   equal PRNG states [Table.random] and [Table.spray] must
   give exactly the paths of one per-pair [Shortest] call each, in
   order, and leave the PRNG where the per-pair calls leave it. *)
let differential_nets () =
  let g = Prng.create 41 in
  ("fat-tree k=4", Topo.Fattree.make 4)
  :: ("fat-tree k=8", Topo.Fattree.make 8)
  :: List.init 6 (fun i ->
         ( Printf.sprintf "random graph %d" i,
           Topo.Builder.random_connected g ~switches:(3 + Prng.int g 20)
             ~extra_edges:(Prng.int g 12) ~hosts:(2 + Prng.int g 10) ))

let check_same_paths name ~expected ~got =
  Alcotest.(check int) (name ^ ": path count") (List.length expected)
    (List.length got);
  List.iteri
    (fun n (e, p) ->
      if e <> p then
        Alcotest.failf "%s: path %d differs from the per-pair path" name n)
    (List.combine expected got)

let check_same_state name ga gb =
  Alcotest.(check int64) (name ^ ": prng state") (Prng.bits64 ga)
    (Prng.bits64 gb)

let per_pair ~slice g net pairs =
  List.map
    (fun (ingress, egress) ->
      let flow =
        if slice then Ternary.Field.make ~dst:(Topo.Net.host_prefix egress) ()
        else Ternary.Field.any
      in
      Option.get (Routing.Shortest.random_path ~flow g net ~ingress ~egress))
    pairs

let random_pairs g net n =
  let hosts = Topo.Net.num_hosts net in
  List.init n (fun _ -> (Prng.int g hosts, Prng.int g hosts))

let test_batched_random_differential () =
  List.iter
    (fun (name, net) ->
      let pairs = random_pairs (Prng.create 5) net 60 in
      List.iter
        (fun slice ->
          let name = Printf.sprintf "%s slice=%b" name slice in
          let ga = Prng.create 99 and gb = Prng.create 99 in
          let expected =
            Routing.Table.paths
              (Routing.Table.of_paths (per_pair ~slice ga net pairs))
          in
          let got =
            Routing.Table.paths (Routing.Table.random ~slice gb net ~pairs)
          in
          check_same_paths name ~expected ~got;
          check_same_state name ga gb)
        [ false; true ])
    (differential_nets ())

(* [spray]'s egress draws, written out per pair: path n leaves ingress
   n mod #ingresses toward a uniform host other than itself. *)
let test_batched_spray_differential () =
  List.iter
    (fun (name, net) ->
      let hosts = Topo.Net.num_hosts net in
      let n_ing = min 5 hosts in
      let ingresses = List.init n_ing (fun i -> i * (hosts / n_ing)) in
      let ing = Array.of_list ingresses in
      List.iter
        (fun slice ->
          let name = Printf.sprintf "%s slice=%b" name slice in
          let ga = Prng.create 7 and gb = Prng.create 7 in
          let pairs =
            List.init 50 (fun n ->
                let i = ing.(n mod n_ing) in
                let rec egress () =
                  let e = Prng.int ga hosts in
                  if e = i then egress () else e
                in
                (i, egress ()))
          in
          let expected =
            Routing.Table.paths
              (Routing.Table.of_paths (per_pair ~slice ga net pairs))
          in
          let got =
            Routing.Table.paths
              (Routing.Table.spray ~slice gb net ~ingresses ~total_paths:50)
          in
          check_same_paths name ~expected ~got;
          check_same_state name ga gb)
        [ false; true ])
    (differential_nets ())

let suite =
  suite
  @ [
      Alcotest.test_case "batched random = per-pair paths" `Quick
        test_batched_random_differential;
      Alcotest.test_case "batched spray = per-pair paths" `Quick
        test_batched_spray_differential;
    ]
