open Topo

(* Every switch reachable from switch 0. *)
let connected net =
  Array.for_all (fun d -> d < max_int) (Routing.Shortest.distances net 0)

let test_fattree_counts () =
  List.iter
    (fun k ->
      let net = Fattree.make k in
      Alcotest.(check int)
        (Printf.sprintf "switches k=%d" k)
        (5 * k * k / 4) (Net.num_switches net);
      Alcotest.(check int)
        (Printf.sprintf "hosts k=%d" k)
        (k * k * k / 4) (Net.num_hosts net);
      Alcotest.(check bool) "connected" true (connected net);
      Alcotest.(check int) "core count" (k * k / 4)
        (List.length (Net.switches_of_kind net Net.Core));
      Alcotest.(check int) "agg count" (k * k / 2)
        (List.length (Net.switches_of_kind net Net.Aggregation));
      Alcotest.(check int) "edge count" (k * k / 2)
        (List.length (Net.switches_of_kind net Net.Edge)))
    [ 2; 4; 6; 8 ]

let test_fattree_degrees () =
  let k = 4 in
  let net = Fattree.make k in
  (* Cores connect to one agg per pod; aggs and edges have k ports used
     switch-side (k/2 up, k/2 down for aggs; k/2 up for edges). *)
  let hosts = List.init (Net.num_hosts net) Fun.id in
  List.iter
    (fun s ->
      Alcotest.(check int) "core degree" k (List.length (Net.neighbors net s)))
    (Net.switches_of_kind net Net.Core);
  List.iter
    (fun s ->
      Alcotest.(check int) "agg degree" k (List.length (Net.neighbors net s)))
    (Net.switches_of_kind net Net.Aggregation);
  List.iter
    (fun s ->
      Alcotest.(check int) "edge switch degree" (k / 2)
        (List.length (Net.neighbors net s));
      Alcotest.(check int) "edge hosts" (k / 2)
        (List.length (List.filter (fun h -> Net.host_attach net h = s) hosts)))
    (Net.switches_of_kind net Net.Edge)

let test_fattree_hosts_on_edges () =
  let net = Fattree.make 4 in
  for h = 0 to Net.num_hosts net - 1 do
    Alcotest.(check bool) "host on edge switch" true
      (Net.kind net (Net.host_attach net h) = Net.Edge)
  done

let test_invalid_fattree () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fattree.make: k must be even and >= 2") (fun () ->
      ignore (Fattree.make 3))

let test_net_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Net.create: self-loop")
    (fun () ->
      ignore
        (Net.create ~num_switches:2 ~edges:[ (1, 1) ] ~host_attach:[||] ()));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Net.create: duplicate edge") (fun () ->
      ignore
        (Net.create ~num_switches:2
           ~edges:[ (0, 1); (1, 0) ]
           ~host_attach:[||] ()))

let test_host_addressing () =
  Alcotest.(check bool) "prefixes disjoint" false
    (Ternary.Prefix.inter (Net.host_prefix 3) (Net.host_prefix 4) <> None)

let test_builders () =
  let lin = Builder.linear ~switches:4 ~hosts_per_end:2 in
  Alcotest.(check int) "linear switches" 4 (Net.num_switches lin);
  Alcotest.(check int) "linear hosts" 4 (Net.num_hosts lin);
  Alcotest.(check bool) "linear connected" true (connected lin);
  let star = Builder.star ~leaves:5 in
  Alcotest.(check int) "star degree" 5 (List.length (Net.neighbors star 0));
  let g = Prng.create 3 in
  for _ = 1 to 20 do
    let net =
      Builder.random_connected g ~switches:(1 + Prng.int g 10)
        ~extra_edges:(Prng.int g 10) ~hosts:(Prng.int g 6)
    in
    Alcotest.(check bool) "random connected" true (connected net)
  done;
  let fig3 = Builder.figure3 () in
  Alcotest.(check int) "fig3 switches" 5 (Net.num_switches fig3);
  Alcotest.(check int) "fig3 hosts" 3 (Net.num_hosts fig3)

let suite =
  [
    Alcotest.test_case "fat-tree counts" `Quick test_fattree_counts;
    Alcotest.test_case "fat-tree degrees" `Quick test_fattree_degrees;
    Alcotest.test_case "fat-tree host placement" `Quick test_fattree_hosts_on_edges;
    Alcotest.test_case "fat-tree validation" `Quick test_invalid_fattree;
    Alcotest.test_case "net validation" `Quick test_net_validation;
    Alcotest.test_case "host addressing" `Quick test_host_addressing;
    Alcotest.test_case "builders" `Quick test_builders;
  ]

let test_leaf_spine () =
  let net = Builder.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 in
  Alcotest.(check int) "switches" 7 (Net.num_switches net);
  Alcotest.(check int) "hosts" 8 (Net.num_hosts net);
  Alcotest.(check bool) "connected" true (connected net);
  (* Every leaf sees every spine and vice versa. *)
  List.iter
    (fun s ->
      Alcotest.(check int) "spine degree" 4 (List.length (Net.neighbors net s)))
    (Net.switches_of_kind net Net.Core);
  List.iter
    (fun l ->
      Alcotest.(check int) "leaf degree" 3 (List.length (Net.neighbors net l)))
    (Net.switches_of_kind net Net.Edge);
  (* Hosts attach to leaves only; inter-leaf distance is 2. *)
  for h = 0 to Net.num_hosts net - 1 do
    Alcotest.(check bool) "host on leaf" true
      (Net.kind net (Net.host_attach net h) = Net.Edge)
  done;
  let d = Routing.Shortest.distances net 3 in
  Alcotest.(check int) "leaf to leaf via spine" 2 d.(4)

let suite = suite @ [ Alcotest.test_case "leaf-spine" `Quick test_leaf_spine ]
