let test_determinism () =
  let p1 = Classbench.policy (Prng.create 42) ~num_rules:20 in
  let p2 = Classbench.policy (Prng.create 42) ~num_rules:20 in
  Alcotest.(check bool) "same seed, same policy" true
    (List.for_all2 Acl.Rule.equal (Acl.Policy.rules p1) (Acl.Policy.rules p2));
  let p3 = Classbench.policy (Prng.create 43) ~num_rules:20 in
  Alcotest.(check bool) "different seed, different policy" false
    (List.for_all2 Acl.Rule.equal (Acl.Policy.rules p1) (Acl.Policy.rules p3))

let test_sizes_and_priorities () =
  let g = Prng.create 1 in
  let q = Classbench.policy g ~num_rules:30 in
  Alcotest.(check int) "size" 30 (Acl.Policy.size q);
  let prios = List.map (fun (r : Acl.Rule.t) -> r.priority) (Acl.Policy.rules q) in
  Alcotest.(check (list int)) "descending distinct priorities"
    (List.init 30 (fun i -> 30 - i))
    prios

let test_overlap_structure () =
  (* The generator must produce permit-drop dependencies, otherwise the
     placement problem degenerates. *)
  let g = Prng.create 7 in
  let edges = ref 0 and drops = ref 0 in
  for _ = 1 to 10 do
    let q = Classbench.policy g ~num_rules:40 in
    let dep = Placement.Depgraph.build q in
    edges := !edges + Placement.Depgraph.num_edges dep;
    drops := !drops + List.length (Acl.Policy.drops q)
  done;
  Alcotest.(check bool) "some drops" true (!drops > 50);
  Alcotest.(check bool) "dependency edges exist" true (!edges > 20)

let test_egress_bias () =
  let g = Prng.create 9 in
  let egress_prefixes = [ Topo.Net.host_prefix 1; Topo.Net.host_prefix 2 ] in
  let q = Classbench.policy ~egress_prefixes g ~num_rules:60 in
  let biased =
    List.length
      (List.filter
         (fun (r : Acl.Rule.t) ->
           List.exists
             (fun p -> Ternary.Prefix.inter p r.field.Ternary.Field.dst <> None)
             egress_prefixes)
         (Acl.Policy.rules q))
  in
  Alcotest.(check bool) "a decent share targets real egresses" true (biased > 10)

let test_blacklist_disjoint_and_shared () =
  let g = Prng.create 11 in
  let bl = Classbench.blacklist g ~num:5 in
  Alcotest.(check int) "count" 5 (List.length bl);
  (* Blacklist sources live outside the tenant space. *)
  List.iter
    (fun (f : Ternary.Field.t) ->
      Alcotest.(check bool) "outside tenant space" false
        (Ternary.Prefix.inter f.Ternary.Field.src
           (Ternary.Prefix.of_string "10.0.0.0/8")
        <> None))
    bl;
  let q = Classbench.policy g ~num_rules:10 in
  let q' = Classbench.with_blacklist q bl in
  Alcotest.(check int) "blacklist prepended" 15 (Acl.Policy.size q');
  (* Blacklist entries are the top priorities and are drops. *)
  let top = List.filteri (fun i _ -> i < 5) (Acl.Policy.rules q') in
  List.iter
    (fun (r : Acl.Rule.t) ->
      Alcotest.(check bool) "top rules are drops" true (Acl.Rule.is_drop r))
    top;
  (* Two policies sharing a blacklist expose merge groups. *)
  let q2 = Classbench.with_blacklist (Classbench.policy g ~num_rules:8) bl in
  let net = Topo.Builder.star ~leaves:2 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:0 ~switches:[ 2; 0; 1 ] ();
      ]
  in
  let inst =
    Placement.Instance.make ~net ~routing
      ~policies:[ (0, q'); (1, q2) ]
      ~capacities:(Placement.Instance.uniform_capacity net 50)
  in
  let groups = Placement.Merge.find_groups inst in
  Alcotest.(check bool) "at least 5 groups" true (List.length groups >= 5)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "sizes and priorities" `Quick test_sizes_and_priorities;
    Alcotest.test_case "overlap structure" `Quick test_overlap_structure;
    Alcotest.test_case "egress bias" `Quick test_egress_bias;
    Alcotest.test_case "blacklist" `Quick test_blacklist_disjoint_and_shared;
  ]
