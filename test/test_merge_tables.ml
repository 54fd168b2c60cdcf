open Placement

(* ---------------- Merge planning ---------------- *)

let star3_routing () =
  Routing.Table.of_paths
    [
      Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
      Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] ();
      Routing.Path.make ~ingress:2 ~egress:0 ~switches:[ 3; 0; 1 ] ();
    ]

let test_find_groups () =
  let net = Topo.Builder.star ~leaves:3 in
  let shared = Util.field ~src:"192.168.1.0/24" () in
  let own i = Util.field ~src:(Printf.sprintf "10.%d.0.0/16" i) () in
  let policies =
    List.map
      (fun i ->
        (i, Acl.Policy.of_fields [ (shared, Acl.Rule.Drop); (own i, Acl.Rule.Drop) ]))
      [ 0; 1; 2 ]
  in
  let inst =
    Instance.make ~net ~routing:(star3_routing ()) ~policies
      ~capacities:(Instance.uniform_capacity net 10)
  in
  match Merge.find_groups inst with
  | [ g ] ->
    Alcotest.(check int) "three members" 3 (List.length g.Merge.members);
    Alcotest.(check bool) "drop group" true (g.Merge.action = Acl.Rule.Drop)
  | gs -> Alcotest.failf "expected 1 group, got %d" (List.length gs)

let test_same_field_different_action_not_grouped () =
  let net = Topo.Builder.star ~leaves:2 in
  let f = Util.field ~src:"192.168.1.0/24" () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:0 ~switches:[ 2; 0; 1 ] ();
      ]
  in
  let inst =
    Instance.make ~net ~routing
      ~policies:
        [
          (0, Acl.Policy.of_fields [ (f, Acl.Rule.Drop) ]);
          (1, Acl.Policy.of_fields [ (f, Acl.Rule.Permit) ]);
        ]
      ~capacities:(Instance.uniform_capacity net 10)
  in
  Alcotest.(check int) "no group" 0 (List.length (Merge.find_groups inst))

let test_plan_no_conflict_keeps_policies () =
  let g = Prng.create 44 in
  let net = Topo.Builder.star ~leaves:3 in
  let bl = Classbench.blacklist g ~num:3 in
  let policies =
    List.map
      (fun i ->
        (i, Classbench.with_blacklist (Classbench.policy g ~num_rules:4) bl))
      [ 0; 1; 2 ]
  in
  let inst =
    Instance.make ~net ~routing:(star3_routing ()) ~policies
      ~capacities:(Instance.uniform_capacity net 30)
  in
  let inst', plan = Merge.plan inst in
  Alcotest.(check int) "no dummies needed" 0
    (Hashtbl.length (Merge.dummy_set plan));
  Alcotest.(check bool) "acyclic" true (Merge.order_graph_acyclic inst' plan);
  (* Renumbering preserves semantics. *)
  List.iter2
    (fun (_, q) (_, q') ->
      Alcotest.(check int) "same size" (Acl.Policy.size q) (Acl.Policy.size q');
      Alcotest.(check bool) "same semantics" true (Acl.Semantics.equal q q'))
    inst.Instance.policies inst'.Instance.policies

let test_plan_breaks_figure5_cycle () =
  let r1 = (Util.field ~src:"10.0.0.0/16" ~dst:"11.0.0.0/8" (), Acl.Rule.Permit) in
  let r2 = (Util.field ~src:"10.0.0.0/8" ~dst:"11.0.0.0/16" (), Acl.Rule.Drop) in
  let net = Topo.Builder.star ~leaves:3 in
  let inst =
    Instance.make ~net ~routing:(star3_routing ())
      ~policies:
        [
          (0, Acl.Policy.of_fields [ r1; r2 ]);
          (1, Acl.Policy.of_fields [ r1; r2 ]);
          (2, Acl.Policy.of_fields [ r2; r1 ]);
        ]
      ~capacities:(Instance.uniform_capacity net 10)
  in
  let inst', plan = Merge.plan inst in
  Alcotest.(check bool) "acyclic" true (Merge.order_graph_acyclic inst' plan);
  let kept = Merge.dummy_set plan in
  Alcotest.(check bool) "dummy added" true (Hashtbl.length kept >= 1);
  (* Every rule the plan added is a dummy member of a surviving group,
     and the plan's dummy set holds exactly those. *)
  let added = ref 0 in
  List.iter2
    (fun (i, q) (_, q') ->
      let original =
        List.map
          (fun (r : Acl.Rule.t) -> r.priority * Merge.renumber_factor)
          (Acl.Policy.rules q)
      in
      List.iter
        (fun (r : Acl.Rule.t) ->
          if not (List.mem r.priority original) then begin
            incr added;
            Alcotest.(check bool)
              (Printf.sprintf "added rule %d of policy %d is a kept dummy"
                 r.priority i)
              true
              (Hashtbl.mem kept (i, r.priority))
          end)
        (Acl.Policy.rules q'))
    inst.Instance.policies inst'.Instance.policies;
  Alcotest.(check int) "dummies counted" !added (Hashtbl.length kept);
  (* The dummy is shadowed: policy semantics unchanged. *)
  List.iter2
    (fun (_, q) (_, q') ->
      Alcotest.(check bool) "dummy is harmless" true (Acl.Semantics.equal q q'))
    inst.Instance.policies inst'.Instance.policies

(* ---------------- Tables ---------------- *)

let test_tag_prefix_patterns () =
  Alcotest.(check int) "full universe" 1
    (Tag_cover.patterns ~universe_bits:3 [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  Alcotest.(check int) "single" 1 (Tag_cover.patterns ~universe_bits:3 [ 5 ]);
  Alcotest.(check int) "aligned pair" 1
    (Tag_cover.patterns ~universe_bits:3 [ 4; 5 ]);
  Alcotest.(check int) "unaligned pair" 2
    (Tag_cover.patterns ~universe_bits:3 [ 3; 4 ]);
  Alcotest.(check int) "empty" 0 (Tag_cover.patterns ~universe_bits:3 [])

let test_table_ordering_respects_policy () =
  (* Build a tiny solved instance and check the emitted table keeps the
     permit above its drop. *)
  let net = Topo.Builder.linear ~switches:1 ~hosts_per_end:1 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0 ] () ]
  in
  let q =
    Acl.Policy.of_fields
      [
        (Util.field ~src:"10.1.0.0/16" (), Acl.Rule.Permit);
        (Util.field ~src:"10.0.0.0/8" (), Acl.Rule.Drop);
      ]
  in
  let inst =
    Instance.make ~net ~routing ~policies:[ (0, q) ]
      ~capacities:(Instance.uniform_capacity net 5)
  in
  let report = Solve.run inst in
  let sol = Option.get report.Solve.solution in
  let { Tables.tables; splits; _ } = Tables.of_solution sol in
  Alcotest.(check int) "no splits" 0 splits;
  match tables.(0) with
  | [ first; second ] ->
    Alcotest.(check bool) "permit first" true
      (Acl.Rule.is_permit first.Netsim.rule);
    Alcotest.(check bool) "drop second" true (Acl.Rule.is_drop second.Netsim.rule)
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "find groups" `Quick test_find_groups;
    Alcotest.test_case "action distinguishes groups" `Quick test_same_field_different_action_not_grouped;
    Alcotest.test_case "plan without conflicts" `Quick test_plan_no_conflict_keeps_policies;
    Alcotest.test_case "plan breaks fig-5 cycle" `Quick test_plan_breaks_figure5_cycle;
    Alcotest.test_case "tag prefix patterns" `Quick test_tag_prefix_patterns;
    Alcotest.test_case "table ordering" `Quick test_table_ordering_respects_policy;
  ]

(* Conflicting merged entries must be split locally when no consistent
   order exists at a switch (the fallback path of Tables.order_switch). *)
let test_table_split_on_conflict () =
  let net = Topo.Builder.linear ~switches:1 ~hosts_per_end:1 in
  let inst =
    Instance.make ~net
      ~routing:
        (Routing.Table.of_paths
           [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0 ] () ])
      ~policies:
        [ (0, Acl.Policy.of_fields [ (Ternary.Field.any, Acl.Rule.Drop) ]) ]
      ~capacities:[| 4 |]
  in
  (* Hand-build two merged cells with opposite order requirements: in
     policy 5 cell A (permit) outranks cell B (drop); in policy 6 the
     drop outranks the permit.  Any linear order violates one policy, so
     table construction must split a merged entry. *)
  let fa = Util.field ~src:"10.0.0.0/16" ~dst:"11.0.0.0/8" () in
  let fb = Util.field ~src:"10.0.0.0/8" ~dst:"11.0.0.0/16" () in
  let cell_a =
    {
      Solution.rule = Acl.Rule.make ~field:fa ~action:Acl.Rule.Permit ~priority:10;
      tags = [ (5, 10); (6, 1) ];
    }
  in
  let cell_b =
    {
      Solution.rule = Acl.Rule.make ~field:fb ~action:Acl.Rule.Drop ~priority:9;
      tags = [ (5, 9); (6, 2) ];
    }
  in
  let sol =
    { (Solution.empty inst) with Solution.per_switch = [| [ cell_a; cell_b ] |] }
  in
  let { Tables.tables; splits; _ } = Tables.of_solution sol in
  Alcotest.(check bool) "at least one split" true (splits >= 1);
  (* After splitting, per-tag order is consistent: check both policies'
     intersection packet gets that policy's decision. *)
  let g = Prng.create 9 in
  let packet =
    Ternary.Field.random_packet g (Option.get (Ternary.Field.inter fa fb))
  in
  Alcotest.(check bool) "policy 5 permits first" true
    (Netsim.step tables ~switch:0 ~tag:5 packet = Acl.Rule.Permit);
  Alcotest.(check bool) "policy 6 drops first" true
    (Netsim.step tables ~switch:0 ~tag:6 packet = Acl.Rule.Drop)

let suite =
  suite
  @ [ Alcotest.test_case "table split on conflict" `Quick test_table_split_on_conflict ]
