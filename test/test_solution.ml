open Placement

let mk_cell ?(tags = [ (0, 1) ]) action =
  {
    Solution.rule =
      Acl.Rule.make ~field:Ternary.Field.any ~action ~priority:(snd (List.hd tags));
    tags;
  }

let tiny_instance () =
  let net = Topo.Builder.linear ~switches:2 ~hosts_per_end:1 in
  Instance.make ~net
    ~routing:
      (Routing.Table.of_paths
         [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1 ] () ])
    ~policies:[ (0, Acl.Policy.of_fields [ (Ternary.Field.any, Acl.Rule.Drop) ]) ]
    ~capacities:[| 2; 2 |]

let test_counters () =
  let inst = tiny_instance () in
  let sol = Solution.empty inst in
  Alcotest.(check int) "empty" 0 (Solution.total_entries sol);
  let sol =
    {
      sol with
      Solution.per_switch =
        [| [ mk_cell Acl.Rule.Drop ]; [ mk_cell ~tags:[ (0, 1); (7, 3) ] Acl.Rule.Drop ] |];
      baseline_rule_count = 1;
    }
  in
  Alcotest.(check int) "entries count cells" 2 (Solution.total_entries sol);
  Alcotest.(check (array int)) "usage" [| 1; 1 |] (Solution.switch_usage sol);
  Alcotest.(check (float 1e-6)) "overhead" 100.0 (Solution.overhead_pct sol);
  Alcotest.(check bool) "is_placed by tag" true
    (Solution.is_placed sol ~ingress:7 ~priority:3 ~switch:1);
  Alcotest.(check bool) "not placed elsewhere" false
    (Solution.is_placed sol ~ingress:7 ~priority:3 ~switch:0);
  Alcotest.(check int) "merged cells" 1 (List.length (Solution.merged_cells sol))

let test_strip () =
  let inst = tiny_instance () in
  let sol =
    {
      (Solution.empty inst) with
      Solution.per_switch =
        [|
          [ mk_cell ~tags:[ (0, 1) ] Acl.Rule.Drop ];
          [ mk_cell ~tags:[ (0, 1); (7, 3) ] Acl.Rule.Drop ];
        |];
    }
  in
  let stripped = Solution.strip_ingresses sol [ 0 ] in
  Alcotest.(check int) "own cell gone, shared cell survives" 1
    (Solution.total_entries stripped);
  Alcotest.(check bool) "survivor keeps other tag" true
    (Solution.is_placed stripped ~ingress:7 ~priority:3 ~switch:1);
  Alcotest.(check bool) "stripped tag gone" false
    (Solution.is_placed stripped ~ingress:0 ~priority:1 ~switch:1)

(* An incremental install overlays the new tenant's placement on the
   frozen one: each switch keeps its base cells first, and entries and
   objectives add. *)
let test_union () =
  let base = Option.get (Solve.run (tiny_instance ())).Solve.solution in
  let r =
    Incremental.install ~base
      ~policies:
        [ (1, Acl.Policy.of_fields [ (Ternary.Field.any, Acl.Rule.Drop) ]) ]
      ~paths:[ Routing.Path.make ~ingress:1 ~egress:0 ~switches:[ 1; 0 ] () ]
      ()
  in
  let u = Option.get r.Incremental.solution in
  Array.iteri
    (fun k cells ->
      let n = List.length cells in
      Alcotest.(check bool) "base cells first" true
        (List.filteri (fun i _ -> i < n) u.Solution.per_switch.(k) = cells))
    base.Solution.per_switch;
  Alcotest.(check int) "union entries" 2 (Solution.total_entries u);
  Alcotest.(check (float 1e-9)) "objective adds" 2.0 u.Solution.objective

let test_merged_decode () =
  (* Build a layout with a merge plan and decode an assignment where the
     merged variable is active: members collapse into one cell. *)
  let net = Topo.Builder.star ~leaves:2 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:0 ~switches:[ 2; 0; 1 ] ();
      ]
  in
  let shared = Ternary.Field.make ~src:(Ternary.Prefix.of_string "192.168.0.0/24") () in
  let inst =
    Instance.make ~net ~routing
      ~policies:
        [
          (0, Acl.Policy.of_fields [ (shared, Acl.Rule.Drop) ]);
          (1, Acl.Policy.of_fields [ (shared, Acl.Rule.Drop) ]);
        ]
      ~capacities:(Instance.uniform_capacity net 4)
  in
  let inst', plan = Merge.plan inst in
  let layout = Layout.build ~plan inst' in
  (* Place both members at switch 0 and activate the merge var there. *)
  let assignment =
    Array.init (Layout.num_vars layout) (fun v ->
        match Layout.key layout v with
        | Layout.Place { switch; _ } | Layout.Merged { switch; _ } ->
          switch = 0)
  in
  let sol = Solution.of_assignment layout assignment ~objective:1.0 in
  (match sol.Solution.per_switch.(0) with
  | [ cell ] ->
    Alcotest.(check int) "two tags" 2 (List.length cell.Solution.tags)
  | cells -> Alcotest.failf "expected 1 merged cell, got %d" (List.length cells));
  Alcotest.(check int) "one entry total" 1 (Solution.total_entries sol)

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "strip ingresses" `Quick test_strip;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "merged decode" `Quick test_merged_decode;
  ]

let test_tcam_slots () =
  let inst = tiny_instance () in
  let range_rule =
    Acl.Rule.make
      ~field:(Ternary.Field.make ~dport:(Ternary.Range.make 1 6) ())
      ~action:Acl.Rule.Drop ~priority:1
  in
  let sol =
    {
      (Solution.empty inst) with
      Solution.per_switch =
        [|
          [ { Solution.rule = range_rule; tags = [ (0, 1) ] } ];
          (* merged across tags 0 and 1: aligned pair -> 1 tag pattern *)
          [ { Solution.rule = mk_cell Acl.Rule.Drop |> (fun c -> c.Solution.rule); tags = [ (0, 1); (1, 1) ] } ];
        |];
    }
  in
  (* Two hosts, so tags take 1 bit.  Range 1-6 needs 4 prefixes; tag
     {0} is 1 pattern -> 4 slots.  Any-field cell is 1 entry; tags
     {0,1} aligned -> 1 pattern -> 1. *)
  Alcotest.(check int) "slots" 5 (Solution.tcam_slots sol)

let suite = suite @ [ Alcotest.test_case "tcam slots" `Quick test_tcam_slots ]
