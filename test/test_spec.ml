open Placement

let test_handwritten () =
  let text =
    {|
# three-switch chain
net custom 3
link 0 1
link 1 2
host 0 0
host 1 2
capacity * 10
capacity 1 5
path 0 1 0,1,2
policy 0
  rule permit src=10.1.0.0/16 dport=443 proto=tcp
  rule drop src=10.0.0.0/8
|}
  in
  let inst = Spec.of_string text in
  Alcotest.(check int) "switches" 3 (Topo.Net.num_switches inst.Instance.net);
  Alcotest.(check int) "hosts" 2 (Topo.Net.num_hosts inst.Instance.net);
  Alcotest.(check int) "capacity override" 5 inst.Instance.capacities.(1);
  Alcotest.(check int) "default capacity" 10 inst.Instance.capacities.(0);
  Alcotest.(check int) "paths" 1
    (List.length (Routing.Table.paths inst.Instance.routing));
  match inst.Instance.policies with
  | [ (0, q) ] ->
    Alcotest.(check int) "rules" 2 (Acl.Policy.size q);
    let top = List.hd (Acl.Policy.rules q) in
    Alcotest.(check bool) "top is permit" true (Acl.Rule.is_permit top);
    Alcotest.(check int) "dport" 443
      (Ternary.Range.lo top.Acl.Rule.field.Ternary.Field.dport)
  | _ -> Alcotest.fail "expected one policy at ingress 0"

let test_roundtrip_preserves_solving () =
  let g = Prng.create 33 in
  for i = 1 to 15 do
    let inst = Util.random_instance g in
    let inst' = Spec.of_string (Spec.to_string inst) in
    Alcotest.(check int)
      (Printf.sprintf "case %d: switches" i)
      (Topo.Net.num_switches inst.Instance.net)
      (Topo.Net.num_switches inst'.Instance.net);
    Alcotest.(check int)
      (Printf.sprintf "case %d: paths" i)
      (List.length (Routing.Table.paths inst.Instance.routing))
      (List.length (Routing.Table.paths inst'.Instance.routing));
    Alcotest.(check int)
      (Printf.sprintf "case %d: rules" i)
      (Instance.total_policy_rules inst)
      (Instance.total_policy_rules inst');
    (* Same optimum on both (priorities are renumbered by position, but
       the rule order — hence semantics — is identical). *)
    let solve inst =
      match (Solve.run inst).Solve.status, (Solve.run inst).Solve.solution with
      | (`Optimal | `Feasible), Some sol -> Some (Solution.total_entries sol)
      | _ -> None
    in
    Alcotest.(check (option int))
      (Printf.sprintf "case %d: same optimum" i)
      (solve inst) (solve inst')
  done

let test_flow_roundtrip () =
  let net = Topo.Builder.linear ~switches:2 ~hosts_per_end:1 in
  let flow = Ternary.Field.make ~dst:(Topo.Net.host_prefix 1) () in
  let inst =
    Instance.make ~net
      ~routing:
        (Routing.Table.of_paths
           [ Routing.Path.make ~flow ~ingress:0 ~egress:1 ~switches:[ 0; 1 ] () ])
      ~policies:
        [ (0, Acl.Policy.of_fields [ (Ternary.Field.any, Acl.Rule.Drop) ]) ]
      ~capacities:[| 3; 3 |]
  in
  let inst' = Spec.of_string (Spec.to_string inst) in
  match Routing.Table.paths inst'.Instance.routing with
  | [ p ] ->
    Alcotest.(check bool) "flow preserved" true
      (Ternary.Field.equal flow p.Routing.Path.flow)
  | _ -> Alcotest.fail "expected one path"

let expect_failure name text =
  match Spec.of_string text with
  | exception Failure msg ->
    Alcotest.(check bool)
      (name ^ ": message has line number")
      true
      (String.length msg > 5 && String.sub msg 0 5 = "line ")
  | exception _ -> ()
  | _ -> Alcotest.failf "%s: expected failure" name

let test_errors () =
  expect_failure "bad directive" "net custom 2\nfrobnicate 1 2\n";
  expect_failure "rule outside policy" "net custom 1\nrule drop src=*\n";
  expect_failure "bad prefix" "net custom 1\nhost 0 0\npolicy 0\nrule drop src=999.1.1.1/8\n";
  expect_failure "bad range" "net custom 1\nhost 0 0\npolicy 0\nrule drop sport=9-x\n"

let suite =
  [
    Alcotest.test_case "handwritten file" `Quick test_handwritten;
    Alcotest.test_case "roundtrip preserves solving" `Quick test_roundtrip_preserves_solving;
    Alcotest.test_case "flow regions roundtrip" `Quick test_flow_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_errors;
  ]

let test_save_load_files () =
  let g = Prng.create 71 in
  let inst = Util.random_instance g in
  let path = Filename.temp_file "spec_test" ".sdn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Spec.save path inst;
      let inst' = Spec.load path in
      Alcotest.(check int) "rules survive disk roundtrip"
        (Instance.total_policy_rules inst)
        (Instance.total_policy_rules inst'));
  match Spec.load "/nonexistent/file.sdn" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "expected Sys_error"

let suite =
  suite @ [ Alcotest.test_case "save/load files" `Quick test_save_load_files ]
