let test_determinism () =
  let f = { Workload.default with Workload.rules = 10; paths = 24 } in
  let a = Workload.build f and b = Workload.build f in
  Alcotest.(check int) "same paths"
    (Routing.Table.num_paths a.Placement.Instance.routing)
    (Routing.Table.num_paths b.Placement.Instance.routing);
  List.iter2
    (fun (_, qa) (_, qb) ->
      Alcotest.(check bool) "same policies" true
        (List.for_all2 Acl.Rule.equal (Acl.Policy.rules qa) (Acl.Policy.rules qb)))
    a.Placement.Instance.policies b.Placement.Instance.policies

let test_paths_nested () =
  (* Sweeping the path count keeps smaller path sets as prefixes of
     larger ones, and policies identical. *)
  let fam p = { Workload.default with Workload.paths = p } in
  let small = Workload.build (fam 24) and large = Workload.build (fam 48) in
  Alcotest.(check int) "small count" 24
    (Routing.Table.num_paths small.Placement.Instance.routing);
  Alcotest.(check int) "large count" 48
    (Routing.Table.num_paths large.Placement.Instance.routing);
  let paths_of inst i =
    Routing.Table.paths_from inst.Placement.Instance.routing i
  in
  List.iter
    (fun i ->
      let ps = paths_of small i and pl = paths_of large i in
      Alcotest.(check bool)
        (Printf.sprintf "ingress %d prefix" i)
        true
        (List.for_all2 Routing.Path.equal ps
           (List.filteri (fun n _ -> n < List.length ps) pl)))
    (Routing.Table.ingresses small.Placement.Instance.routing);
  List.iter2
    (fun (_, qa) (_, qb) ->
      Alcotest.(check bool) "policies unchanged by path sweep" true
        (List.for_all2 Acl.Rule.equal (Acl.Policy.rules qa) (Acl.Policy.rules qb)))
    small.Placement.Instance.policies large.Placement.Instance.policies

let test_mergeable_blacklist_shared () =
  let f = { Workload.default with Workload.mergeable = 5; rules = 6 } in
  let inst = Workload.build f in
  let groups = Placement.Merge.find_groups inst in
  Alcotest.(check bool) "at least the blacklist merges" true
    (List.length groups >= 5);
  List.iter
    (fun (_, q) -> Alcotest.(check int) "policy size" 11 (Acl.Policy.size q))
    inst.Placement.Instance.policies

let test_ingress_modes () =
  let net = Topo.Fattree.make 4 in
  let spread = Workload.ingresses net Workload.Spread 8 in
  let contiguous = Workload.ingresses net Workload.Contiguous 8 in
  Alcotest.(check (list int)) "contiguous" [ 0; 1; 2; 3; 4; 5; 6; 7 ] contiguous;
  Alcotest.(check int) "spread count" 8 (List.length spread);
  (* Spread ingresses land on distinct edge switches. *)
  let attach = List.map (Topo.Net.host_attach net) spread in
  Alcotest.(check int) "distinct switches" 8
    (List.length (List.sort_uniq Stdlib.compare attach))

(* Fewer paths than policy ingresses: [build] raises a named error
   instead of failing deep in [Instance.make], and [validate] gives the
   same message for the CLI's usage error. *)
let test_too_few_paths () =
  let f = { Workload.default with Workload.paths = 1; num_policies = 8 } in
  let msg =
    "paths = 1 is fewer than the 8 policy ingresses (num_policies = 8): \
     each needs a path"
  in
  Alcotest.(check (result unit string)) "validate" (Error msg)
    (Workload.validate f);
  Alcotest.check_raises "build raises"
    (Invalid_argument ("Workload.build: " ^ msg))
    (fun () -> ignore (Workload.build f));
  (* One path per ingress is enough, counted after [ingresses] caps the
     policies at the 16 hosts of k=4. *)
  List.iter
    (fun (paths, num_policies) ->
      let f = { Workload.default with Workload.paths; num_policies } in
      Alcotest.(check bool)
        (Printf.sprintf "%d paths, %d policies" paths num_policies)
        true
        (Workload.validate f = Ok ());
      ignore (Workload.build f))
    [ (8, 8); (16, 20) ]

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "nested path sweeps" `Quick test_paths_nested;
    Alcotest.test_case "blacklist shared" `Quick test_mergeable_blacklist_shared;
    Alcotest.test_case "ingress modes" `Quick test_ingress_modes;
    Alcotest.test_case "too few paths is a named error" `Quick
      test_too_few_paths;
  ]
