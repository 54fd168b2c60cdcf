open Placement

let drop f = (f, Acl.Rule.Drop)
let permit f = (f, Acl.Rule.Permit)

let test_basic_dependencies () =
  let q =
    Acl.Policy.of_fields
      [
        permit (Util.field ~src:"10.1.0.0/16" ());
        permit (Util.field ~src:"11.0.0.0/8" ());
        drop (Util.field ~src:"10.0.0.0/8" ());
      ]
  in
  let g = Depgraph.build q in
  let the_drop = List.hd (Acl.Policy.drops q) in
  let deps = Depgraph.dependencies g the_drop in
  (* Only the overlapping permit (10.1/16) is a dependency; 11/8 is
     disjoint from the drop. *)
  Alcotest.(check int) "one dependency" 1 (List.length deps);
  Alcotest.(check int) "it is the top permit" 3
    (List.hd deps).Acl.Rule.priority;
  Alcotest.(check int) "edge count" 1 (Depgraph.num_edges g)

let test_lower_priority_permit_not_dep () =
  let q =
    Acl.Policy.of_fields
      [
        drop (Util.field ~src:"10.0.0.0/8" ());
        permit (Util.field ~src:"10.1.0.0/16" ());
      ]
  in
  let g = Depgraph.build q in
  let the_drop = List.hd (Acl.Policy.drops q) in
  Alcotest.(check int) "permit below drop is no dependency" 0
    (List.length (Depgraph.dependencies g the_drop))

let test_permits_have_no_deps () =
  let q = Acl.Policy.of_fields [ permit Ternary.Field.any ] in
  let g = Depgraph.build q in
  let r = List.hd (Acl.Policy.rules q) in
  Alcotest.(check int) "permit deps" 0 (List.length (Depgraph.dependencies g r))

let test_required_permits_dedup () =
  let shared = Util.field ~src:"10.0.0.0/9" () in
  let q =
    Acl.Policy.of_fields
      [
        permit shared;
        drop (Util.field ~src:"10.1.0.0/16" ());
        drop (Util.field ~src:"10.2.0.0/16" ());
      ]
  in
  let g = Depgraph.build q in
  let perms = Depgraph.required_permits g (Acl.Policy.drops q) in
  Alcotest.(check int) "shared permit counted once" 1 (List.length perms)

(* Random property: deps are exactly the higher-priority overlapping
   permits. *)
let test_random_dep_definition () =
  let g = Prng.create 31 in
  for _ = 1 to 50 do
    let q = Classbench.policy g ~num_rules:(Prng.int_in g 3 15) in
    let dg = Depgraph.build q in
    List.iter
      (fun (w : Acl.Rule.t) ->
        let expected =
          List.filter
            (fun (u : Acl.Rule.t) ->
              Acl.Rule.is_permit u
              && u.priority > w.priority
              && Acl.Rule.overlaps u w)
            (Acl.Policy.rules q)
        in
        Alcotest.(check int) "dep set size"
          (List.length expected)
          (List.length (Depgraph.dependencies dg w)))
      (Acl.Policy.drops q)
  done

let suite =
  [
    Alcotest.test_case "basic dependencies" `Quick test_basic_dependencies;
    Alcotest.test_case "lower permits excluded" `Quick test_lower_priority_permit_not_dep;
    Alcotest.test_case "permits have no deps" `Quick test_permits_have_no_deps;
    Alcotest.test_case "required permits dedup" `Quick test_required_permits_dedup;
    Alcotest.test_case "random dep definition" `Quick test_random_dep_definition;
  ]
