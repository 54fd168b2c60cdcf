open Acl

let drop f = (f, Rule.Drop)
let permit f = (f, Rule.Permit)

let test_policy_order () =
  let q =
    Policy.of_fields
      [
        permit (Util.field ~src:"10.1.0.0/16" ());
        drop (Util.field ~src:"10.0.0.0/8" ());
      ]
  in
  let g = Prng.create 1 in
  let p_inner =
    Ternary.Field.random_packet g (Util.field ~src:"10.1.0.0/16" ())
  in
  let p_outer =
    Ternary.Field.random_packet g (Util.field ~src:"10.2.0.0/16" ())
  in
  Alcotest.(check bool) "inner permitted" true
    (Rule.action_equal (Policy.evaluate q p_inner) Rule.Permit);
  Alcotest.(check bool) "outer dropped" true
    (Rule.action_equal (Policy.evaluate q p_outer) Rule.Drop);
  let p_alien = Ternary.Field.random_packet g (Util.field ~src:"11.0.0.0/8" ()) in
  Alcotest.(check bool) "default permit" true
    (Rule.action_equal (Policy.evaluate q p_alien) Rule.Permit)

let test_duplicate_priority_rejected () =
  Alcotest.check_raises "duplicate priorities"
    (Invalid_argument "Policy.of_rules: duplicate priority") (fun () ->
      ignore
        (Policy.of_rules
           [
             Rule.make ~field:Ternary.Field.any ~action:Rule.Drop ~priority:1;
             Rule.make ~field:Ternary.Field.any ~action:Rule.Permit ~priority:1;
           ]))

let test_add_remove () =
  let q = Policy.of_fields [ drop (Util.field ~src:"10.0.0.0/8" ()) ] in
  let r = Rule.make ~field:Ternary.Field.any ~action:Rule.Permit ~priority:100 in
  let q2 = Policy.add_rule q r in
  Alcotest.(check int) "added" 2 (Policy.size q2);
  Alcotest.(check int) "max priority" 100 (Policy.max_priority q2);
  let q3 = Policy.remove_rule q2 ~priority:100 in
  Alcotest.(check int) "removed" 1 (Policy.size q3)

(* Redundancy removal must preserve semantics exactly. *)
let test_redundancy_semantics () =
  let g = Prng.create 55 in
  for _ = 1 to 60 do
    let q = Classbench.policy g ~num_rules:(Prng.int_in g 3 14) in
    let q', _report = Redundancy.remove q in
    Alcotest.(check bool) "no growth" true (Policy.size q' <= Policy.size q);
    Alcotest.(check bool) "semantics preserved" true (Semantics.equal q q')
  done

let test_redundancy_shadowed () =
  (* The narrow rule under an identical-action broad rule is downward
     redundant; a narrow rule under a broader higher-priority rule is
     shadowed. *)
  let q =
    Policy.of_fields
      [
        drop (Util.field ~src:"10.0.0.0/8" ());
        drop (Util.field ~src:"10.1.0.0/16" ());
      ]
  in
  let q', report = Redundancy.remove q in
  Alcotest.(check int) "one rule left" 1 (Policy.size q');
  Alcotest.(check int) "one shadowed removal" 1 report.Redundancy.shadowed

let test_redundancy_default_permit () =
  (* A trailing permit with no drop below it decides nothing. *)
  let q =
    Policy.of_fields
      [
        drop (Util.field ~src:"10.1.0.0/16" ());
        permit (Util.field ~src:"10.2.0.0/16" ());
      ]
  in
  let q', report = Redundancy.remove q in
  Alcotest.(check int) "permit removed" 1 (Policy.size q');
  Alcotest.(check bool) "default-permit elimination" true
    (report.Redundancy.default_permit >= 1)

let test_redundancy_keeps_needed_permit () =
  let q =
    Policy.of_fields
      [
        permit (Util.field ~src:"10.1.0.0/16" ());
        drop (Util.field ~src:"10.0.0.0/8" ());
      ]
  in
  let q', _ = Redundancy.remove q in
  Alcotest.(check int) "both kept" 2 (Policy.size q')

let test_witness_packets_cover_rules () =
  let g = Prng.create 9 in
  let q = Classbench.policy g ~num_rules:8 in
  let probes = List.of_seq (Policy.witness_seq q) in
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool) "some probe hits each rule" true
        (List.exists (Rule.matches r) probes))
    (Policy.rules q)

(* The witness set drawn eagerly, as its definition reads: a packet per
   rule, then one per ordered pair of overlapping rules, from one fixed
   stream. *)
let eager_witnesses q =
  let g = Prng.create 0x5EED in
  let rules = Policy.rules q in
  let singles =
    List.map (fun (r : Rule.t) -> Ternary.Field.random_packet g r.field) rules
  in
  let pairs =
    List.concat_map
      (fun (r1 : Rule.t) ->
        List.filter_map
          (fun (r2 : Rule.t) ->
            if r1 == r2 then None
            else
              Option.map (Ternary.Field.random_packet g)
                (Ternary.Field.inter r1.field r2.field))
          rules)
      rules
  in
  singles @ pairs

(* The lazy sequence yields the eager draw, prefix by prefix, and the
   same packets on every traversal. *)
let prop_witness_seq_prefixes =
  QCheck.Test.make ~name:"lazy witnesses are the eager draw's prefixes"
    ~count:60 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let q = Classbench.policy g ~num_rules:(Prng.int_in g 1 24) in
      let all = eager_witnesses q in
      let seq = Policy.witness_seq q in
      List.of_seq seq = all
      && List.for_all
           (fun n ->
             List.of_seq (Seq.take n seq) = List.filteri (fun i _ -> i < n) all)
           [ 0; 8; 16; List.length all; 16; 0 ])

let suite =
  [
    Alcotest.test_case "policy evaluation order" `Quick test_policy_order;
    Alcotest.test_case "duplicate priorities rejected" `Quick test_duplicate_priority_rejected;
    Alcotest.test_case "add/remove rules" `Quick test_add_remove;
    Alcotest.test_case "redundancy preserves semantics" `Quick test_redundancy_semantics;
    Alcotest.test_case "redundancy: shadowed" `Quick test_redundancy_shadowed;
    Alcotest.test_case "redundancy: default permit" `Quick test_redundancy_default_permit;
    Alcotest.test_case "redundancy keeps needed permits" `Quick test_redundancy_keeps_needed_permit;
    Alcotest.test_case "witness packets cover rules" `Quick test_witness_packets_cover_rules;
    QCheck_alcotest.to_alcotest prop_witness_seq_prefixes;
  ]
