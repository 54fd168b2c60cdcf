(* Quickstart: the paper's Figure 3 example, end to end.

   One ingress host sits behind switch s0.  Traffic fans out over two
   routed paths, s0-s1-s2 and s0-s1-s3-s4.  The ingress policy permits a
   specific flow, drops the rest of its subnet, and blacklists one more
   destination.  We ask the engine for a placement minimizing the total
   number of TCAM entries, print the resulting switch tables, and then
   check them against the big-switch semantics by injecting packets.

   Run with:  dune exec examples/quickstart.exe *)

let field = Ternary.Field.make

let prefix = Ternary.Prefix.of_string

let () =
  (* Topology and routing: the Fig. 3 shape. *)
  let net = Topo.Builder.figure3 () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~ingress:0 ~egress:2 ~switches:[ 0; 1; 3; 4 ] ();
      ]
  in
  (* The prioritized ACL policy attached to the ingress (top rule first):
     r3: permit the web flow from the trusted /16
     r2: drop everything else from the wider /8
     r1: drop anything to the blacklisted destination *)
  let policy =
    Acl.Policy.of_fields
      [
        ( field ~src:(prefix "10.1.0.0/16") ~dst:(prefix "10.2.0.0/16")
            ~dport:(Ternary.Range.point 443) (),
          Acl.Rule.Permit );
        (field ~src:(prefix "10.1.0.0/16") (), Acl.Rule.Drop);
        (field ~dst:(prefix "10.3.0.0/16") (), Acl.Rule.Drop);
      ]
  in
  Format.printf "ingress policy:@.%a@.@." Acl.Policy.pp policy;

  (* Tight capacities force the engine to spread rules: two slots per
     switch cannot hold the whole required set at s0. *)
  let inst =
    Placement.Instance.make ~net ~routing
      ~policies:[ (0, policy) ]
      ~capacities:[| 2; 2; 2; 2; 2 |]
  in
  let report = Placement.Solve.run inst in
  Format.printf "%a@.@." Placement.Solve.pp_report report;

  let sol =
    match report.Placement.Solve.solution with
    | Some s -> s
    | None -> failwith "expected a placement"
  in
  (* Print the per-switch tables the controller would install. *)
  let { Placement.Tables.tables; _ } = Placement.Tables.of_solution sol in
  Array.iteri
    (fun k -> function
      | [] -> ()
      | table ->
        Format.printf "switch s%d:@." k;
        List.iter
          (fun (e : Netsim.entry) ->
            Format.printf "  %a %a@." Acl.Rule.pp_action
              e.Netsim.rule.Acl.Rule.action Ternary.Field.pp
              e.Netsim.rule.Acl.Rule.field)
          table)
    tables;

  (* Sanity-check the data plane against the big-switch policy. *)
  let g = Prng.create 42 in
  let paths = Routing.Table.paths_from routing 0 in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 500 do
    let packet = Ternary.Packet.random g in
    List.iter
      (fun p ->
        incr total;
        let expected = Acl.Policy.evaluate policy packet in
        let got = Netsim.forward tables p ~tag:p.Routing.Path.ingress packet in
        let ok =
          match (expected, got) with
          | Acl.Rule.Drop, Netsim.Dropped _ | Acl.Rule.Permit, Netsim.Delivered
            ->
            true
          | _ -> false
        in
        if ok then incr agree)
      paths
  done;
  Format.printf "@.data-plane agreement with the big-switch policy: %d/%d@."
    !agree !total;
  assert (!agree = !total);

  (* Beyond sampling: prove equivalence on the whole 104-bit packet
     space with the exact region verifier. *)
  match Placement.Verify.exact sol with
  | Some [] -> Format.printf "exact region proof: placement == policy@."
  | Some (v :: _) ->
    Format.printf "exact verifier found: %a@." Placement.Verify.pp_violation v;
    assert false
  | None -> Format.printf "exact proof skipped (cube budget)@." 
