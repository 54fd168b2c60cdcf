(* Monitoring-aware placement (the paper's Section VII future work).

   "If the network wants to monitor certain packets, we do not want to
   let firewall rules block the packets before they reach the monitoring
   rules."  Here an IDS taps the aggregation switch s1 of a chain
   s0-s1-s2 and must observe all traffic from a suspicious /16 — but the
   firewall policy also drops part of that /16.  Without the constraint,
   the optimizer parks the DROP at the ingress switch s0 and the IDS
   never sees the flows it should record; with the constraint, the DROP
   moves to s1 or later, so monitored packets are recorded first and
   dropped after.

   Run with:  dune exec examples/monitoring.exe *)

let field = Ternary.Field.make
let prefix = Ternary.Prefix.of_string

let () =
  let net = Topo.Builder.linear ~switches:3 ~hosts_per_end:1 in
  let routing =
    Routing.Table.of_paths
      [ Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1; 2 ] () ]
  in
  let suspicious = field ~src:(prefix "10.7.0.0/16") () in
  let policy =
    Acl.Policy.of_fields
      [
        (* Permit the suspicious hosts' DNS so the IDS can correlate. *)
        ( field ~src:(prefix "10.7.0.0/16") ~dport:(Ternary.Range.point 53) (),
          Acl.Rule.Permit );
        (* Drop the rest of their traffic. *)
        (field ~src:(prefix "10.7.0.0/16") (), Acl.Rule.Drop);
      ]
  in
  let inst =
    Placement.Instance.make ~net ~routing
      ~policies:[ (0, policy) ]
      ~capacities:[| 4; 4; 4 |]
  in

  let place ?(monitors = []) label =
    let report =
      Placement.Solve.run
        ~options:(Placement.Solve.options ~monitors ())
        inst
    in
    let sol = Option.get report.Placement.Solve.solution in
    Format.printf "%s:@." label;
    Array.iteri
      (fun k cells ->
        List.iter
          (fun (c : Placement.Solution.cell) ->
            Format.printf "  s%d: %a %a@." k Acl.Rule.pp_action
              c.Placement.Solution.rule.Acl.Rule.action Ternary.Field.pp
              c.Placement.Solution.rule.Acl.Rule.field)
          cells)
      sol.Placement.Solution.per_switch;
    sol
  in

  let unconstrained = place "without the monitoring constraint" in
  Format.printf "  -> drop at the ingress switch: %b@.@."
    (Placement.Solution.is_placed unconstrained ~ingress:0 ~priority:1
       ~switch:0);

  (* The IDS taps switch 1 for the suspicious region. *)
  let monitored = place ~monitors:[ (1, suspicious) ] "with an IDS at s1" in
  Format.printf "  -> drop at the ingress switch: %b@."
    (Placement.Solution.is_placed monitored ~ingress:0 ~priority:1 ~switch:0);

  (* Demonstrate on the data plane: a suspicious packet now reaches s1
     before being dropped. *)
  let g = Prng.create 5 in
  let packet =
    Ternary.Field.random_packet g
      (field ~src:(prefix "10.7.0.0/16") ~dport:(Ternary.Range.point 80) ())
  in
  let path = List.hd (Routing.Table.paths_from routing 0) in
  let outcome_of sol =
    let { Placement.Tables.tables; _ } = Placement.Tables.of_solution sol in
    Netsim.forward tables path ~tag:path.Routing.Path.ingress packet
  in
  Format.printf "@.suspicious packet %a:@." Ternary.Packet.pp packet;
  Format.printf "  unconstrained placement: %a@." Netsim.pp_outcome
    (outcome_of unconstrained);
  Format.printf "  monitoring-aware placement: %a@." Netsim.pp_outcome
    (outcome_of monitored);
  (match outcome_of monitored with
  | Netsim.Dropped s -> assert (s >= 1)
  | Netsim.Delivered -> assert false);
  Format.printf "@.the drop still happens, but only after the IDS tap.@."
