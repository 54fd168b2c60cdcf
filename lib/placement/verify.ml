type violation =
  | Capacity of { switch : int; used : int; bound : int }
  | Monitor of { ingress : int; priority : int; switch : int }
      (** a DROP overlapping a monitored region sits upstream of its
          monitor *)
  | Coverage of { ingress : int; priority : int; egress : int }
  | Dependency of { ingress : int; drop : int; permit : int; switch : int }
  | Semantic of {
      ingress : int;
      egress : int;
      packet : Ternary.Packet.t;
      expected : Acl.Rule.action;
      got : Netsim.outcome;
    }

let pp_violation fmt = function
  | Capacity { switch; used; bound } ->
    Format.fprintf fmt "capacity: switch %d holds %d > %d" switch used bound
  | Monitor { ingress; priority; switch } ->
    Format.fprintf fmt
      "monitor: drop %d of ingress %d placed at %d before its monitor"
      priority ingress switch
  | Coverage { ingress; priority; egress } ->
    Format.fprintf fmt "coverage: drop %d of ingress %d missing on path to %d"
      priority ingress egress
  | Dependency { ingress; drop; permit; switch } ->
    Format.fprintf fmt
      "dependency: drop %d of ingress %d at switch %d lacks permit %d" drop
      ingress switch permit
  | Semantic { ingress; egress; packet; expected; got } ->
    Format.fprintf fmt "semantic: %a from %d to %d expected %a got %a"
      Ternary.Packet.pp packet ingress egress Acl.Rule.pp_action expected
      Netsim.pp_outcome got

(* Where each placed (ingress, priority) sits: its switches, ascending
   and without repeats, from one pass over the cells instead of a scan
   of a switch's cells and their tags per lookup.  A list, not a
   per-switch array, so the index costs the placement, not the network.
   Only the tags of the ingresses [only] picks are indexed. *)
let placements ~only (sol : Solution.t) =
  let at = Hashtbl.create (Solution.total_entries sol) in
  Array.iteri
    (fun k cells ->
      List.iter
        (fun (c : Solution.cell) ->
          List.iter
            (fun ((i, _) as key) ->
              if only i then
                match Hashtbl.find_opt at key with
                | Some (k' :: _) when k' = k -> ()
                | Some where -> Hashtbl.replace at key (k :: where)
                | None -> Hashtbl.add at key [ k ])
            c.Solution.tags)
        cells)
    sol.Solution.per_switch;
  Hashtbl.filter_map_inplace (fun _ where -> Some (List.rev where)) at;
  fun ~ingress ~priority ->
    Option.value (Hashtbl.find_opt at (ingress, priority)) ~default:[]

let check_structure ?(only = fun _ -> true) ~monitors ~is_dummy ~sliced
    (sol : Solution.t) =
  let inst = sol.Solution.instance in
  let placed = placements ~only sol in
  let violations = ref [] in
  (* Capacity. *)
  Array.iteri
    (fun k used ->
      let bound = inst.Instance.capacities.(k) in
      if used > bound then violations := Capacity { switch = k; used; bound } :: !violations)
    (Solution.switch_usage sol);
  (* Monitoring: no DROP that could kill monitored packets sits upstream
     of the monitor on a path of its policy through it. *)
  let upstream i switch (r : Acl.Rule.t) (m, region) =
    Acl.Rule.is_drop r
    && Ternary.Field.overlaps r.field region
    && List.exists
         (fun (p : Routing.Path.t) ->
           match Routing.Path.position p m with
           | Some at ->
             Array.mem switch (Array.sub p.Routing.Path.switches 0 at)
           | None -> false)
         (Routing.Table.paths_from inst.Instance.routing i)
  in
  Array.iteri
    (fun switch cells ->
      List.iter
        (fun (c : Solution.cell) ->
          List.iter
            (fun (ingress, priority) ->
              if
                only ingress
                && List.exists
                     (upstream ingress switch c.Solution.rule)
                     monitors
              then
                violations :=
                  Monitor { ingress; priority; switch } :: !violations)
            c.Solution.tags)
        cells)
    sol.Solution.per_switch;
  List.iter
    (fun (i, q) ->
      let dep = Depgraph.build q in
      let paths = Routing.Table.paths_from inst.Instance.routing i in
      (* Coverage of every relevant, non-dummy DROP on every path. *)
      List.iter
        (fun (w : Acl.Rule.t) ->
          if not (is_dummy ~ingress:i ~priority:w.priority) then
            let at = placed ~ingress:i ~priority:w.priority in
            List.iter
              (fun (p : Routing.Path.t) ->
                let applies =
                  (not sliced)
                  || Ternary.Field.overlaps w.field p.Routing.Path.flow
                in
                if
                  applies
                  && not
                       (Array.exists (fun k -> List.mem k at)
                          p.Routing.Path.switches)
                then
                  violations :=
                    Coverage
                      { ingress = i; priority = w.priority; egress = p.Routing.Path.egress }
                    :: !violations)
              paths)
        (Acl.Policy.drops q);
      (* Dependency co-location for every installed drop of this policy. *)
      List.iter
        (fun (w : Acl.Rule.t) ->
          if Acl.Rule.is_drop w then
            let deps =
              List.map
                (fun (u : Acl.Rule.t) ->
                  (u.priority, placed ~ingress:i ~priority:u.priority))
                (Depgraph.dependencies dep w)
            in
            List.iter
              (fun k ->
                List.iter
                  (fun (permit, at) ->
                    if not (List.mem k at) then
                      violations :=
                        Dependency
                          { ingress = i; drop = w.priority; permit; switch = k }
                        :: !violations)
                  deps)
              (placed ~ingress:i ~priority:w.priority))
        (Acl.Policy.rules q))
    (List.filter (fun (i, _) -> only i) inst.Instance.policies);
  List.rev !violations

let structural (layout : Layout.t) (sol : Solution.t) =
  check_structure ~monitors:layout.Layout.monitors
    ~is_dummy:(Layout.is_dummy layout)
    ~sliced:layout.Layout.sliced sol

let structural_plain ?only (sol : Solution.t) =
  check_structure ?only ~monitors:[]
    ~is_dummy:(fun ~ingress:_ ~priority:_ -> false)
    ~sliced:sol.Solution.sliced sol

let semantic ?(random_samples = 20) ?(only = fun _ -> true) ?tables g
    (sol : Solution.t) =
  let inst = sol.Solution.instance in
  let tables =
    match tables with
    | Some tables -> tables
    | None -> (Tables.of_solution sol).Tables.tables
  in
  let view = Netsim.tag_view ~only tables in
  let violations = ref [] in
  let probe (p : Routing.Path.t) q packet =
    let expected = Acl.Policy.evaluate q packet in
    let got = Netsim.forward_view view p ~tag:p.Routing.Path.ingress packet in
    let agree =
      match (expected, got) with
      | Acl.Rule.Drop, Netsim.Dropped _ -> true
      | Acl.Rule.Permit, Netsim.Delivered -> true
      | Acl.Rule.Drop, Netsim.Delivered | Acl.Rule.Permit, Netsim.Dropped _ ->
        false
    in
    if not agree then
      violations :=
        Semantic
          {
            ingress = p.Routing.Path.ingress;
            egress = p.Routing.Path.egress;
            packet;
            expected;
            got;
          }
        :: !violations
  in
  List.iter
    (fun (i, q) ->
      let rules = Acl.Policy.rules q in
      (* Probe regions: every rule and every pairwise overlap. *)
      let regions =
        List.map (fun (r : Acl.Rule.t) -> r.field) rules
        @ List.concat_map
            (fun (r1 : Acl.Rule.t) ->
              List.filter_map
                (fun (r2 : Acl.Rule.t) ->
                  if r1.priority < r2.priority then None
                  else Ternary.Field.inter r1.field r2.field)
                rules)
            rules
      in
      List.iter
        (fun (p : Routing.Path.t) ->
          let flow = p.Routing.Path.flow in
          List.iter
            (fun region ->
              let region =
                if sol.Solution.sliced then Ternary.Field.inter region flow
                else Some region
              in
              match region with
              | Some r -> probe p q (Ternary.Field.random_packet g r)
              | None -> ())
            regions;
          for _ = 1 to random_samples do
            let packet =
              if sol.Solution.sliced then Ternary.Field.random_packet g flow
              else Ternary.Packet.random g
            in
            probe p q packet
          done)
        (Routing.Table.paths_from inst.Instance.routing i))
    (List.filter (fun (i, _) -> only i) inst.Instance.policies);
  List.rev !violations

let check ?random_samples g layout sol =
  structural layout sol @ semantic ?random_samples g sol

let exact (sol : Solution.t) =
  let inst = sol.Solution.instance in
  let { Tables.tables; _ } = Tables.of_solution sol in
  let cube_width = Ternary.Field.width in
  try
    let violations = ref [] in
    List.iter
      (fun (i, q) ->
        let expected_all = Acl.Semantics.drop_region q in
        (* Per-switch drop regions for this ingress tag, cached. *)
        let switch_drop = Hashtbl.create 16 in
        let drop_at s =
          match Hashtbl.find_opt switch_drop s with
          | Some r -> r
          | None ->
            let rules =
              List.filter_map
                (fun (e : Netsim.entry) ->
                  if List.mem i e.Netsim.tags then Some e.Netsim.rule else None)
                tables.(s)
            in
            let r = Acl.Semantics.drop_region_of_rules rules in
            Hashtbl.replace switch_drop s r;
            r
        in
        List.iter
          (fun (p : Routing.Path.t) ->
            let flow =
              if sol.Solution.sliced then
                Some (Ternary.Field.to_cube p.Routing.Path.flow)
              else None
            in
            let restrict r =
              match flow with
              | Some f -> Ternary.Cube.inter r f
              | None -> r
            in
            let expected = restrict expected_all in
            let actual =
              restrict
                (Array.fold_left
                   (fun acc s -> Ternary.Cube.union acc (drop_at s))
                   (Ternary.Cube.empty cube_width)
                   p.Routing.Path.switches)
            in
            let witness_of diff expected_action =
              match Ternary.Cube.choose diff with
              | None -> ()
              | Some cube ->
                let packet = Ternary.Field.packet_of_tbv cube in
                violations :=
                  Semantic
                    {
                      ingress = i;
                      egress = p.Routing.Path.egress;
                      packet;
                      expected = expected_action;
                      got =
                        Netsim.forward tables p ~tag:p.Routing.Path.ingress
                          packet;
                    }
                  :: !violations
            in
            witness_of
              (Ternary.Cube.subtract expected actual)
              Acl.Rule.Drop;
            witness_of
              (Ternary.Cube.subtract actual expected)
              Acl.Rule.Permit)
          (Routing.Table.paths_from inst.Instance.routing i))
      inst.Instance.policies;
    Some (List.rev !violations)
  with Ternary.Cube.Budget_exceeded -> None
