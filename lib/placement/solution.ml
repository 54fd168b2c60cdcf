type cell = { rule : Acl.Rule.t; tags : (int * int) list }

type t = {
  instance : Instance.t;
  sliced : bool;
  per_switch : cell list array;
  baseline_rule_count : int;
  objective : float;
}

let of_assignment (layout : Layout.t) assignment ~objective =
  let inst = layout.Layout.instance in
  let n_switches = Topo.Net.num_switches inst.Instance.net in
  let per_switch = Array.make n_switches [] in
  (* Members captured by an active merged variable at their switch. *)
  let absorbed = Hashtbl.create 64 in
  let groups =
    List.map (fun (g : Merge.group) -> (g.Merge.gid, g)) layout.Layout.plan.Merge.groups
  in
  List.iter
    (fun (mv, members) ->
      if assignment.(mv) then
        List.iter (fun v -> Hashtbl.replace absorbed v ()) members)
    layout.Layout.merge_defs;
  Layout.iter_placed layout assignment (fun v ingress rule switch ->
      if not (Hashtbl.mem absorbed v) then
        per_switch.(switch) <-
          { rule; tags = [ (ingress, rule.Acl.Rule.priority) ] }
          :: per_switch.(switch));
  List.iter
    (fun (mv, _) ->
      match Layout.key layout mv with
      | Layout.Merged { gid; switch } when assignment.(mv) ->
        let g = List.assoc gid groups in
        (* AND semantics: every member with a variable at this switch is
           placed; they form the merged entry's tag set. *)
        let tags =
          List.filter_map
            (fun (m : Merge.member) ->
              match
                Layout.var layout ~ingress:m.Merge.ingress
                  ~priority:m.Merge.priority ~switch
              with
              | Some _ -> Some (m.Merge.ingress, m.Merge.priority)
              | None -> None)
            g.Merge.members
        in
        let priority =
          List.fold_left (fun acc (_, p) -> max acc p) min_int tags
        in
        let rule =
          Acl.Rule.make ~field:g.Merge.field ~action:g.Merge.action ~priority
        in
        per_switch.(switch) <- { rule; tags } :: per_switch.(switch)
      | Layout.Merged _ | Layout.Place _ -> ())
    (List.rev layout.Layout.merge_defs);
  {
    instance = inst;
    sliced = layout.Layout.sliced;
    per_switch;
    baseline_rule_count = layout.Layout.baseline_rule_count;
    objective;
  }

let empty inst =
  {
    instance = inst;
    sliced = false;
    per_switch = Array.make (Topo.Net.num_switches inst.Instance.net) [];
    baseline_rule_count = Instance.total_policy_rules inst;
    objective = 0.0;
  }

let total_entries t =
  Array.fold_left (fun acc cells -> acc + List.length cells) 0 t.per_switch

let switch_usage t = Array.map List.length t.per_switch

let overhead_pct t =
  let a = float_of_int t.baseline_rule_count in
  if a = 0.0 then 0.0 else 100.0 *. (float_of_int (total_entries t) -. a) /. a

let tcam_slots t =
  let tag_bits =
    let hosts = Topo.Net.num_hosts t.instance.Instance.net in
    let rec bits n acc = if n <= 1 then acc else bits ((n + 1) / 2) (acc + 1) in
    max 1 (bits hosts 0)
  in
  Array.fold_left
    (fun acc cells ->
      List.fold_left
        (fun acc c ->
          let patterns =
            Tag_cover.patterns ~universe_bits:tag_bits
              (List.map fst c.tags)
          in
          acc + (Ternary.Field.tcam_entries c.rule.Acl.Rule.field * patterns))
        acc cells)
    0 t.per_switch

let is_placed t ~ingress ~priority ~switch =
  List.exists
    (fun c -> List.mem (ingress, priority) c.tags)
    t.per_switch.(switch)

let merged_cells t =
  let acc = ref [] in
  Array.iteri
    (fun k cells ->
      List.iter
        (fun c -> if List.length c.tags > 1 then acc := (k, c) :: !acc)
        cells)
    t.per_switch;
  !acc

let strip_ingresses t ingresses =
  let keep (i, _) = not (List.mem i ingresses) in
  let per_switch =
    Array.map
      (fun cells ->
        List.filter_map
          (fun c ->
            match List.filter keep c.tags with
            | [] -> None
            | tags -> Some { c with tags })
          cells)
      t.per_switch
  in
  let removed_rules =
    (* Keep A consistent with Layout's definition: drops + dependent
       permits per removed policy (single copies). *)
    List.fold_left
      (fun acc i ->
        match Instance.policy_of t.instance i with
        | Some q ->
          let dep = Depgraph.build q in
          let drops = Acl.Policy.drops q in
          acc + List.length drops
          + List.length (Depgraph.required_permits dep drops)
        | None -> acc)
      0 ingresses
  in
  {
    t with
    per_switch;
    baseline_rule_count = max 0 (t.baseline_rule_count - removed_rules);
  }

let pp_summary fmt t =
  Format.fprintf fmt "%d entries over %d switches (A=%d, overhead %.1f%%)"
    (total_entries t)
    (Array.length t.per_switch)
    t.baseline_rule_count (overhead_pct t)
