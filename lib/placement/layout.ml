type key =
  | Place of { ingress : int; priority : int; switch : int }
  | Merged of { gid : int; switch : int }

type capacity = {
  switch : int;
  bound : int;
  plain : int list;
  grouped : (int * int list) list;
}

(* One policy's placement variables: the rule in slot [s] at the switch
   in position [j] of [switches] is variable [base + s * |switches| + j].
   [prios] is ascending; [slots.(x)] and [dummies.(x)] belong to
   [prios.(x)]. *)
type block = {
  base : int;
  switches : int array;
  prios : int array;
  slots : int array;
  dummies : bool array;
}

type numbering = {
  blocks : block array;  (* by ingress host; [no_block] without a policy *)
  forbidden_mask : bool array;  (* by variable *)
}

type pin = Free | Zero | One

type t = {
  instance : Instance.t;
  plan : Merge.plan;
  sliced : bool;
  monitors : (int * Ternary.Field.t) list;
  keys : key array;
  numbering : numbering;
  rules : (int * int, Acl.Rule.t) Hashtbl.t;
  implications : (int * int) list;
  covers : int list list;
  capacities : capacity list;
  merge_defs : (int * int list) list;
  weights : float array;
  baseline_rule_count : int;
  forbidden : int list;
  pins : pin array;
}

let num_vars t = Array.length t.keys

let no_block =
  { base = 0; switches = [||]; prios = [||]; slots = [||]; dummies = [||] }

(* Position of [x] in the ascending array [a], or -1. *)
let find_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

(* The variable of slot [s] at switch position [j] of [b]. *)
let var_in b s j = b.base + (s * Array.length b.switches) + j

let block_at blocks ingress =
  if ingress < 0 || ingress >= Array.length blocks then no_block
  else blocks.(ingress)

(* Slot of [priority] in [b], or -1 when the rule places nothing. *)
let slot_of b priority =
  let x = find_sorted b.prios priority in
  if x < 0 then -1 else b.slots.(x)

(* One policy between the passes of [build]: what its rows need, and
   the switch [k0] where conditions 1-3 of the pin rule hold (-1 when
   they fail). *)
type policy_info = {
  block : block;
  dep : Depgraph.t;
  paths : Routing.Path.t list;
  placed_drops : Acl.Rule.t list;
  coverage_drops : Acl.Rule.t list;
  pin_at : int;
}

(* Conditions 1-2 of the pin rule: the switch of a one-switch path that
   lies on every path, when each of [drops] applies to a one-switch path
   there; else -1. *)
let forced_switch ~sliced paths drops =
  match
    List.find_opt
      (fun (p : Routing.Path.t) -> Array.length p.Routing.Path.switches = 1)
      paths
  with
  | None -> -1
  | Some p0 ->
    let k0 = p0.Routing.Path.switches.(0) in
    let forcing (w : Acl.Rule.t) (p : Routing.Path.t) =
      Array.length p.Routing.Path.switches = 1
      && p.Routing.Path.switches.(0) = k0
      && ((not sliced) || Ternary.Field.overlaps w.field p.Routing.Path.flow)
    in
    if
      List.for_all (fun p -> Routing.Path.mem p k0) paths
      && List.for_all (fun w -> List.exists (forcing w) paths) drops
    then k0
    else -1

let build ?(sliced = false) ?(plan = Merge.empty_plan) ?(monitors = [])
    (inst : Instance.t) =
  let net = inst.Instance.net in
  let n_switches = Topo.Net.num_switches net in
  let dummies = Merge.dummy_set plan in
  let is_dummy i (r : Acl.Rule.t) = Hashtbl.mem dummies (i, r.priority) in
  (* Ingresses with a rule in a merge group; dummies are members too. *)
  let merging = Hashtbl.create 16 in
  List.iter
    (fun (g : Merge.group) ->
      List.iter
        (fun (m : Merge.member) -> Hashtbl.replace merging m.Merge.ingress ())
        g.Merge.members)
    plan.Merge.groups;
  let blocks = Array.make (Topo.Net.num_hosts net) no_block in
  let n_place = ref 0 in
  (* Each policy's keys and weights, last policy first. *)
  let place_keys = ref [] and place_weights = ref [] in
  let rules = Hashtbl.create 256 in
  let baseline = ref 0 in
  (* Scratch, by switch, reset after each policy: the position in [S_i]
     and the paper's loc(s, P_i), min hops over the paths of this
     ingress (ingress-side switch = 0 hops). *)
  let pos = Array.make n_switches (-1) in
  let loc = Array.make n_switches max_int in
  let policies = ref [] in
  List.iter
    (fun (i, q) ->
      let dep = Depgraph.build q in
      let paths = Routing.Table.paths_from inst.Instance.routing i in
      let drops = Acl.Policy.drops q in
      let relevant (w : Acl.Rule.t) =
        (not sliced)
        || List.exists
             (fun (p : Routing.Path.t) ->
               Ternary.Field.overlaps w.field p.Routing.Path.flow)
             paths
      in
      let coverage_drops =
        List.filter (fun w -> (not (is_dummy i w)) && relevant w) drops
      in
      let dummy_rules = List.filter (is_dummy i) (Acl.Policy.rules q) in
      let placed_drops = coverage_drops @ List.filter Acl.Rule.is_drop dummy_rules in
      let needed_permits = Depgraph.required_permits dep placed_drops in
      (* The paper's A counts the rules each policy would install if they
         all fitted at the ingress switch: its relevant drops plus their
         dependent permits, once each (dummies excluded — they install
         nothing on their own). *)
      let non_dummy rs =
        List.filter (fun (r : Acl.Rule.t) -> not (is_dummy i r)) rs
      in
      baseline :=
        !baseline
        + List.length (non_dummy coverage_drops)
        + List.length (non_dummy needed_permits);
      let placed_rules =
        (* Dummy permits may coincide with needed permits: dedupe.  The
           table's fold order is the slot order. *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (r : Acl.Rule.t) -> Hashtbl.replace tbl r.priority r)
          (placed_drops @ needed_permits @ dummy_rules);
        Array.of_list (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])
      in
      let by_prio =
        Array.mapi (fun s (r : Acl.Rule.t) -> (r.priority, s)) placed_rules
      in
      Array.sort compare by_prio;
      let b =
        {
          base = !n_place;
          switches =
            Array.of_list (Routing.Table.switches_from inst.Instance.routing i);
          prios = Array.map fst by_prio;
          slots = Array.map snd by_prio;
          dummies =
            Array.map (fun (p, _) -> Hashtbl.mem dummies (i, p)) by_prio;
        }
      in
      blocks.(i) <- b;
      let width = Array.length b.switches in
      let n = Array.length placed_rules * width in
      n_place := !n_place + n;
      List.iter
        (fun (p : Routing.Path.t) ->
          Array.iteri
            (fun d k -> if d < loc.(k) then loc.(k) <- d)
            p.Routing.Path.switches)
        paths;
      let keys = Array.make n (Merged { gid = -1; switch = -1 }) in
      let weights = Array.make n 1.0 in
      Array.iteri
        (fun s (r : Acl.Rule.t) ->
          Hashtbl.replace rules (i, r.priority) r;
          Array.iteri
            (fun j k ->
              keys.((s * width) + j) <-
                Place { ingress = i; priority = r.priority; switch = k };
              weights.((s * width) + j) <- 1.0 +. float_of_int loc.(k))
            b.switches)
        placed_rules;
      place_keys := keys :: !place_keys;
      place_weights := weights :: !place_weights;
      Array.iter (fun k -> loc.(k) <- max_int) b.switches;
      let pin_at =
        if n = 0 || Hashtbl.mem merging i then -1
        else forced_switch ~sliced paths coverage_drops
      in
      policies :=
        { block = b; dep; paths; placed_drops; coverage_drops; pin_at }
        :: !policies)
    inst.Instance.policies;
  let policies = List.rev !policies in
  let weights = Array.concat (List.rev !place_weights) in
  (* Merged variables (Section IV-B): one per (group, switch) where at
     least two members have a placement variable, numbered after all
     placement variables, by group then switch. *)
  let n_vars = ref !n_place in
  let merged_keys = ref [] and merged_weights = ref [] in
  let merge_defs = ref [] in
  let at = Array.make n_switches [] in
  List.iter
    (fun (g : Merge.group) ->
      List.iter
        (fun (m : Merge.member) ->
          let b = block_at blocks m.Merge.ingress in
          let s = slot_of b m.Merge.priority in
          if s >= 0 then
            Array.iteri
              (fun j k -> at.(k) <- var_in b s j :: at.(k))
              b.switches)
        (List.rev g.Merge.members);
      for k = 0 to n_switches - 1 do
        (match at.(k) with
        | _ :: _ :: _ as members ->
          let mv = !n_vars in
          incr n_vars;
          merged_keys :=
            Merged { gid = g.Merge.gid; switch = k } :: !merged_keys;
          merge_defs := (mv, members) :: !merge_defs;
          merged_weights :=
            List.fold_left (fun acc v -> Float.max acc weights.(v)) 1.0 members
            :: !merged_weights
        | _ -> ());
        at.(k) <- []
      done)
    plan.Merge.groups;
  let merged_keys = Array.of_list (List.rev !merged_keys) in
  let keys = Array.concat (List.rev (merged_keys :: !place_keys)) in
  let weights =
    Array.append weights (Array.of_list (List.rev !merged_weights))
  in
  (* Monitoring constraints (paper Section VII): a DROP that could kill
     monitored packets may not sit upstream of the monitor on any path
     through it.  The table's fold order is the order of [forbidden],
     in which Encode emits its fixings. *)
  let forbidden = Hashtbl.create 16 in
  if monitors <> [] then
    List.iter
      (fun (i, q) ->
        let b = blocks.(i) in
        let paths = Routing.Table.paths_from inst.Instance.routing i in
        List.iter
          (fun (w : Acl.Rule.t) ->
            let s = slot_of b w.priority in
            if Acl.Rule.is_drop w && s >= 0 then
              List.iter
                (fun (m_switch, region) ->
                  if Ternary.Field.overlaps w.field region then
                    List.iter
                      (fun (p : Routing.Path.t) ->
                        match Routing.Path.position p m_switch with
                        | None -> ()
                        | Some at_monitor ->
                          for d = 0 to at_monitor - 1 do
                            let j =
                              find_sorted b.switches p.Routing.Path.switches.(d)
                            in
                            Hashtbl.replace forbidden (var_in b s j) ()
                          done)
                      paths)
                monitors)
          (Acl.Policy.rules q))
      inst.Instance.policies;
  let forbidden = Hashtbl.fold (fun v () acc -> v :: acc) forbidden [] in
  let forbidden_mask = Array.make (Array.length keys) false in
  List.iter (fun v -> forbidden_mask.(v) <- true) forbidden;
  (* Pins, conditions 4-5: monitors forbid no placed rule of the
     policy at [k0], and everything pinned at [k0] fits its capacity —
     else nothing is pinned there. *)
  let capacities = inst.Instance.capacities in
  let n_rules pi = Array.length pi.block.prios in
  let at_k0 pi s =
    var_in pi.block s (find_sorted pi.block.switches pi.pin_at)
  in
  let candidates =
    List.filter
      (fun pi ->
        let rec allowed s =
          s >= n_rules pi
          || ((not forbidden_mask.(at_k0 pi s)) && allowed (s + 1))
        in
        pi.pin_at >= 0 && allowed 0)
      policies
  in
  let pinned_load = Array.make n_switches 0 in
  List.iter
    (fun pi -> pinned_load.(pi.pin_at) <- pinned_load.(pi.pin_at) + n_rules pi)
    candidates;
  Array.iteri
    (fun k load -> if load > capacities.(k) then pinned_load.(k) <- 0)
    pinned_load;
  let pins = Array.make (Array.length keys) Free in
  List.iter
    (fun pi ->
      if pinned_load.(pi.pin_at) > 0 then
        for s = 0 to n_rules pi - 1 do
          Array.iteri
            (fun j _ -> pins.(var_in pi.block s j) <- Zero)
            pi.block.switches;
          pins.(at_k0 pi s) <- One
        done)
    candidates;
  (* Rule dependency (Eq. 1) and path coverage (Eq. 2) rows of every
     policy left free. *)
  let implications = ref [] in
  let covers = ref [] in
  List.iter
    (fun pi ->
      if n_rules pi > 0 && pins.(pi.block.base) = Free then begin
        let b = pi.block in
        let width = Array.length b.switches in
        (* Placed drops, their permits and coverage drops are all
           placed, so all have slots. *)
        List.iter
          (fun (w : Acl.Rule.t) ->
            let sw = slot_of b w.priority in
            List.iter
              (fun (u : Acl.Rule.t) ->
                let su = slot_of b u.priority in
                for j = 0 to width - 1 do
                  implications :=
                    (var_in b sw j, var_in b su j) :: !implications
                done)
              (Depgraph.dependencies pi.dep w))
          pi.placed_drops;
        (* One row per (drop, path switch set); Section IV-C slices the
           drops a path must carry to those its flow can meet.  Paths
           with equal switch sets share a group.  The walk runs over
           paths and drops backwards, the order of [covers], and keeps
           the first row of each (drop, group). *)
        Array.iteri (fun j k -> pos.(k) <- j) b.switches;
        let group = Hashtbl.create 64 in
        let group_of (p : Routing.Path.t) =
          let set = Array.copy p.Routing.Path.switches in
          Array.sort compare set;
          match Hashtbl.find_opt group set with
          | Some g -> g
          | None ->
            let g = Hashtbl.length group in
            Hashtbl.add group set g;
            g
        in
        let drops = Array.of_list (List.rev pi.coverage_drops) in
        let n_drops = Array.length drops in
        let seen = Bytes.make (List.length pi.paths * n_drops) '\000' in
        let own = ref [] in
        List.iter
          (fun (p : Routing.Path.t) ->
            let g = group_of p in
            Array.iteri
              (fun d (w : Acl.Rule.t) ->
                let cell = (g * n_drops) + d in
                if
                  Bytes.get seen cell = '\000'
                  && ((not sliced)
                     || Ternary.Field.overlaps w.field p.Routing.Path.flow)
                then begin
                  Bytes.set seen cell '\001';
                  let sw = slot_of b w.priority in
                  own :=
                    Array.fold_right
                      (fun k acc -> var_in b sw pos.(k) :: acc)
                      p.Routing.Path.switches []
                    :: !own
                end)
              drops)
          (List.rev pi.paths);
        covers := List.rev_append !own !covers;
        Array.iter (fun k -> pos.(k) <- -1) b.switches
      end)
    policies;
  (* Capacity rows (Eq. 3) over the free variables, net of the load
     pinned at the switch, only where the worst case can exceed it: the
     load is counted first, and only those switches list their
     variables. *)
  let grouped = Array.make (Array.length keys) false in
  List.iter
    (fun (_, members) -> List.iter (fun v -> grouped.(v) <- true) members)
    !merge_defs;
  let worst = Array.make n_switches 0 in
  let plain v = (not grouped.(v)) && pins.(v) = Free in
  Array.iteri
    (fun v key ->
      match key with
      | Place { switch; _ } when plain v -> worst.(switch) <- worst.(switch) + 1
      | Place _ | Merged _ -> ())
    keys;
  let grouped_by_switch = Array.make n_switches [] in
  List.iter
    (fun (mv, members) ->
      match keys.(mv) with
      | Merged { switch; _ } ->
        grouped_by_switch.(switch) <- (mv, members) :: grouped_by_switch.(switch);
        worst.(switch) <- worst.(switch) + List.length members
      | Place _ -> assert false)
    !merge_defs;
  let bound k = capacities.(k) - pinned_load.(k) in
  let binding =
    List.filter (fun k -> worst.(k) > bound k) (List.init n_switches Fun.id)
  in
  let plain_by_switch = Array.make n_switches [] in
  if binding <> [] then
    Array.iteri
      (fun v key ->
        match key with
        | Place { switch; _ } when plain v && worst.(switch) > bound switch ->
          plain_by_switch.(switch) <- v :: plain_by_switch.(switch)
        | Place _ | Merged _ -> ())
      keys;
  let capacity_rows =
    List.rev_map
      (fun k ->
        {
          switch = k;
          bound = bound k;
          plain = plain_by_switch.(k);
          grouped = grouped_by_switch.(k);
        })
      binding
  in
  {
    instance = inst;
    plan;
    sliced;
    monitors;
    keys;
    numbering = { blocks; forbidden_mask };
    rules;
    implications = !implications;
    covers = !covers;
    capacities = capacity_rows;
    merge_defs = !merge_defs;
    weights;
    baseline_rule_count = !baseline;
    forbidden;
    pins;
  }

let var t ~ingress ~priority ~switch =
  let b = block_at t.numbering.blocks ingress in
  let s = slot_of b priority in
  let j = if s < 0 then -1 else find_sorted b.switches switch in
  if j < 0 then None else Some (var_in b s j)

let is_dummy t ~ingress ~priority =
  let b = block_at t.numbering.blocks ingress in
  let x = find_sorted b.prios priority in
  x >= 0 && b.dummies.(x)

let is_forbidden t ~ingress ~priority ~switch =
  match var t ~ingress ~priority ~switch with
  | Some v -> t.numbering.forbidden_mask.(v)
  | None -> false

let pp_stats fmt t =
  let pinned_vars =
    Array.fold_left (fun n p -> if p = Free then n else n + 1) 0 t.pins
  in
  let pinned_policies =
    Array.fold_left
      (fun n b ->
        if Array.length b.prios > 0 && t.pins.(b.base) <> Free then n + 1
        else n)
      0 t.numbering.blocks
  in
  Format.fprintf fmt
    "layout: %d vars (%d merged), %d implications, %d covers, %d capacity \
     rows, %d policies pinned (%d vars)"
    (Array.length t.keys)
    (List.length t.merge_defs)
    (List.length t.implications)
    (List.length t.covers)
    (List.length t.capacities)
    pinned_policies pinned_vars
