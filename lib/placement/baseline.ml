type greedy_outcome =
  | Placed of Solution.t
  | Stuck of { ingress : int; egress : int }

(* Greedy placement over the layout's variable space, two stages:

   Stage A (only with a merge plan): network-wide groups whose members
   have no permit dependencies — the typical shared blacklist — are
   placed once per switch of a greedily chosen path cover.  Every member
   policy whose [S_i] contains the chosen switch shares the single merged
   entry, so the group costs one slot per cover switch.

   Stage B: for each path, the block of still-uncovered relevant DROPs
   plus their dependent PERMITs lands whole on the first switch (walking
   from the ingress side) whose remaining capacity absorbs the entries
   not already installed there for this policy.

   A pinned policy is placed before either stage: its rules are charged
   to its switch [k0], and Stage B skips it.
   When the stages succeed this is the placement they would have made
   themselves: every block of such a policy fits at its ingress switch
   [k0] (its one-switch path needs all of them there), and charging the
   pins early rejects no switch a later step would have taken. *)
let greedy_raw (layout : Layout.t) =
  let inst = layout.Layout.instance in
  let n_switches = Topo.Net.num_switches inst.Instance.net in
  let used = Array.make n_switches 0 in
  (* Placed (rule, switch) pairs, by layout variable.  Stage A also
     shares members at switches where they have no variable: no later
     step reads those pairs, and the merged entry's slot is already
     charged to [used]. *)
  let placed = Array.make (Layout.num_vars layout) false in
  let policies = Array.of_list inst.Instance.policies in
  (* The variables monitors fix to 0, and the pinned policies'
     ingresses, in small tables: a mask over every variable or host
     would be scratch in the major heap. *)
  let forbidden = Hashtbl.create 16 and pinned = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace forbidden v ()) layout.Layout.forbidden;
  List.iter
    (fun (i, k0, n) ->
      used.(k0) <- used.(k0) + n;
      Hashtbl.replace pinned i ())
    layout.Layout.pinned;
  let deps = Array.map (fun (_, q) -> lazy (Depgraph.build q)) policies in
  let paths =
    Array.map
      (fun (i, _) ->
        Array.of_list (Routing.Table.paths_from inst.Instance.routing i))
      policies
  in
  (* Drop priorities already covered, by policy and path position. *)
  let covered = Array.map (fun ps -> Array.make (Array.length ps) []) paths in
  (* --- Stage A: merged placement of dependency-free groups. --- *)
  let groups = layout.Layout.plan.Merge.groups in
  (* The position of each ingress's policy in [policies], and the paths
     each switch would cover, zero between picks. *)
  let ord = Hashtbl.create 16 in
  Array.iteri (fun o (i, _) -> Hashtbl.replace ord i o) policies;
  let count = if groups = [] then [||] else Array.make n_switches 0 in
  List.iter
    (fun (g : Merge.group) ->
      let members =
        List.filter_map
          (fun (m : Merge.member) ->
            match Hashtbl.find_opt ord m.Merge.ingress with
            | None -> None
            | Some o ->
              List.find_opt
                (fun (r : Acl.Rule.t) -> r.priority = m.Merge.priority)
                (Acl.Policy.rules (snd policies.(o)))
              |> Option.map (fun r -> (m, o, r)))
          g.Merge.members
      in
      let dependency_free =
        List.for_all
          (fun (_, o, r) ->
            Acl.Rule.is_permit r
            || Depgraph.dependencies (Lazy.force deps.(o)) r = [])
          members
      in
      if dependency_free && g.Merge.action = Acl.Rule.Drop then begin
        (* Paths each non-dummy member must cover. *)
        let targets =
          List.concat_map
            (fun ((m : Merge.member), o, (r : Acl.Rule.t)) ->
              if m.Merge.is_dummy then []
              else
                Array.to_list paths.(o)
                |> List.mapi (fun j p -> (o, r.priority, j, p))
                |> List.filter (fun (_, _, _, (p : Routing.Path.t)) ->
                       (not layout.Layout.sliced)
                       || Ternary.Field.overlaps r.field p.Routing.Path.flow))
            members
        in
        let uncovered = ref targets in
        let progress = ref true in
        (* [set f] gives each uncovered path's switches [f] of their
           count. *)
        let set f =
          List.iter
            (fun (_, _, _, p) ->
              Array.iter
                (fun k -> count.(k) <- f count.(k))
                p.Routing.Path.switches)
            !uncovered
        in
        while !uncovered <> [] && !progress do
          (* Pick the switch with room that covers the most paths. *)
          set succ;
          let best = ref (-1) in
          Array.iteri
            (fun k c ->
              if
                c > 0
                && used.(k) < inst.Instance.capacities.(k)
                && (!best < 0 || c > count.(!best))
              then best := k)
            count;
          set (fun _ -> 0);
          match !best with
          | -1 -> progress := false
          | k ->
            used.(k) <- used.(k) + 1;
            (* All members that can share this switch do. *)
            List.iter
              (fun ((m : Merge.member), _, (r : Acl.Rule.t)) ->
                match
                  Layout.var layout ~ingress:m.Merge.ingress
                    ~priority:r.priority ~switch:k
                with
                | Some v -> placed.(v) <- true
                | None -> ())
              members;
            uncovered :=
              List.filter
                (fun (o, prio, j, p) ->
                  if Routing.Path.mem p k then begin
                    covered.(o).(j) <- prio :: covered.(o).(j);
                    false
                  end
                  else true)
                !uncovered
        done
      end)
    groups;
  (* --- Stage B: per-path block placement. --- *)
  let failure = ref None in
  Array.iteri
    (fun o (i, q) ->
      if !failure = None && not (Hashtbl.mem pinned i) then begin
        let drops =
          List.filter
            (fun (w : Acl.Rule.t) ->
              not (Layout.is_dummy layout ~ingress:i ~priority:w.priority))
            (Acl.Policy.drops q)
        in
        (* Paths that leave the same drops uncovered share a block, and
           its variables at a switch: each is derived once, keyed by
           the block's drop priorities (by switch for the variables).
           Unsliced, a path nothing covered needs every drop. *)
        let blocks = Hashtbl.create 4 in
        let block_of = function
          | [] -> None
          | block_drops -> (
            let key =
              List.map (fun (w : Acl.Rule.t) -> w.priority) block_drops
            in
            match Hashtbl.find_opt blocks key with
            | Some b -> Some b
            | None ->
              let rules =
                block_drops
                @ Depgraph.required_permits (Lazy.force deps.(o)) block_drops
              in
              let b = (rules, Hashtbl.create 4) in
              Hashtbl.add blocks key b;
              Some b)
        in
        let whole = lazy (block_of drops) in
        (* Block drops are relevant placed drops and the permits are
           their dependencies, so every block rule has a variable at
           every switch of the path. *)
        let vars_at (rules, at) k =
          match Hashtbl.find_opt at k with
          | Some vars -> vars
          | None ->
            let vars =
              List.map
                (fun (r : Acl.Rule.t) ->
                  Option.get
                    (Layout.var layout ~ingress:i ~priority:r.priority
                       ~switch:k))
                rules
            in
            Hashtbl.add at k vars;
            vars
        in
        let fits vars k =
          (layout.Layout.forbidden = []
          || not (List.exists (Hashtbl.mem forbidden) vars))
          && used.(k)
             + List.fold_left
                 (fun n v -> if placed.(v) then n else n + 1)
                 0 vars
             <= inst.Instance.capacities.(k)
        in
        Array.iteri
          (fun j (path : Routing.Path.t) ->
            if !failure = None then begin
              let block =
                if covered.(o).(j) = [] && not layout.Layout.sliced then
                  Lazy.force whole
                else
                  block_of
                    (List.filter
                       (fun (w : Acl.Rule.t) ->
                         (not (List.mem w.priority covered.(o).(j)))
                         && ((not layout.Layout.sliced)
                            || Ternary.Field.overlaps w.field
                                 path.Routing.Path.flow))
                       drops)
              in
              match block with
              | None -> ()
              | Some block -> (
                match
                  Array.fold_left
                    (fun acc k ->
                      match acc with
                      | Some _ -> acc
                      | None ->
                        let vars = vars_at block k in
                        if fits vars k then Some (k, vars) else None)
                    None path.Routing.Path.switches
                with
                | Some (k, vars) ->
                  List.iter
                    (fun v ->
                      if not placed.(v) then begin
                        placed.(v) <- true;
                        used.(k) <- used.(k) + 1
                      end)
                    vars
                | None ->
                  failure :=
                    Some
                      (Stuck
                         { ingress = i; egress = path.Routing.Path.egress }))
            end)
          paths.(o)
      end)
    policies;
  match !failure with Some f -> Error f | None -> Ok placed

(* [placed] becomes the assignment: honor the AND definitions, a merged
   variable is set exactly when all its members are. *)
let assignment_of_placed (layout : Layout.t) placed =
  List.iter
    (fun (mv, members) ->
      placed.(mv) <- List.for_all (fun v -> placed.(v)) members)
    layout.Layout.merge_defs;
  placed

let greedy_assignment layout =
  match greedy_raw layout with
  | Error _ -> None
  | Ok placed -> Some (assignment_of_placed layout placed)

let greedy layout =
  match greedy_raw layout with
  | Error f -> f
  | Ok placed ->
    let assignment = assignment_of_placed layout placed in
    let objective = Encode.assignment_objective layout assignment in
    Placed (Solution.of_assignment layout assignment ~objective)

let replicate_all_count (inst : Instance.t) =
  List.fold_left
    (fun acc (i, q) ->
      acc
      + List.length (Routing.Table.paths_from inst.Instance.routing i)
        * Acl.Policy.size q)
    0 inst.Instance.policies
