type greedy_outcome =
  | Placed of Solution.t
  | Stuck of { ingress : int; egress : int }

(* Position of [x] in the ascending array [a]; [x] must be there. *)
let position a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Stage A of [greedy_raw] (only with a merge plan): network-wide groups
   whose members have no permit dependencies — the typical shared
   blacklist — are placed once per switch of a greedily chosen path
   cover.  Every member policy whose [S_i] contains the chosen switch
   shares the single merged entry, so the group costs one slot per cover
   switch.  Stage A also shares members at switches where they have no
   variable: no later step reads those pairs, and the merged entry's
   slot is already charged to [used].  Returns the drop priorities it
   covered, by ingress and path position. *)
let merged_stage (layout : Layout.t) used placed =
  let inst = layout.Layout.instance in
  let n_switches = Topo.Net.num_switches inst.Instance.net in
  let policies = Array.of_list inst.Instance.policies in
  let deps = Array.map (fun (_, q) -> lazy (Depgraph.build q)) policies in
  let paths =
    Array.map
      (fun (i, _) ->
        Array.of_list (Routing.Table.paths_from inst.Instance.routing i))
      policies
  in
  let covered = Array.map (fun ps -> Array.make (Array.length ps) []) paths in
  (* The position of each ingress's policy in [policies], and the paths
     each switch would cover, zero between picks. *)
  let ord = Hashtbl.create 16 in
  Array.iteri (fun o (i, _) -> Hashtbl.replace ord i o) policies;
  let count = Array.make n_switches 0 in
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
    layout.Layout.plan.Merge.groups;
  let by_ingress = Hashtbl.create 16 in
  Array.iteri
    (fun o (i, _) -> Hashtbl.replace by_ingress i covered.(o))
    policies;
  by_ingress

(* Greedy placement over the layout's variable space, two stages:
   Stage A ([merged_stage], only with a merge plan), then Stage B: for
   each path, the block of still-uncovered relevant DROPs plus their
   dependent PERMITs lands whole on the first switch (walking from the
   ingress side) whose remaining capacity absorbs the entries not
   already installed there for this policy.

   Stage B works on the layout's own slots.  A path's block is a set of
   slots of its policy: its real drops (not dummies; not covered by
   Stage A; sliced, those whose field meets the path's flow), closed
   over the policy's Eq. 1 (drop slot, permit slot) pairs.  Its entry at
   the switch in position [j] of [S_i] is variable
   [base + s * |S_i| + j].  Unsliced, a path Stage A left alone needs
   every real drop, so such paths share one block, built once.

   A pinned policy is placed before either stage: its rules are charged
   to its switch [k0], and Stage B skips it (it is not free).
   When the stages succeed this is the placement they would have made
   themselves: every block of such a policy fits at its ingress switch
   [k0] (its one-switch path needs all of them there), and charging the
   pins early rejects no switch a later step would have taken. *)
let greedy_raw (layout : Layout.t) =
  let inst = layout.Layout.instance in
  let capacities = inst.Instance.capacities in
  let used = Array.make (Topo.Net.num_switches inst.Instance.net) 0 in
  (* Placed (rule, switch) pairs, by layout variable. *)
  let placed = Array.make (Layout.num_vars layout) false in
  (* The variables monitors fix to 0, in a small table: a mask over
     every variable would be scratch in the major heap. *)
  let forbidden = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace forbidden v ()) layout.Layout.forbidden;
  let no_forbidden = layout.Layout.forbidden = [] in
  List.iter (fun (_, k0, n) -> used.(k0) <- used.(k0) + n) layout.Layout.pinned;
  let merging = layout.Layout.plan.Merge.groups <> [] in
  let covered =
    if merging then merged_stage layout used placed else Hashtbl.create 1
  in
  let sliced = layout.Layout.sliced in
  let failure = ref None in
  Layout.iter_free layout (fun ~ingress ~base ~switches ~rules ~deps ->
      if Option.is_none !failure then begin
        let width = Array.length switches and n = Array.length rules in
        (* The policy's real drop slots: [drops.(0 .. n_drops-1)]. *)
        let drops = Array.make n 0 and n_drops = ref 0 in
        for s = 0 to n - 1 do
          let r = rules.(s) in
          if
            Acl.Rule.is_drop r
            && not
                 (merging
                 && Layout.is_dummy layout ~ingress ~priority:r.priority)
          then begin
            drops.(!n_drops) <- s;
            incr n_drops
          end
        done;
        let covered =
          match Hashtbl.find_opt covered ingress with
          | Some c -> c
          | None -> [||]
        in
        (* The current block: slots [block.(0 .. size-1)], flagged in
           [mark]; [whole] when it is every real drop's.  [done_at] is
           the switch position where Stage B last placed it, or -1: a
           path starting there takes it at once, since its entries are
           all placed, none is forbidden, and no switch's load ever
           exceeds its capacity. *)
        let block = Array.make n 0 and mark = Bytes.make n '\000' in
        let size = ref 0 and whole = ref false and done_at = ref (-1) in
        let add s =
          if Bytes.get mark s = '\000' then begin
            Bytes.set mark s '\001';
            block.(!size) <- s;
            incr size
          end
        in
        let rec walk j = function
          | [] -> ()
          | (path : Routing.Path.t) :: rest ->
            let cov = if Array.length covered = 0 then [] else covered.(j) in
            let needs_whole =
              (not sliced) && match cov with [] -> true | _ :: _ -> false
            in
            if not (needs_whole && !whole) then begin
              for x = 0 to !size - 1 do
                Bytes.set mark block.(x) '\000'
              done;
              size := 0;
              for x = 0 to !n_drops - 1 do
                let w = rules.(drops.(x)) in
                if
                  (not (List.mem w.priority cov))
                  && ((not sliced)
                     || Ternary.Field.overlaps w.field path.Routing.Path.flow)
                then add drops.(x)
              done;
              (* Close over Eq. 1: a permit slot is never a drop slot, so
                 one pass over the pairs does. *)
              for r = 0 to (Array.length deps / 2) - 1 do
                if Bytes.get mark deps.(2 * r) <> '\000' then
                  add deps.((2 * r) + 1)
              done;
              whole := needs_whole;
              done_at := -1
            end;
            if
              !size > 0
              && position switches path.Routing.Path.switches.(0) <> !done_at
            then begin
              (* The first switch of the path that takes the block. *)
              let sw = path.Routing.Path.switches in
              let x = ref 0 and at = ref (-1) in
              while !at < 0 && !x < Array.length sw do
                let k = sw.(!x) in
                let j = position switches k in
                let fresh = ref 0 and allowed = ref true in
                for y = 0 to !size - 1 do
                  let v = base + (block.(y) * width) + j in
                  if not placed.(v) then incr fresh;
                  if (not no_forbidden) && Hashtbl.mem forbidden v then
                    allowed := false
                done;
                if !allowed && used.(k) + !fresh <= capacities.(k) then at := j
                else incr x
              done;
              if !at < 0 then
                failure :=
                  Some (Stuck { ingress; egress = path.Routing.Path.egress })
              else begin
                let k = sw.(!x) in
                for y = 0 to !size - 1 do
                  let v = base + (block.(y) * width) + !at in
                  if not placed.(v) then begin
                    placed.(v) <- true;
                    used.(k) <- used.(k) + 1
                  end
                done;
                done_at := !at
              end
            end;
            match !failure with None -> walk (j + 1) rest | Some _ -> ()
        in
        walk 0 (Routing.Table.paths_from inst.Instance.routing ingress)
      end);
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
