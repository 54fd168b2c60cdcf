(* The greedy warm start ([Baseline.greedy_raw]) against a reference:
   the greedy as it was when it re-derived each block from the
   policies (a [Depgraph] per policy, [required_permits], per-switch
   variable lists found with [Layout.var]).  Stage B now places the
   layout's own slots; every outcome must stay the same. *)

open Placement

(* The reference, kept as it was. *)
let reference_raw (layout : Layout.t) =
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
                      (Baseline.Stuck
                         { ingress = i; egress = path.Routing.Path.egress }))
            end)
          paths.(o)
      end)
    policies;
  match !failure with Some f -> Error f | None -> Ok placed

let reference layout =
  match reference_raw layout with
  | Error (Baseline.Stuck { ingress; egress }) -> Error (ingress, egress)
  | Error (Baseline.Placed _) -> assert false
  | Ok placed ->
    List.iter
      (fun (mv, members) ->
        placed.(mv) <- List.for_all (fun v -> placed.(v)) members)
      layout.Layout.merge_defs;
    Ok placed

let greedy layout =
  match Baseline.greedy_assignment layout with
  | Some a -> Ok a
  | None -> (
    match Baseline.greedy layout with
    | Baseline.Stuck { ingress; egress } -> Error (ingress, egress)
    | Baseline.Placed _ -> Alcotest.fail "no assignment, yet greedy placed")

(* The grid: k in {4, 6}, spread and contiguous ingresses, sliced and
   unsliced, 0 or 3 mergeable rules, C in {3, 6, 12, 40}, seeds 1-6,
   each with and without a merge plan and with and without a monitor:
   1,536 layouts, placed and stuck, merged, sliced and monitored among
   them. *)
let grid =
  let ( let* ) l f = List.concat_map f l in
  let* k = [ 4; 6 ] in
  let* ingress_mode = [ Workload.Spread; Workload.Contiguous ] in
  let* slice = [ false; true ] in
  let* mergeable = [ 0; 3 ] in
  let* capacity = [ 3; 6; 12; 40 ] in
  let* seed = [ 1; 2; 3; 4; 5; 6 ] in
  [
    {
      Workload.default with
      Workload.k;
      ingress_mode;
      slice;
      mergeable;
      capacity;
      seed;
    };
  ]

let test_differential () =
  let placed = ref 0 and stuck = ref 0 and merged = ref 0 in
  let sliced_placed = ref 0 and monitored_placed = ref 0 in
  List.iter
    (fun (f : Workload.family) ->
      let base = Workload.build f in
      let sliced = f.Workload.slice in
      List.iter
        (fun (with_plan, monitored) ->
          let inst, plan =
            if with_plan then Merge.plan base else (base, Merge.empty_plan)
          in
          let monitors =
            if monitored then
              [
                ( f.Workload.seed mod Topo.Net.num_switches inst.Instance.net,
                  Ternary.Field.make ~proto:Ternary.Proto.tcp () );
              ]
            else []
          in
          let layout = Layout.build ~sliced ~plan ~monitors inst in
          let got = greedy layout in
          if got <> reference layout then
            Alcotest.failf
              "k=%d %s sliced=%b mergeable=%d C=%d seed=%d plan=%b \
               monitor=%b: outcomes differ"
              f.Workload.k
              (match f.Workload.ingress_mode with
              | Workload.Spread -> "spread"
              | Workload.Contiguous -> "contiguous")
              sliced f.Workload.mergeable f.Workload.capacity f.Workload.seed
              with_plan monitored;
          match got with
          | Error _ -> incr stuck
          | Ok _ ->
            incr placed;
            if layout.Layout.merge_defs <> [] then incr merged;
            if sliced then incr sliced_placed;
            if monitored then incr monitored_placed)
        [ (false, false); (false, true); (true, false); (true, true) ])
    grid;
  Alcotest.(check int) "cases" 1536 (!placed + !stuck);
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "the grid has no %s case" what)
    [
      ("stuck", !stuck);
      ("merged placed", !merged);
      ("sliced placed", !sliced_placed);
      ("monitored placed", !monitored_placed);
    ]

(* Allocation gate for Stage B.  On [place_paper]-family instances 0-7
   at seed 1 (k=16, 8 policies, r=20, 1,024 paths, C=140; unsliced, no
   merge plan, no monitor), one [Baseline.greedy_assignment] allocates at
   most 1,024 minor words; it takes 270-403.  The greedy keeps per
   policy a few arrays the size of its placed rules (a few dozen words
   each) and its closures; its assignment and per-switch array go
   straight to the major heap and are not minor words.  Every unsliced
   path that Stage A left alone shares its policy's whole block, so
   nothing is allocated per path: the smallest block is two words, so
   one per path of the 1,024 would be 2,048 words, over the bound.  The
   count is deterministic, so this is a count, not a timing. *)
let test_greedy_minor_words () =
  for i = 0 to 7 do
    let inst =
      Workload.build
        {
          Workload.default with
          Workload.k = 16;
          num_policies = 8;
          rules = 20;
          paths = 1024;
          capacity = 140;
          seed = 100_003 + i;
        }
    in
    let layout = Layout.build inst in
    ignore (Baseline.greedy_assignment layout);
    let before = Gc.minor_words () in
    let a = Baseline.greedy_assignment layout in
    let words = int_of_float (Gc.minor_words () -. before) in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d placed" i)
      true (a <> None);
    if words > 1024 then
      Alcotest.failf
        "instance %d: greedy_assignment allocated %d minor words (bound \
         1,024: no allocation per path)"
        i words
  done

let suite =
  [
    Alcotest.test_case "Stage B places what the reference greedy places"
      `Quick test_differential;
    Alcotest.test_case "an unsliced greedy allocates nothing per path" `Quick
      test_greedy_minor_words;
  ]
