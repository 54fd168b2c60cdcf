type key =
  | Place of { ingress : int; priority : int; switch : int; hops : int }
  | Merged of { gid : int; switch : int }

type capacity = {
  switch : int;
  bound : int;
  plain : int list;
  grouped : (int * int list) list;
}

(* One policy's placed rules over its switches [S_i].  A cell is
   [s * |switches| + j]: the rule in slot [s] at the switch in position
   [j] of [switches].  A free policy's cell [c] is variable [base + c];
   a pinned one ([k0] >= 0) has no variables and holds each rule once at
   [k0].  [prios] is ascending and [slots.(x)] belongs to [prios.(x)];
   [rules.(s)] is the rule in slot [s]; [loc.(j)] is the
   paper's loc of [switches.(j)].  A free policy's cover rows are kept
   per owning path: [paths.(x)] is the positions of that path's
   switches, in path order, and [covers.(x)] the slots of the drops it
   owns a row for, each row holding its drop's variables at those
   positions.  Unsliced, every owning path owns a row for every
   coverage drop, so they all share one slot array.  Its Eq. 1 rows
   are the pairs [(deps.(2r), deps.(2r+1))] of (drop slot, permit
   slot), one per dependency of a placed drop: pair [r] stands for one
   row per switch position [j], the drop's variable at [j] implying the
   permit's. *)
type block = {
  ingress : int;
  base : int;
  switches : int array;
  loc : int array;
  prios : int array;
  slots : int array;
  rules : Acl.Rule.t array;
  k0 : int;
  paths : int array array;
  covers : int array array;
  deps : int array;
}

type numbering = {
  blocks : block array;  (* one per policy, by ascending ingress *)
  free : block array;  (* the blocks that have variables, by base *)
  n_place : int;
  merged : key array;  (* of variable [n_place + x] *)
  dummies : (int * int, unit) Hashtbl.t;  (* (ingress, priority) *)
}

type t = {
  instance : Instance.t;
  plan : Merge.plan;
  sliced : bool;
  monitors : (int * Ternary.Field.t) list;
  numbering : numbering;
  implication_rows : int;
  cover_rows : int;
  cover_terms : int;
  capacities : capacity list;
  merge_defs : (int * int list) list;
  baseline_rule_count : int;
  forbidden : int list;
  pinned : (int * int * int) list;
}

let num_vars t = t.numbering.n_place + Array.length t.numbering.merged

let no_block =
  {
    ingress = -1;
    base = 0;
    switches = [||];
    loc = [||];
    prios = [||];
    slots = [||];
    rules = [||];
    k0 = -1;
    paths = [||];
    covers = [||];
    deps = [||];
  }

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

(* Paths group by their switch positions as a multiset: the same
   positions with the same counts, in any order.  A group is keyed by
   [path_hash], a sum over its positions and so blind to their order,
   and a table hit is confirmed by counting positions ([same_multiset]),
   so two groups whose hashes collide stay apart. *)
module Hash_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

let path_hash js =
  let h = ref 0 in
  for x = 0 to Array.length js - 1 do
    let m = (js.(x) + 1) * 0x9E3779B97F4A7C1 in
    h := !h + (m lxor (m lsr 29))
  done;
  !h

(* Whether [a] and [b] hold the same positions with the same counts,
   by [count], indexed by position, all zero before and after. *)
let same_multiset count a b =
  let n = Array.length a in
  if n <> Array.length b then false
  else begin
    for x = 0 to n - 1 do
      count.(a.(x)) <- count.(a.(x)) + 1;
      count.(b.(x)) <- count.(b.(x)) - 1
    done;
    let same = ref true in
    for x = 0 to n - 1 do
      if count.(a.(x)) <> 0 then same := false;
      count.(a.(x)) <- 0;
      count.(b.(x)) <- 0
    done;
    !same
  end

(* The block of the policy at [ingress], by binary search, or
   [no_block] when [ingress] has no policy. *)
let block_at blocks ingress =
  let lo = ref 0 and hi = ref (Array.length blocks) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if blocks.(mid).ingress < ingress then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length blocks && blocks.(!lo).ingress = ingress then
    blocks.(!lo)
  else no_block

(* Slot of [priority] in [b], or -1 when the rule places nothing. *)
let slot_of b priority =
  let x = find_sorted b.prios priority in
  if x < 0 then -1 else b.slots.(x)

(* One policy between the passes of [build]: what its rows need, the
   switch [k0] where conditions 1-3 of the pin rule hold (-1 when they
   fail), and the cells its monitors forbid. *)
type policy_info = {
  block : block;
  dep : Depgraph.t;
  paths : Routing.Path.t list;
  placed_drops : Acl.Rule.t list;
  coverage_drops : Acl.Rule.t list;
  pin_at : int;
  walk : int list;
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
  let baseline = ref 0 in
  (* Scratch, by switch, reset after each policy: the position in [S_i]
     and the paper's loc(s, P_i), min hops over the paths of this
     ingress (ingress-side switch = 0 hops). *)
  let pos = Array.make n_switches (-1) in
  let loc = Array.make n_switches max_int in
  let policies =
    List.map
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
        let placed_drops =
          coverage_drops @ List.filter Acl.Rule.is_drop dummy_rules
        in
        let needed_permits = Depgraph.required_permits dep placed_drops in
        (* The paper's A counts the rules each policy would install if
           they all fitted at the ingress switch: its relevant drops plus
           their dependent permits, once each (dummies excluded — they
           install nothing on their own). *)
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
        (* Priorities are distinct: the slots by ascending priority. *)
        let slots = Array.init (Array.length placed_rules) Fun.id in
        Array.sort
          (fun a b ->
            Int.compare placed_rules.(a).priority placed_rules.(b).priority)
          slots;
        (* [S_i] is the switches the walk for loc meets, ascending. *)
        let met = ref 0 in
        List.iter
          (fun (p : Routing.Path.t) ->
            Array.iteri
              (fun d k ->
                if loc.(k) = max_int then incr met;
                if d < loc.(k) then loc.(k) <- d)
              p.Routing.Path.switches)
          paths;
        let switches = Array.make !met 0 in
        let j = ref 0 in
        for k = 0 to n_switches - 1 do
          if loc.(k) <> max_int then begin
            switches.(!j) <- k;
            incr j
          end
        done;
        let block =
          {
            no_block with
            ingress = i;
            switches;
            loc = Array.map (fun k -> loc.(k)) switches;
            prios = Array.map (fun s -> placed_rules.(s).priority) slots;
            slots;
            rules = placed_rules;
          }
        in
        Array.iter (fun k -> loc.(k) <- max_int) switches;
        (* Monitoring constraints (paper Section VII): a DROP that could
           kill monitored packets may not sit upstream of the monitor on
           any path through it.  [walk] lists the cells that breaks, in
           the order of the walk. *)
        let upstream s (p : Routing.Path.t) (m, _) =
          match Routing.Path.position p m with
          | None -> []
          | Some at ->
            List.init at (fun d ->
                (s * Array.length switches)
                + find_sorted switches p.Routing.Path.switches.(d))
        in
        let walk =
          List.concat_map
            (fun (w : Acl.Rule.t) ->
              let s = slot_of block w.priority in
              if Acl.Rule.is_drop w && s >= 0 then
                List.concat_map
                  (fun ((_, region) as m) ->
                    if Ternary.Field.overlaps w.field region then
                      List.concat_map (fun p -> upstream s p m) paths
                    else [])
                  monitors
              else [])
            (if monitors = [] then [] else Acl.Policy.rules q)
        in
        let pin_at =
          if Array.length placed_rules = 0 || Hashtbl.mem merging i then -1
          else forced_switch ~sliced paths coverage_drops
        in
        { block; dep; paths; placed_drops; coverage_drops; pin_at; walk })
      inst.Instance.policies
  in
  (* Pins, conditions 4-5: monitors forbid no placed rule of the
     policy at [k0], and everything pinned at [k0] fits its capacity —
     else nothing is pinned there. *)
  let capacities = inst.Instance.capacities in
  let n_rules b = Array.length b.prios in
  let pinnable pi =
    pi.pin_at >= 0
    &&
    let b = pi.block in
    let j0 = find_sorted b.switches pi.pin_at in
    not (List.exists (fun c -> c mod Array.length b.switches = j0) pi.walk)
  in
  let pinned_load = Array.make n_switches 0 in
  List.iter
    (fun pi ->
      if pinnable pi then
        pinned_load.(pi.pin_at) <- pinned_load.(pi.pin_at) + n_rules pi.block)
    policies;
  Array.iteri
    (fun k load -> if load > capacities.(k) then pinned_load.(k) <- 0)
    pinned_load;
  (* Number the free policies' variables in ingress order, a pinned
     policy taking none, and write each free policy's monitor fixings
     (the table's fold order is the order of [forbidden], in which
     Encode emits them), rule dependency (Eq. 1) and path coverage
     (Eq. 2) rows. *)
  let blocks = ref [] and n_place = ref 0 and free = ref [] in
  let pinned = ref [] and forbidden = Hashtbl.create 16 in
  (* The layout's row and term counts. *)
  let implication_rows = ref 0 in
  let cover_rows = ref 0 and cover_terms = ref 0 in
  let group = Hash_tbl.create 64 and count = Array.make n_switches 0 in
  List.iter
    (fun pi ->
      let k0 =
        if pinnable pi && pinned_load.(pi.pin_at) > 0 then pi.pin_at else -1
      in
      let b = { pi.block with base = !n_place; k0 } in
      let width = Array.length b.switches in
      let b =
        if k0 >= 0 then begin
          pinned := (b.ingress, k0, n_rules b) :: !pinned;
          b
        end
        else if n_rules b * width = 0 then b
        else begin
          n_place := !n_place + (n_rules b * width);
          List.iter
            (fun c -> Hashtbl.replace forbidden (b.base + c) ())
            pi.walk;
          (* One (drop slot, permit slot) pair per dependency of a
             placed drop, standing for its row at each switch.  Placed
             drops, their permits and coverage drops are all placed, so
             all have slots. *)
          let deps = ref [] in
          List.iter
            (fun (w : Acl.Rule.t) ->
              let sw = slot_of b w.priority in
              List.iter
                (fun (u : Acl.Rule.t) ->
                  deps := slot_of b u.priority :: sw :: !deps;
                  implication_rows := !implication_rows + width)
                (Depgraph.dependencies pi.dep w))
            pi.placed_drops;
          (* One row per (drop, path switch multiset); Section IV-C
             slices the drops a path must carry to those its flow can
             meet.  Paths with equal multisets share a group.  The walk
             runs over paths and drops backwards, the order of the rows,
             and keeps the first row of each (drop, group): the path
             that meets it first owns it.  Unsliced, every drop meets
             every path, so a group's first path owns all its rows and
             takes [drop_slots] itself. *)
          Array.iteri (fun j k -> pos.(k) <- j) b.switches;
          Hash_tbl.clear group;
          let drops = Array.of_list (List.rev pi.coverage_drops) in
          let n_drops = Array.length drops in
          let drop_slots =
            Array.map (fun (w : Acl.Rule.t) -> slot_of b w.priority) drops
          in
          let walk = Array.of_list pi.paths in
          let n_walk = Array.length walk in
          (* [firsts.(g)] is the positions of group [g]'s first path;
             [find js gs] is the group of [gs] whose first path has
             [js]'s multiset, or -1. *)
          let firsts = Array.make n_walk [||] in
          let rec find js = function
            | [] -> -1
            | g :: gs ->
              if same_multiset count firsts.(g) js then g else find js gs
          in
          (* Sliced: the (group, drop) cells that have their row, and
             the slots the current path owns. *)
          let seen =
            if sliced then Bytes.make (n_walk * n_drops) '\000'
            else Bytes.empty
          in
          let owned = if sliced then Array.make n_drops 0 else [||] in
          let paths = ref [] and covers = ref [] in
          for x = n_walk - 1 downto 0 do
            let p = walk.(x) in
            let switches = p.Routing.Path.switches in
            let js = Array.make (Array.length switches) 0 in
            for d = 0 to Array.length switches - 1 do
              js.(d) <- pos.(switches.(d))
            done;
            let h = path_hash js in
            let g = find js (Hash_tbl.find_all group h) in
            let fresh = g < 0 in
            let g =
              if fresh then begin
                let g = Hash_tbl.length group in
                firsts.(g) <- js;
                Hash_tbl.add group h g;
                g
              end
              else g
            in
            let own =
              if not sliced then if fresh then drop_slots else [||]
              else begin
                let n = ref 0 in
                for d = 0 to n_drops - 1 do
                  let cell = (g * n_drops) + d in
                  if
                    Bytes.get seen cell = '\000'
                    && Ternary.Field.overlaps drops.(d).Acl.Rule.field
                         p.Routing.Path.flow
                  then begin
                    Bytes.set seen cell '\001';
                    owned.(!n) <- drop_slots.(d);
                    incr n
                  end
                done;
                Array.sub owned 0 !n
              end
            in
            if Array.length own > 0 then begin
              paths := js :: !paths;
              covers := own :: !covers;
              cover_rows := !cover_rows + Array.length own;
              cover_terms := !cover_terms + (Array.length own * Array.length js)
            end
          done;
          Array.iter (fun k -> pos.(k) <- -1) b.switches;
          let b =
            {
              b with
              paths = Array.of_list (List.rev !paths);
              covers = Array.of_list (List.rev !covers);
              deps = Array.of_list (List.rev !deps);
            }
          in
          free := b :: !free;
          b
        end
      in
      blocks := b :: !blocks)
    policies;
  let blocks = Array.of_list (List.rev !blocks) in
  let free = Array.of_list (List.rev !free) in
  let forbidden = Hashtbl.fold (fun v () acc -> v :: acc) forbidden [] in
  (* Merged variables (Section IV-B): one per (group, switch) where at
     least two members have a placement variable, numbered after all
     placement variables, by group then switch. *)
  let n_vars = ref !n_place in
  let merged = ref [] in
  let merge_defs = ref [] in
  let at = if plan.Merge.groups = [] then [||] else Array.make n_switches [] in
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
          merge_defs := (!n_vars, members) :: !merge_defs;
          merged := Merged { gid = g.Merge.gid; switch = k } :: !merged;
          incr n_vars
        | _ -> ());
        at.(k) <- []
      done)
    plan.Merge.groups;
  let merged = Array.of_list (List.rev !merged) in
  (* Capacity rows (Eq. 3) over the free variables, net of the load
     pinned at the switch, only where the worst case can exceed it: the
     load is counted per free policy first, and only those switches
     list their variables.  A member of a merged variable counts
     through it, not on its own. *)
  let worst = Array.make n_switches 0 in
  Array.iter
    (fun b ->
      Array.iter (fun k -> worst.(k) <- worst.(k) + n_rules b) b.switches)
    free;
  (* The merged variables by switch, latest first; [grouped] their
     members. *)
  let grouped = Hashtbl.create 16 and grouped_at = Hashtbl.create 16 in
  List.iter
    (fun (mv, members) ->
      let switch =
        match merged.(mv - !n_place) with
        | Merged { switch; _ } | Place { switch; _ } -> switch
      in
      Hashtbl.add grouped_at switch (mv, members);
      worst.(switch) <- worst.(switch) + List.length members;
      List.iter
        (fun v ->
          if not (Hashtbl.mem grouped v) then begin
            Hashtbl.add grouped v ();
            worst.(switch) <- worst.(switch) - 1
          end)
        members)
    !merge_defs;
  let bound k = capacities.(k) - pinned_load.(k) in
  let binding =
    List.filter (fun k -> worst.(k) > bound k) (List.init n_switches Fun.id)
  in
  let capacity_rows =
    List.rev_map
      (fun k ->
        let plain = ref [] in
        Array.iter
          (fun b ->
            let j = find_sorted b.switches k in
            if j >= 0 then
              for s = 0 to n_rules b - 1 do
                let v = var_in b s j in
                if not (Hashtbl.mem grouped v) then plain := v :: !plain
              done)
          free;
        {
          switch = k;
          bound = bound k;
          plain = !plain;
          grouped = Hashtbl.find_all grouped_at k;
        })
      binding
  in
  {
    instance = inst;
    plan;
    sliced;
    monitors;
    numbering = { blocks; free; n_place = !n_place; merged; dummies };
    implication_rows = !implication_rows;
    cover_rows = !cover_rows;
    cover_terms = !cover_terms;
    capacities = capacity_rows;
    merge_defs = !merge_defs;
    baseline_rule_count = !baseline;
    forbidden;
    pinned = List.rev !pinned;
  }

let key t v =
  let nb = t.numbering in
  if v < 0 || v >= num_vars t then invalid_arg "Layout.key: no such variable";
  if v >= nb.n_place then nb.merged.(v - nb.n_place)
  else
    (* The free block holding [v]: the last one whose base is at most
       [v]. *)
    let lo = ref 0 and hi = ref (Array.length nb.free - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) lsr 1 in
      if nb.free.(mid).base <= v then lo := mid else hi := mid - 1
    done;
    let b = nb.free.(!lo) in
    let width = Array.length b.switches in
    let j = (v - b.base) mod width in
    Place
      {
        ingress = b.ingress;
        priority = b.rules.((v - b.base) / width).priority;
        switch = b.switches.(j);
        hops = b.loc.(j);
      }

let iter_placed t assignment f =
  Array.iter
    (fun b ->
      if b.k0 >= 0 then Array.iter (fun r -> f (-1) b.ingress r b.k0) b.rules
      else
        Array.iteri
          (fun s r ->
            Array.iteri
              (fun j k ->
                let v = var_in b s j in
                if assignment.(v) then f v b.ingress r k)
              b.switches)
          b.rules)
    t.numbering.blocks

let iter_pairs t f =
  Array.iter
    (fun b ->
      let width = Array.length b.switches in
      for c = 0 to (Array.length b.rules * width) - 1 do
        if b.k0 < 0 then f (b.base + c) false
        else f (-1) (b.switches.(c mod width) = b.k0)
      done)
    t.numbering.blocks

let iter_implications t f =
  let free = t.numbering.free in
  for x = Array.length free - 1 downto 0 do
    let b = free.(x) in
    for r = (Array.length b.deps / 2) - 1 downto 0 do
      let d = var_in b b.deps.(2 * r) 0
      and p = var_in b b.deps.((2 * r) + 1) 0 in
      for j = Array.length b.switches - 1 downto 0 do
        f (d + j) (p + j)
      done
    done
  done

let iter_covers t f =
  let free = t.numbering.free in
  for x = Array.length free - 1 downto 0 do
    let b = free.(x) in
    let width = Array.length b.switches in
    Array.iteri
      (fun x js ->
        Array.iter (fun s -> f (b.base + (s * width)) js) b.covers.(x))
      b.paths
  done

let pinned_rules t = List.fold_left (fun n (_, _, r) -> n + r) 0 t.pinned

let var t ~ingress ~priority ~switch =
  let b = block_at t.numbering.blocks ingress in
  let s = if b.k0 >= 0 then -1 else slot_of b priority in
  let j = if s < 0 then -1 else find_sorted b.switches switch in
  if j < 0 then None else Some (var_in b s j)

let is_dummy t ~ingress ~priority =
  Hashtbl.mem t.numbering.dummies (ingress, priority)

let pp_stats fmt t =
  Format.fprintf fmt
    "layout: %d vars (%d merged), %d implications, %d covers, %d capacity \
     rows, %d policies pinned (%d rules)"
    (num_vars t)
    (List.length t.merge_defs)
    t.implication_rows
    t.cover_rows
    (List.length t.capacities)
    (List.length t.pinned) (pinned_rules t)
