(* Per-epoch score retention, a constant: on seeded [sdnplace caching]
   runs, 0.0, 0.5 and 1.0 mostly give the same hit rate (EXPERIMENTS.md,
   CACHE1). *)
let retention = 0.5

let m_hits =
  Telemetry.Metrics.counter ~help:"traced packets fully served by resident rules"
    "sdnplace_traffic_cache_hits_total"

let m_misses =
  Telemetry.Metrics.counter
    ~help:"traced packets that missed an evicted rule at its home switch"
    "sdnplace_traffic_cache_misses_total"

let m_evictions =
  Telemetry.Metrics.counter ~help:"resident entries evicted by rebalances"
    "sdnplace_traffic_evictions_total"

let m_delegations =
  Telemetry.Metrics.counter ~help:"drops newly delegated to a neighbor switch"
    "sdnplace_traffic_delegations_total"

(* Popularity is keyed by rule identity — the (tag, priority, action)
   triple — not by the copy's switch: flow popularity is a property of
   the rule, so every copy of a rule shares one score. *)
type key = { k_tag : int; k_prio : int; k_drop : bool }

type origin = Home of int | Deleg of int * int  (* (home switch, home idx) *)

type deleg = { d_at : int; d_home : int; d_idx : int }

(* A coverage obligation: policy [u_tag]'s DROP at priority [u_prio]
   must survive somewhere on path [u_path] (an index into [paths]);
   [hosts] are the full-placement copies lying on that path. *)
type unit_ = {
  u_tag : int;
  u_prio : int;
  u_path : int;
  mutable hosts : (int * int) list;
}

type t = {
  net : Topo.Net.t;
  hw : int array;
  scores : (key, float) Hashtbl.t;
  paths : Routing.Path.t array;
  full : Netsim.entry array array;  (* indexed view of the tables *)
  full_tables : Netsim.entry list array;
  guards : int list array array;  (* per (switch, idx): guard idxs *)
  entry_units : int list array array;  (* per (switch, idx): unit ids *)
  units : unit_ array;
  mutable resident : bool array array;  (* meaningful on DROP indices *)
  mutable pinned : bool array array;
  mutable delegated : deleg list;  (* insertion order (oldest first) *)
  mutable cached : Netsim.entry list array;
  mutable origin : origin array array;  (* aligned with [cached] *)
  mutable overflow : int array;  (* per-switch slots past hw, force-pins *)
  mutable last_pins : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_dhits : int;
}

let tag_of (e : Netsim.entry) =
  match e.Netsim.tags with [] -> -1 | tag :: _ -> Netsim.base_tag tag

let prio_of (e : Netsim.entry) = e.Netsim.rule.Acl.Rule.priority

let key_of t s idx =
  let e = t.full.(s).(idx) in
  {
    k_tag = tag_of e;
    k_prio = prio_of e;
    k_drop = Acl.Rule.is_drop e.Netsim.rule;
  }

let score t s idx =
  match Hashtbl.find_opt t.scores (key_of t s idx) with
  | Some x -> x
  | None -> 0.0

let bump t s idx w =
  let k = key_of t s idx in
  let cur = match Hashtbl.find_opt t.scores k with Some x -> x | None -> 0.0 in
  Hashtbl.replace t.scores k (cur +. float_of_int w)

let share_tag (a : Netsim.entry) (b : Netsim.entry) =
  List.exists (fun x -> List.mem x b.Netsim.tags) a.Netsim.tags

(* The derived metadata (indexed tables, guard sets, coverage units) is
   built once: the full tables never change under a cache. *)
let create ~net ~paths ~hw
    (tables : Netsim.entry list array) =
  if Array.length hw <> Array.length tables then
    invalid_arg "Cache.create: one hw capacity per switch required";
  let n = Array.length tables in
  let paths = Array.of_list paths in
  let full = Array.map Array.of_list tables in
  let guards =
    Array.init n (fun s ->
        let es = full.(s) in
        Array.init (Array.length es) (fun i ->
            let e = es.(i) in
            if not (Acl.Rule.is_drop e.Netsim.rule) then []
            else
              List.filter
                (fun j ->
                  let g = es.(j) in
                  Acl.Rule.is_permit g.Netsim.rule
                  && prio_of g > prio_of e
                  && share_tag g e
                  && Acl.Rule.overlaps g.Netsim.rule e.Netsim.rule)
                (List.init (Array.length es) (fun j -> j))))
  in
  let table = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun s es ->
      Array.iteri
        (fun idx (e : Netsim.entry) ->
          if Acl.Rule.is_drop e.Netsim.rule then
            List.iter
              (fun tag ->
                let tag = Netsim.base_tag tag in
                Array.iteri
                  (fun pi (p : Routing.Path.t) ->
                    if
                      p.Routing.Path.ingress = tag
                      && Routing.Path.mem p s
                      && Ternary.Field.overlaps e.Netsim.rule.Acl.Rule.field
                           p.Routing.Path.flow
                    then
                      let k = (tag, prio_of e, pi) in
                      match Hashtbl.find_opt table k with
                      | Some u -> u.hosts <- u.hosts @ [ (s, idx) ]
                      | None ->
                        let u =
                          {
                            u_tag = tag;
                            u_prio = prio_of e;
                            u_path = pi;
                            hosts = [ (s, idx) ];
                          }
                        in
                        Hashtbl.replace table k u;
                        order := u :: !order)
                  paths)
              e.Netsim.tags)
        es)
    full;
  let units =
    List.sort
      (fun a b ->
        if a.u_tag <> b.u_tag then compare a.u_tag b.u_tag
        else if a.u_prio <> b.u_prio then compare b.u_prio a.u_prio
        else compare a.u_path b.u_path)
      (List.rev !order)
    |> Array.of_list
  in
  let entry_units =
    Array.init n (fun s -> Array.make (Array.length full.(s)) [])
  in
  Array.iteri
    (fun ui u ->
      List.iter
        (fun (s, idx) -> entry_units.(s).(idx) <- ui :: entry_units.(s).(idx))
        u.hosts)
    units;
  {
    net;
    hw = Array.copy hw;
    scores = Hashtbl.create 256;
    paths;
    full;
    full_tables = Array.copy tables;
    guards;
    entry_units;
    units;
    resident = Array.init n (fun s -> Array.make (Array.length full.(s)) false);
    pinned = Array.init n (fun s -> Array.make (Array.length full.(s)) false);
    delegated = [];
    cached = Array.make n [];
    origin = Array.init n (fun _ -> [||]);
    overflow = Array.make n 0;
    last_pins = 0;
    c_hits = 0;
    c_misses = 0;
    c_dhits = 0;
  }

let full_tables t = Array.copy t.full_tables

(* The hardware view: resident drops with their (deduplicated) guards,
   plus delegated copies, sorted priority-descending (stable).  With
   unmerged placements every entry carries one tag, so priority order
   per tag is policy order and first-match equals the big-switch policy
   restricted to what is installed. *)
let build_cached t =
  let n = Array.length t.full in
  let tbls =
    Array.init n (fun s ->
        let len = Array.length t.full.(s) in
        let guard_live = Array.make len false in
        Array.iteri
          (fun idx r ->
            if r then
              List.iter (fun g -> guard_live.(g) <- true) t.guards.(s).(idx))
          t.resident.(s);
        let home = ref [] in
        for idx = len - 1 downto 0 do
          if t.resident.(s).(idx) || guard_live.(idx) then
            home := (t.full.(s).(idx), Home idx) :: !home
        done;
        let delegs =
          List.concat_map
            (fun d ->
              if d.d_at <> s then []
              else
                let org = Deleg (d.d_home, d.d_idx) in
                List.map
                  (fun j -> (t.full.(d.d_home).(j), org))
                  t.guards.(d.d_home).(d.d_idx)
                @ [ (t.full.(d.d_home).(d.d_idx), org) ])
            t.delegated
        in
        List.stable_sort
          (fun ((a : Netsim.entry), _) ((b : Netsim.entry), _) ->
            compare (prio_of b) (prio_of a))
          (!home @ delegs))
  in
  t.cached <- Array.map (List.map fst) tbls;
  t.origin <- Array.map (fun l -> Array.of_list (List.map snd l)) tbls

(* {2 Rebalance} *)

type rebalance_stats = {
  resident : int;
  delegated : int;
  evictions : int;
  delegations_new : int;
  pinned : int;
  overflow : int;
}

let rebalance t =
  let n = Array.length t.full in
  let prev_res = Array.map Array.copy t.resident in
  let prev_deleg = t.delegated in
  Array.iter (fun a -> Array.fill a 0 (Array.length a) false) t.resident;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) false) t.pinned;
  t.delegated <- [];
  let used = Array.make n 0 in
  let guard_ref = Array.init n (fun s -> Array.make (Array.length t.full.(s)) 0) in
  let add_resident s idx =
    if not t.resident.(s).(idx) then begin
      t.resident.(s).(idx) <- true;
      used.(s) <- used.(s) + 1;
      List.iter
        (fun g ->
          guard_ref.(s).(g) <- guard_ref.(s).(g) + 1;
          if guard_ref.(s).(g) = 1 then used.(s) <- used.(s) + 1)
        t.guards.(s).(idx)
    end
  in
  let evict s idx =
    if t.resident.(s).(idx) then begin
      t.resident.(s).(idx) <- false;
      used.(s) <- used.(s) - 1;
      List.iter
        (fun g ->
          guard_ref.(s).(g) <- guard_ref.(s).(g) - 1;
          if guard_ref.(s).(g) = 0 then used.(s) <- used.(s) - 1)
        t.guards.(s).(idx)
    end
  in
  let marginal s idx =
    1
    + List.fold_left
        (fun acc g -> if guard_ref.(s).(g) = 0 then acc + 1 else acc)
        0 t.guards.(s).(idx)
  in
  (* Phase A: per-switch greedy by decayed popularity. *)
  for s = 0 to n - 1 do
    let drops = ref [] in
    Array.iteri
      (fun idx (e : Netsim.entry) ->
        if Acl.Rule.is_drop e.Netsim.rule then drops := idx :: !drops)
      t.full.(s);
    let drops = List.rev !drops in
    (* Greedy by popularity per hardware slot: a drop's marginal cost
       counts the guards it would newly pull in, so two hot drops
       sharing a guard beat one hot drop that needs its own — and the
       density of each candidate changes as guards come live, hence the
       iterative re-selection rather than a one-shot sort. *)
    let rec fill () =
      let best = ref None in
      List.iter
        (fun idx ->
          if not t.resident.(s).(idx) then begin
            let m = marginal s idx in
            if used.(s) + m <= t.hw.(s) then begin
              let d = score t s idx /. float_of_int m in
              match !best with
              | None -> best := Some (d, idx)
              | Some (d', idx') ->
                if d > d' || (d = d' && idx < idx') then best := Some (d, idx)
            end
          end)
        drops;
      match !best with
      | Some (_, idx) ->
        add_resident s idx;
        fill ()
      | None -> ()
    in
    fill ()
  done;
  (* Phase B: coverage repair.  An uncovered (drop, path) unit is
     delegated to the on-path neighbor with the most free hardware
     space; with no room anywhere it is force-pinned back at a home
     switch, evicting that switch's coldest unpinned drops (whose own
     units re-enter the queue). *)
  let covered u =
    List.exists (fun (s, idx) -> t.resident.(s).(idx)) u.hosts
    || List.exists
         (fun d ->
           let e = t.full.(d.d_home).(d.d_idx) in
           tag_of e = u.u_tag
           && prio_of e = u.u_prio
           && Routing.Path.mem t.paths.(u.u_path) d.d_at)
         t.delegated
  in
  let queue = Queue.create () in
  Array.iteri (fun ui _ -> Queue.push ui queue) t.units;
  let pins = ref 0 in
  while not (Queue.is_empty queue) do
    let u = t.units.(Queue.pop queue) in
    if not (covered u) then begin
      let p = t.paths.(u.u_path) in
      let hs, hidx = List.hd u.hosts in
      let cost = 1 + List.length t.guards.(hs).(hidx) in
      let free d = t.hw.(d) - used.(d) in
      let cands =
        List.concat_map
          (fun (s, _) ->
            List.filter (fun d -> Routing.Path.mem p d) (Topo.Net.neighbors t.net s))
          u.hosts
        |> List.sort_uniq compare
        |> List.sort (fun a b ->
               if free a <> free b then compare (free b) (free a) else compare a b)
      in
      match List.find_opt (fun d -> free d >= cost) cands with
      | Some d ->
        t.delegated <- t.delegated @ [ { d_at = d; d_home = hs; d_idx = hidx } ];
        used.(d) <- used.(d) + cost
      | None ->
        incr pins;
        let best =
          List.fold_left
            (fun acc (s, idx) ->
              match acc with
              | None -> Some (s, idx)
              | Some (s', _) ->
                if free s > free s' || (free s = free s' && s < s') then
                  Some (s, idx)
                else acc)
            None u.hosts
        in
        let s, idx = Option.get best in
        add_resident s idx;
        t.pinned.(s).(idx) <- true;
        let exception Done in
        (try
           while used.(s) > t.hw.(s) do
             let victims = ref [] in
             Array.iteri
               (fun i r -> if r && not t.pinned.(s).(i) then victims := i :: !victims)
               t.resident.(s);
             let victims =
               List.sort
                 (fun a b ->
                   let sa = score t s a and sb = score t s b in
                   if sa <> sb then compare sa sb else compare b a)
                 !victims
             in
             match victims with
             | [] -> raise Done
             | v :: _ ->
               evict s v;
               List.iter (fun ui -> Queue.push ui queue) t.entry_units.(s).(v)
           done
         with Done -> ())
    end
  done;
  for s = 0 to n - 1 do
    t.overflow.(s) <- max 0 (used.(s) - t.hw.(s))
  done;
  t.last_pins <- !pins;
  build_cached t;
  let evictions = ref 0 in
  Array.iteri
    (fun s prev ->
      Array.iteri
        (fun idx r -> if r && not t.resident.(s).(idx) then incr evictions)
        prev)
    prev_res;
  let delegations_new =
    List.length (List.filter (fun d -> not (List.mem d prev_deleg)) t.delegated)
  in
  Telemetry.Metrics.add m_evictions !evictions;
  Telemetry.Metrics.add m_delegations delegations_new;
  let total_cached =
    Array.fold_left (fun acc l -> acc + List.length l) 0 t.cached
  in
  let delegated_slots =
    List.fold_left
      (fun acc d -> acc + 1 + List.length t.guards.(d.d_home).(d.d_idx))
      0 t.delegated
  in
  {
    resident = total_cached - delegated_slots;
    delegated = delegated_slots;
    evictions = !evictions;
    delegations_new;
    pinned = !pins;
    overflow = Array.fold_left ( + ) 0 t.overflow;
  }

(* {2 Accounting} *)

type walk = { w_full : Netsim.outcome; w_cached : Netsim.outcome }

let account t ~path ~weight packet =
  let tag = path.Routing.Path.ingress in
  let w_full, fhops = Netsim.forward_trace t.full_tables path ~tag packet in
  let w_cached, chops = Netsim.forward_trace t.cached path ~tag packet in
  let matches = ref 0 in
  let all_resident = ref true in
  List.iter
    (fun (h : Netsim.hop) ->
      match h.Netsim.matched with
      | None -> ()
      | Some idx ->
        incr matches;
        bump t h.Netsim.hop_switch idx weight;
        if not t.resident.(h.Netsim.hop_switch).(idx) then all_resident := false)
    fhops;
  if !matches > 0 then
    if !all_resident then begin
      t.c_hits <- t.c_hits + weight;
      Telemetry.Metrics.add m_hits weight
    end
    else begin
      t.c_misses <- t.c_misses + weight;
      Telemetry.Metrics.add m_misses weight
    end;
  if
    List.exists
      (fun (h : Netsim.hop) ->
        match h.Netsim.matched with
        | None -> false
        | Some idx -> (
          match t.origin.(h.Netsim.hop_switch).(idx) with
          | Deleg _ -> true
          | Home _ -> false))
      chops
  then t.c_dhits <- t.c_dhits + weight;
  { w_full; w_cached }

let decay t =
  Hashtbl.filter_map_inplace (fun _ v -> Some (v *. retention)) t.scores

let hits t = t.c_hits

let misses t = t.c_misses

let delegated_hits t = t.c_dhits

(* {2 Self-check} *)

type check_report = {
  guard_violations : int;
  coverage_violations : int;
  capacity_violations : int;
}

let check t =
  let guard_violations = ref 0 in
  Array.iteri
    (fun s entries ->
      let arr = Array.of_list entries in
      Array.iteri
        (fun pos (e : Netsim.entry) ->
          if Acl.Rule.is_drop e.Netsim.rule then begin
            (* every guard of the drop's home copy must sit above it *)
            let home_s, home_idx =
              match t.origin.(s).(pos) with
              | Home idx -> (s, idx)
              | Deleg (hs, hi) -> (hs, hi)
            in
            List.iter
              (fun g ->
                let grule = t.full.(home_s).(g).Netsim.rule in
                let found = ref false in
                for j = 0 to pos - 1 do
                  if
                    Acl.Rule.equal arr.(j).Netsim.rule grule
                    && share_tag arr.(j) e
                  then found := true
                done;
                if not !found then incr guard_violations)
              t.guards.(home_s).(home_idx)
          end)
        arr)
    t.cached;
  let coverage_violations = ref 0 in
  Array.iter
    (fun u ->
      let p = t.paths.(u.u_path) in
      let covered =
        Array.exists
          (fun s ->
            Routing.Path.mem p s
            && List.exists
                 (fun (e : Netsim.entry) ->
                   Acl.Rule.is_drop e.Netsim.rule
                   && tag_of e = u.u_tag
                   && prio_of e = u.u_prio)
                 t.cached.(s))
          (Array.init (Array.length t.cached) (fun s -> s))
      in
      if not covered then incr coverage_violations)
    t.units;
  let capacity_violations = ref 0 in
  Array.iteri
    (fun s l ->
      if List.length l > t.hw.(s) + t.overflow.(s) then incr capacity_violations)
    t.cached;
  {
    guard_violations = !guard_violations;
    coverage_violations = !coverage_violations;
    capacity_violations = !capacity_violations;
  }

(* {2 Persistence} *)

type persisted = {
  p_hw : int array;
  p_scores : (key * float) list;
  p_resident : bool array array;
  p_pinned : bool array array;
  p_delegated : deleg list;
  p_overflow : int array;
  p_last_pins : int;
  p_hits : int;
  p_misses : int;
  p_dhits : int;
}

let capture t =
  let bindings =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.scores [])
  in
  {
    p_hw = Array.copy t.hw;
    p_scores = bindings;
    p_resident = Array.map Array.copy t.resident;
    p_pinned = Array.map Array.copy t.pinned;
    p_delegated = t.delegated;
    p_overflow = Array.copy t.overflow;
    p_last_pins = t.last_pins;
    p_hits = t.c_hits;
    p_misses = t.c_misses;
    p_dhits = t.c_dhits;
  }

let restore ~net ~paths tables p =
  let t = create ~net ~paths ~hw:p.p_hw tables in
  List.iter (fun (k, v) -> Hashtbl.replace t.scores k v) p.p_scores;
  t.resident <- Array.map Array.copy p.p_resident;
  t.pinned <- Array.map Array.copy p.p_pinned;
  t.delegated <- p.p_delegated;
  t.overflow <- Array.copy p.p_overflow;
  t.last_pins <- p.p_last_pins;
  t.c_hits <- p.p_hits;
  t.c_misses <- p.p_misses;
  t.c_dhits <- p.p_dhits;
  build_cached t;
  t
