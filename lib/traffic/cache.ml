let m_hits =
  Telemetry.Metrics.counter
    ~help:"traced packets whose cached-table matches all sit in hardware slots"
    "sdnplace_traffic_cache_hits_total"

let m_misses =
  Telemetry.Metrics.counter
    ~help:"traced packets that matched a cached entry past its hardware slots"
    "sdnplace_traffic_cache_misses_total"

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

type stats = { resident : int; delegated : int; pinned : int; overflow : int }

type t = {
  hw : int array;
  paths : Routing.Path.t array;
  full : Netsim.entry array array;  (* indexed view of the tables *)
  full_tables : Netsim.entry list array;
  guards : int list array array;  (* per (switch, idx): guard idxs *)
  units : unit_ array;
  cached : Netsim.entry list array;
  origin : origin array array;  (* aligned with [cached] *)
  overflow : int array;  (* per-switch slots past hw, force-pins *)
  stats : stats;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_dhits : int;
}

let tag_of (e : Netsim.entry) =
  match e.Netsim.tags with [] -> -1 | tag :: _ -> Netsim.base_tag tag

let prio_of (e : Netsim.entry) = e.Netsim.rule.Acl.Rule.priority

let share_tag (a : Netsim.entry) (b : Netsim.entry) =
  List.exists (fun x -> List.mem x b.Netsim.tags) a.Netsim.tags

(* A DROP's guards: the higher-priority overlapping same-tag PERMITs of
   its switch. *)
let guard_sets full =
  Array.map
    (fun es ->
      Array.map
        (fun (e : Netsim.entry) ->
          if not (Acl.Rule.is_drop e.Netsim.rule) then []
          else
            List.filter
              (fun j ->
                let g = es.(j) in
                Acl.Rule.is_permit g.Netsim.rule
                && prio_of g > prio_of e
                && share_tag g e
                && Acl.Rule.overlaps g.Netsim.rule e.Netsim.rule)
              (List.init (Array.length es) (fun j -> j)))
        es)
    full

(* Every (policy DROP, routed path) pair the full placement covers, in
   (tag, priority descending, path) order, with the units each entry
   hosts. *)
let coverage_units full paths =
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
  let entry_units = Array.map (fun es -> Array.map (fun _ -> []) es) full in
  Array.iteri
    (fun ui u ->
      List.iter
        (fun (s, idx) -> entry_units.(s).(idx) <- ui :: entry_units.(s).(idx))
        u.hosts)
    units;
  (units, entry_units)

(* {2 Placement} *)

(* Residency, delegations, per-switch overflow and the force-pin count,
   placed once over the full tables. *)
let place ~net ~hw ~paths ~full ~guards ~units ~entry_units =
  let n = Array.length full in
  let resident = Array.map (fun es -> Array.map (fun _ -> false) es) full in
  let pinned = Array.map (fun es -> Array.map (fun _ -> false) es) full in
  let delegated = ref [] in
  let used = Array.make n 0 in
  let guard_ref = Array.map (fun es -> Array.map (fun _ -> 0) es) full in
  let add_resident s idx =
    if not resident.(s).(idx) then begin
      resident.(s).(idx) <- true;
      used.(s) <- used.(s) + 1;
      List.iter
        (fun g ->
          guard_ref.(s).(g) <- guard_ref.(s).(g) + 1;
          if guard_ref.(s).(g) = 1 then used.(s) <- used.(s) + 1)
        guards.(s).(idx)
    end
  in
  let evict s idx =
    resident.(s).(idx) <- false;
    used.(s) <- used.(s) - 1;
    List.iter
      (fun g ->
        guard_ref.(s).(g) <- guard_ref.(s).(g) - 1;
        if guard_ref.(s).(g) = 0 then used.(s) <- used.(s) - 1)
      guards.(s).(idx)
  in
  let marginal s idx =
    1
    + List.fold_left
        (fun acc g -> if guard_ref.(s).(g) = 0 then acc + 1 else acc)
        0 guards.(s).(idx)
  in
  (* Phase A: per switch, keep each drop, in index order, that fits with
     the guards it newly pulls in.  A drop that did not fit cannot fit
     after a later one is added: the guards the two share number at most
     the added drop's marginal cost minus 1. *)
  Array.iteri
    (fun s es ->
      Array.iteri
        (fun idx (e : Netsim.entry) ->
          if
            Acl.Rule.is_drop e.Netsim.rule
            && used.(s) + marginal s idx <= hw.(s)
          then add_resident s idx)
        es)
    full;
  (* Phase B: coverage repair.  An uncovered (drop, path) unit is
     delegated to the on-path neighbor with the most free hardware
     space; with no room anywhere it is force-pinned back at a home
     switch, evicting that switch's unpinned drops from the highest
     index down (their own units re-enter the queue). *)
  let covered u =
    List.exists (fun (s, idx) -> resident.(s).(idx)) u.hosts
    || List.exists
         (fun d ->
           let e = full.(d.d_home).(d.d_idx) in
           tag_of e = u.u_tag
           && prio_of e = u.u_prio
           && Routing.Path.mem paths.(u.u_path) d.d_at)
         !delegated
  in
  let queue = Queue.create () in
  Array.iteri (fun ui _ -> Queue.push ui queue) units;
  let pins = ref 0 in
  while not (Queue.is_empty queue) do
    let u = units.(Queue.pop queue) in
    if not (covered u) then begin
      let p = paths.(u.u_path) in
      let hs, hidx = List.hd u.hosts in
      let cost = 1 + List.length guards.(hs).(hidx) in
      let free d = hw.(d) - used.(d) in
      let cands =
        List.concat_map
          (fun (s, _) ->
            List.filter (fun d -> Routing.Path.mem p d) (Topo.Net.neighbors net s))
          u.hosts
        |> List.sort_uniq compare
        |> List.sort (fun a b ->
               if free a <> free b then compare (free b) (free a) else compare a b)
      in
      match List.find_opt (fun d -> free d >= cost) cands with
      | Some d ->
        delegated := !delegated @ [ { d_at = d; d_home = hs; d_idx = hidx } ];
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
        pinned.(s).(idx) <- true;
        let rec shed v =
          if used.(s) > hw.(s) && v >= 0 then begin
            if resident.(s).(v) && not pinned.(s).(v) then begin
              evict s v;
              List.iter (fun ui -> Queue.push ui queue) entry_units.(s).(v)
            end;
            shed (v - 1)
          end
        in
        shed (Array.length full.(s) - 1)
    end
  done;
  let overflow = Array.init n (fun s -> max 0 (used.(s) - hw.(s))) in
  (resident, !delegated, overflow, !pins)

(* The hardware view: resident drops with their (deduplicated) guards,
   plus delegated copies, sorted priority-descending (stable).  With
   unmerged placements every entry carries one tag, so priority order
   per tag is policy order and first-match equals the big-switch policy
   restricted to what is installed.  A switch's TCAM holds the first
   [hw] entries of its table. *)
let build_cached ~full ~guards resident delegated =
  let tbls =
    Array.mapi
      (fun s es ->
        let len = Array.length es in
        let guard_live = Array.make len false in
        Array.iteri
          (fun idx r ->
            if r then
              List.iter (fun g -> guard_live.(g) <- true) guards.(s).(idx))
          resident.(s);
        let home = ref [] in
        for idx = len - 1 downto 0 do
          if resident.(s).(idx) || guard_live.(idx) then
            home := (es.(idx), Home idx) :: !home
        done;
        let delegs =
          List.concat_map
            (fun d ->
              if d.d_at <> s then []
              else
                let org = Deleg (d.d_home, d.d_idx) in
                List.map
                  (fun j -> (full.(d.d_home).(j), org))
                  guards.(d.d_home).(d.d_idx)
                @ [ (full.(d.d_home).(d.d_idx), org) ])
            delegated
        in
        List.stable_sort
          (fun ((a : Netsim.entry), _) ((b : Netsim.entry), _) ->
            compare (prio_of b) (prio_of a))
          (!home @ delegs))
      full
  in
  ( Array.map (List.map fst) tbls,
    Array.map (fun l -> Array.of_list (List.map snd l)) tbls )

(* The derived metadata (indexed tables, guard sets, coverage units) and
   the placement are built once: the full tables never change under a
   cache. *)
let create ~net ~paths ~hw (tables : Netsim.entry list array) =
  if Array.length hw <> Array.length tables then
    invalid_arg "Cache.create: one hw capacity per switch required";
  let hw = Array.copy hw in
  let paths = Array.of_list paths in
  let full = Array.map Array.of_list tables in
  let guards = guard_sets full in
  let units, entry_units = coverage_units full paths in
  let resident, delegated, overflow, pins =
    place ~net ~hw ~paths ~full ~guards ~units ~entry_units
  in
  let cached, origin = build_cached ~full ~guards resident delegated in
  let total_cached =
    Array.fold_left (fun acc l -> acc + List.length l) 0 cached
  in
  let delegated_slots =
    List.fold_left
      (fun acc d -> acc + 1 + List.length guards.(d.d_home).(d.d_idx))
      0 delegated
  in
  {
    hw;
    paths;
    full;
    full_tables = Array.copy tables;
    guards;
    units;
    cached;
    origin;
    overflow;
    stats =
      {
        resident = total_cached - delegated_slots;
        delegated = delegated_slots;
        pinned = pins;
        overflow = Array.fold_left ( + ) 0 overflow;
      };
    c_hits = 0;
    c_misses = 0;
    c_dhits = 0;
  }

let stats t = t.stats

(* {2 Accounting} *)

type walk = { w_full : Netsim.outcome; w_cached : Netsim.outcome }

let account t ~path ~weight packet =
  let tag = path.Routing.Path.ingress in
  let w_full = Netsim.forward t.full_tables path ~tag packet in
  let w_cached, hops = Netsim.forward_trace t.cached path ~tag packet in
  let matched =
    List.filter_map
      (fun (h : Netsim.hop) ->
        Option.map (fun idx -> (h.Netsim.hop_switch, idx)) h.Netsim.matched)
      hops
  in
  if List.for_all (fun (s, idx) -> idx < t.hw.(s)) matched then begin
    t.c_hits <- t.c_hits + weight;
    Telemetry.Metrics.add m_hits weight;
    if
      List.exists
        (fun (s, idx) ->
          match t.origin.(s).(idx) with Deleg _ -> true | Home _ -> false)
        matched
    then t.c_dhits <- t.c_dhits + weight
  end
  else begin
    t.c_misses <- t.c_misses + weight;
    Telemetry.Metrics.add m_misses weight
  end;
  { w_full; w_cached }

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
