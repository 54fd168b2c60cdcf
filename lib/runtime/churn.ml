type weights = {
  install : int;
  reroute : int;
  update_policy : int;
  remove : int;
  capacity_shrink : int;
  switch_fail : int;
  link_fail : int;
}

let default_weights =
  {
    install = 6;
    reroute = 3;
    update_policy = 3;
    remove = 2;
    capacity_shrink = 2;
    switch_fail = 1;
    link_fail = 2;
  }

type t = {
  prng : Prng.t;
  weights : weights;
  rules : int;
  mutable killed_links : (int * int) list;
}

let make ?(weights = default_weights) ?(rules = 6) ~seed () =
  { prng = Prng.create seed; weights; rules; killed_links = [] }

let capture t = Marshal.to_string t []

let restore s = (Marshal.from_string s 0 : t)

(* ------------------------------------------------------------------ *)
(* Event builders, shared with the serving shard's op translation      *)

let attach_alive net ~dead h = not (List.mem (Topo.Net.host_attach net h) dead)

let free_hosts net ~dead ~taken =
  List.filter
    (fun h -> attach_alive net ~dead h && not (List.mem h taken))
    (List.init (Topo.Net.num_hosts net) Fun.id)

let egress_pool net ~dead i =
  List.filter
    (fun h -> h <> i && attach_alive net ~dead h)
    (List.init (Topo.Net.num_hosts net) Fun.id)

let fresh_paths g net ~dead i =
  let pool = egress_pool net ~dead i in
  if pool = [] then []
  else
    let n = 1 + Prng.int g 2 in
    List.filter_map
      (fun _ ->
        Routing.Shortest.random_path g net ~ingress:i
          ~egress:(Prng.choose_list g pool))
      (List.init n Fun.id)

let fresh_policy g net ~dead i paths ~rules =
  let egresses =
    List.sort_uniq compare
      (List.map (fun (p : Routing.Path.t) -> p.Routing.Path.egress) paths)
  in
  let egresses = if egresses = [] then egress_pool net ~dead i else egresses in
  Classbench.policy_for_ingress g ~net ~egresses ~num_rules:rules

let alive_switches net ~dead =
  List.filter
    (fun k -> not (List.mem k dead))
    (List.init (Topo.Net.num_switches net) Fun.id)

let switch_victims net ~dead =
  if List.length dead >= Topo.Net.num_switches net / 4 then []
  else alive_switches net ~dead

let link_victims net ~dead ~killed =
  let edges = Topo.Net.edges net in
  if List.length killed >= List.length edges / 4 then []
  else
    List.filter
      (fun (a, b) ->
        (not (List.mem a dead))
        && (not (List.mem b dead))
        && not (List.mem (a, b) killed))
      edges

let shrink_pool net ~dead caps =
  List.filter (fun k -> caps.(k) > 0) (alive_switches net ~dead)

(* ------------------------------------------------------------------ *)
(* The churn stream                                                    *)

let next t eng =
  let g = t.prng in
  let inst = (Engine.good eng).Placement.Solution.instance in
  let net = inst.Placement.Instance.net in
  let caps = inst.Placement.Instance.capacities in
  let usage = Placement.Solution.switch_usage (Engine.good eng) in
  let dead = Engine.dead_switches eng in
  let active = Placement.Instance.ingresses inst in
  let fenced = Engine.quarantined eng in
  let free = free_hosts net ~dead ~taken:(active @ fenced) in
  let tenants = List.sort_uniq compare (active @ fenced) in
  let policy_for i paths =
    let rules = max 1 (t.rules + Prng.int_in g (-2) 2) in
    fresh_policy g net ~dead i paths ~rules
  in
  let shrink = shrink_pool net ~dead caps in
  let switch_victims = switch_victims net ~dead in
  let link_victims = link_victims net ~dead ~killed:t.killed_links in
  (* Each category: (weight, available?, build).  Builders may still
     come up empty (no shortest path, say); we fall through in weighted
     order until one produces. *)
  let categories =
    [
      ( t.weights.install,
        free <> [],
        fun () ->
          let i = Prng.choose_list g free in
          match fresh_paths g net ~dead i with
          | [] -> None
          | paths ->
            Some (Event.Install { ingress = i; policy = policy_for i paths; paths })
      );
      ( t.weights.reroute,
        active <> [],
        fun () ->
          let i = Prng.choose_list g active in
          match fresh_paths g net ~dead i with
          | [] -> None
          | paths -> Some (Event.Reroute { ingresses = [ i ]; paths }) );
      ( t.weights.update_policy,
        active <> [],
        fun () ->
          let i = Prng.choose_list g active in
          let paths =
            Routing.Table.paths_from inst.Placement.Instance.routing i
          in
          Some (Event.Update_policy { ingress = i; policy = policy_for i paths })
      );
      ( t.weights.remove,
        tenants <> [],
        fun () -> Some (Event.Remove { ingresses = [ Prng.choose_list g tenants ] })
      );
      ( t.weights.capacity_shrink,
        shrink <> [],
        fun () ->
          let k = Prng.choose_list g shrink in
          let capacity =
            if usage.(k) > 0 && Prng.bool g then usage.(k) - 1 else caps.(k) / 2
          in
          Some (Event.Capacity_shrink { switch = k; capacity }) );
      ( t.weights.switch_fail,
        switch_victims <> [],
        fun () ->
          Some (Event.Switch_fail { switch = Prng.choose_list g switch_victims })
      );
      ( t.weights.link_fail,
        link_victims <> [],
        fun () ->
          let u, v = Prng.choose_list g link_victims in
          t.killed_links <- (u, v) :: t.killed_links;
          Some (Event.Link_fail { u; v }) );
    ]
  in
  let rec draw avail =
    let total = List.fold_left (fun acc (w, _, _) -> acc + w) 0 avail in
    if total = 0 then
      (* Degenerate state; emit something deterministic and harmless. *)
      Event.Remove { ingresses = [ 0 ] }
    else
      let roll = Prng.int g total in
      let rec pick acc = function
        | [] -> assert false
        | ((w, _, build) as c) :: rest ->
          if roll < acc + w then (c, build)
          else pick (acc + w) rest
      in
      let chosen, build = pick 0 avail in
      match build () with
      | Some e -> e
      | None -> draw (List.filter (fun c -> c != chosen) avail)
  in
  draw (List.filter (fun (w, ok, _) -> w > 0 && ok) categories)

let drive t eng n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else go (Engine.handle eng (next t eng) :: acc) (k - 1)
  in
  go [] n
