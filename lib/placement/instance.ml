type t = {
  net : Topo.Net.t;
  routing : Routing.Table.t;
  policies : (int * Acl.Policy.t) list;
  capacities : int array;
}

let by_ingress (a, _) (b, _) = Int.compare a b

let edit ?(drop = []) ?(policies = []) ?(paths = []) ?capacities t =
  let capacities =
    match capacities with
    | None -> t.capacities
    | Some caps ->
      if Array.length caps <> Topo.Net.num_switches t.net then
        invalid_arg "Instance.make: one capacity per switch required";
      Array.iter
        (fun c -> if c < 0 then invalid_arg "Instance.make: negative capacity")
        caps;
      Array.copy caps
  in
  let routing = Routing.Table.edit t.routing ~drop ~add:paths in
  let added = List.sort by_ingress policies in
  let kept = List.filter (fun (i, _) -> not (List.mem i drop)) t.policies in
  let merged = List.merge by_ingress kept added in
  let rec check_dups = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg "Instance.make: duplicate ingress policy";
      check_dups rest
    | [ _ ] | [] -> ()
  in
  if added <> [] then check_dups merged;
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= Topo.Net.num_hosts t.net then
        invalid_arg "Instance.make: policy ingress is not a host";
      if Routing.Table.paths_from routing i = [] then
        invalid_arg "Instance.make: policy ingress has no path")
    added;
  List.iter
    (fun (p : Routing.Path.t) ->
      if p.ingress < 0 || p.ingress >= Topo.Net.num_hosts t.net then
        invalid_arg "Instance.make: path ingress is not a host";
      Array.iter
        (fun s ->
          if s < 0 || s >= Topo.Net.num_switches t.net then
            invalid_arg "Instance.make: path switch out of range")
        p.switches)
    paths;
  { t with routing; policies = merged; capacities }

let empty net =
  let capacities = Array.make (Topo.Net.num_switches net) 0 in
  { net; routing = Routing.Table.of_paths []; policies = []; capacities }

let make ~net ~routing ~policies ~capacities =
  edit ~policies ~paths:(Routing.Table.paths routing) ~capacities (empty net)

let uniform_capacity net c = Array.make (Topo.Net.num_switches net) c

let policy_of t i = List.assoc_opt i t.policies

let ingresses t = List.map fst t.policies

let total_policy_rules t =
  List.fold_left (fun acc (_, q) -> acc + Acl.Policy.size q) 0 t.policies

let map_policies t f =
  { t with policies = List.map (fun (i, q) -> (i, f i q)) t.policies }

let pp fmt t =
  Format.fprintf fmt "%a; %a; %d policies (%d rules total)" Topo.Net.pp t.net
    Routing.Table.pp t.routing (List.length t.policies)
    (total_policy_rules t)
