module Int_map = Map.Make (Int)

type t = { by_ingress : Path.t list Int_map.t; count : int }

let of_paths paths =
  let by_ingress =
    List.fold_left
      (fun m (p : Path.t) ->
        Int_map.update p.ingress
          (function None -> Some [ p ] | Some l -> Some (p :: l))
          m)
      Int_map.empty paths
  in
  { by_ingress = Int_map.map List.rev by_ingress; count = List.length paths }

let paths t =
  List.concat_map snd (Int_map.bindings t.by_ingress)

let num_paths t = t.count

let ingresses t = List.map fst (Int_map.bindings t.by_ingress)

let paths_from t i =
  match Int_map.find_opt i t.by_ingress with Some l -> l | None -> []

let switches_from t i =
  List.sort_uniq Stdlib.compare
    (List.concat_map
       (fun (p : Path.t) -> Array.to_list p.switches)
       (paths_from t i))

let remove_ingress t i =
  let removed = List.length (paths_from t i) in
  { by_ingress = Int_map.remove i t.by_ingress; count = t.count - removed }

let flow_of ~slice ~egress =
  if slice then
    Ternary.Field.make ~dst:(Topo.Net.host_prefix egress) ()
  else Ternary.Field.any

let path_for ?(slice = false) g net (ingress, egress) =
  match
    Shortest.random_path ~flow:(flow_of ~slice ~egress) g net ~ingress ~egress
  with
  | None -> invalid_arg "Table.random: egress unreachable from ingress"
  | Some p -> p

let random ?(slice = false) g net ~pairs =
  of_paths (List.map (path_for ~slice g net) pairs)

let spray ?(slice = false) g net ~ingresses ~total_paths =
  if ingresses = [] then invalid_arg "Table.spray: no ingresses";
  let hosts = Topo.Net.num_hosts net in
  if hosts < 2 then invalid_arg "Table.spray: need at least two hosts";
  let ing = Array.of_list ingresses in
  let pick_egress i =
    let rec go () =
      let e = Prng.int g hosts in
      if e = i then go () else e
    in
    go ()
  in
  let pairs =
    List.init total_paths (fun n ->
        let i = ing.(n mod Array.length ing) in
        (i, pick_egress i))
  in
  random ~slice g net ~pairs

let ecmp ?(limit = 16) net ~pairs =
  let paths =
    List.concat_map
      (fun (ingress, egress) ->
        let src = Topo.Net.host_attach net ingress in
        let dst = Topo.Net.host_attach net egress in
        match Shortest.all_shortest_paths ~limit net ~src ~dst with
        | [] -> invalid_arg "Table.ecmp: egress unreachable from ingress"
        | all ->
          List.map
            (fun switches ->
              Path.make ~flow:Ternary.Field.any ~ingress ~egress ~switches ())
            all)
      pairs
  in
  of_paths paths

let pp fmt t =
  Format.fprintf fmt "routing: %d paths from %d ingresses" t.count
    (List.length (ingresses t))
