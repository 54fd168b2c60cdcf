module Int_map = Map.Make (Int)

type t = { by_ingress : Path.t list Int_map.t; count : int }

let edit t ~drop ~add =
  let by_ingress, count =
    List.fold_left
      (fun (m, n) i ->
        match Int_map.find_opt i m with
        | Some l -> (Int_map.remove i m, n - List.length l)
        | None -> (m, n))
      (t.by_ingress, t.count) drop
  in
  let added =
    List.fold_left
      (fun m (p : Path.t) -> Int_map.add_to_list p.ingress p m)
      Int_map.empty add
  in
  {
    by_ingress =
      Int_map.union
        (fun _ kept fresh -> Some (kept @ fresh))
        by_ingress (Int_map.map List.rev added);
    count = count + List.length add;
  }

let of_paths paths =
  edit { by_ingress = Int_map.empty; count = 0 } ~drop:[] ~add:paths

let paths t =
  List.concat_map snd (Int_map.bindings t.by_ingress)

let ingresses t = List.map fst (Int_map.bindings t.by_ingress)

let paths_from t i =
  match Int_map.find_opt i t.by_ingress with Some l -> l | None -> []

let flow_of ~slice ~egress =
  if slice then
    Ternary.Field.make ~dst:(Topo.Net.host_prefix egress) ()
  else Ternary.Field.any

(* One BFS row per destination switch, computed on first use and shared
   by every path of one call toward that switch.  A row takes no random
   draws, so the paths are those of per-pair calls.  Nothing outlives
   the call: a [Net.t] is shared read-only across domains. *)
let rows net =
  let rows = Array.make (Topo.Net.num_switches net) [||] in
  fun dst ->
    if Array.length rows.(dst) = 0 then
      rows.(dst) <- Shortest.distances net dst;
    rows.(dst)

let random ?(slice = false) g net ~pairs =
  let row = rows net in
  of_paths
    (List.map
       (fun (ingress, egress) ->
         match
           Shortest.random_walk g net
             (row (Topo.Net.host_attach net egress))
             ~src:(Topo.Net.host_attach net ingress)
         with
         | None -> invalid_arg "Table.random: egress unreachable from ingress"
         | Some switches ->
           Path.make ~flow:(flow_of ~slice ~egress) ~ingress ~egress ~switches
             ())
       pairs)

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

let pp fmt t =
  Format.fprintf fmt "routing: %d paths from %d ingresses" t.count
    (List.length (ingresses t))
