type kind = Core | Aggregation | Edge | Plain

module Int_tbl = Hashtbl.Make (Int)

let compare_pair (a, b) (c, d) =
  let x = Int.compare a c in
  if x <> 0 then x else Int.compare b d

type t = {
  adj : int list array;
  edges : (int * int) list;
  host_attach : int array;
  kinds : kind array;
}

let create ?kinds ~num_switches ~edges ~host_attach () =
  if num_switches < 0 then invalid_arg "Net.create: negative switch count";
  let check_switch s =
    if s < 0 || s >= num_switches then
      invalid_arg "Net.create: switch id out of range"
  in
  let adj = Array.make num_switches [] in
  (* An edge [(a, b)], [a < b], is seen as [a * num_switches + b]. *)
  let seen = Int_tbl.create 64 in
  let norm_edges =
    List.map
      (fun (a, b) ->
        check_switch a;
        check_switch b;
        if a = b then invalid_arg "Net.create: self-loop";
        let a, b = if a < b then (a, b) else (b, a) in
        let key = (a * num_switches) + b in
        if Int_tbl.mem seen key then invalid_arg "Net.create: duplicate edge";
        Int_tbl.add seen key ();
        (a, b))
      edges
  in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    norm_edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort_uniq Int.compare l) adj;
  Array.iter check_switch host_attach;
  let kinds =
    match kinds with
    | Some k ->
      if Array.length k <> num_switches then
        invalid_arg "Net.create: kinds length mismatch";
      Array.copy k
    | None -> Array.make num_switches Plain
  in
  {
    adj;
    edges = List.sort compare_pair norm_edges;
    host_attach = Array.copy host_attach;
    kinds;
  }

let num_switches t = Array.length t.adj

let num_hosts t = Array.length t.host_attach

let neighbors t s = t.adj.(s)

let edges t = t.edges

let host_attach t h = t.host_attach.(h)

let kind t s = t.kinds.(s)

let switches_of_kind t k =
  let acc = ref [] in
  for s = num_switches t - 1 downto 0 do
    if t.kinds.(s) = k then acc := s :: !acc
  done;
  !acc

let host_prefix h = Ternary.Prefix.make (0x0A000000 lor ((h land 0xFFFF) lsl 8)) 24

let pp fmt t =
  Format.fprintf fmt "net: %d switches, %d hosts, %d links" (num_switches t)
    (num_hosts t)
    (List.length t.edges)
