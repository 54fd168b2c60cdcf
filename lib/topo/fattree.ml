(* Switch id layout for parameter k (h = k/2):
   - cores:        ids [0, h^2)                     core (row, col) = row*h + col
   - pod p blocks: ids [h^2 + p*k, h^2 + (p+1)*k)   first h = aggregation,
                                                    next h = edge. *)

let check k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fattree.make: k must be even and >= 2"

let num_switches k =
  check k;
  5 * k * k / 4

let num_hosts k =
  check k;
  k * k * k / 4

let core_id ~h row col = (row * h) + col

let agg_id ~h ~k p a = (h * h) + (p * k) + a

let edge_id ~h ~k p e = (h * h) + (p * k) + h + e

let make k =
  check k;
  let h = k / 2 in
  let n = num_switches k in
  let kinds = Array.make n Net.Plain in
  for row = 0 to h - 1 do
    for col = 0 to h - 1 do
      kinds.(core_id ~h row col) <- Net.Core
    done
  done;
  let edges = ref [] in
  for p = 0 to k - 1 do
    for a = 0 to h - 1 do
      kinds.(agg_id ~h ~k p a) <- Net.Aggregation;
      (* Aggregation switch [a] uplinks to core row [a]. *)
      for col = 0 to h - 1 do
        edges := (agg_id ~h ~k p a, core_id ~h a col) :: !edges
      done
    done;
    for e = 0 to h - 1 do
      kinds.(edge_id ~h ~k p e) <- Net.Edge;
      for a = 0 to h - 1 do
        edges := (edge_id ~h ~k p e, agg_id ~h ~k p a) :: !edges
      done
    done
  done;
  let host_attach =
    Array.init (num_hosts k) (fun host ->
        let edge_index = host / h in
        let p = edge_index / h and e = edge_index mod h in
        edge_id ~h ~k p e)
  in
  Net.create ~kinds ~num_switches:n ~edges:!edges ~host_attach ()
