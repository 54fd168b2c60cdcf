open Ternary

let effective_regions ?budget rules =
  let seen = ref (Cube.empty Field.width) in
  List.map
    (fun (r : Rule.t) ->
      let own = Field.to_cube r.field in
      let effective = Cube.subtract ?budget own !seen in
      seen := Cube.union !seen own;
      (r, effective))
    rules

let drop_region_of_rules ?budget rules =
  List.fold_left
    (fun acc ((r : Rule.t), region) ->
      if Rule.is_drop r then Cube.union acc region else acc)
    (Cube.empty Field.width)
    (effective_regions ?budget rules)

let drop_region ?budget policy = drop_region_of_rules ?budget (Policy.rules policy)

let equal ?budget a b =
  Cube.equal ?budget (drop_region ?budget a) (drop_region ?budget b)

let witness_divergence a b =
  let da = drop_region a and db = drop_region b in
  let pick diff = Option.map Field.packet_of_tbv (Cube.choose diff) in
  match pick (Cube.subtract da db) with
  | Some p -> Some p
  | None -> pick (Cube.subtract db da)
