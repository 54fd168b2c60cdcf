open Ternary

let effective_regions rules =
  let seen = ref (Cube.empty Field.width) in
  List.map
    (fun (r : Rule.t) ->
      let own = Field.to_cube r.field in
      let effective = Cube.subtract own !seen in
      seen := Cube.union !seen own;
      (r, effective))
    rules

let drop_region_of_rules rules =
  List.fold_left
    (fun acc ((r : Rule.t), region) ->
      if Rule.is_drop r then Cube.union acc region else acc)
    (Cube.empty Field.width)
    (effective_regions rules)

let drop_region policy = drop_region_of_rules (Policy.rules policy)

let equal a b = Cube.equal (drop_region a) (drop_region b)
