type t = { w : int; cubes : Tbv.t list }

exception Budget_exceeded

let empty w = { w; cubes = [] }

let of_tbvs ~width cubes =
  List.iter
    (fun c ->
      if Tbv.width c <> width then invalid_arg "Cube.of_tbvs: width mismatch")
    cubes;
  { w = width; cubes }

let width t = t.w

let cubes t = t.cubes

let is_empty t = t.cubes = []

let check_width a b =
  if a.w <> b.w then invalid_arg "Cube: width mismatch"

let union a b =
  check_width a b;
  { a with cubes = a.cubes @ b.cubes }

let inter a b =
  check_width a b;
  {
    a with
    cubes =
      List.concat_map
        (fun ca -> List.filter_map (fun cb -> Tbv.inter ca cb) b.cubes)
        a.cubes;
  }

(* a \ b for single cubes: peel one sub-cube per position where [b] is
   specified and [a] is free; the peels are disjoint and their union
   with (a ∩ b) is a. *)
let subtract_cube a b =
  if Tbv.is_disjoint a b then [ a ]
  else begin
    let pieces = ref [] in
    let cur = ref a in
    for i = 0 to Tbv.width a - 1 do
      match Tbv.get b i with
      | Tbv.Star -> ()
      | bit -> (
        match Tbv.get !cur i with
        | Tbv.Star ->
          let flipped = if bit = Tbv.One then Tbv.Zero else Tbv.One in
          pieces := Tbv.set !cur i flipped :: !pieces;
          cur := Tbv.set !cur i bit
        | Tbv.Zero | Tbv.One -> ())
    done;
    (* [!cur] is now contained in [b]: dropped. *)
    !pieces
  end

let subtract ?(budget = 100_000) a b =
  check_width a b;
  let cubes =
    List.fold_left
      (fun remaining cb ->
        let next = List.concat_map (fun ca -> subtract_cube ca cb) remaining in
        if List.length next > budget then raise Budget_exceeded;
        next)
      a.cubes b.cubes
  in
  { a with cubes }

let subsumes a b = is_empty (subtract b a)

let equal a b = subsumes a b && subsumes b a

let choose t = match t.cubes with [] -> None | c :: _ -> Some c
