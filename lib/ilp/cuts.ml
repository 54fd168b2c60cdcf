(* Cutting planes for the placement 0-1 models.

   Two families, both derived from model rows only (never from node
   bound changes), so every cut is globally valid and can live in the
   LP for the whole branch & bound tree:

   - Implication-lifted knapsack cover cuts from capacity rows.  A plain
     unit-coefficient row Σ x <= C only yields covers the LP already
     implies, so lifting is what makes these bite: when drop variable d
     carries implications d -> p onto permits in the same row (the
     paper's PERMIT-co-location structure, Eq. 1), setting d = 1 forces
     its permits in too, so d's effective weight is 1 + Σ w_p over
     permits assigned to it (each permit assigned to at most one drop
     keeps the weights additive).  If a set D of items has total
     effective weight > C, then Σ_{j ∈ D} x_j <= |D| - 1 is valid — and
     unlike the unlifted cover it can cut off fractional LP points.

   - Chvátal-Gomory pigeonhole cuts over cover components.  Summing the
     t unit-coefficient covering rows of a connected component and
     dividing by the maximum variable multiplicity λ gives
     Σ_{v ∈ W} x_v >= ceil(t / λ), which is fractional-tightening
     whenever λ does not divide t. *)

let eps = 1e-9
let min_violation = 1e-4
let max_cuts = 32

type cut = { terms : Simplex.Csc.row; sense : Model.sense; rhs : float }

(* A cut as separation first builds it: terms in construction order.
   Candidates are ranked on this form (violation, then structural order)
   and packed only once chosen. *)
type raw = { rterms : (float * int) list; rsense : Model.sense; rrhs : float }

(* A knapsack row: entries [k0, k1) of the model matrix's CSR. *)
type krow = { k0 : int; k1 : int; krhs : float }

type t = {
  a : Simplex.Csc.t;  (* the model's matrix *)
  knap : krow array;
  permits_of : int list array;  (* drop var -> permit vars (model arcs) *)
  comps : (int array * int) array;  (* cover-component vars, ceil(t/λ) *)
}

let one c = Float.abs (c -. 1.0) <= eps

(* An [a - b <= 0] arc, read from a [<=] row's terms [p0, p0 + 1]. *)
let arc (a : Simplex.Csc.t) p0 =
  let minus_one c = Float.abs (c +. 1.0) <= eps in
  let c0 = a.rval.(p0) and c1 = a.rval.(p0 + 1) in
  if one c0 && minus_one c1 then Some (a.colind.(p0), a.colind.(p0 + 1))
  else if one c1 && minus_one c0 then Some (a.colind.(p0 + 1), a.colind.(p0))
  else None

(* Union-find over variables for the cover components. *)
let rec uf_find parent v =
  if parent.(v) = v then v
  else begin
    parent.(v) <- uf_find parent parent.(v);
    parent.(v)
  end

let prepare (model : Model.t) =
  let n = Model.num_vars model in
  let a = Model.matrix model and b = Model.rhs model in
  let permits_of = Array.make n [] in
  let knap = ref [] and covers = ref [] in
  (* A row's terms end ahead of its LP slack and artificial. *)
  Model.iter_rows model (fun sense i s ->
      let p0 = a.rowptr.(i) and p1 = a.rowptr.(i + 1) - 2 in
      match sense with
      | Model.Le -> (
        match
          if p1 - p0 = 2 && Float.abs b.(i) <= eps then arc a p0 else None
        with
        | Some (d, p) -> permits_of.(d) <- p :: permits_of.(d)
        | None ->
          if p1 - p0 >= 2 && b.(i) >= 1.0 -. eps then
            knap := { k0 = p0; k1 = p1; krhs = b.(i) } :: !knap)
      | Model.Ge ->
        let unit = ref (one (s *. b.(i))) in
        for p = p0 to p1 - 1 do
          if not (one (s *. a.rval.(p))) then unit := false
        done;
        if !unit then
          covers := List.init (p1 - p0) (fun k -> a.colind.(p0 + k)) :: !covers
      | Model.Eq -> ());
  Array.iteri (fun d ps -> permits_of.(d) <- List.rev ps) permits_of;
  (* Cover components. *)
  let parent = Array.init n (fun v -> v) in
  List.iter
    (fun vars ->
      match vars with
      | [] -> ()
      | v0 :: rest ->
        List.iter
          (fun v ->
            let a = uf_find parent v0 and b = uf_find parent v in
            if a <> b then parent.(a) <- b)
          rest)
    !covers;
  let by_root = Hashtbl.create 64 in
  List.iter
    (fun vars ->
      match vars with
      | [] -> ()
      | v0 :: _ ->
        let root = uf_find parent v0 in
        Hashtbl.replace by_root root
          (vars :: (try Hashtbl.find by_root root with Not_found -> [])))
    !covers;
  let comps = ref [] in
  Hashtbl.iter
    (fun _ rows ->
      let t = List.length rows in
      if t >= 2 then begin
        let mult = Hashtbl.create 32 in
        List.iter
          (List.iter (fun v ->
               Hashtbl.replace mult v
                 (1 + try Hashtbl.find mult v with Not_found -> 0)))
          rows;
        let lambda = Hashtbl.fold (fun _ c acc -> max c acc) mult 0 in
        let k = (t + lambda - 1) / lambda in
        if k >= 2 then begin
          let vars = Hashtbl.fold (fun v _ acc -> v :: acc) mult [] in
          comps := (Array.of_list (List.sort compare vars), k) :: !comps
        end
      end)
    by_root;
  let comps = Array.of_list !comps in
  Array.sort compare comps;
  { a; knap = Array.of_list (List.rev !knap); permits_of; comps }

(* Separate one knapsack row at fractional point [x].  Items are
   literals: variables with positive coefficient appear directly,
   negative coefficients are complemented (literal 1 - x). *)
let sep_knap t x (row : krow) =
  let a = t.a and k0 = row.k0 in
  let nitems = row.k1 - k0 in
  let var i = a.colind.(k0 + i) in
  let neg = Array.init nitems (fun i -> a.rval.(k0 + i) < 0.0) in
  let w = Array.init nitems (fun i -> Float.abs a.rval.(k0 + i)) in
  let cap = ref row.krhs in
  for p = k0 to row.k1 - 1 do
    if a.rval.(p) < 0.0 then cap := !cap -. a.rval.(p)
  done;
  let cap = !cap in
  if cap <= eps then None
  else begin
    let xlit =
      Array.init nitems (fun i ->
          let xv = x.(var i) in
          if neg.(i) then 1.0 -. xv else xv)
    in
    (* Greedy disjoint permit assignment onto uncomplemented items. *)
    let slot = Hashtbl.create (2 * nitems) in
    for i = 0 to nitems - 1 do
      Hashtbl.replace slot (var i) i
    done;
    let absorbed = Array.make nitems false in
    let aug = Array.copy w in
    for i = 0 to nitems - 1 do
      if not neg.(i) then
        List.iter
          (fun p ->
            match Hashtbl.find_opt slot p with
            | Some pi
              when pi <> i && (not neg.(pi)) && (not absorbed.(pi))
                   && not absorbed.(i) ->
              absorbed.(pi) <- true;
              aug.(i) <- aug.(i) +. w.(pi)
            | _ -> ())
          t.permits_of.(var i)
    done;
    (* Candidates by descending fractional value; ties on index keep the
       separation deterministic. *)
    let order = Array.init nitems (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare xlit.(b) xlit.(a) in
        if c <> 0 then c else compare a b)
      order;
    let chosen = ref [] and total = ref 0.0 in
    (try
       Array.iter
         (fun i ->
           if not absorbed.(i) then begin
             chosen := i :: !chosen;
             total := !total +. aug.(i);
             if !total > cap +. 1e-6 then raise Exit
           end)
         order
     with Exit -> ());
    if !total <= cap +. 1e-6 then None
    else begin
      (* Minimality: removing an item tightens the cut (rhs drops by 1,
         lhs by at most 1), so strip every item the cover can spare,
         heaviest first. *)
      let d = ref !chosen in
      let heavier a b =
        let c = compare aug.(b) aug.(a) in
        if c <> 0 then c else compare a b
      in
      List.iter
        (fun i ->
          if !total -. aug.(i) > cap +. 1e-6 then begin
            total := !total -. aug.(i);
            d := List.filter (fun j -> j <> i) !d
          end)
        (List.sort heavier !chosen);
      let d = !d in
      let size = List.length d in
      if size < 2 then None
      else begin
        let lhs = List.fold_left (fun acc i -> acc +. xlit.(i)) 0.0 d in
        let bound = float_of_int (size - 1) in
        if lhs <= bound +. min_violation then None
        else begin
          (* Back to x-space: Σ_pos x - Σ_neg x <= |D| - 1 - #neg. *)
          let nneg = List.fold_left (fun a i -> if neg.(i) then a + 1 else a) 0 d in
          let terms =
            List.rev_map
              (fun i ->
                ((if neg.(i) then -1.0 else 1.0), var i))
              d
          in
          Some
            ( lhs -. bound,
              {
                rterms = terms;
                rsense = Model.Le;
                rrhs = bound -. float_of_int nneg;
              } )
        end
      end
    end
  end

let separate t x =
  let found = ref [] in
  Array.iter
    (fun row -> match sep_knap t x row with
      | Some c -> found := c :: !found
      | None -> ())
    t.knap;
  Array.iter
    (fun (vars, k) ->
      let lhs = Array.fold_left (fun acc v -> acc +. x.(v)) 0.0 vars in
      let need = float_of_int k in
      if lhs < need -. min_violation then
        found :=
          ( need -. lhs,
            {
              rterms = Array.to_list (Array.map (fun v -> (1.0, v)) vars);
              rsense = Model.Ge;
              rrhs = need;
            } )
          :: !found)
    t.comps;
  let all =
    List.sort
      (fun (va, ca) (vb, cb) -> if va <> vb then compare vb va else compare ca cb)
      !found
  in
  List.filteri (fun i _ -> i < max_cuts) all
  |> List.map (fun (_, c) ->
         {
           terms =
             Simplex.Csc.pack
               (Array.of_list (List.map snd c.rterms))
               (Array.of_list (List.map fst c.rterms));
           sense = c.rsense;
           rhs = c.rrhs;
         })

let check c (sol : bool array) =
  let lhs = Model.activity c.terms sol in
  match c.sense with
  | Model.Le -> lhs <= c.rhs +. 1e-6
  | Model.Ge -> lhs >= c.rhs -. 1e-6
  | Model.Eq -> Float.abs (lhs -. c.rhs) <= 1e-6
