type build = {
  tables : Netsim.entry list array;
  splits : int;
  rebuilt : int list;
}

(* Order-sensitive pair: same policy tag on both cells, overlapping
   fields, different actions.  Two merged cells can share several
   policies; if those policies disagree on the order, no placement of
   the pair in one table is correct and the caller must split. *)
let order_constraint (a : Solution.cell) (b : Solution.cell) =
  if
    Acl.Rule.action_equal a.Solution.rule.Acl.Rule.action
      b.Solution.rule.Acl.Rule.action
    || not (Acl.Rule.overlaps a.Solution.rule b.Solution.rule)
  then `No_constraint
  else
    let verdicts =
      List.concat_map
        (fun (i, pa) ->
          List.filter_map
            (fun (j, pb) ->
              if i = j then Some (if pa > pb then `A_first else `B_first)
              else None)
            b.Solution.tags)
        a.Solution.tags
    in
    match verdicts with
    | [] -> `No_constraint
    | first :: rest ->
      if List.for_all (( = ) first) rest then (first :> [ `A_first | `B_first | `Contradiction | `No_constraint ])
      else `Contradiction

(* Kahn topological sort of cells; [None] on a cycle. *)
let try_order cells =
  let arr = Array.of_list cells in
  let n = Array.length arr in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let contradiction = ref false in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      match order_constraint arr.(x) arr.(y) with
      | `A_first ->
        succs.(x) <- y :: succs.(x);
        indeg.(y) <- indeg.(y) + 1
      | `B_first ->
        succs.(y) <- x :: succs.(y);
        indeg.(x) <- indeg.(x) + 1
      | `Contradiction -> contradiction := true
      | `No_constraint -> ()
    done
  done;
  if !contradiction then None
  else begin
  let ready = ref [] in
  for x = n - 1 downto 0 do
    if indeg.(x) = 0 then ready := x :: !ready
  done;
  let out = ref [] and count = ref 0 in
  let priority_of x = arr.(x).Solution.rule.Acl.Rule.priority in
  while !ready <> [] do
    (* Deterministic: among ready cells, highest representative priority
       first. *)
    let best =
      List.fold_left
        (fun acc x ->
          match acc with
          | None -> Some x
          | Some y -> if priority_of x > priority_of y then Some x else acc)
        None !ready
    in
    let x = Option.get best in
    ready := List.filter (fun y -> y <> x) !ready;
    out := x :: !out;
    incr count;
    List.iter
      (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then ready := y :: !ready)
      succs.(x)
  done;
    if !count = n then Some (List.rev_map (fun x -> arr.(x)) !out) else None
  end

let split_largest_merged cells =
  let merged =
    List.filter (fun c -> List.length c.Solution.tags > 1) cells
  in
  match
    List.sort
      (fun a b ->
        Stdlib.compare (List.length b.Solution.tags) (List.length a.Solution.tags))
      merged
  with
  | [] -> None
  | victim :: _ ->
    let replacements =
      List.map
        (fun (i, p) ->
          {
            Solution.rule =
              { victim.Solution.rule with Acl.Rule.priority = p };
            tags = [ (i, p) ];
          })
        victim.Solution.tags
    in
    Some (replacements @ List.filter (fun c -> c != victim) cells)

let order_switch cells =
  let rec go cells splits =
    match try_order cells with
    | Some ordered -> (ordered, splits)
    | None -> (
      match split_largest_merged cells with
      | Some cells' -> go cells' (splits + 1)
      | None ->
        (* No merged entry left: cells of one policy always order by
           priority, so this is unreachable; fall back to priority order. *)
        ( List.sort
            (fun a b ->
              Stdlib.compare b.Solution.rule.Acl.Rule.priority
                a.Solution.rule.Acl.Rule.priority)
            cells,
          splits ))
  in
  go cells 0

let entry (c : Solution.cell) =
  { Netsim.tags = List.map fst c.Solution.tags; rule = c.Solution.rule }

let patch ~cells ~tables (sol : Solution.t) =
  let reuse =
    Array.length cells = Array.length sol.Solution.per_switch
    && Array.length tables = Array.length cells
  in
  let splits = ref 0 and rebuilt = ref [] in
  let tables =
    Array.mapi
      (fun k now ->
        (* [=] does not stop at physical equality, so test it first. *)
        if reuse && (cells.(k) == now || cells.(k) = now) then tables.(k)
        else begin
          rebuilt := k :: !rebuilt;
          let ordered, s = order_switch now in
          splits := !splits + s;
          List.map entry ordered
        end)
      sol.Solution.per_switch
  in
  { tables; splits = !splits; rebuilt = List.rev !rebuilt }

let of_solution sol = patch ~cells:[||] ~tables:[||] sol
