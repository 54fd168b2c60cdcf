module Int_map = Map.Make (Int)

type t = {
  policy : Acl.Policy.t;
  deps : Acl.Rule.t list Int_map.t;  (* drop priority -> permits *)
}

let build policy =
  let rules = Acl.Policy.rules policy in
  let deps =
    List.fold_left
      (fun acc (drop : Acl.Rule.t) ->
        if not (Acl.Rule.is_drop drop) then acc
        else
          let permits =
            List.filter
              (fun (u : Acl.Rule.t) ->
                Acl.Rule.is_permit u
                && u.priority > drop.priority
                && Acl.Rule.overlaps u drop)
              rules
          in
          Int_map.add drop.priority permits acc)
      Int_map.empty rules
  in
  { policy; deps }

let policy t = t.policy

let dependencies t (r : Acl.Rule.t) =
  if Acl.Rule.is_permit r then []
  else
    match Int_map.find_opt r.priority t.deps with
    | Some permits -> permits
    | None -> invalid_arg "Depgraph.dependencies: rule not in policy"

let required_permits t drops =
  let permits = List.concat_map (dependencies t) drops in
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun (u : Acl.Rule.t) ->
        if Hashtbl.mem seen u.priority then false
        else begin
          Hashtbl.add seen u.priority ();
          true
        end)
      permits
  in
  List.sort Acl.Rule.compare_priority_desc unique

let num_edges t =
  Int_map.fold (fun _ permits acc -> acc + List.length permits) t.deps 0

let pp fmt t =
  Format.fprintf fmt "depgraph: %d drops, %d edges" (Int_map.cardinal t.deps)
    (num_edges t)
