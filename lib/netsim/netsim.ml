type entry = { tags : int list; rule : Acl.Rule.t }

let remove_first entry table =
  let rec go = function
    | [] -> None
    | e :: rest when e = entry -> Some rest
    | e :: rest -> Option.map (fun r -> e :: r) (go rest)
  in
  go table

(* Version-tag algebra for two-phase consistent updates: a shadow copy
   of a new-placement entry is keyed on the ingress tag with the version
   bit flipped on, and an ingress whose stamping has switched to the new
   version is marked by a stamp entry keyed on the stamp bit.  Both bits
   sit far above any real host id, so versioned and stamp tags can never
   collide with a plain ingress tag — a packet walking with a plain tag
   never matches a shadow or a stamp, and vice versa. *)

let version_bit = 1 lsl 20

let stamp_bit = 1 lsl 21

let vtag i = i lor version_bit

let stamp_tag i = i lor stamp_bit

let is_version_tag i = i land version_bit <> 0

let is_stamp_tag i = i land stamp_bit <> 0

let base_tag i = i land lnot (version_bit lor stamp_bit)

(* Only a switch whose tables differ can change a projection.  Its
   entries are grouped by tag, newest first, on both sides: an entry
   listing a tag twice lands twice on both sides alike, so two groups
   are equal exactly when the projections are.  Such a switch is listed
   even when no projection changed (a reorder across tags). *)
let changed_tags old_tables new_tables =
  if Array.length old_tables <> Array.length new_tables then
    invalid_arg "Netsim.changed_tags: switch count mismatch";
  let changed = Hashtbl.create 16 in
  let scanned = ref 0 in
  let group table =
    let by_tag = Hashtbl.create 16 in
    List.iter
      (fun e ->
        incr scanned;
        List.iter
          (fun t ->
            let es = Option.value (Hashtbl.find_opt by_tag t) ~default:[] in
            Hashtbl.replace by_tag t (e :: es))
          e.tags)
      table;
    by_tag
  in
  let mark t = Hashtbl.replace changed t () in
  let switches = ref [] in
  Array.iteri
    (fun k a ->
      let b = new_tables.(k) in
      if a != b && a <> b then begin
        switches := k :: !switches;
        let ga = group a and gb = group b in
        Hashtbl.iter
          (fun t es -> if Hashtbl.find_opt gb t <> Some es then mark t)
          ga;
        Hashtbl.iter (fun t _ -> if not (Hashtbl.mem ga t) then mark t) gb
      end)
    old_tables;
  let tags = Hashtbl.fold (fun t () acc -> t :: acc) changed [] in
  (List.sort compare tags, List.rev !switches, !scanned)

let step tables ~switch ~tag packet =
  let applies e = List.mem tag e.tags && Acl.Rule.matches e.rule packet in
  match List.find_opt applies tables.(switch) with
  | Some e -> e.rule.Acl.Rule.action
  | None -> Acl.Rule.Permit

type outcome = Delivered | Dropped of int

let forward tables (path : Routing.Path.t) ~tag packet =
  let n = Array.length path.switches in
  let rec go i =
    if i >= n then Delivered
    else
      let switch = path.switches.(i) in
      match step tables ~switch ~tag packet with
      | Acl.Rule.Drop -> Dropped switch
      | Acl.Rule.Permit -> go (i + 1)
  in
  go 0

(* Per tag, per switch: the rules of the entries carrying that tag, in
   match order.  One pass over the tables builds it, so the first match
   a walk finds in its tag's list is the first match [step] finds
   in the whole table. *)
type view = (int, Acl.Rule.t list array) Hashtbl.t

let tag_view ?(only = fun _ -> true) tables =
  let n = Array.length tables in
  let view = Hashtbl.create 16 in
  Array.iteri
    (fun k entries ->
      List.iter
        (fun e ->
          List.iter
            (fun tag ->
              if only tag then begin
                let at =
                  match Hashtbl.find_opt view tag with
                  | Some at -> at
                  | None ->
                    let at = Array.make n [] in
                    Hashtbl.add view tag at;
                    at
                in
                at.(k) <- e.rule :: at.(k)
              end)
            e.tags)
        (List.rev entries))
    tables;
  view

let forward_view view (path : Routing.Path.t) ~tag packet =
  match Hashtbl.find_opt view tag with
  | None -> Delivered
  | Some at ->
    let n = Array.length path.switches in
    let matches r = Acl.Rule.matches r packet in
    let rec go i =
      if i >= n then Delivered
      else
        let switch = path.switches.(i) in
        match List.find_opt matches at.(switch) with
        | Some r when Acl.Rule.is_drop r -> Dropped switch
        | Some _ | None -> go (i + 1)
    in
    go 0

type hop = { hop_switch : int; matched : int option }

let match_index tables ~switch ~tag packet =
  let rec go i = function
    | [] -> None
    | e :: rest ->
      if List.mem tag e.tags && Acl.Rule.matches e.rule packet then Some (i, e)
      else go (i + 1) rest
  in
  go 0 tables.(switch)

let forward_trace tables (path : Routing.Path.t) ~tag packet =
  let n = Array.length path.switches in
  let rec go i acc =
    if i >= n then (Delivered, List.rev acc)
    else
      let switch = path.switches.(i) in
      match match_index tables ~switch ~tag packet with
      | Some (idx, e) when Acl.Rule.is_drop e.rule ->
        (Dropped switch, List.rev ({ hop_switch = switch; matched = Some idx } :: acc))
      | Some (idx, _) ->
        go (i + 1) ({ hop_switch = switch; matched = Some idx } :: acc)
      | None -> go (i + 1) ({ hop_switch = switch; matched = None } :: acc)
  in
  go 0 []

let pp_outcome fmt = function
  | Delivered -> Format.pp_print_string fmt "delivered"
  | Dropped s -> Format.fprintf fmt "dropped@s%d" s
