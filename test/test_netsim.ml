let entry ?(tags = [ 0 ]) field action =
  { Netsim.tags; rule = Acl.Rule.make ~field ~action ~priority:0 }

let test_first_match_order () =
  let tables =
    [|
      [
        entry (Util.field ~src:"10.1.0.0/16" ()) Acl.Rule.Permit;
        entry (Util.field ~src:"10.0.0.0/8" ()) Acl.Rule.Drop;
      ];
    |]
  in
  let g = Prng.create 2 in
  let inner = Ternary.Field.random_packet g (Util.field ~src:"10.1.0.0/16" ()) in
  let outer = Ternary.Field.random_packet g (Util.field ~src:"10.9.0.0/16" ()) in
  Alcotest.(check bool) "inner permitted" true
    (Netsim.step tables ~switch:0 ~tag:0 inner = Acl.Rule.Permit);
  Alcotest.(check bool) "outer dropped" true
    (Netsim.step tables ~switch:0 ~tag:0 outer = Acl.Rule.Drop)

let test_tag_isolation () =
  let tables =
    [| [ entry ~tags:[ 1 ] (Util.field ~src:"10.0.0.0/8" ()) Acl.Rule.Drop ] |]
  in
  let g = Prng.create 3 in
  let pkt = Ternary.Field.random_packet g (Util.field ~src:"10.0.0.0/8" ()) in
  Alcotest.(check bool) "other tag passes" true
    (Netsim.step tables ~switch:0 ~tag:0 pkt = Acl.Rule.Permit);
  Alcotest.(check bool) "tagged traffic dropped" true
    (Netsim.step tables ~switch:0 ~tag:1 pkt = Acl.Rule.Drop)

let test_forward_along_path () =
  let drop_at k =
    Array.init 3 (fun i ->
        if i = k then [ entry (Util.field ~src:"10.0.0.0/8" ()) Acl.Rule.Drop ]
        else [])
  in
  let path = Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1; 2 ] () in
  let g = Prng.create 4 in
  let pkt = Ternary.Field.random_packet g (Util.field ~src:"10.0.0.0/8" ()) in
  List.iter
    (fun k ->
      match Netsim.forward (drop_at k) path ~tag:0 pkt with
      | Netsim.Dropped s -> Alcotest.(check int) "dropped at k" k s
      | Netsim.Delivered -> Alcotest.fail "expected drop")
    [ 0; 1; 2 ];
  Alcotest.(check bool) "no rules delivers" true
    (Netsim.forward [| []; []; [] |] path ~tag:0 pkt = Netsim.Delivered);
  let alien = Ternary.Field.random_packet g (Util.field ~src:"11.0.0.0/8" ()) in
  Alcotest.(check bool) "non-matching delivers" true
    (Netsim.forward (drop_at 1) path ~tag:0 alien = Netsim.Delivered)

(* Random tables over a small tag universe: plain and merged entries,
   new-version shadows and stamps, all from a few overlapping fields. *)
let view_fields =
  [|
    Ternary.Field.any;
    Util.field ~src:"10.0.0.0/8" ();
    Util.field ~src:"10.1.0.0/16" ();
    Util.field ~dst:"10.0.1.0/24" ();
    Util.field ~src:"10.1.0.0/16" ~dst:"10.0.0.0/8" ();
    Util.field ~proto:(Ternary.Proto.Eq 6) ();
  |]

let random_tables g ~switches =
  let tag () =
    let i = Prng.int g 4 in
    match Prng.int g 4 with
    | 0 -> Netsim.vtag i
    | 1 -> Netsim.stamp_tag i
    | _ -> i
  in
  Array.init switches (fun _ ->
      List.init (Prng.int g 9) (fun p ->
          {
            Netsim.tags = List.init (1 + Prng.int g 3) (fun _ -> tag ());
            rule =
              Acl.Rule.make
                ~field:(Prng.choose g view_fields)
                ~action:(if Prng.bool g then Acl.Rule.Drop else Acl.Rule.Permit)
                ~priority:p;
          }))

let prop_tag_view_forwards_alike =
  QCheck.Test.make ~name:"tag view forwards like the full tables" ~count:200
    QCheck.int (fun seed ->
      let g = Prng.create seed in
      let switches = 1 + Prng.int g 5 in
      let tables = random_tables g ~switches in
      (* Half the runs view every tag, the others about three in four. *)
      let all = Prng.bool g and skip = Prng.int g 4 in
      let only tag = all || tag land 3 <> skip in
      let view = Netsim.tag_view ~only tables in
      let path =
        Routing.Path.make ~ingress:0 ~egress:1
          ~switches:
            (List.init (1 + Prng.int g switches) (fun _ -> Prng.int g switches))
          ()
      in
      let tags =
        9
        :: List.concat_map
             (fun i -> [ i; Netsim.vtag i; Netsim.stamp_tag i ])
             [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun tag ->
          (not (only tag))
          || List.for_all
            (fun _ ->
              let packet =
                Ternary.Field.random_packet g (Prng.choose g view_fields)
              in
              Netsim.forward_view view path ~tag packet
              = Netsim.forward tables path ~tag packet)
            (List.init 8 Fun.id))
        tags)

(* The reference diff: for every tag either side carries, filter each
   switch's tables down to the tag's entries and compare. *)
let reference_changed_tags old_tables new_tables =
  let module IS = Set.Make (Int) in
  let tags_of tables =
    Array.fold_left
      (fun acc tbl ->
        List.fold_left
          (fun acc (e : Netsim.entry) ->
            IS.union acc (IS.of_list e.Netsim.tags))
          acc tbl)
      IS.empty tables
  in
  let proj i table =
    List.filter (fun (e : Netsim.entry) -> List.mem i e.Netsim.tags) table
  in
  IS.elements
    (IS.filter
       (fun i ->
         let differs = ref false in
         Array.iteri
           (fun k a ->
             if proj i a <> proj i new_tables.(k) then differs := true)
           old_tables;
         !differs)
       (IS.union (tags_of old_tables) (tags_of new_tables)))

(* A table after a few random edits: kept as the same list (a dead
   switch's row), copied cell by cell, two entries swapped, an entry
   duplicated, dropped or retagged, or a fresh table. *)
let edit_table g table =
  let copy =
    List.map (fun (e : Netsim.entry) -> { e with Netsim.tags = e.tags })
  in
  let a = Array.of_list table in
  let n = Array.length a in
  match Prng.int g 7 with
  | 0 -> table
  | 1 -> copy table
  | 2 when n >= 2 ->
    let i = Prng.int g n and j = Prng.int g n in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    Array.to_list a
  | 3 when n >= 1 ->
    let i = Prng.int g n in
    List.concat (List.mapi (fun j e -> if j = i then [ e; e ] else [ e ]) table)
  | 4 when n >= 1 ->
    let i = Prng.int g n in
    List.filteri (fun j _ -> j <> i) table
  | 5 when n >= 1 ->
    let i = Prng.int g n in
    List.mapi
      (fun j (e : Netsim.entry) ->
        if j = i then { e with Netsim.tags = List.rev (Prng.int g 4 :: e.tags) }
        else e)
      table
  | _ -> (random_tables g ~switches:1).(0)

let prop_changed_tags_matches_reference =
  QCheck.Test.make ~name:"changed tags match the per-tag filter" ~count:500
    QCheck.int (fun seed ->
      let g = Prng.create seed in
      let switches = 1 + Prng.int g 6 in
      let old_tables = random_tables g ~switches in
      let new_tables = Array.map (edit_table g) old_tables in
      let tags, moved, scanned = Netsim.changed_tags old_tables new_tables in
      let differ =
        List.filter
          (fun k -> old_tables.(k) <> new_tables.(k))
          (List.init switches Fun.id)
      in
      let read =
        Array.fold_left ( + ) 0
          (Array.mapi
             (fun k a ->
               let b = new_tables.(k) in
               if a = b then 0 else List.length a + List.length b)
             old_tables)
      in
      tags = reference_changed_tags old_tables new_tables
      && moved = differ && scanned = read)

let suite =
  [
    Alcotest.test_case "first match order" `Quick test_first_match_order;
    Alcotest.test_case "tag isolation" `Quick test_tag_isolation;
    Alcotest.test_case "forward along path" `Quick test_forward_along_path;
    QCheck_alcotest.to_alcotest prop_tag_view_forwards_alike;
    QCheck_alcotest.to_alcotest prop_changed_tags_matches_reference;
  ]
