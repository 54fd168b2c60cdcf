open Ternary

(* ---------- generators ---------- *)

let tbv_gen width =
  QCheck.Gen.(
    map
      (fun seed ->
        Tbv.random (Prng.create seed) ~width ~star_prob:0.4)
      int)

let tbv_arb width = QCheck.make (tbv_gen width)

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (abs addr land 0xFFFFFFFF) (abs len mod 33))
      int int)

let prefix_arb = QCheck.make ~print:Prefix.to_string prefix_gen

let range_gen =
  QCheck.Gen.(
    map2
      (fun a b ->
        let a = abs a mod 65536 and b = abs b mod 65536 in
        Range.make (min a b) (max a b))
      int int)

let range_arb =
  QCheck.make ~print:(Format.asprintf "%a" Range.pp) range_gen

let field_gen =
  QCheck.Gen.(
    map
      (fun seed ->
        let g = Prng.create seed in
        let prefix () =
          Prefix.random_subprefix g
            (Prefix.make 0x0A000000 8)
            ~len:(Prng.int_in g 8 32)
        in
        let range () =
          if Prng.bool g then Range.full
          else
            let lo = Prng.int g 65000 in
            Range.make lo (min Range.max_value (lo + Prng.int g 600))
        in
        Field.make ~src:(prefix ()) ~dst:(prefix ()) ~sport:(range ())
          ~dport:(range ())
          ~proto:(if Prng.bool g then Proto.Any else Proto.tcp)
          ())
      int)

let field_arb =
  QCheck.make ~print:(Format.asprintf "%a" Field.pp) field_gen

let qtest = QCheck_alcotest.to_alcotest

(* Membership of one address or port, through [Field.matches] on a
   field and a packet that constrain nothing else. *)
let in_prefix p a =
  Field.matches (Field.make ~src:p ())
    (Packet.make ~src:a ~dst:0 ~sport:0 ~dport:0 ~proto:0)

let in_range r v =
  Field.matches (Field.make ~sport:r ())
    (Packet.make ~src:0 ~dst:0 ~sport:v ~dport:0 ~proto:0)

(* ---------- Tbv unit tests ---------- *)

let test_tbv_basic_ops () =
  (* 01*, 0*1 and 1**. *)
  let a = Tbv.prefix ~width:3 ~value:0b010 ~len:2
  and b = Tbv.set (Tbv.exact ~width:3 0b001) 1 Tbv.Star
  and c = Tbv.prefix ~width:3 ~value:0b100 ~len:1 in
  Alcotest.(check bool) "not disjoint" false (Tbv.is_disjoint a b);
  Alcotest.(check bool) "intersection" true
    (Tbv.inter a b = Some (Tbv.exact ~width:3 0b011));
  Alcotest.(check bool) "disjoint" true (Tbv.is_disjoint a c);
  Alcotest.(check bool) "inter none" true (Tbv.inter a c = None)

let test_tbv_prefix_concat () =
  let trits t = List.init (Tbv.width t) (Tbv.get t) in
  let p = Tbv.prefix ~width:8 ~value:0b10110000 ~len:4 in
  Alcotest.(check bool) "prefix" true
    (trits p = Tbv.[ One; Zero; One; One; Star; Star; Star; Star ]);
  let e = Tbv.exact ~width:4 0b0110 in
  Alcotest.(check bool) "exact" true (trits e = Tbv.[ Zero; One; One; Zero ]);
  Alcotest.(check bool) "concat" true
    (trits (Tbv.concat p e) = trits p @ trits e);
  Alcotest.(check bool) "matches" true (Tbv.matches_int p 0b10111111);
  Alcotest.(check bool) "no match" false (Tbv.matches_int p 0b00111111)

let test_tbv_wide () =
  (* Cross the 32-bit word boundary. *)
  let trit i =
    if i mod 7 = 0 then Tbv.Star else if i mod 2 = 0 then One else Zero
  in
  let t =
    List.fold_left (fun t i -> Tbv.set t i (trit i)) (Tbv.all_star 104)
      (List.init 104 Fun.id)
  in
  Alcotest.(check bool) "wide roundtrip" true
    (List.init 104 (Tbv.get t) = List.init 104 trit);
  Alcotest.(check bool) "self inter" true (Tbv.inter t t = Some t);
  Alcotest.(check bool) "all-star inter" true
    (Tbv.inter (Tbv.all_star 104) t = Some t)

(* ---------- Tbv properties ---------- *)

let prop_inter_commutative =
  QCheck.Test.make ~name:"tbv inter commutative" ~count:500
    (QCheck.pair (tbv_arb 40) (tbv_arb 40))
    (fun (a, b) ->
      match (Tbv.inter a b, Tbv.inter b a) with
      | None, None -> true
      | Some x, Some y -> x = y
      | _ -> false)

let prop_inter_subsumed =
  QCheck.Test.make ~name:"tbv inter subsumed by both" ~count:500
    (QCheck.pair (tbv_arb 40) (tbv_arb 40))
    (fun (a, b) ->
      match Tbv.inter a b with
      | None -> true
      | Some i -> Tbv.inter a i = Some i && Tbv.inter b i = Some i)

let prop_member_matches =
  QCheck.Test.make ~name:"tbv random member matches" ~count:500 (tbv_arb 40)
    (fun t ->
      let g = Prng.create (Hashtbl.hash t) in
      Tbv.matches_int t (Tbv.random_member g t))

let prop_disjoint_no_common_member =
  QCheck.Test.make ~name:"tbv disjoint semantics" ~count:500
    (QCheck.pair (tbv_arb 16) (tbv_arb 16))
    (fun (a, b) ->
      if Tbv.is_disjoint a b then begin
        (* No 16-bit value matches both: exhaustive. *)
        let ok = ref true in
        for v = 0 to 65535 do
          if Tbv.matches_int a v && Tbv.matches_int b v then ok := false
        done;
        !ok
      end
      else
        match Tbv.inter a b with
        | None -> false
        | Some i ->
          let g = Prng.create 3 in
          let v = Tbv.random_member g i in
          Tbv.matches_int a v && Tbv.matches_int b v)

(* ---------- Prefix ---------- *)

let test_prefix_parse () =
  let p = Prefix.of_string "10.1.2.0/24" in
  Alcotest.(check string) "roundtrip" "10.1.2.0/24" (Prefix.to_string p);
  Alcotest.(check bool) "member" true
    (in_prefix p (Prefix.addr (Prefix.of_string "10.1.2.77")));
  Alcotest.(check bool) "non member" false
    (in_prefix p (Prefix.addr (Prefix.of_string "10.1.3.0")));
  Alcotest.check Alcotest.(testable (Fmt.of_to_string Prefix.to_string) Prefix.equal)
    "low bits cleared" (Prefix.of_string "10.1.2.0/24")
    (Prefix.make (Prefix.addr (Prefix.of_string "10.1.2.200")) 24)

let prop_prefix_laminar =
  QCheck.Test.make ~name:"prefixes are laminar" ~count:1000
    (QCheck.pair prefix_arb prefix_arb)
    (fun (p, q) ->
      match Prefix.inter p q with
      | Some i -> Prefix.equal i p || Prefix.equal i q
      | None ->
        not (Field.overlaps (Field.make ~src:p ()) (Field.make ~src:q ())))

let prop_prefix_tbv_agree =
  QCheck.Test.make ~name:"prefix tbv agrees with member" ~count:300
    (QCheck.pair prefix_arb QCheck.int)
    (fun (p, seed) ->
      let g = Prng.create seed in
      let addr = Prng.int g 0x100000000 in
      (* Compare via two 16-bit halves because matches_int caps at 62. *)
      let t = Prefix.to_tbv p in
      let matches =
        let ok = ref true in
        for i = 0 to 31 do
          match Tbv.get t i with
          | Tbv.Star -> ()
          | Tbv.Zero -> if (addr lsr (31 - i)) land 1 <> 0 then ok := false
          | Tbv.One -> if (addr lsr (31 - i)) land 1 <> 1 then ok := false
        done;
        !ok
      in
      matches = in_prefix p addr)

let prop_subprefix_contained =
  QCheck.Test.make ~name:"random subprefix contained" ~count:300
    (QCheck.pair prefix_arb QCheck.small_int)
    (fun (p, seed) ->
      let g = Prng.create seed in
      let len = Prefix.len p + Prng.int g (33 - Prefix.len p) in
      Field.subsumes (Field.make ~src:p ())
        (Field.make ~src:(Prefix.random_subprefix g p ~len) ()))

(* ---------- Range ---------- *)

let test_range_prefixes_exact () =
  List.iter
    (fun (lo, hi) ->
      let r = Range.make lo hi in
      let blocks = Range.to_prefixes r in
      (* Exactness: membership in the range equals membership in exactly
         one block. *)
      for v = max 0 (lo - 2) to min Range.max_value (hi + 2) do
        let in_blocks =
          List.length
            (List.filter
               (fun (base, len) ->
                 let size = 1 lsl (Range.bits - len) in
                 v >= base && v < base + size)
               blocks)
        in
        Alcotest.(check int)
          (Printf.sprintf "[%d,%d] v=%d" lo hi v)
          (if in_range r v then 1 else 0)
          in_blocks
      done)
    [ (0, 65535); (80, 80); (1024, 65535); (5, 27); (0, 7); (1, 6); (1000, 1999) ]

let prop_range_prefix_count =
  QCheck.Test.make ~name:"range prefix cover bounded by 2w-2" ~count:500
    range_arb
    (fun r -> List.length (Range.to_prefixes r) <= (2 * Range.bits) - 2)

let prop_range_inter =
  QCheck.Test.make ~name:"range intersection semantics" ~count:500
    (QCheck.triple range_arb range_arb QCheck.small_int)
    (fun (a, b, v) ->
      let v = v mod 65536 in
      let in_inter =
        match Range.inter a b with Some i -> in_range i v | None -> false
      in
      in_inter = (in_range a v && in_range b v))

(* ---------- Field ---------- *)

let prop_field_inter_semantics =
  QCheck.Test.make ~name:"field intersection = conjunction" ~count:400
    (QCheck.triple field_arb field_arb QCheck.int)
    (fun (a, b, seed) ->
      let g = Prng.create seed in
      let p = Packet.random g in
      let in_inter =
        match Field.inter a b with Some i -> Field.matches i p | None -> false
      in
      in_inter = (Field.matches a p && Field.matches b p))

let prop_field_random_packet_matches =
  QCheck.Test.make ~name:"field random packet matches" ~count:400
    (QCheck.pair field_arb QCheck.int)
    (fun (f, seed) ->
      let g = Prng.create seed in
      Field.matches f (Field.random_packet g f))

let prop_field_subsumes =
  QCheck.Test.make ~name:"field subsumption semantics" ~count:400
    (QCheck.triple field_arb field_arb QCheck.int)
    (fun (a, b, seed) ->
      QCheck.assume (Field.subsumes a b);
      let g = Prng.create seed in
      Field.matches a (Field.random_packet g b))

(* [Field]'s predicates compare the components in place; the reference
   tests each component as a set on its own, as [Prefix], [Range] and
   [Proto] once did. *)
module Componentwise = struct
  let mask len = if len = 0 then 0 else -1 lsl (32 - len) land 0xFFFFFFFF

  let prefix_member (p : Prefix.t) a = a land mask p.len = p.addr

  let prefix_subsumes (p : Prefix.t) (q : Prefix.t) =
    p.len <= q.len && q.addr land mask p.len = p.addr

  let prefix_overlaps p q = prefix_subsumes p q || prefix_subsumes q p

  let range_member (r : Range.t) v = r.lo <= v && v <= r.hi

  let range_overlaps (a : Range.t) (b : Range.t) = a.lo <= b.hi && b.lo <= a.hi

  let range_subsumes (a : Range.t) (b : Range.t) = a.lo <= b.lo && b.hi <= a.hi

  let proto_member t v = match t with Proto.Any -> true | Proto.Eq x -> x = v

  let proto_overlaps a b =
    match (a, b) with
    | Proto.Any, _ | _, Proto.Any -> true
    | Proto.Eq x, Proto.Eq y -> x = y

  let proto_subsumes a b =
    match (a, b) with
    | Proto.Any, _ -> true
    | Proto.Eq _, Proto.Any -> false
    | Proto.Eq x, Proto.Eq y -> x = y

  let matches (t : Field.t) (p : Packet.t) =
    prefix_member t.src p.src && prefix_member t.dst p.dst
    && range_member t.sport p.sport && range_member t.dport p.dport
    && proto_member t.proto p.proto

  let overlaps (a : Field.t) (b : Field.t) =
    prefix_overlaps a.src b.src && prefix_overlaps a.dst b.dst
    && range_overlaps a.sport b.sport && range_overlaps a.dport b.dport
    && proto_overlaps a.proto b.proto

  let subsumes (a : Field.t) (b : Field.t) =
    prefix_subsumes a.src b.src && prefix_subsumes a.dst b.dst
    && range_subsumes a.sport b.sport && range_subsumes a.dport b.dport
    && proto_subsumes a.proto b.proto
end

(* Two fields whose components often coincide, nest or touch, and
   packets around them.  Prefixes are /0, /32 or in between, over a few
   addresses; ranges are full, a point or an interval over a few
   bounds; protocols are [Any] or one of two numbers.  A component of
   the second field is the first's, one nested in it, or drawn afresh.
   The packets are one inside each field, one on the fields' corners and
   one uniform. *)
let field_pair_gen =
  QCheck.Gen.map
    (fun seed ->
      let g = Prng.create seed in
      let pick l = List.nth l (Prng.int g (List.length l)) in
      let addr () =
        match Prng.int g 3 with
        | 0 -> pick [ 0; 0x0A000000; 0x0A010200; 0x0A0102FF; 0xFFFFFFFF ]
        | 1 -> 0x0A000000 lor Prng.int g 0x20000
        | _ -> Prng.int g 0x100000000
      in
      let prefix () =
        Prefix.make (addr ()) (pick [ 0; 32; 32; 8; 16; 24; Prng.int g 33 ])
      in
      let port () = pick [ 0; 1; 80; 443; 1024; 65535; Prng.int g 65536 ] in
      let range () =
        match Prng.int g 3 with
        | 0 -> Range.full
        | 1 -> Range.point (port ())
        | _ ->
          let a = port () and b = port () in
          Range.make (min a b) (max a b)
      in
      let proto () = pick [ Proto.Any; Proto.tcp; Proto.udp ] in
      let a =
        Field.make ~src:(prefix ()) ~dst:(prefix ()) ~sport:(range ())
          ~dport:(range ()) ~proto:(proto ()) ()
      in
      let like same nested fresh =
        match Prng.int g 3 with 0 -> same | 1 -> nested () | _ -> fresh ()
      in
      let sub_prefix (p : Prefix.t) () =
        Prefix.random_subprefix g p ~len:(Prng.int_in g p.len 32)
      in
      let sub_range (r : Range.t) () =
        let x = Prng.int_in g r.lo r.hi and y = Prng.int_in g r.lo r.hi in
        Range.make (min x y) (max x y)
      in
      let b =
        Field.make
          ~src:(like a.src (sub_prefix a.src) prefix)
          ~dst:(like a.dst (sub_prefix a.dst) prefix)
          ~sport:(like a.sport (sub_range a.sport) range)
          ~dport:(like a.dport (sub_range a.dport) range)
          ~proto:(like a.proto (fun () -> a.proto) proto)
          ()
      in
      let corner () =
        let f = if Prng.bool g then a else b in
        let end_of (r : Range.t) = if Prng.bool g then r.lo else r.hi in
        Packet.make
          ~src:(if Prng.bool g then f.src.addr else Prng.int g 0x100000000)
          ~dst:f.dst.addr ~sport:(end_of f.sport) ~dport:(end_of f.dport)
          ~proto:(match f.proto with Proto.Eq x -> x | Proto.Any -> 6)
      in
      ( a,
        b,
        [
          Field.random_packet g a;
          Field.random_packet g b;
          corner ();
          Packet.random g;
        ] ))
    QCheck.Gen.int

let prop_field_componentwise =
  QCheck.Test.make ~name:"field tests agree with their componentwise definition"
    ~count:3000
    (QCheck.make
       ~print:(fun (a, b, _) -> Format.asprintf "%a | %a" Field.pp a Field.pp b)
       field_pair_gen)
    (fun (a, b, packets) ->
      Field.overlaps a b = Componentwise.overlaps a b
      && Field.overlaps b a = Componentwise.overlaps b a
      && Field.subsumes a b = Componentwise.subsumes a b
      && Field.subsumes b a = Componentwise.subsumes b a
      && Field.subsumes a a
      && List.for_all
           (fun p ->
             Field.matches a p = Componentwise.matches a p
             && Field.matches b p = Componentwise.matches b p)
           packets)

let test_field_tcam_expansion () =
  (* A port range that is not a prefix costs several TCAM entries. *)
  let f = Field.make ~dport:(Range.make 1 6) () in
  Alcotest.(check int) "range 1-6 costs 4 prefixes" 4 (Field.tcam_entries f);
  Alcotest.(check int) "expansion length matches"
    (Field.tcam_entries f)
    (List.length (Field.to_tbvs f));
  List.iter
    (fun t -> Alcotest.(check int) "width" Field.width (Tbv.width t))
    (Field.to_tbvs f)

let suite =
  [
    Alcotest.test_case "tbv basic ops" `Quick test_tbv_basic_ops;
    Alcotest.test_case "tbv prefix/concat" `Quick test_tbv_prefix_concat;
    Alcotest.test_case "tbv wide vectors" `Quick test_tbv_wide;
    qtest prop_inter_commutative;
    qtest prop_inter_subsumed;
    qtest prop_member_matches;
    qtest prop_disjoint_no_common_member;
    Alcotest.test_case "prefix parse" `Quick test_prefix_parse;
    qtest prop_prefix_laminar;
    qtest prop_prefix_tbv_agree;
    qtest prop_subprefix_contained;
    Alcotest.test_case "range prefix exactness" `Quick test_range_prefixes_exact;
    qtest prop_range_prefix_count;
    qtest prop_range_inter;
    qtest prop_field_inter_semantics;
    qtest prop_field_random_packet_matches;
    qtest prop_field_subsumes;
    qtest prop_field_componentwise;
    Alcotest.test_case "field tcam expansion" `Quick test_field_tcam_expansion;
  ]
