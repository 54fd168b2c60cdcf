let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_split () =
  let g = Prng.create 7 in
  ignore (Prng.int g 10);
  let s1 = Prng.split g in
  (* The split stream differs from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int g 1_000_000 <> Prng.int s1 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "split is independent" true !differs

let test_uniformity () =
  (* Coarse chi-square on 16 buckets: far from rigorous, but catches
     catastrophic generator bugs (stuck bits, tiny periods). *)
  let g = Prng.create 99 in
  let buckets = Array.make 16 0 in
  let n = 160_000 in
  for _ = 1 to n do
    let b = Prng.int g 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 16.0 in
  let chi2 =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  (* 15 degrees of freedom: chi2 < 50 is far beyond the 0.9999 quantile. *)
  Alcotest.(check bool) (Printf.sprintf "chi2 %.1f sane" chi2) true (chi2 < 50.0)

let test_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 2000 do
    let v = Prng.int_in g (-5) 7 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 7);
    let f = Prng.float g 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Prng.int_in: empty interval") (fun () ->
      ignore (Prng.int_in g 3 2));
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_shuffle_permutes () =
  let g = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Prng.shuffle g b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a);
  Alcotest.(check bool) "actually moved" true (a <> b)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
  ]
