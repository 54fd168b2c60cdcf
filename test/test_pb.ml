(* At least [k] of [n] literals is at most [n - k] of their negations. *)
let neg = List.map (fun l -> -l)

let count_true model vars =
  List.fold_left (fun n v -> if model.(v - 1) then n + 1 else n) 0 vars

let with_encoding enc k_min k_max =
  (* at-most bounds from both sides under both encodings. *)
  let t = Pb.create ~encoding:enc () in
  let vars = List.init 8 (fun _ -> Pb.fresh t) in
  Pb.at_most t vars k_max;
  Pb.at_most t (neg vars) (8 - k_min);
  match Pb.solve t with
  | Cdcl.Sat model ->
    let n = count_true model vars in
    Alcotest.(check bool) "within bounds" true (n >= k_min && n <= k_max)
  | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r

let test_bounds_native () = with_encoding `Native 3 5

let test_bounds_sequential () =
  with_encoding `Sequential 3 5;
  let t = Pb.create ~encoding:`Sequential () in
  let vars = List.init 5 (fun _ -> Pb.fresh t) in
  Pb.at_most t vars 2;
  (* The counter's registers take the variables after the problem's. *)
  Alcotest.(check bool) "aux vars introduced" true
    (Pb.fresh t > List.length vars + 1);
  Pb.at_most t (neg vars) 2;
  match Pb.solve t with
  | Cdcl.Unsat -> ()
  | r -> Alcotest.failf "expected unsat, got %a" Cdcl.pp_result r

let test_exactly () =
  List.iter
    (fun enc ->
      let t = Pb.create ~encoding:enc () in
      let vars = List.init 7 (fun _ -> Pb.fresh t) in
      Pb.at_most t vars 4;
      Pb.at_most t (neg vars) 3;
      match Pb.solve t with
      | Cdcl.Sat model -> Alcotest.(check int) "exactly 4" 4 (count_true model vars)
      | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r)
    [ `Native; `Sequential ]

let test_and_eq () =
  let t = Pb.create () in
  let a = Pb.fresh t and b = Pb.fresh t and v = Pb.fresh t in
  Pb.and_eq t v [ a; b ];
  Pb.add_clause t [ v ];
  (match Pb.solve t with
  | Cdcl.Sat m ->
    Alcotest.(check bool) "a forced" true m.(a - 1);
    Alcotest.(check bool) "b forced" true m.(b - 1)
  | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r);
  let t2 = Pb.create () in
  let a2 = Pb.fresh t2 and b2 = Pb.fresh t2 and v2 = Pb.fresh t2 in
  Pb.and_eq t2 v2 [ a2; b2 ];
  Pb.add_clause t2 [ -a2 ];
  Pb.add_clause t2 [ v2 ];
  match Pb.solve t2 with
  | Cdcl.Unsat -> ()
  | r -> Alcotest.failf "expected unsat, got %a" Cdcl.pp_result r

(* The two cardinality treatments must agree on satisfiability. *)
let test_native_vs_sequential () =
  let g = Prng.create 99 in
  for _ = 1 to 100 do
    let n = Prng.int_in g 3 9 in
    let rows =
      List.init (Prng.int_in g 1 4) (fun _ ->
          let len = Prng.int_in g 2 n in
          let vars = Array.init n (fun i -> i + 1) in
          Prng.shuffle g vars;
          let lits =
            Array.to_list
              (Array.map
                 (fun v -> if Prng.bool g then v else -v)
                 (Array.sub vars 0 len))
          in
          (lits, Prng.int_in g 0 len, Prng.bool g))
    in
    let clauses =
      List.init (Prng.int_in g 0 (2 * n)) (fun _ ->
          List.init (Prng.int_in g 1 3) (fun _ ->
              let v = Prng.int_in g 1 n in
              if Prng.bool g then v else -v))
    in
    let build enc =
      let t = Pb.create ~encoding:enc () in
      for _ = 1 to n do
        ignore (Pb.fresh t)
      done;
      List.iter (Pb.add_clause t) clauses;
      List.iter
        (fun (lits, k, is_most) ->
          if is_most then Pb.at_most t lits k
          else Pb.at_most t (neg lits) (List.length lits - k))
        rows;
      Pb.solve t
    in
    let sat = function Cdcl.Sat _ -> true | _ -> false in
    Alcotest.(check bool)
      "encodings agree" (sat (build `Native))
      (sat (build `Sequential))
  done

let suite =
  [
    Alcotest.test_case "bounds native" `Quick test_bounds_native;
    Alcotest.test_case "bounds sequential" `Quick test_bounds_sequential;
    Alcotest.test_case "exactly" `Quick test_exactly;
    Alcotest.test_case "and_eq" `Quick test_and_eq;
    Alcotest.test_case "native vs sequential" `Quick test_native_vs_sequential;
  ]
