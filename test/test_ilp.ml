open Ilp

let outcome = Alcotest.testable Fmt.nop (fun a b ->
    match (a, b) with
    | Solver.Optimal x, Solver.Optimal y ->
      Float.abs (x.objective -. y.objective) < 1e-6
    | Solver.Infeasible, Solver.Infeasible -> true
    | _ -> false)

let solve m = fst (Solver.solve m)

(* Cover two paths with shared middle switch; capacity forbids the cheap
   shared solution. *)
let test_small_cover () =
  let m = Model.create () in
  let a = Model.binary m in
  let b = Model.binary m in
  let c = Model.binary m in
  Model.add_ge m [ (1.0, a); (1.0, b) ] 1.0;
  Model.add_ge m [ (1.0, b); (1.0, c) ] 1.0;
  Model.set_objective m [ (1.0, a); (1.0, b); (1.0, c) ];
  (match solve m with
  | Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "shared var optimal" 1.0 s.objective;
    Alcotest.(check bool) "uses b" true s.values.((b :> int))
  | _ -> Alcotest.fail "unexpected outcome");
  (* Now forbid b: optimum becomes 2. *)
  Model.fix m b false;
  match solve m with
  | Solver.Optimal s -> Alcotest.(check (float 1e-9)) "fixed" 2.0 s.objective
  | _ -> Alcotest.fail "unexpected outcome"

let test_implication_chain () =
  let m = Model.create () in
  let d = Model.binary m in
  let p1 = Model.binary m in
  let p2 = Model.binary m in
  Model.implies m d p1;
  Model.implies m d p2;
  Model.add_ge m [ (1.0, d) ] 1.0;
  Model.set_objective m [ (1.0, d); (1.0, p1); (1.0, p2) ];
  match solve m with
  | Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "drop drags permits" 3.0 s.objective
  | _ -> Alcotest.fail "unexpected outcome"

let test_capacity_infeasible () =
  let m = Model.create () in
  let a = Model.binary m in
  let b = Model.binary m in
  Model.add_ge m [ (1.0, a) ] 1.0;
  Model.add_ge m [ (1.0, b) ] 1.0;
  Model.add_le m [ (1.0, a); (1.0, b) ] 1.0;
  Alcotest.check outcome "infeasible" Solver.Infeasible (solve m)

let test_negative_objective_merge_shape () =
  (* Merge-style auxiliary: vm = a AND b, objective a + b - vm. *)
  let m = Model.create () in
  let a = Model.binary m in
  let b = Model.binary m in
  let vm = Model.binary m in
  Model.add_ge m [ (1.0, a) ] 1.0;
  Model.add_ge m [ (1.0, b) ] 1.0;
  (* vm >= a + b - 1 ; vm <= (a + b)/2 *)
  Model.add_ge m [ (1.0, vm); (-1.0, a); (-1.0, b) ] (-1.0);
  Model.add_le m [ (1.0, vm); (-0.5, a); (-0.5, b) ] 0.0;
  Model.set_objective m [ (1.0, a); (1.0, b); (-1.0, vm) ];
  match solve m with
  | Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "merged cost" 1.0 s.objective;
    Alcotest.(check bool) "vm set" true s.values.((vm :> int))
  | _ -> Alcotest.fail "unexpected outcome"

let test_warm_start_respected () =
  let m = Model.create () in
  let vs = Array.init 6 (fun _ -> Model.binary m) in
  Array.iter (fun v -> Model.add_ge m [ (1.0, v) ] 0.0) vs;
  Model.add_ge m [ (1.0, vs.(0)); (1.0, vs.(1)) ] 1.0;
  Model.set_objective m (Array.to_list (Array.map (fun v -> (1.0, v)) vs));
  let warm = Array.make 6 true in
  let outcome', _ = Solver.solve ~warm_start:warm m in
  match outcome' with
  | Solver.Optimal s -> Alcotest.(check (float 1e-9)) "opt" 1.0 s.objective
  | _ -> Alcotest.fail "unexpected outcome"

(* Random models: branch & bound must agree with brute force. *)
let random_model g =
  let n = Prng.int_in g 3 10 in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.binary m) in
  let num_rows = Prng.int_in g 1 8 in
  for _ = 1 to num_rows do
    let arity = Prng.int_in g 1 (min n 4) in
    let chosen = Array.copy vars in
    Prng.shuffle g chosen;
    let terms =
      Array.to_list
        (Array.map
           (fun v -> (float_of_int (Prng.int_in g (-2) 3), v))
           (Array.sub chosen 0 arity))
    in
    let rhs = float_of_int (Prng.int_in g (-2) 4) in
    match Prng.int g 3 with
    | 0 -> Model.add_le m terms rhs
    | 1 -> Model.add_ge m terms rhs
    | _ -> Model.add_eq m terms rhs
  done;
  (* Sometimes add cover rows to look like placement instances. *)
  for _ = 1 to Prng.int g 3 do
    let arity = Prng.int_in g 1 (min n 4) in
    let chosen = Array.copy vars in
    Prng.shuffle g chosen;
    Model.add_ge m
      (Array.to_list (Array.map (fun v -> (1.0, v)) (Array.sub chosen 0 arity)))
      1.0
  done;
  Model.set_objective m
    (Array.to_list
       (Array.map (fun v -> (float_of_int (Prng.int_in g (-2) 5), v)) vars));
  m

(* Each model is solved as configured by default, then without the
   root LP, so propagation over the search's own matrix meets [Brute]
   with no LP bound either. *)
let test_vs_brute () =
  let g = Prng.create 2024 in
  let configs =
    [
      ("default", Solver.default_config);
      ("no root LP", { Solver.default_config with Solver.lp_root = false });
    ]
  in
  for i = 1 to 300 do
    let m = random_model g in
    let expected = Brute.solve m in
    List.iter
      (fun (name, config) ->
        let got = fst (Solver.solve ~config m) in
        (match (expected, got) with
        | Solver.Optimal _, Solver.Optimal s ->
          if not (Solver.check_feasible m s.values) then
            Alcotest.failf "case %d (%s): optimal not feasible" i name
        | _ -> ());
        Alcotest.check outcome
          (Printf.sprintf "case %d (%s)" i name)
          expected got)
      configs
  done

(* A model with no variables is decided by its constant rows, with no
   node and no LP. *)
let test_no_variables () =
  let decide rows =
    let m = Model.create () in
    List.iter
      (fun (sense, rhs) ->
        Model.add_row m { Simplex.Csc.idx = [||]; coef = [||] } sense rhs)
      rows;
    let o, stats = Solver.solve m in
    Alcotest.(check int) "no nodes" 0 stats.Solver.nodes;
    Alcotest.(check int) "no LP" 0 stats.Solver.lp_calls;
    o
  in
  (match decide [ (Model.Le, 0.0); (Model.Ge, -1.0); (Model.Eq, 0.0) ] with
  | Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "zero objective" 0.0 s.Solver.objective;
    Alcotest.(check int) "empty point" 0 (Array.length s.Solver.values)
  | _ -> Alcotest.fail "constant rows hold: another outcome");
  Alcotest.check outcome "a violated constant row" Solver.Infeasible
    (decide [ (Model.Le, 1.0); (Model.Ge, 1.0) ])

let test_stats_sane () =
  let m = Model.create () in
  let a = Model.binary m in
  Model.add_ge m [ (1.0, a) ] 1.0;
  Model.set_objective m [ (1.0, a) ];
  let _, stats = Solver.solve m in
  Alcotest.(check bool) "nonneg nodes" true (stats.Solver.nodes >= 0);
  Alcotest.(check bool) "elapsed nonneg" true (stats.Solver.elapsed >= 0.0)

let suite =
  [
    Alcotest.test_case "small cover" `Quick test_small_cover;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "capacity infeasible" `Quick test_capacity_infeasible;
    Alcotest.test_case "merge-shaped aux var" `Quick test_negative_objective_merge_shape;
    Alcotest.test_case "warm start" `Quick test_warm_start_respected;
    Alcotest.test_case "agrees with brute force" `Quick test_vs_brute;
    Alcotest.test_case "no variables" `Quick test_no_variables;
    Alcotest.test_case "stats sane" `Quick test_stats_sane;
  ]

let test_lp_export () =
  let m = Model.create () in
  let a = Model.binary m and b = Model.binary m in
  Model.add_ge m [ (1.0, a); (1.0, b) ] 1.0;
  Model.add_le m [ (1.0, a); (-2.5, b) ] 0.5;
  Model.set_objective m [ (1.0, a); (3.0, b) ];
  let lp = Model.to_lp_string m in
  List.iter
    (fun needle ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ needle) true (contains lp needle))
    [ "Minimize"; "Subject To"; "Binary"; "End"; "1 x0 + 1 x1 >= 1"; "1 x0 - 2.5 x1 <= 0.5" ]

(* The row contract: [Model.add_*] packs its terms once — sorted by
   variable, a repeated variable's coefficients summed, zeros dropped —
   and rejects a variable the model does not own. *)
let row_terms (_, terms, _) = terms

let test_rows_sum_repeats () =
  let m = Model.create () in
  let a = Model.binary m and b = Model.binary m in
  Model.add_le m [ (2.0, b); (1.0, a); (0.5, b); (3.0, a) ] 4.0;
  Alcotest.(check (list (pair int (float 0.0))))
    "sorted, repeats summed"
    [ (0, 4.0); (1, 2.5) ]
    (row_terms (Util.model_rows m).(0))

let test_rows_drop_cancelled () =
  let m = Model.create () in
  let a = Model.binary m and b = Model.binary m and c = Model.binary m in
  Model.add_le m [ (1.0, c); (1.0, a); (-1.0, c); (0.0, b) ] 1.0;
  Model.implies m b b;
  let rows = Util.model_rows m in
  Alcotest.(check (list (pair int (float 0.0))))
    "cancelled and zero terms dropped" [ (0, 1.0) ] (row_terms rows.(0));
  Alcotest.(check (list (pair int (float 0.0))))
    "self-implication is empty" [] (row_terms rows.(1));
  Model.set_objective m [ (1.0, a); (-1.0, a); (2.0, c) ];
  Alcotest.(check (array int))
    "objective packed" [| 2 |] (Model.objective m).Simplex.Csc.idx

let test_rows_reject_foreign_vars () =
  let m = Model.create () in
  let a = Model.binary m in
  let other = Model.create () in
  ignore (Model.binary other);
  let foreign = Model.binary other in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: accepted an out-of-range variable" name
    | exception Invalid_argument _ -> ()
  in
  raises "add_le" (fun () -> Model.add_le m [ (1.0, a); (1.0, foreign) ] 1.0);
  raises "set_objective" (fun () -> Model.set_objective m [ (1.0, foreign) ]);
  raises "add_row" (fun () ->
      Model.add_row m { Simplex.Csc.idx = [| -1 |]; coef = [| 1.0 |] } Model.Le 1.0);
  Alcotest.(check int) "no row added" 0 (Array.length (Util.model_rows m))

let suite =
  suite
  @ [
      Alcotest.test_case "lp export" `Quick test_lp_export;
      Alcotest.test_case "rows sum repeated variables" `Quick test_rows_sum_repeats;
      Alcotest.test_case "rows drop cancelled terms" `Quick test_rows_drop_cancelled;
      Alcotest.test_case "rows reject out-of-range variables" `Quick
        test_rows_reject_foreign_vars;
    ]
