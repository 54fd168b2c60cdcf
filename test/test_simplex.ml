open Simplex

let check_opt ~expect_obj ?(tol = 1e-5) status =
  match status with
  | Optimal { objective; solution } ->
    Alcotest.(check (float tol)) "objective" expect_obj objective;
    solution
  | _ -> Alcotest.fail "expected optimal, got another status"

let problem ?(upper = fun _ -> infinity) ~n ~minimize ~rows () =
  { num_vars = n; minimize; rows; upper = Array.init n upper }

(* max x + y  s.t. x + 2y <= 4, 3x + y <= 6  =>  min -(x+y), opt at (1.6, 1.2) *)
let test_basic_2d () =
  let p =
    problem ~n:2
      ~minimize:[ (0, -1.0); (1, -1.0) ]
      ~rows:
        [
          { coeffs = [ (0, 1.0); (1, 2.0) ]; sense = Le; rhs = 4.0 };
          { coeffs = [ (0, 3.0); (1, 1.0) ]; sense = Le; rhs = 6.0 };
        ]
      ()
  in
  let x = check_opt ~expect_obj:(-2.8) (solve p) in
  Alcotest.(check (float 1e-5)) "x" 1.6 x.(0);
  Alcotest.(check (float 1e-5)) "y" 1.2 x.(1)

(* Needs phase 1: min x + y  s.t. x + y >= 3, x <= 2. Optimum 3. *)
let test_phase1_ge () =
  let p =
    problem ~n:2
      ~minimize:[ (0, 1.0); (1, 1.0) ]
      ~rows:
        [
          { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Ge; rhs = 3.0 };
          { coeffs = [ (0, 1.0) ]; sense = Le; rhs = 2.0 };
        ]
      ()
  in
  ignore (check_opt ~expect_obj:3.0 (solve p))

let test_equality () =
  (* min 2x + 3y s.t. x + y = 10, x - y = 2  => x=6, y=4, obj=24 *)
  let p =
    problem ~n:2
      ~minimize:[ (0, 2.0); (1, 3.0) ]
      ~rows:
        [
          { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Eq; rhs = 10.0 };
          { coeffs = [ (0, 1.0); (1, -1.0) ]; sense = Eq; rhs = 2.0 };
        ]
      ()
  in
  let x = check_opt ~expect_obj:24.0 (solve p) in
  Alcotest.(check (float 1e-5)) "x" 6.0 x.(0);
  Alcotest.(check (float 1e-5)) "y" 4.0 x.(1)

let test_infeasible () =
  let p =
    problem ~n:1 ~minimize:[ (0, 1.0) ]
      ~rows:
        [
          { coeffs = [ (0, 1.0) ]; sense = Ge; rhs = 5.0 };
          { coeffs = [ (0, 1.0) ]; sense = Le; rhs = 3.0 };
        ]
      ()
  in
  match solve p with
  | Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible, got another status"

let test_unbounded () =
  let p =
    problem ~n:2
      ~minimize:[ (0, -1.0) ]
      ~rows:[ { coeffs = [ (1, 1.0) ]; sense = Le; rhs = 1.0 } ]
      ()
  in
  match solve p with
  | Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded, got another status"

let test_upper_bounds () =
  (* max x + y with x,y <= 1 and x + y <= 1.5 => 1.5 *)
  let p =
    problem
      ~upper:(fun _ -> 1.0)
      ~n:2
      ~minimize:[ (0, -1.0); (1, -1.0) ]
      ~rows:[ { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Le; rhs = 1.5 } ]
      ()
  in
  ignore (check_opt ~expect_obj:(-1.5) (solve p))

let test_upper_bound_only () =
  (* No rows at all: max 3x with x <= 2 handled purely by bound flips. *)
  let p =
    problem ~upper:(fun _ -> 2.0) ~n:1 ~minimize:[ (0, -3.0) ] ~rows:[] ()
  in
  let x = check_opt ~expect_obj:(-6.0) (solve p) in
  Alcotest.(check (float 1e-6)) "x" 2.0 x.(0)

(* A covering LP shaped like the placement relaxation:
   min sum x, x_a + x_b >= 1 for several pairs, capacity x_a + x_c <= 1. *)
let test_cover_shape () =
  let p =
    problem
      ~upper:(fun _ -> 1.0)
      ~n:4
      ~minimize:[ (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0) ]
      ~rows:
        [
          { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Ge; rhs = 1.0 };
          { coeffs = [ (2, 1.0); (3, 1.0) ]; sense = Ge; rhs = 1.0 };
          { coeffs = [ (0, 1.0); (2, 1.0) ]; sense = Le; rhs = 1.0 };
        ]
      ()
  in
  ignore (check_opt ~expect_obj:2.0 (solve p))

(* Randomized: LPs built around a known feasible point; check the solver's
   answer is feasible and no worse than that point. *)
let test_random_lps () =
  let g = Prng.create 42 in
  for _ = 1 to 200 do
    let n = Prng.int_in g 2 6 in
    let x0 = Array.init n (fun _ -> Prng.float g 3.0) in
    let num_rows = Prng.int_in g 1 6 in
    let rows =
      List.init num_rows (fun _ ->
          let coeffs =
            List.init n (fun j -> (j, float_of_int (Prng.int_in g (-3) 3)))
          in
          let lhs =
            List.fold_left (fun acc (j, c) -> acc +. (c *. x0.(j))) 0.0 coeffs
          in
          (* Slack the row so x0 stays strictly feasible. *)
          match Prng.int g 3 with
          | 0 -> { coeffs; sense = Le; rhs = lhs +. Prng.float g 2.0 }
          | 1 -> { coeffs; sense = Ge; rhs = lhs -. Prng.float g 2.0 }
          | _ -> { coeffs; sense = Eq; rhs = lhs })
    in
    let minimize =
      List.init n (fun j -> (j, float_of_int (Prng.int_in g 0 4)))
    in
    let p = { num_vars = n; minimize; rows; upper = Array.make n 5.0 } in
    if Array.for_all (fun v -> v <= 5.0) x0 then
      match solve p with
      | Optimal { objective; solution } ->
        if not (feasible p solution) then
          Alcotest.fail "optimal solution violates constraints";
        let obj0 =
          List.fold_left (fun acc (j, c) -> acc +. (c *. x0.(j))) 0.0 minimize
        in
        if objective > obj0 +. 1e-5 then
          Alcotest.failf "objective %g worse than known point %g" objective
            obj0
      | Infeasible -> Alcotest.fail "claimed infeasible with known point"
      | Unbounded -> () (* possible: all-zero costs aside, coefficients vary *)
      | Iteration_limit -> Alcotest.fail "iteration limit on tiny LP"
  done

let suite =
  [
    Alcotest.test_case "basic 2d" `Quick test_basic_2d;
    Alcotest.test_case "phase1 ge" `Quick test_phase1_ge;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
    Alcotest.test_case "bounds only" `Quick test_upper_bound_only;
    Alcotest.test_case "cover shape" `Quick test_cover_shape;
    Alcotest.test_case "random lps vs known point" `Quick test_random_lps;
  ]
