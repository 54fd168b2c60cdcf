(* Stress and pathological cases for the optimization substrates. *)

let float_tol = 1e-5

(* Beale's classic cycling example: without anti-cycling safeguards, the
   textbook simplex loops forever here. *)
let test_beale_cycling () =
  let p =
    {
      Simplex.num_vars = 4;
      minimize = [ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ];
      rows =
        [
          {
            Simplex.coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ];
            sense = Simplex.Le;
            rhs = 0.0;
          };
          {
            Simplex.coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ];
            sense = Simplex.Le;
            rhs = 0.0;
          };
          { Simplex.coeffs = [ (2, 1.0) ]; sense = Simplex.Le; rhs = 1.0 };
        ];
      upper = Array.make 4 infinity;
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float float_tol)) "beale optimum" (-0.05) objective
  | _ -> Alcotest.fail "beale: another status"

(* Highly degenerate transportation-style LP with a known optimum. *)
let test_assignment_lp () =
  (* 3x3 assignment relaxation: min cost matrix, doubly stochastic. *)
  let cost = [| [| 4.0; 1.0; 3.0 |]; [| 2.0; 0.0; 5.0 |]; [| 3.0; 2.0; 2.0 |] |] in
  let var i j = (3 * i) + j in
  let minimize =
    List.concat
      (List.init 3 (fun i -> List.init 3 (fun j -> (var i j, cost.(i).(j)))))
  in
  let rows =
    List.init 3 (fun i ->
        {
          Simplex.coeffs = List.init 3 (fun j -> (var i j, 1.0));
          sense = Simplex.Eq;
          rhs = 1.0;
        })
    @ List.init 3 (fun j ->
          {
            Simplex.coeffs = List.init 3 (fun i -> (var i j, 1.0));
            sense = Simplex.Eq;
            rhs = 1.0;
          })
  in
  let p = { Simplex.num_vars = 9; minimize; rows; upper = Array.make 9 1.0 } in
  match Simplex.solve p with
  | Simplex.Optimal { objective; _ } ->
    (* Optimal assignment: (0,1)=1? no — each row/col once: best is
       0->1 (1), 1->0 (2), 2->2 (2) = 5. *)
    Alcotest.(check (float float_tol)) "assignment optimum" 5.0 objective
  | _ -> Alcotest.fail "assignment: another status"

(* A larger structured ILP: bipartite covering with capacities, optimum
   known by construction. *)
let test_ilp_structured () =
  let m = Ilp.Model.create () in
  (* 12 items, 6 bins; item i can go to bins (i mod 6) and ((i+1) mod 6);
     each bin holds at most 2 items shared with others; minimize total
     placements (= 12 exactly, one per item). *)
  let nitems = 12 and nbins = 6 in
  let v = Array.init nitems (fun _ -> Array.init 2 (fun _ -> Ilp.Model.binary m)) in
  let bin_vars = Array.make nbins [] in
  for i = 0 to nitems - 1 do
    let b0 = i mod nbins and b1 = (i + 1) mod nbins in
    Ilp.Model.add_ge m [ (1.0, v.(i).(0)); (1.0, v.(i).(1)) ] 1.0;
    bin_vars.(b0) <- (1.0, v.(i).(0)) :: bin_vars.(b0);
    bin_vars.(b1) <- (1.0, v.(i).(1)) :: bin_vars.(b1)
  done;
  for b = 0 to nbins - 1 do
    Ilp.Model.add_le m bin_vars.(b) 2.0
  done;
  let obj = ref [] in
  Array.iter (Array.iter (fun x -> obj := (1.0, x) :: !obj)) v;
  Ilp.Model.set_objective m !obj;
  match fst (Ilp.Solver.solve m) with
  | Ilp.Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "12 items" 12.0 s.Ilp.Solver.objective
  | _ -> Alcotest.fail "structured ilp: another outcome"

let test_ilp_all_fixed () =
  let m = Ilp.Model.create () in
  let a = Ilp.Model.binary m and b = Ilp.Model.binary m in
  Ilp.Model.fix m a true;
  Ilp.Model.fix m b false;
  Ilp.Model.set_objective m [ (3.0, a); (5.0, b) ];
  match fst (Ilp.Solver.solve m) with
  | Ilp.Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "objective" 3.0 s.Ilp.Solver.objective;
    Alcotest.(check bool) "a" true s.Ilp.Solver.values.((a :> int));
    Alcotest.(check bool) "b" false s.Ilp.Solver.values.((b :> int))
  | _ -> Alcotest.fail "fixed: another outcome"

let test_ilp_empty_model () =
  let m = Ilp.Model.create () in
  match fst (Ilp.Solver.solve m) with
  | Ilp.Solver.Optimal s -> Alcotest.(check (float 1e-9)) "zero" 0.0 s.Ilp.Solver.objective
  | _ -> Alcotest.fail "empty: another outcome"

let test_ilp_node_limit_reports_feasible () =
  (* A model with a huge search space but an obvious feasible point; with
     a 1-node limit the solver must still return the warm start. *)
  let m = Ilp.Model.create () in
  let vars = Array.init 40 (fun _ -> Ilp.Model.binary m) in
  for i = 0 to 38 do
    Ilp.Model.add_ge m [ (1.0, vars.(i)); (1.0, vars.(i + 1)) ] 1.0
  done;
  Ilp.Model.set_objective m (Array.to_list (Array.map (fun v -> (1.0, v)) vars));
  let config =
    { Ilp.Solver.default_config with node_limit = 1; lp_root = false }
  in
  let warm = Array.make 40 true in
  match fst (Ilp.Solver.solve ~config ~warm_start:warm m) with
  | Ilp.Solver.Feasible s | Ilp.Solver.Optimal s ->
    Alcotest.(check bool) "incumbent kept" true (s.Ilp.Solver.objective <= 40.0)
  | _ -> Alcotest.fail "node limit: another outcome"

(* CDCL at a slightly larger scale: random 3-SAT near the phase
   transition must terminate and return consistent answers across two
   solver runs. *)
let test_cdcl_phase_transition () =
  let g = Prng.create 99 in
  for _ = 1 to 10 do
    let n = 40 in
    let num_clauses = int_of_float (4.26 *. float_of_int n) in
    let clause () =
      List.init 3 (fun _ ->
          let v = Prng.int_in g 1 n in
          if Prng.bool g then v else -v)
    in
    let clauses = List.init num_clauses (fun _ -> clause ()) in
    let build () =
      let s = Cdcl.create () in
      for _ = 1 to n do
        ignore (Cdcl.new_var s)
      done;
      List.iter (Cdcl.add_clause s) clauses;
      s
    in
    let r1 = Cdcl.solve (build ()) in
    let r2 = Cdcl.solve (build ()) in
    let tag = function Cdcl.Sat _ -> "sat" | Cdcl.Unsat -> "unsat" | Cdcl.Unknown -> "?" in
    Alcotest.(check string) "deterministic" (tag r1) (tag r2);
    match r1 with
    | Cdcl.Sat model ->
      let eval l = if l > 0 then model.(l - 1) else not model.(-l - 1) in
      Alcotest.(check bool) "model satisfies" true
        (List.for_all (List.exists eval) clauses)
    | Cdcl.Unsat -> ()
    | Cdcl.Unknown -> Alcotest.fail "unknown without a conflict limit"
  done

let suite =
  [
    Alcotest.test_case "beale cycling lp" `Quick test_beale_cycling;
    Alcotest.test_case "assignment lp" `Quick test_assignment_lp;
    Alcotest.test_case "structured covering ilp" `Quick test_ilp_structured;
    Alcotest.test_case "fully fixed ilp" `Quick test_ilp_all_fixed;
    Alcotest.test_case "empty ilp" `Quick test_ilp_empty_model;
    Alcotest.test_case "node limit keeps incumbent" `Quick test_ilp_node_limit_reports_feasible;
    Alcotest.test_case "cdcl 3-sat phase transition" `Quick test_cdcl_phase_transition;
  ]
