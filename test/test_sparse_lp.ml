(* Differential suite for the sparse revised simplex ([Simplex.solve]):
   the dense tableau ([Simplex.solve_dense]) is the reference oracle, and
   the two must agree — on random bounded LPs, on classic
   degenerate/cycling instances, and on the root LP relaxations of
   placement models.  Also pinned end-to-end placement optima, and
   unit-level coverage of the LU kernel and of the persistent-instance
   API (dual reoptimize) that the warm-started branch & bound builds
   on. *)

open Simplex

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- random-LP differential ----------------------------- *)

(* LPs built from a seed the way test_simplex builds them: around a known
   feasible point so most cases are feasible, with equality rows through
   the point to force degeneracy. *)
let lp_of_seed seed =
  let g = Prng.create seed in
  let n = Prng.int_in g 2 7 in
  let x0 = Array.init n (fun _ -> Prng.float g 3.0) in
  let num_rows = Prng.int_in g 1 7 in
  let rows =
    List.init num_rows (fun _ ->
        let coeffs =
          List.init n (fun j -> (j, float_of_int (Prng.int_in g (-3) 3)))
        in
        let lhs =
          List.fold_left (fun acc (j, c) -> acc +. (c *. x0.(j))) 0.0 coeffs
        in
        match Prng.int g 4 with
        | 0 -> { coeffs; sense = Le; rhs = lhs +. Prng.float g 2.0 }
        | 1 -> { coeffs; sense = Ge; rhs = lhs -. Prng.float g 2.0 }
        | 2 -> { coeffs; sense = Le; rhs = lhs } (* tight: degenerate *)
        | _ -> { coeffs; sense = Eq; rhs = lhs })
  in
  let minimize =
    List.init n (fun j -> (j, float_of_int (Prng.int_in g (-2) 4)))
  in
  let upper =
    Array.init n (fun _ -> if Prng.int g 3 = 0 then infinity else 5.0)
  in
  { num_vars = n; minimize; rows; upper }

let same_status a b =
  match (a, b) with
  | Optimal { objective = oa; _ }, Optimal { objective = ob; _ } ->
    Float.abs (oa -. ob) < 1e-5
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  (* An iteration-limited engine proves nothing either way. *)
  | Iteration_limit, _ | _, Iteration_limit -> true
  | _ -> false

let qcheck_engines_agree =
  QCheck.Test.make ~count:300 ~name:"dense and sparse engines agree"
    QCheck.small_nat (fun seed ->
      let p = lp_of_seed seed in
      let d = solve_dense p and s = solve p in
      (match s with
      | Optimal { solution; _ } ->
        if not (feasible p solution) then
          QCheck.Test.fail_report "sparse optimum violates constraints"
      | _ -> ());
      same_status d s)

(* ---------------- degenerate / cycling regressions -------------------- *)

let both_engines : (string * (problem -> status)) list =
  [ ("dense", fun p -> solve_dense p); ("sparse", fun p -> solve p) ]

(* Beale's cycling example: the textbook instance on which the naive
   most-negative-cost rule cycles forever.  Both engines must terminate
   (anti-cycling degrades to Bland's rule on a stall) at the optimum
   -0.05 = obj(1/25, 0, 1, 0). *)
let test_beale_cycling () =
  let p =
    {
      num_vars = 4;
      minimize = [ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ];
      rows =
        [
          {
            coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ];
            sense = Le;
            rhs = 0.0;
          };
          {
            coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ];
            sense = Le;
            rhs = 0.0;
          };
          { coeffs = [ (2, 1.0) ]; sense = Le; rhs = 1.0 };
        ];
      upper = Array.make 4 infinity;
    }
  in
  List.iter
    (fun (name, solve) ->
      match solve p with
      | Optimal { objective; _ } ->
        Alcotest.(check (float 1e-6)) (name ^ " objective") (-0.05) objective
      | _ ->
        Alcotest.failf "%s: expected optimal, got another status" name)
    both_engines

(* A block of identical tight covering rows: every pivot is degenerate
   (zero step) until the entering variable finally moves. *)
let test_degenerate_block () =
  let row = { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Ge; rhs = 1.0 } in
  let p =
    {
      num_vars = 2;
      minimize = [ (0, 1.0); (1, 2.0) ];
      rows = List.init 12 (fun _ -> row);
      upper = Array.make 2 1.0;
    }
  in
  List.iter
    (fun (name, solve) ->
      match solve p with
      | Optimal { objective; solution } ->
        Alcotest.(check (float 1e-6)) (name ^ " objective") 1.0 objective;
        Alcotest.(check (float 1e-6)) (name ^ " x0") 1.0 solution.(0)
      | _ ->
        Alcotest.failf "%s: expected optimal, got another status" name)
    both_engines

(* ---------------- LU kernel ------------------------------------------ *)

(* Factor the basis whose slot [k] is the sparse column [cols.(k)]
   ((row, value) pairs), then check both solve directions against the
   matrix itself; returns the factor. *)
let check_lu_roundtrip g ~label cols =
  let m = Array.length cols in
  let lu = Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k)) in
  let b = Array.init m (fun _ -> Prng.float g 2.0 -. 1.0) in
  let x = Array.make m 0.0 in
  let all = Array.init m Fun.id and out = Array.make m 0 in
  ignore (Lu.ftran lu ~b ~rows:all m ~x ~slots:out);
  (* B x = sum_k x_k * col_k must reproduce b. *)
  let bx = Array.make m 0.0 in
  Array.iteri
    (fun k col ->
      List.iter (fun (i, v) -> bx.(i) <- bx.(i) +. (v *. x.(k))) col)
    cols;
  Array.iteri
    (fun i bi ->
      if Float.abs (bx.(i) -. bi) > 1e-8 then
        Alcotest.failf "%s: ftran residual %g at row %i (m=%d)" label
          (bx.(i) -. bi) i m)
    b;
  let c = Array.init m (fun _ -> Prng.float g 2.0 -. 1.0) in
  let y = Array.make m 0.0 in
  ignore (Lu.btran lu ~c ~slots:all m ~y ~rows:out);
  (* B^T y: column k dotted with y must reproduce c_k. *)
  Array.iteri
    (fun k col ->
      let dot =
        List.fold_left (fun acc (i, v) -> acc +. (v *. y.(i))) 0.0 col
      in
      if Float.abs (dot -. c.(k)) > 1e-8 then
        Alcotest.failf "%s: btran residual %g at slot %i (m=%d)" label
          (dot -. c.(k)) k m)
    cols;
  lu

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A unit column's scale: +-1 (slacks and artificials) or another
   magnitude. *)
let unit_scale g =
  let s = if Prng.int g 2 = 0 then 1.0 else 0.5 +. Prng.float g 4.0 in
  if Prng.int g 2 = 0 then s else -.s

(* A mixed basis of order [m] in permuted rows and slots.  Logical
   column [j] sits on row [j]: the first [iso] are isolated unit blocks;
   of the rest, every third is a unit column whose row some kernel
   column also touches, and the others are column-diagonally-dominant
   kernel columns with off-diagonals on kernel rows only, so the kernel
   fills in while the isolated blocks stay untouched. *)
let mixed_basis g m =
  let iso = Prng.int g (m + 1) in
  let kernel_row () = iso + Prng.int g (m - iso) in
  let is_unit j = j < iso || (j - iso) mod 3 = 0 in
  let dense = List.filter (fun j -> not (is_unit j)) (List.init m Fun.id) in
  let logical =
    Array.init m (fun j ->
        if is_unit j then [ (j, unit_scale g) ]
        else
          (j, 4.0 +. Prng.float g 2.0)
          :: List.filter_map
               (fun _ ->
                 let i = kernel_row () in
                 if i = j then None else Some (i, Prng.float g 1.8 -. 0.9))
               (List.init (Prng.int g 4) Fun.id))
  in
  (* Tie each kernel unit column's row to a dense kernel column. *)
  (match dense with
  | [] -> ()
  | _ ->
    let dense = Array.of_list dense in
    for j = iso to m - 1 do
      if is_unit j then begin
        let d = dense.(Prng.int g (Array.length dense)) in
        logical.(d) <- logical.(d) @ [ (j, Prng.float g 1.8 -. 0.9) ]
      end
    done);
  let rperm = shuffle g (Array.init m Fun.id) in
  let slot = shuffle g (Array.init m Fun.id) in
  let cols = Array.make m [] in
  Array.iteri
    (fun j col ->
      cols.(slot.(j)) <- List.map (fun (i, v) -> (rperm.(i), v)) col)
    logical;
  cols

(* Random bases of three shapes: diagonally dominant sparse ones,
   permuted unit (all-logical) ones, and mixed ones where isolated unit
   blocks sit beside a kernel with fill. *)
let test_lu_roundtrip () =
  let g = Prng.create 7 in
  for _ = 1 to 50 do
    let m = Prng.int_in g 2 16 in
    let cols =
      Array.init m (fun k ->
          let off =
            List.filter_map
              (fun _ ->
                let i = Prng.int g m in
                if i = k then None else Some (i, Prng.float g 2.0 -. 1.0))
              (List.init (Prng.int g 4) Fun.id)
          in
          (k, 4.0 +. Prng.float g 2.0) :: off)
    in
    ignore (check_lu_roundtrip g ~label:"diagonally dominant" cols)
  done;
  for _ = 1 to 20 do
    let m = Prng.int_in g 1 300 in
    let rperm = shuffle g (Array.init m Fun.id) in
    let cols = Array.init m (fun k -> [ (rperm.(k), unit_scale g) ]) in
    let lu = check_lu_roundtrip g ~label:"permuted unit" cols in
    Alcotest.(check int) "all-unit basis stores m nonzeros" m (Lu.nnz lu)
  done;
  for _ = 1 to 40 do
    let m = Prng.int_in g 2 300 in
    ignore (check_lu_roundtrip g ~label:"mixed" (mixed_basis g m))
  done

(* Solves from a nonzero list, on random mixed bases (isolated unit
   blocks, unit columns tied to the kernel, kernel columns with fill)
   and random sparse right-hand sides: FTRAN and BTRAN given only the
   input's listed indices (one of them listed at zero) write exactly the
   vector the same solve writes given every index, and report each
   nonzero they write, once. *)
let qcheck_list_solves_exact =
  QCheck.Test.make ~count:300
    ~name:"LU list solves equal full solves bit for bit" QCheck.small_nat
    (fun seed ->
      let g = Prng.create (seed + 500) in
      let m = Prng.int_in g 2 80 in
      let cols = mixed_basis g m in
      let lu =
        Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k))
      in
      let all = Array.init m Fun.id and out = Array.make m 0 in
      let sparse () =
        let idx = shuffle g (Array.init m Fun.id) in
        let k = Prng.int_in g 1 (min m 6) in
        let v = Array.make m 0.0 in
        for p = 0 to k - 1 do
          if p > 0 || k = 1 then v.(idx.(p)) <- Prng.float g 2.0 -. 1.0
        done;
        (v, Array.sub idx 0 k)
      in
      let check name full got n =
        Array.iteri
          (fun i f ->
            if not (Float.equal f got.(i)) then
              QCheck.Test.fail_reportf
                "%s (m=%d): entry %d is %h, full solve %h" name m i got.(i) f)
          full;
        let seen = Array.make m false in
        for p = 0 to n - 1 do
          if seen.(out.(p)) then
            QCheck.Test.fail_reportf "%s: %d reported twice" name out.(p);
          seen.(out.(p)) <- true
        done;
        Array.iteri
          (fun i v ->
            if v <> 0.0 && not seen.(i) then
              QCheck.Test.fail_reportf "%s (m=%d): nonzero %d not reported"
                name m i)
          got
      in
      let b, rows = sparse () in
      let full = Array.make m Float.nan and x = Array.make m 0.0 in
      ignore (Lu.ftran lu ~b ~rows:all m ~x:full ~slots:out);
      check "ftran" full x
        (Lu.ftran lu ~b ~rows (Array.length rows) ~x ~slots:out);
      let c, slots = sparse () in
      let full = Array.make m Float.nan and y = Array.make m 0.0 in
      ignore (Lu.btran lu ~c ~slots:all m ~y:full ~rows:out);
      check "btran" full y
        (Lu.btran lu ~c ~slots (Array.length slots) ~y ~rows:out);
      true)

let test_lu_singular () =
  let singular label m cols =
    match
      Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k))
    with
    | _ -> Alcotest.failf "%s: singular basis factored" label
    | exception Lu.Singular -> ()
  in
  (* Two identical columns: rank deficient, the factorization must say so. *)
  singular "identical columns" 2
    [| [ (0, 1.0); (1, 2.0) ]; [ (0, 1.0); (1, 2.0) ] |];
  (* Two unit columns on one row, beside an isolated one. *)
  singular "unit columns share a row" 3
    [| [ (0, 1.0) ]; [ (2, 1.0) ]; [ (0, -1.0) ] |];
  (* A unit pivot below the absolute tolerance, though above the drop
     tolerance. *)
  singular "tiny unit pivot" 3 [| [ (1, 1.0) ]; [ (0, 5e-12) ]; [ (2, -1.0) ] |]

(* ---------------- persistent instance: dual reoptimize ---------------- *)

(* The covering LP min Σx, x0+x1>=1, x2+x3>=1, x0+x2<=1 over [0,1]^4;
   re-solves after bound pinning (exactly what branch & bound does to a
   child node) must match a cold solve of the pinned instance. *)
let packed terms =
  Csc.pack (Array.of_list (List.map fst terms)) (Array.of_list (List.map snd terms))

(* A persistent instance over [(terms, sense, rhs)] rows. *)
let instance ~nvars ~obj ~lower ~upper rows =
  Revised.create
    ~a:(Revised.matrix ~nvars (Array.map (fun (r, _, _) -> r) rows))
    ~senses:(Array.map (fun (_, s, _) -> s) rows)
    ~rhs:(Array.map (fun (_, _, b) -> b) rows)
    ~obj ~lower ~upper

let covering_instance () =
  instance ~nvars:4
    ~obj:(packed [ (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0) ])
    ~lower:(Array.make 4 0.0) ~upper:(Array.make 4 1.0)
    [|
      (packed [ (0, 1.0); (1, 1.0) ], Revised.Ge, 1.0);
      (packed [ (2, 1.0); (3, 1.0) ], Revised.Ge, 1.0);
      (packed [ (0, 1.0); (2, 1.0) ], Revised.Le, 1.0);
    |]

let objective_of name = function
  | Revised.Optimal { objective; _ } -> objective
  | _ -> Alcotest.failf "%s: expected optimal" name

let test_dual_reoptimize () =
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  let c_refactor =
    Telemetry.Metrics.counter "sdnplace_simplex_refactorizations_total"
  in
  let r0 = Telemetry.Metrics.counter_value c_refactor in
  let t = covering_instance () in
  Alcotest.(check bool) "no basis before solve" false (Revised.has_basis t);
  let obj0 = objective_of "cold" (Revised.optimize t) in
  Alcotest.(check (float 1e-7)) "cold objective" 2.0 obj0;
  Alcotest.(check bool) "basis after solve" true (Revised.has_basis t);
  (* Pin x0 = 0 (a branch), reoptimize dual-side: optimum stays 2. *)
  Revised.set_bounds t 0 0.0 0.0;
  Alcotest.(check (float 1e-7))
    "pinned x0=0" 2.0
    (objective_of "reopt x0=0" (Revised.reoptimize t));
  (* Also pin x1 = 0: the first covering row is violated — infeasible. *)
  Revised.set_bounds t 1 0.0 0.0;
  (match Revised.reoptimize t with
  | Revised.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible after pinning x0=x1=0");
  (* Relax both pins: back to the original optimum. *)
  Revised.set_bounds t 0 0.0 1.0;
  Revised.set_bounds t 1 0.0 1.0;
  Alcotest.(check (float 1e-7))
    "unpinned" 2.0
    (objective_of "reopt unpinned" (Revised.reoptimize t));
  let refactorizations = Telemetry.Metrics.counter_value c_refactor - r0 in
  if not was then Telemetry.Metrics.disable ();
  Alcotest.(check bool) "refactorized at least once" true
    (refactorizations >= 1)

(* A rejected objective leaves the instance as it was: the bad index
   raises before any entry is written, and the next reoptimize returns
   the original optimum.  Before the fix, the objective was already
   half-replaced (x1 alone), and the reoptimize returned 0. *)
let test_set_objective_validates () =
  let t = covering_instance () in
  Alcotest.(check (float 1e-7))
    "cold" 2.0
    (objective_of "cold" (Revised.optimize t));
  (match Revised.set_objective t (packed [ (1, 1.0); (4, 1.0) ]) with
  | () -> Alcotest.fail "an out-of-range index was accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (float 1e-7))
    "original objective kept" 2.0
    (objective_of "reopt" (Revised.reoptimize t))

(* Random pin/unpin walks: every reoptimize must match a cold solve of a
   fresh instance with the same bounds. *)
let qcheck_reoptimize_matches_cold =
  QCheck.Test.make ~count:100 ~name:"dual reoptimize = cold solve"
    QCheck.(small_nat)
    (fun seed ->
      let g = Prng.create (seed + 1000) in
      let t = covering_instance () in
      ignore (Revised.optimize t);
      let bounds = Array.make 4 (0.0, 1.0) in
      let ok = ref true in
      for _ = 1 to 6 do
        let j = Prng.int g 4 in
        let bl, bu =
          match Prng.int g 3 with
          | 0 -> (0.0, 0.0)
          | 1 -> (1.0, 1.0)
          | _ -> (0.0, 1.0)
        in
        bounds.(j) <- (bl, bu);
        Revised.set_bounds t j bl bu;
        let fresh = covering_instance () in
        Array.iteri (fun i (l, u) -> Revised.set_bounds fresh i l u) bounds;
        let warm = Revised.reoptimize t and cold = Revised.optimize fresh in
        (match (warm, cold) with
        | Revised.Optimal { objective = a; _ }, Revised.Optimal { objective = b; _ }
          ->
          if Float.abs (a -. b) > 1e-7 then ok := false
        | Revised.Infeasible, Revised.Infeasible -> ()
        | _ -> ok := false)
      done;
      !ok)

(* ---------------- placement models ---------------------------------- *)

(* Three pipeline families (fat-tree k=4 and k=6, loose and tight
   capacity) with their proven optima under the default pipeline. *)
let placement_families =
  [
    ( { Workload.default with Workload.rules = 8; paths = 16; capacity = 60 },
      34.0 );
    ( {
        Workload.default with
        Workload.rules = 14;
        paths = 24;
        capacity = 12;
        seed = 3;
      },
      59.0 );
    ( {
        Workload.default with
        Workload.k = 6;
        rules = 6;
        paths = 20;
        capacity = 30;
        seed = 5;
      },
      21.0 );
  ]

let run_pipeline family =
  let options =
    Placement.Solve.options
      ~ilp_config:{ Ilp.Solver.default_config with time_limit = 20.0 }
      ()
  in
  Placement.Solve.run ~options (Workload.build family)

(* Each family's root LP relaxation gets the same verdict and objective
   from the oracle and the production engine. *)
let test_root_lp_differential () =
  List.iter
    (fun (family, _) ->
      let report = run_pipeline family in
      let enc = Placement.Encode.to_model report.Placement.Solve.layout in
      let lp = Ilp.Model.lp_relaxation enc.Placement.Encode.model in
      match (solve_dense lp, solve lp) with
      | Optimal { objective = d; _ }, Optimal { objective = s; solution } ->
        Alcotest.(check (float 1e-6)) "root LP objective" d s;
        Alcotest.(check bool) "sparse root LP point feasible" true
          (feasible lp solution)
      | _ -> Alcotest.fail "root LP: dense or sparse not optimal")
    placement_families

(* The sparse pipeline proves each family's optimum. *)
let test_pipeline_objectives () =
  List.iter
    (fun (family, want) ->
      let r = run_pipeline family in
      match (r.Placement.Solve.status, r.Placement.Solve.solution) with
      | `Optimal, Some sol ->
        Alcotest.(check (float 1e-6)) "objective" want
          sol.Placement.Solution.objective
      | _ -> Alcotest.fail "pipeline did not prove optimality")
    placement_families

(* ---------------- the packed-row contract -------------------------- *)

let test_row_contract () =
  let r = Csc.pack [| 3; 1; 3; 0; 1 |] [| 1.0; 2.0; 0.5; 0.0; -2.0 |] in
  Alcotest.(check (array int)) "sorted, repeats summed, zeros dropped" [| 3 |] r.Csc.idx;
  Alcotest.(check (array (float 0.0))) "summed in input order" [| 1.5 |] r.Csc.coef;
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted malformed input" name
    | exception Invalid_argument _ -> ()
  in
  let bounds = (Array.make 2 0.0, Array.make 2 1.0) in
  let create ?(obj = packed []) rows =
    ignore
      (instance ~nvars:2 ~obj ~lower:(fst bounds) ~upper:(snd bounds) rows)
  in
  (* Column 2 exists in the augmented matrix (row 0's slack), so the
     range check must hold rows to the structural columns. *)
  let row0 = (packed [ (0, 1.0) ], Revised.Le, 1.0) in
  raises "row var = nvars" (fun () ->
      create [| row0; (packed [ (2, 1.0) ], Revised.Le, 1.0) |]);
  raises "negative row var" (fun () ->
      create [| (packed [ (-1, 1.0); (0, 1.0) ], Revised.Le, 1.0) |]);
  raises "objective var = nvars" (fun () -> create ~obj:(packed [ (2, 1.0) ]) [| row0 |]);
  raises "unpacked row" (fun () ->
      create [| ({ Csc.idx = [| 1; 0 |]; coef = [| 1.0; 1.0 |] }, Revised.Le, 1.0) |]);
  let csr rowptr colind rval () = Csc.of_csr ~m:1 ~n:2 rowptr colind rval in
  raises "of_csr range" (csr [| 0; 1 |] [| 2 |] [| 1.0 |]);
  raises "of_csr zero" (csr [| 0; 1 |] [| 0 |] [| 0.0 |]);
  raises "of_csr unsorted" (csr [| 0; 2 |] [| 1; 0 |] [| 1.0; 1.0 |]);
  raises "of_csr lengths" (csr [| 0; 2 |] [| 0 |] [| 1.0 |]);
  (* [create] takes only {!Revised.matrix}'s augmented shape: four
     columns over two variables and one row, but no unit blocks. *)
  let bare ~a =
    ignore
      (Revised.create ~a ~senses:[| Revised.Le |] ~rhs:[| 1.0 |]
         ~obj:(packed []) ~lower:(fst bounds) ~upper:(snd bounds))
  in
  raises "matrix without unit blocks" (fun () ->
      bare ~a:(Csc.of_csr ~m:1 ~n:4 [| 0; 1 |] [| 0 |] [| 1.0 |]));
  raises "matrix over other vars" (fun () ->
      bare ~a:(Revised.matrix ~nvars:3 [| packed [ (0, 1.0) ] |]));
  bare ~a:(Revised.matrix ~nvars:2 [| packed [ (0, 1.0) ] |]);
  (* The one-shot list API packs for its caller: x0 + x0 <= 1 is
     2 x0 <= 1. *)
  match
    Simplex.solve
      {
        num_vars = 1;
        minimize = [ (0, -1.0) ];
        rows = [ { coeffs = [ (0, 1.0); (0, 1.0) ]; sense = Le; rhs = 1.0 } ];
        upper = [| 10.0 |];
      }
  with
  | Optimal { objective; _ } -> Alcotest.(check (float 1e-9)) "merged" (-0.5) objective
  | _ -> Alcotest.fail "unexpected another status"

let suite =
  [
    Alcotest.test_case "packed-row contract" `Quick test_row_contract;
    qtest qcheck_engines_agree;
    Alcotest.test_case "Beale cycling regression" `Quick test_beale_cycling;
    Alcotest.test_case "degenerate covering block" `Quick test_degenerate_block;
    Alcotest.test_case "LU factor/ftran/btran roundtrip" `Quick
      test_lu_roundtrip;
    qtest qcheck_list_solves_exact;
    Alcotest.test_case "LU rejects singular bases" `Quick test_lu_singular;
    Alcotest.test_case "dual reoptimize after bound pinning" `Quick
      test_dual_reoptimize;
    qtest qcheck_reoptimize_matches_cold;
    Alcotest.test_case "set_objective validates before it writes" `Quick
      test_set_objective_validates;
    Alcotest.test_case "placement root LP differential" `Quick
      test_root_lp_differential;
    Alcotest.test_case "placement pipeline objectives" `Quick
      test_pipeline_objectives;
  ]
