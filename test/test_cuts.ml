(* Properties of the root-strengthening machinery added around the
   branch & bound: cutting planes (Ilp.Cuts) and the feasibility pump
   (Ilp.Fpump).  Both are validated against brute-force enumeration on
   small random models, plus a
   determinism check (equal seeds must give byte-identical search
   statistics) and a telemetry test pinning warm-start hit accounting
   on an instance that actually branches. *)

open Ilp

let outcome =
  Alcotest.testable Fmt.nop (fun a b ->
      match (a, b) with
      | Solver.Optimal x, Solver.Optimal y ->
        Float.abs (x.objective -. y.objective) < 1e-6
      | Solver.Infeasible, Solver.Infeasible -> true
      | _ -> false)

(* Placement-shaped random models: drop/permit variables with
   implication arcs, unit covering rows and capacity rows — the exact
   structure the cut separator mines. *)
let random_placement_model g =
  let nd = Prng.int_in g 2 4 in
  let np = Prng.int_in g 2 5 in
  let m = Model.create () in
  let drops = Array.init nd (fun _ -> Model.binary m) in
  let permits = Array.init np (fun _ -> Model.binary m) in
  Array.iter
    (fun d ->
      for _ = 1 to Prng.int_in g 1 2 do
        Model.implies m d (Prng.choose g permits)
      done)
    drops;
  for _ = 1 to Prng.int_in g 1 3 do
    let k = Prng.int_in g 1 nd in
    let c = Array.copy drops in
    Prng.shuffle g c;
    Model.add_ge m
      (Array.to_list (Array.map (fun v -> (1.0, v)) (Array.sub c 0 k)))
      1.0
  done;
  let all = Array.append drops permits in
  for _ = 1 to Prng.int_in g 1 2 do
    let k = Prng.int_in g 2 (Array.length all) in
    let c = Array.copy all in
    Prng.shuffle g c;
    Model.add_le m
      (Array.to_list (Array.map (fun v -> (1.0, v)) (Array.sub c 0 k)))
      (float_of_int (Prng.int_in g 1 (max 1 (k - 1))))
  done;
  Model.set_objective m
    (Array.to_list
       (Array.map (fun v -> (float_of_int (Prng.int_in g 1 3), v)) all));
  m

(* Every 0-1 point of a (small) model, as bool arrays. *)
let feasible_points m =
  let n = Model.num_vars m in
  let out = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let sol = Array.init n (fun j -> mask land (1 lsl j) <> 0) in
    if Solver.check_feasible m sol then out := sol :: !out
  done;
  !out

(* Cuts must never exclude an integer-feasible point, whatever
   fractional point they were separated at. *)
let test_cuts_valid () =
  let g = Prng.create 4242 in
  let separated = ref 0 in
  for case = 1 to 200 do
    let m = random_placement_model g in
    let feas = feasible_points m in
    let ctx = Cuts.prepare m in
    let n = Model.num_vars m in
    for _ = 1 to 3 do
      let x = Array.init n (fun _ -> Prng.float g 1.0) in
      let cuts = Cuts.separate ctx x in
      separated := !separated + List.length cuts;
      List.iter
        (fun c ->
          List.iter
            (fun sol ->
              if not (Cuts.check c sol) then
                Alcotest.failf
                  "case %d: cut (sense %s, rhs %g) excludes a feasible point"
                  case
                  (match c.Cuts.sense with
                  | Model.Le -> "<="
                  | Model.Ge -> ">="
                  | Model.Eq -> "=")
                  c.Cuts.rhs)
            feas)
        cuts
    done
  done;
  (* The property is vacuous if separation never fires. *)
  Alcotest.(check bool)
    (Printf.sprintf "separation produced cuts (%d)" !separated)
    true (!separated > 0)

let lp_of_model m =
  let n = Model.num_vars m in
  let a = Model.matrix m in
  Simplex.Revised.create ~a
    ~senses:(Array.make a.m Simplex.Revised.Le)
    ~rhs:(Model.rhs m) ~obj:(Model.objective m) ~lower:(Array.make n 0.0)
    ~upper:(Array.make n 1.0)

let test_fpump_feasible () =
  let g = Prng.create 99 in
  let found = ref 0 in
  for case = 1 to 100 do
    let m = random_placement_model g in
    let lp = lp_of_model m in
    let sol, rounds = Fpump.pump ~lp m in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: rounds nonneg" case)
      true (rounds >= 0);
    match sol with
    | Some (xt, obj) ->
      incr found;
      if not (Fpump.feasible m xt) then
        Alcotest.failf "case %d: pump returned an infeasible point" case;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "case %d: objective" case)
        (Fpump.objective_value m xt) obj
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pump found incumbents (%d/100)" !found)
    true (!found > 0)

(* Equal seeds must reproduce the search exactly: same outcome, same
   node/LP tallies, same number of cuts and incumbents. *)
let test_determinism () =
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  let c_cuts = Telemetry.Metrics.counter "sdnplace_ilp_cuts_total" in
  let c_inc = Telemetry.Metrics.counter "sdnplace_ilp_incumbents_total" in
  let run () =
    let g = Prng.create 31415 in
    let m = random_placement_model g in
    let cuts0 = Telemetry.Metrics.counter_value c_cuts in
    let inc0 = Telemetry.Metrics.counter_value c_inc in
    let o, s = Solver.solve m in
    ( (match o with
      | Solver.Optimal s -> Some s.Solver.objective
      | _ -> None),
      s.Solver.nodes,
      s.Solver.lp_calls,
      Telemetry.Metrics.counter_value c_cuts - cuts0,
      Telemetry.Metrics.counter_value c_inc - inc0 )
  in
  let a = run () and b = run () in
  if not was then Telemetry.Metrics.disable ();
  let obj, nodes, lps, cuts, incs = a in
  let obj', nodes', lps', cuts', incs' = b in
  Alcotest.(check (option (float 1e-9))) "objective" obj obj';
  Alcotest.(check int) "nodes" nodes nodes';
  Alcotest.(check int) "lp calls" lps lps';
  Alcotest.(check int) "cuts" cuts cuts';
  Alcotest.(check int) "incumbents" incs incs'

(* Warm-start accounting: on an instance whose root LP is fractional
   (an odd hole), branching re-solves the persistent LP from the root
   basis, so hits must be recorded even when the root LP itself stopped
   on an iteration limit in earlier revisions (the partial-basis fix). *)
let test_warm_start_hits () =
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  let c_hits = Telemetry.Metrics.counter "sdnplace_ilp_warm_start_hits_total" in
  let m = Model.create () in
  let n = 5 in
  let x = Array.init n (fun _ -> Model.binary m) in
  for i = 0 to n - 1 do
    Model.add_ge m [ (1.0, x.(i)); (1.0, x.((i + 1) mod n)) ] 1.0
  done;
  Model.set_objective m (Array.to_list (Array.map (fun v -> (1.0, v)) x));
  let h0 = Telemetry.Metrics.counter_value c_hits in
  (* Root machinery off, so the answer must come from branching with
     node LPs — each a warm re-solve of the persistent instance. *)
  let config =
    {
      Solver.default_config with
      Solver.cuts = false;
      fpump = false;
    }
  in
  let o, stats = Solver.solve ~config m in
  let hits = Telemetry.Metrics.counter_value c_hits - h0 in
  if not was then Telemetry.Metrics.disable ();
  (match o with
  | Solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "odd-hole optimum" 3.0 s.Solver.objective
  | _ -> Alcotest.fail "unexpected outcome");
  Alcotest.(check bool) "search branched" true (stats.Solver.nodes > 1);
  Alcotest.(check bool)
    (Printf.sprintf "nonzero warm-start hits (%d)" hits)
    true (hits > 0)

let suite =
  [
    Alcotest.test_case "cuts never cut feasible points" `Quick test_cuts_valid;
    Alcotest.test_case "fpump points are feasible" `Quick test_fpump_feasible;
    Alcotest.test_case "equal seeds reproduce the search" `Quick
      test_determinism;
    Alcotest.test_case "warm-start hits on a branching instance" `Quick
      test_warm_start_hits;
  ]
