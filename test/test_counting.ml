(* The counting bound: the paper's A (Table II) bounds the entry count
   of every placement under the unit-weight total objective without
   merging.  Checked against exhaustive enumeration on tiny layouts,
   against the model path (the layout encoded and solved with A as the
   solver's seed) where [Encode.solve] settles without writing a model,
   and on a k=16 [place_paper] instance and a k=32 point of the paper's
   own grid, which it settles with no model. *)
open Placement

(* What the tiny draws covered, over the whole run; the case after the
   property checks each kind was met. *)
let seen = Hashtbl.create 8
let saw what = Hashtbl.replace seen what ()

(* A tiny instance on a star (centre 0, leaves 1-3, host h on leaf
   h + 1): one or two policies of two to four rules.  Each ingress may
   have a one-switch path at its leaf (what pins a policy)
   and paths through the centre to the other leaves, each path's flow
   being its egress host's prefix (what slicing reads).  Capacities are
   1-4 per switch, or 0-1 where half the draws crowd, so some draws are
   infeasible and some force a rule to more than one switch. *)
let star_instance g =
  let net = Topo.Builder.star ~leaves:3 in
  let ingresses =
    let i = Prng.int g 3 in
    if Prng.bool g then [ i ] else [ i; (i + 1) mod 3 ]
  in
  let path i e switches =
    Routing.Path.make
      ~flow:(Ternary.Field.make ~dst:(Topo.Net.host_prefix e) ())
      ~ingress:i ~egress:e ~switches ()
  in
  let paths_of i =
    let own = if Prng.int g 4 = 0 then [ path i i [ i + 1 ] ] else [] in
    let through =
      List.filter_map
        (fun e ->
          if e <> i && Prng.bool g then Some (path i e [ i + 1; 0; e + 1 ])
          else None)
        [ 0; 1; 2 ]
    in
    match own @ through with [] -> [ path i i [ i + 1 ] ] | ps -> ps
  in
  let routing = Routing.Table.of_paths (List.concat_map paths_of ingresses) in
  (* Two to four rules over nested and disjoint sources, some limited
     to one host's destination prefix: drops, and the permits above
     them they depend on. *)
  let rule _ =
    let src = [| "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "11.0.0.0/8" |] in
    let dst =
      if Prng.bool g then None else Some (Topo.Net.host_prefix (Prng.int g 3))
    in
    ( Ternary.Field.make
        ~src:(Ternary.Prefix.of_string src.(Prng.int g 4))
        ?dst (),
      if Prng.bool g then Acl.Rule.Drop else Acl.Rule.Permit )
  in
  let policies =
    List.map
      (fun i ->
        (i, Acl.Policy.of_fields (List.init (Prng.int_in g 2 4) rule)))
      ingresses
  in
  (* Half the draws crowd the centre and the ingress leaves, which
     pushes drops out to the egress leaves, a copy per path. *)
  let crowded = Prng.bool g in
  let capacity k =
    if crowded && (k = 0 || List.mem (k - 1) ingresses) then Prng.int g 2
    else Prng.int_in g 1 5
  in
  Instance.make ~net ~routing ~policies ~capacities:(Array.init 4 capacity)

(* A less the pinned constant: the bound in the model's space. *)
let model_bound (layout : Layout.t) enc =
  float_of_int (Option.get (Encode.counting_bound Encode.Total_rules layout))
  -. enc.Encode.constant

(* [f ()] and the names of the spans it opened. *)
let traced f =
  Telemetry.Trace.reset ();
  Telemetry.Trace.enable ();
  let r = Fun.protect ~finally:Telemetry.Trace.disable f in
  let names =
    List.map
      (fun (i : Telemetry.Trace.info) -> i.Telemetry.Trace.name)
      (Telemetry.Trace.spans ())
  in
  Telemetry.Trace.reset ();
  (r, names)

let no_model_spans what names =
  List.iter
    (fun span ->
      Alcotest.(check bool) (what ^ ": no " ^ span) false (List.mem span names))
    [ "solve.encode"; "ilp.setup" ]

(* The solver with and without [lower_bound], with the greedy warm
   start and with none, returns the same outcome, values included. *)
let same_with_and_without ~fail (layout : Layout.t) enc lower_bound =
  let warm = Baseline.greedy_assignment layout in
  List.iter
    (fun warm_start ->
      let model = enc.Encode.model in
      let plain, _ = Ilp.Solver.solve ?warm_start model in
      let bounded, _ = Ilp.Solver.solve ?warm_start ~lower_bound model in
      if plain <> bounded then
        fail
          (Printf.sprintf "%s warm start: the bound changes the outcome"
             (if warm_start = None then "no" else "greedy")))
    [ warm; None ]

(* [Encode.solve] with the greedy warm start against the model path
   called directly: the layout encoded, then solved with the warm start
   and A less the constant as the seed.  Status, objective and
   placement agree.  Returns whether [Encode.solve]
   settled without writing the model. *)
let same_as_model_path ~fail (layout : Layout.t) enc =
  let warm_start = Baseline.greedy_assignment layout in
  let r, names = traced (fun () -> Encode.solve ?warm_start layout) in
  let outcome, _ =
    Ilp.Solver.solve
      ?warm_start ~lower_bound:(model_bound layout enc) enc.Encode.model
  in
  let lifted (s : Ilp.Solver.solution) =
    Some (s.Ilp.Solver.values, s.Ilp.Solver.objective +. enc.Encode.constant)
  in
  let status, expected =
    match outcome with
    | Ilp.Solver.Optimal s -> (`Optimal, lifted s)
    | Ilp.Solver.Feasible s -> (`Feasible, lifted s)
    | Ilp.Solver.Infeasible -> (`Infeasible, None)
    | Ilp.Solver.Unknown -> (`Unknown, None)
  in
  if r.Encode.status <> status then
    fail
      (Format.asprintf "Encode.solve %a, the model path %a" Encode.pp_status
         r.Encode.status Encode.pp_status status);
  (match (r.Encode.solution, expected) with
  | None, None -> ()
  | Some sol, Some (a, objective) ->
    let want = Solution.of_assignment layout a ~objective in
    if sol.Solution.objective <> objective then
      fail
        (Printf.sprintf "objective %g, the model path %g"
           sol.Solution.objective objective);
    if sol.Solution.per_switch <> want.Solution.per_switch then
      fail "the placements differ"
  | _ -> fail "one path placed, the other did not");
  not (List.mem "solve.encode" names)

let prop_bound_below_brute =
  QCheck.Test.make ~name:"A minus the pinned constant <= the brute optimum"
    ~count:300 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let inst = star_instance g in
      let sliced = Prng.bool g in
      let monitors =
        if Prng.int g 3 = 0 then [ (Prng.int g 4, Ternary.Field.any) ] else []
      in
      let layout = Layout.build ~sliced ~monitors inst in
      let enc = Encode.to_model layout in
      let lower_bound = model_bound layout enc in
      let fail msg = QCheck.Test.fail_reportf "seed %d: %s" seed msg in
      (* Enumeration takes 2^n steps: larger draws are skipped. *)
      if Ilp.Model.num_vars enc.Encode.model > 20 then true
      else begin
        if sliced then saw "sliced";
        if monitors <> [] then saw "monitor";
        if layout.Layout.pinned <> [] then saw "pinned";
        (match Ilp.Brute.solve enc.Encode.model with
        | Ilp.Solver.Optimal s ->
          let obj = s.Ilp.Solver.objective in
          if lower_bound > obj +. 1e-9 then
            fail
              (Printf.sprintf "bound %g above the optimum %g" lower_bound obj);
          saw (if lower_bound < obj -. 0.5 then "B > A" else "B = A")
        | _ -> saw "infeasible");
        same_with_and_without ~fail layout enc lower_bound;
        if same_as_model_path ~fail layout enc then saw "settled by counting";
        true
      end)

(* The layout-row check against the model's own: on tiny star layouts
   (sliced, a monitor, pinned policies, crowded capacity, sometimes a
   merge plan), for the greedy assignment (all-false when greedy is
   stuck) and each single-bit flip of it. *)
let prop_rows_match_model =
  QCheck.Test.make ~name:"layout rows hold exactly where the model's do"
    ~count:300 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let inst = star_instance g in
      let sliced = Prng.bool g in
      let monitors =
        if Prng.int g 3 = 0 then [ (Prng.int g 4, Ternary.Field.any) ] else []
      in
      let inst, plan =
        if Prng.int g 4 = 0 then Merge.plan inst else (inst, Merge.empty_plan)
      in
      if plan.Merge.groups <> [] then saw "merged";
      let layout = Layout.build ~sliced ~plan ~monitors inst in
      let enc = Encode.to_model layout in
      let base =
        match Baseline.greedy_assignment layout with
        | Some a -> a
        | None -> Array.make (Layout.num_vars layout) false
      in
      let agree a =
        let rows = Encode.feasible layout a
        and model = Ilp.Solver.check_feasible enc.Encode.model a in
        if rows <> model then
          QCheck.Test.fail_reportf "seed %d: layout rows %b, model %b" seed
            rows model;
        saw (if rows then "rows hold" else "a row fails")
      in
      agree base;
      Array.iteri
        (fun v x ->
          let a = Array.copy base in
          a.(v) <- not x;
          agree a)
        base;
      true)

let test_draws_cover_the_kinds () =
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " met") true (Hashtbl.mem seen what))
    [
      "sliced";
      "monitor";
      "pinned";
      "B > A";
      "B = A";
      "infeasible";
      "settled by counting";
      "rows hold";
      "a row fails";
      "merged";
    ]

(* Random k=4/6 families without merging, too large to enumerate: the
   bound does not change the outcome, sits below the optimum, and
   [Encode.solve] ends as the model path does. *)
let prop_same_on_families =
  QCheck.Test.make ~name:"the bound changes no outcome on random families"
    ~count:30 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let f =
        {
          Workload.k = (if Prng.bool g then 4 else 6);
          num_policies = Prng.int_in g 2 6;
          rules = Prng.int_in g 4 12;
          mergeable = 0;
          paths = Prng.int_in g 8 48;
          capacity = Prng.int_in g 4 30;
          seed;
          slice = Prng.bool g;
          ingress_mode =
            (if Prng.bool g then Workload.Spread else Workload.Contiguous);
        }
      in
      let monitors =
        if Prng.bool g then []
        else
          let edges =
            Topo.Net.switches_of_kind (Topo.Fattree.make f.Workload.k)
              Topo.Net.Edge
          in
          let edge = List.nth edges (Prng.int g (List.length edges)) in
          [ (edge, Ternary.Field.any) ]
      in
      let layout =
        Layout.build ~sliced:f.Workload.slice ~monitors (Workload.build f)
      in
      let enc = Encode.to_model layout in
      let lower_bound = model_bound layout enc in
      let fail msg = QCheck.Test.fail_reportf "seed %d: %s" seed msg in
      same_with_and_without ~fail layout enc lower_bound;
      ignore (same_as_model_path ~fail layout enc);
      (match Ilp.Solver.solve enc.Encode.model with
      | Ilp.Solver.Optimal s, _ ->
        if lower_bound > s.Ilp.Solver.objective +. 1e-9 then
          fail
            (Printf.sprintf "bound %g above the optimum %g" lower_bound
               s.Ilp.Solver.objective)
      | _ -> ());
      true)

(* Only the unit-weight total objective without merging gets a bound. *)
let test_no_bound_elsewhere () =
  let inst =
    Workload.build { Workload.default with Workload.mergeable = 3; rules = 8 }
  in
  let plain = Layout.build inst in
  let none what objective layout =
    Alcotest.(check bool) what true
      (Encode.counting_bound objective layout = None)
  in
  none "upstream drops" Encode.Upstream_drops plain;
  none "switch weighted"
    (Encode.Switch_weighted
       (Array.make (Topo.Net.num_switches inst.Instance.net) 1.0))
    plain;
  let merged_inst, plan = Merge.plan inst in
  Alcotest.(check bool) "the family merges" true (plan.Merge.groups <> []);
  none "merge plan" Encode.Total_rules (Layout.build ~plan merged_inst)

(* The contract on both sides.  [Encode.solve] settles a warm start
   that meets A with no model written; the solver takes its lower bound
   as the root bound's seed only, shown on a hand-made cover:
   x0 + x1 >= 1, x1 + x2 >= 1, unit costs, optimum 1 at x1. *)
let test_solver_lower_bound () =
  let layout =
    Layout.build
      (Workload.build
         {
           Workload.default with
           Workload.rules = 8;
           paths = 16;
           capacity = 60;
         })
  in
  let warm = Option.get (Baseline.greedy_assignment layout) in
  let a = Option.get (Encode.counting_bound Encode.Total_rules layout) in
  let r, spans = traced (fun () -> Encode.solve ~warm_start:warm layout) in
  (match (r.Encode.status, r.Encode.solution) with
  | `Optimal, Some sol ->
    Alcotest.(check int) "B = A" a (Solution.total_entries sol);
    Alcotest.(check bool) "the warm start's placement" true
      (sol.Solution.per_switch
      = (Solution.of_assignment layout warm ~objective:0.0).Solution.per_switch)
  | st, _ -> Alcotest.failf "got %a" Encode.pp_status st);
  let s = r.Encode.ilp_stats in
  Alcotest.(check (pair int int)) "no node, no LP" (0, 0)
    (s.Ilp.Solver.nodes, s.Ilp.Solver.lp_calls);
  Alcotest.(check (float 0.0)) "root bound is A" (float_of_int a)
    s.Ilp.Solver.root_bound;
  no_model_spans "settled" spans;
  let m = Ilp.Model.create () in
  let x = Array.init 3 (fun _ -> Ilp.Model.binary m) in
  Ilp.Model.add_ge m [ (1.0, x.(0)); (1.0, x.(1)) ] 1.0;
  Ilp.Model.add_ge m [ (1.0, x.(1)); (1.0, x.(2)) ] 1.0;
  Ilp.Model.set_objective m (Array.to_list (Array.map (fun v -> (1.0, v)) x));
  (* The solver has no early exit: a warm start that meets the bound
     (0.5 rounds up to 1) still runs the root, and is the answer. *)
  let o, s =
    Ilp.Solver.solve ~warm_start:[| false; true; false |] ~lower_bound:0.5 m
  in
  (match o with
  | Ilp.Solver.Optimal sol ->
    Alcotest.(check (float 0.0)) "objective" 1.0 sol.Ilp.Solver.objective
  | _ -> Alcotest.fail "unexpected outcome");
  Alcotest.(check bool) "the root LP runs" true (s.Ilp.Solver.lp_calls > 0);
  (* A worse warm start does not settle, but the bound seeds the root
     bound, which the LP can only raise: with no root LP it stays. *)
  let worse = [| true; false; true |] in
  let no_lp = { Ilp.Solver.default_config with Ilp.Solver.lp_root = false } in
  let o, s =
    Ilp.Solver.solve ~config:no_lp ~warm_start:worse ~lower_bound:0.5 m
  in
  (match o with
  | Ilp.Solver.Optimal sol ->
    Alcotest.(check (float 0.0)) "searched optimum" 1.0 sol.Ilp.Solver.objective
  | _ -> Alcotest.fail "unexpected outcome");
  Alcotest.(check (float 0.0)) "seeded root bound" 0.5 s.Ilp.Solver.root_bound;
  let _, s = Ilp.Solver.solve ~warm_start:worse ~lower_bound:(-5.0) m in
  Alcotest.(check bool) "the LP raises a lower seed" true
    (s.Ilp.Solver.root_bound >= 1.0 -. 1e-9);
  (* A fractional objective is not rounded: 1.5 is not met by 1.75. *)
  let f = Ilp.Model.create () in
  let y = Ilp.Model.binary f in
  Ilp.Model.add_ge f [ (1.0, y) ] 1.0;
  Ilp.Model.set_objective f [ (1.75, y) ];
  let _, s = Ilp.Solver.solve ~warm_start:[| true |] ~lower_bound:1.5 f in
  Alcotest.(check bool) "fractional objective searches" true
    (s.Ilp.Solver.lp_calls > 0)

(* Only a feasible warm start settles.  Each of two assignments at
   most A entries breaks one kind of row the greedy point meets: one
   leaves a cover row empty, one sets a drop without a permit it
   depends on.  [Encode.solve] must solve the model for each, not hand
   the assignment back as [`Optimal] with 0 nodes and 0 LP calls. *)
let test_settle_refuses_infeasible () =
  let layout =
    Layout.build
      (Workload.build
         {
           Workload.default with
           Workload.rules = 8;
           paths = 16;
           capacity = 60;
         })
  in
  let warm = Option.get (Baseline.greedy_assignment layout) in
  let a = Option.get (Encode.counting_bound Encode.Total_rules layout) in
  let uncovered = Array.copy warm in
  (match
     Layout.iter_covers layout (fun off js ->
         Array.iter (fun j -> uncovered.(off + j) <- false) js;
         raise_notrace Exit)
   with
  | () -> Alcotest.fail "no cover row"
  | exception Exit -> ());
  let unimplied = Array.copy warm in
  (match
     Layout.iter_implications layout (fun d p ->
         if warm.(d) && warm.(p) then begin
           unimplied.(p) <- false;
           raise_notrace Exit
         end)
   with
  | () -> Alcotest.fail "no implication row holds a set drop"
  | exception Exit -> ());
  List.iter
    (fun (what, x) ->
      let entries =
        Array.fold_left
          (fun n set -> if set then n + 1 else n)
          (Layout.pinned_rules layout) x
      in
      Alcotest.(check bool) (what ^ ": at most A entries") true (entries <= a);
      Alcotest.(check bool) (what ^ ": infeasible") false
        (Encode.feasible layout x);
      let r = Encode.solve ~warm_start:x layout in
      let s = r.Encode.ilp_stats in
      Alcotest.(check bool)
        (what ^ ": not settled")
        false
        (r.Encode.status = `Optimal
        && s.Ilp.Solver.nodes = 0
        && s.Ilp.Solver.lp_calls = 0);
      match (r.Encode.status, r.Encode.solution) with
      | `Optimal, Some sol ->
        Alcotest.(check int) (what ^ ": B = A") a (Solution.total_entries sol)
      | st, _ -> Alcotest.failf "%s: got %a" what Encode.pp_status st)
    [
      ("an empty cover row", uncovered);
      ("a drop without its permit", unimplied);
    ]

(* A [place_paper] instance (k=16, 8 policies, 1024 paths, r=20,
   C=140): the greedy warm start places exactly A entries, so the solve
   settles with no model written.  Five of its policies are pinned, so
   only the other three take variables: 5,801 of them, where numbering
   every (rule, switch) pair took 17,719. *)
let test_place_paper_settles () =
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.k = 16;
        num_policies = 8;
        rules = 20;
        paths = 1024;
        capacity = 140;
        seed = 100_003;
      }
  in
  let r, spans = traced (fun () -> Solve.run inst) in
  Alcotest.(check string) "status" "optimal"
    (Format.asprintf "%a" Encode.pp_status r.Solve.status);
  let s = Option.get r.Solve.ilp_stats in
  Alcotest.(check (pair int int)) "no node, no LP" (0, 0)
    (s.Ilp.Solver.nodes, s.Ilp.Solver.lp_calls);
  let sol = Option.get r.Solve.solution in
  Alcotest.(check int) "B = A" sol.Solution.baseline_rule_count
    (Solution.total_entries sol);
  no_model_spans "place_paper" spans;
  Alcotest.(check int) "pinned policies" 5
    (List.length r.Solve.layout.Layout.pinned);
  Alcotest.(check int) "variables" 5801 (Layout.num_vars r.Solve.layout)

(* Words [f] allocates directly in the major heap: the major words it
   allocates less the minor words promoted there.  Arrays longer than
   the young limit (256 words) land there directly. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () in
  (r, int_of_float (major1 -. major0 -. (promoted1 -. promoted0)))

(* Attribution gate for a settled placement's scratch.  The property:
   on [place_paper]-family instances 0-7 at seed 1 (k=16, 8 policies,
   r=20, 1,024 paths, C=140), each of which settles by counting, one
   [Solve.run] allocates directly in the major heap at most its
   assignment ([Layout.num_vars] words) and eight per-switch arrays
   ([num_switches + 1] words each, header included).  Everything else
   it builds is small enough for the minor heap.  The count is
   deterministic, so this is a count, not a timing.  A layout that
   buffers its cover rows as one flat pair array or keeps a block per
   host, or a greedy that keeps a mask per variable or per host, each
   exceed the bound on every instance. *)
let test_settled_major_words () =
  for i = 0 to 7 do
    let inst =
      Workload.build
        {
          Workload.default with
          Workload.k = 16;
          num_policies = 8;
          rules = 20;
          paths = 1024;
          capacity = 140;
          seed = 100_003 + i;
        }
    in
    (* The first run registers metrics and forces lazy tables. *)
    ignore (Solve.run inst);
    let r, words = direct_major_words (fun () -> Solve.run inst) in
    let s = Option.get r.Solve.ilp_stats in
    Alcotest.(check (pair int int))
      (Printf.sprintf "instance %d settles" i)
      (0, 0)
      (s.Ilp.Solver.nodes, s.Ilp.Solver.lp_calls);
    let bound =
      Layout.num_vars r.Solve.layout
      + (8 * (Topo.Net.num_switches inst.Instance.net + 1))
    in
    if words > bound then
      Alcotest.failf
        "instance %d: Solve.run allocated %d words directly in the major \
         heap (bound %d = num_vars %d + 8 x (num_switches + 1))"
        i words bound
        (Layout.num_vars r.Solve.layout)
  done

(* A k=32 point of the paper's grid (1024 policies, 1024 paths, r=20,
   C=200): every policy fits, the greedy warm start places exactly A
   entries, and the solve ends optimal before any LP. *)
let test_paper_grid_point () =
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.k = 32;
        num_policies = 1024;
        rules = 20;
        paths = 1024;
        capacity = 200;
      }
  in
  let r = Solve.run inst in
  Alcotest.(check string) "status" "optimal"
    (Format.asprintf "%a" Encode.pp_status r.Solve.status);
  let s = Option.get r.Solve.ilp_stats in
  Alcotest.(check (pair int int)) "no node, no LP" (0, 0)
    (s.Ilp.Solver.nodes, s.Ilp.Solver.lp_calls);
  let sol = Option.get r.Solve.solution in
  Alcotest.(check int) "B = A" sol.Solution.baseline_rule_count
    (Solution.total_entries sol);
  Alcotest.(check (float 0.0)) "root bound is A"
    (float_of_int sol.Solution.baseline_rule_count)
    s.Ilp.Solver.root_bound

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bound_below_brute;
    QCheck_alcotest.to_alcotest prop_rows_match_model;
    Alcotest.test_case "tiny draws met every kind" `Quick
      test_draws_cover_the_kinds;
    QCheck_alcotest.to_alcotest prop_same_on_families;
    Alcotest.test_case "no bound under merging or weights" `Quick
      test_no_bound_elsewhere;
    Alcotest.test_case "solver lower bound: exit, seed, rounding" `Quick
      test_solver_lower_bound;
    Alcotest.test_case "settle refuses an infeasible warm start" `Quick
      test_settle_refuses_infeasible;
    Alcotest.test_case "a place_paper instance settles with no model" `Quick
      test_place_paper_settles;
    Alcotest.test_case "k=32 paper grid point settles by counting" `Quick
      test_paper_grid_point;
    Alcotest.test_case "a settled solve keeps its scratch out of the major heap"
      `Quick test_settled_major_words;
  ]
