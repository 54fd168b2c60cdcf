(* Forced policies pinned in the layout.  A pinned policy must be
   exactly what the rest of the instance leaves it: solving the
   instance equals solving it without the pinned policies and with each
   pin switch's capacity lowered by their load, plus their cost.  An
   independent encoding written straight from the instance and the SAT
   cardinality descent must both reach the same optimum. *)
open Placement

(* The pinned policies of a layout: per ingress, its switch [k0] and
   the number of rules pinned there.  Fails unless no pinned policy has
   a variable and the empty assignment places exactly its rules, all at
   [k0]. *)
let pinned_policies (layout : Layout.t) =
  let pinned = layout.Layout.pinned in
  for v = 0 to Layout.num_vars layout - 1 do
    match Layout.key layout v with
    | Layout.Place { ingress; _ }
      when List.exists (fun (i, _, _) -> i = ingress) pinned ->
      Alcotest.failf "pinned policy %d has variable %d" ingress v
    | Layout.Place _ | Layout.Merged _ -> ()
  done;
  let held = ref [] in
  Layout.iter_placed layout
    (Array.make (Layout.num_vars layout) false)
    (fun _ i _ k -> held := (i, k) :: !held);
  List.iter
    (fun (i, k0, n) ->
      if List.filter (( = ) (i, k0)) !held |> List.length <> n then
        Alcotest.failf "policy %d does not hold its %d rules at %d" i n k0)
    pinned;
  if List.length !held <> Layout.pinned_rules layout then
    Alcotest.fail "a pinned rule sits off its policy's switch";
  pinned

(* Sorted (switch, tags) of every installed entry whose tags [keep]. *)
let cells ?(keep = fun _ -> true) (sol : Solution.t) =
  Array.to_list sol.Solution.per_switch
  |> List.mapi (fun k cells ->
         List.filter_map
           (fun (c : Solution.cell) ->
             let tags = List.sort compare c.Solution.tags in
             if List.for_all (fun (i, _) -> keep i) tags then Some (k, tags)
             else None)
           cells)
  |> List.concat |> List.sort compare

(* The paper's ILP written straight from a (redundancy-cleaned,
   unmerged) instance, with no pins: a variable per (policy rule,
   switch of [S_i]) that some row mentions, a >= 1 row per (path, drop
   applying to it), a dependency row per (relevant drop, permit it
   depends on, switch), a capacity row per switch and monitor fixings.
   Returns the ILP's optimum, or [None] when it proves infeasibility. *)
let reference_optimum ~sliced ~monitors (inst : Instance.t) =
  let model = Ilp.Model.create () in
  let cell = Hashtbl.create 256 in
  let x i (r : Acl.Rule.t) k =
    match Hashtbl.find_opt cell (i, r.priority, k) with
    | Some v -> v
    | None ->
      let v = Ilp.Model.binary model in
      Hashtbl.add cell (i, r.priority, k) v;
      v
  in
  let applies (w : Acl.Rule.t) (p : Routing.Path.t) =
    (not sliced) || Ternary.Field.overlaps w.field p.Routing.Path.flow
  in
  List.iter
    (fun (i, q) ->
      let dep = Depgraph.build q in
      let paths = Routing.Table.paths_from inst.Instance.routing i in
      let relevant =
        List.filter
          (fun w -> List.exists (applies w) paths)
          (Acl.Policy.drops q)
      in
      List.iter
        (fun w ->
          List.iter
            (fun p ->
              if applies w p then
                Ilp.Model.add_ge model
                  (List.map
                     (fun k -> (1.0, x i w k))
                     (Array.to_list p.Routing.Path.switches))
                  1.0)
            paths;
          (* A switch two paths share repeats its rows: harmless. *)
          List.iter
            (fun (p : Routing.Path.t) ->
              Array.iter
                (fun k ->
                  List.iter
                    (fun u -> Ilp.Model.implies model (x i w k) (x i u k))
                    (Depgraph.dependencies dep w))
                p.switches)
            paths;
          List.iter
            (fun (m, region) ->
              if Ternary.Field.overlaps w.field region then
                List.iter
                  (fun (p : Routing.Path.t) ->
                    match Routing.Path.position p m with
                    | None -> ()
                    | Some at ->
                      for d = 0 to at - 1 do
                        Ilp.Model.fix model
                          (x i w p.Routing.Path.switches.(d))
                          false
                      done)
                  paths)
            monitors)
        relevant)
    inst.Instance.policies;
  let at_switch = Array.make (Array.length inst.Instance.capacities) [] in
  Hashtbl.iter
    (fun (_, _, k) v -> at_switch.(k) <- (1.0, v) :: at_switch.(k))
    cell;
  Array.iteri
    (fun k terms ->
      Ilp.Model.add_le model terms (float_of_int inst.Instance.capacities.(k)))
    at_switch;
  Ilp.Model.set_objective model
    (Hashtbl.fold (fun _ v acc -> (1.0, v) :: acc) cell []);
  match Ilp.Solver.solve model with
  | Ilp.Solver.Optimal s, _ -> Some s.Ilp.Solver.objective
  | Ilp.Solver.Infeasible, _ -> None
  | _ -> Alcotest.fail "reference ILP hit a limit"

let objective (r : Solve.report) =
  Option.map (fun (s : Solution.t) -> s.Solution.objective) r.Solve.solution

let status_text (r : Solve.report) =
  Format.asprintf "%a" Encode.pp_status r.Solve.status

(* One instance under [options]: the decomposition, the pinned rules'
   positions, the pins' own capacity, the verifier and the three
   independent optima.  Returns how many policies were pinned. *)
let check_instance ~name ~options ?(reference = true) ?(sat_opt = true) inst =
  let report = Solve.run ~options inst in
  let layout = report.Solve.layout in
  let pinned = pinned_policies layout in
  let is_pinned i = List.exists (fun (j, _, _) -> j = i) pinned in
  let caps = inst.Instance.capacities in
  (* The pins fit: condition 5 holds for the load the layout pinned. *)
  let load = Array.make (Array.length caps) 0 in
  List.iter (fun (_, k0, n) -> load.(k0) <- load.(k0) + n) pinned;
  Array.iteri
    (fun k n ->
      if n > caps.(k) then
        Alcotest.failf "%s: %d rules pinned at switch %d of capacity %d" name
          n k caps.(k))
    load;
  (* The same instance without the pinned policies. *)
  let inst' =
    Instance.make ~net:inst.Instance.net ~routing:inst.Instance.routing
      ~policies:
        (List.filter (fun (i, _) -> not (is_pinned i)) inst.Instance.policies)
      ~capacities:(Array.mapi (fun k c -> c - load.(k)) caps)
  in
  let report' = Solve.run ~options inst' in
  Alcotest.(check string)
    (name ^ ": status without the pinned policies")
    (status_text report') (status_text report);
  let pinned_cost = float_of_int (Array.fold_left ( + ) 0 load) in
  Alcotest.(check (option (float 1e-9)))
    (name ^ ": objective = rest + pinned cost")
    (Option.map (fun o -> o +. pinned_cost) (objective report'))
    (objective report);
  (match (report.Solve.solution, report'.Solve.solution) with
  | Some sol, Some sol' ->
    Alcotest.(check (list (pair int (list (pair int int)))))
      (name ^ ": free policies placed as without the pinned ones")
      (cells sol')
      (cells ~keep:(fun i -> not (is_pinned i)) sol);
    List.iter
      (fun (i, k0, n) ->
        let mine = cells ~keep:(fun j -> j = i) sol in
        if
          List.length mine <> n
          || List.exists (fun (k, _) -> k <> k0) mine
        then
          Alcotest.failf "%s: policy %d has %d entries off its %d at switch %d"
            name i (List.length mine) n k0)
      pinned;
    Util.check_no_violations name (Prng.create 5) report
  | None, None -> ()
  | _ -> Alcotest.failf "%s: one side has no placement" name);
  (* Optima that do not go through the pinned ILP search. *)
  let same what (r : Solve.report) =
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "%s: %s optimum" name what)
      (objective report) (objective r)
  in
  if report.Solve.status = `Optimal || report.Solve.status = `Infeasible
  then begin
    if sat_opt then
      same "SAT descent"
        (Solve.run
           ~options:{ options with Solve.engine = Solve.Sat_opt_engine }
           inst);
    if reference then
      Alcotest.(check (option (float 1e-9)))
        (name ^ ": reference encoding optimum")
        (reference_optimum ~sliced:options.Solve.slice
           ~monitors:options.Solve.monitors report.Solve.instance)
        (objective report)
  end;
  List.length pinned

(* A random k=4/6 family: spread or contiguous ingresses, sliced or
   not, mergeable rules or not, a monitor or not, capacities from loose
   down to infeasible.  [small] keeps it to a few k=4 policies of few
   unmergeable rules, where the SAT descent proves its optimum quickly. *)
let random_case g ~small =
  let k = if small || Prng.bool g then 4 else 6 in
  let f =
    {
      Workload.k;
      num_policies = (if small then Prng.int_in g 2 4 else Prng.int_in g 3 6);
      rules = (if small then Prng.int_in g 3 6 else Prng.int_in g 4 9);
      mergeable = (if (not small) && Prng.int g 3 = 0 then 3 else 0);
      paths = (if small then Prng.int_in g 8 24 else Prng.int_in g 32 80);
      capacity = Prng.int_in g 4 24;
      seed = Prng.int g 1_000_000;
      slice = Prng.bool g;
      ingress_mode =
        (if Prng.bool g then Workload.Spread else Workload.Contiguous);
    }
  in
  let monitors =
    if Prng.int g 3 = 0 then
      let edges =
        Topo.Net.switches_of_kind (Topo.Fattree.make k) Topo.Net.Edge
      in
      [ (List.nth edges (Prng.int g (List.length edges)), Ternary.Field.any) ]
    else []
  in
  let options =
    Solve.options ~merge:(f.Workload.mergeable > 0) ~slice:f.Workload.slice
      ~monitors ()
  in
  (f, options)

let test_random_families () =
  let g = Prng.create 2024 in
  let pinned = ref 0 in
  let run ~small case =
    let f, options = random_case g ~small in
    let name =
      Printf.sprintf "%s case %d" (if small then "small" else "random") case
    in
    pinned :=
      !pinned
      + check_instance ~name ~options ~reference:(f.Workload.mergeable = 0)
          ~sat_opt:small (Workload.build f)
  in
  for case = 1 to 20 do
    run ~small:false case
  done;
  for case = 1 to 8 do
    run ~small:true case
  done;
  (* The draw must exercise the pins at all. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d policies pinned" !pinned)
    true (!pinned > 0)

(* Hand-made instances on a star (centre 0, leaves 1-3), one per
   condition that fat-trees rarely or never break. *)
let star = Topo.Builder.star ~leaves:3

let hand_instance ?(capacity = 3) policies =
  Instance.make ~net:star
    ~routing:
      (Routing.Table.of_paths
         (List.concat_map
            (fun (i, _, paths) ->
              List.map
                (fun (egress, flow, switches) ->
                  Routing.Path.make ?flow ~ingress:i ~egress ~switches ())
                paths)
            policies))
    ~policies:
      (List.map (fun (i, rules, _) -> (i, Acl.Policy.of_fields rules)) policies)
    ~capacities:(Instance.uniform_capacity star capacity)

(* A permit and two drops that both depend on it. *)
let three_rules =
  [
    (Util.field ~src:"10.1.0.0/16" (), Acl.Rule.Permit);
    (Util.field ~src:"10.0.0.0/8" (), Acl.Rule.Drop);
    (Util.field ~dst:"11.0.0.0/8" (), Acl.Rule.Drop);
  ]

(* Another ingress whose drop must sit on switch 1: its one-switch paths
   are on two switches, so it is never pinned. *)
let neighbour =
  ( 1,
    [ (Util.field ~src:"20.0.0.0/8" (), Acl.Rule.Drop) ],
    [
      (2, Some (Util.field ~dst:"13.0.0.0/8" ()), [ 1 ]);
      (3, Some (Util.field ~dst:"14.0.0.0/8" ()), [ 2 ]);
    ] )

(* Condition 1: switch 1 is a whole path of ingress 0 but not on its
   other path, which still needs its own copies.  Condition 2: sliced,
   the [11/8] drop never meets the one-switch path's flow; pinning it at
   switch 1 would leave the neighbour's forced drop no room there. *)
let test_conditions_by_hand () =
  let off_path =
    hand_instance
      [ (0, three_rules, [ (1, None, [ 1 ]); (2, None, [ 2; 0; 3 ]) ]) ]
  in
  let unmet =
    hand_instance
      [
        ( 0,
          three_rules,
          [
            (1, Some (Util.field ~dst:"12.0.0.0/8" ()), [ 1 ]);
            (2, Some (Util.field ~dst:"11.0.0.0/8" ()), [ 1; 0; 3 ]);
          ] );
        neighbour;
      ]
  in
  List.iter
    (fun (name, slice, inst) ->
      let options = Solve.options ~slice () in
      let report = Solve.run ~options inst in
      Alcotest.(check int) (name ^ ": nothing pinned") 0
        (List.length (pinned_policies report.Solve.layout));
      Alcotest.(check string) (name ^ ": optimal") "optimal"
        (status_text report);
      ignore (check_instance ~name ~options inst))
    [ ("off-path switch", false, off_path); ("unmet slice", true, unmet) ]

(* Condition 5: two ingresses each forced to put one drop on switch 1.
   With room for both, both are pinned; with room for one, neither is,
   and the ILP proves the instance infeasible. *)
let test_overloaded_switch () =
  let forced i dst =
    let src = Printf.sprintf "%d.0.0.0/8" (10 * (i + 1)) in
    ( i,
      [ (Util.field ~src (), Acl.Rule.Drop) ],
      [ (2, None, [ 1 ]); (3, None, [ 1; 0; dst ]) ] )
  in
  let options = Solve.options () in
  List.iter
    (fun (capacity, want_pinned, want_status) ->
      let inst = hand_instance ~capacity [ forced 0 2; forced 1 3 ] in
      let name = Printf.sprintf "capacity %d" capacity in
      let report = Solve.run ~options inst in
      Alcotest.(check int) (name ^ ": pinned policies") want_pinned
        (List.length (pinned_policies report.Solve.layout));
      Alcotest.(check string) (name ^ ": status") want_status
        (status_text report);
      ignore (check_instance ~name ~options inst))
    [ (2, 2, "optimal"); (1, 0, "infeasible") ]

(* Negative or non-finite switch weights would break the pins' premise
   (a pin to 0 is optimal only for non-negative costs): encoding refuses
   them. *)
let test_weights_must_be_nonnegative () =
  let inst = Workload.build { Workload.default with Workload.k = 4 } in
  let layout = Layout.build inst in
  let n = Topo.Net.num_switches inst.Instance.net in
  let last bad =
    let w = Array.make n 1.0 in
    w.(n - 1) <- bad;
    (Printf.sprintf "switch weight %g" bad, w)
  in
  (* A weight array of any other length than the switch count is
     rejected by name, not by an index out of bounds. *)
  List.iter
    (fun (name, w) ->
      match Encode.to_model ~objective:(Encode.Switch_weighted w) layout with
      | exception Invalid_argument msg when msg <> "index out of bounds" -> ()
      | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s accepted" name)
    [
      last (-1.0);
      last Float.nan;
      last Float.infinity;
      ("a short weight array", Array.make (n - 1) 1.0);
      ("a long weight array", Array.make (n + 1) 1.0);
    ]

let suite =
  [
    Alcotest.test_case "pinned policies decompose on random families" `Quick
      test_random_families;
    Alcotest.test_case "conditions 1 and 2 by hand" `Quick
      test_conditions_by_hand;
    Alcotest.test_case "an overloaded switch pins nothing" `Quick
      test_overloaded_switch;
    Alcotest.test_case "switch weights must be finite and >= 0" `Quick
      test_weights_must_be_nonnegative;
  ]
