(* Unit tests for the constraint layout itself: variable scoping,
   constraint counts, slicing and capacity-row pruning. *)
open Placement

let drop f = (f, Acl.Rule.Drop)
let permit f = (f, Acl.Rule.Permit)

(* The cover rows as variable lists, in the iterator's order. *)
let covers layout =
  let rows = ref [] in
  Layout.iter_covers layout (fun off js ->
      rows := Array.to_list (Array.map (fun j -> off + j) js) :: !rows);
  List.rev !rows

(* The implication rows as (drop, permit) pairs, in the iterator's
   order. *)
let implications layout =
  let rows = ref [] in
  Layout.iter_implications layout (fun d p -> rows := (d, p) :: !rows);
  List.rev !rows

let two_path_instance ~capacity =
  let net = Topo.Builder.figure3 () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~ingress:0 ~egress:2 ~switches:[ 0; 1; 3; 4 ] ();
      ]
  in
  let policy =
    Acl.Policy.of_fields
      [
        permit (Util.field ~src:"10.1.0.0/16" ());
        drop (Util.field ~src:"10.0.0.0/8" ());
        permit (Util.field ~src:"11.0.0.0/8" ());
      ]
  in
  Instance.make ~net ~routing ~policies:[ (0, policy) ]
    ~capacities:(Instance.uniform_capacity net capacity)

(* [key], [var], [is_dummy] and [forbidden] against a linear scan of
   every variable's key, the merge plan and the monitors read straight
   off the paths, for every policy rule at every switch, including the
   pairs that have no variable.  Every variable [v] has
   [var (key v) = v]; a pinned policy's rules have no variable and sit
   at its [k0], where no monitor forbids them.  Returns how many
   dummies, forbidden variables and pinned policies it met. *)
let check_numbering name (layout : Layout.t) =
  let inst = layout.Layout.instance in
  let keys = Array.init (Layout.num_vars layout) (Layout.key layout) in
  let scan ingress priority switch =
    let found = ref None in
    Array.iteri
      (fun v -> function
        | Layout.Place p
          when p.ingress = ingress && p.priority = priority && p.switch = switch
          ->
          found := Some v
        | _ -> ())
      keys;
    !found
  in
  (* Upstream of a monitor that sees the rule, on a path through it. *)
  let monitored i (r : Acl.Rule.t) switch =
    Acl.Rule.is_drop r
    && List.exists
         (fun (m, region) ->
           Ternary.Field.overlaps r.field region
           && List.exists
                (fun (p : Routing.Path.t) ->
                  match Routing.Path.position p m with
                  | Some at ->
                    Array.exists (( = ) switch)
                      (Array.sub p.Routing.Path.switches 0 at)
                  | None -> false)
                (Routing.Table.paths_from inst.Instance.routing i))
         layout.Layout.monitors
  in
  let pinned_rules = Hashtbl.create 16 in
  Layout.iter_placed layout
    (Array.make (Layout.num_vars layout) false)
    (fun v ingress (r : Acl.Rule.t) switch ->
      if
        v <> -1
        || monitored ingress r switch
        || not
             (List.exists
                (fun (i, k0, _) -> i = ingress && k0 = switch)
                layout.Layout.pinned)
      then
        Alcotest.failf "%s: %d/%d placed at %d with nothing set" name ingress
          r.priority switch;
      Hashtbl.replace pinned_rules (ingress, r.priority) ());
  Alcotest.(check int)
    (name ^ ": pinned rules")
    (Layout.pinned_rules layout)
    (Hashtbl.length pinned_rules);
  let in_plan ingress priority =
    List.exists
      (fun (g : Merge.group) ->
        List.exists
          (fun (m : Merge.member) ->
            m.Merge.is_dummy && m.Merge.ingress = ingress
            && m.Merge.priority = priority)
          g.Merge.members)
      layout.Layout.plan.Merge.groups
  in
  let dummies = ref 0 and forbidden = ref 0 and wrong = ref [] in
  let expect what want got =
    if want <> got then wrong := Printf.sprintf "%s: %s" name what :: !wrong
  in
  Array.iteri
    (fun v -> function
      | Layout.Place { ingress; priority; switch; _ } ->
        expect
          (Printf.sprintf "var (key %d)" v)
          (Some v)
          (Layout.var layout ~ingress ~priority ~switch)
      | Layout.Merged _ -> ())
    keys;
  List.iter
    (fun (i, q) ->
      List.iter
        (fun (r : Acl.Rule.t) ->
          let priority = r.priority in
          let dummy = in_plan i priority in
          if dummy then incr dummies;
          expect
            (Printf.sprintf "is_dummy %d/%d" i priority)
            dummy
            (Layout.is_dummy layout ~ingress:i ~priority);
          for switch = 0 to Topo.Net.num_switches inst.Instance.net - 1 do
            let at = Printf.sprintf "%d/%d at %d" i priority switch in
            let v = scan i priority switch in
            expect ("var " ^ at) v
              (Layout.var layout ~ingress:i ~priority ~switch);
            match v with
            | Some v ->
              let no = monitored i r switch in
              if no then incr forbidden;
              expect ("forbidden " ^ at) no
                (List.mem v layout.Layout.forbidden)
            | None -> ()
          done)
        (Acl.Policy.rules q))
    inst.Instance.policies;
  expect "forbidden count" !forbidden (List.length layout.Layout.forbidden);
  Alcotest.(check (list string))
    (name ^ ": index agrees with keys")
    [] (List.rev !wrong);
  (!dummies, !forbidden, List.length layout.Layout.pinned)

(* Two policies on a star sharing a drop, merged by a hand-made plan
   whose second member is a shadowed copy of the drop marked as a dummy
   — the shape a merge-cycle break leaves. *)
let dummy_layout () =
  let r1 = Util.field ~src:"10.0.0.0/16" ~dst:"11.0.0.0/8" () in
  let r2 = Util.field ~src:"10.0.0.0/8" ~dst:"11.0.0.0/16" () in
  let net = Topo.Builder.star ~leaves:3 in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 1; 0; 2 ] ();
        Routing.Path.make ~ingress:1 ~egress:2 ~switches:[ 2; 0; 3 ] ();
      ]
  in
  let inst =
    Instance.make ~net ~routing
      ~policies:
        [
          (0, Acl.Policy.of_fields [ permit r1; drop r2 ]);
          (1, Acl.Policy.of_fields [ permit r1; drop r2; drop r2 ]);
        ]
      ~capacities:(Instance.uniform_capacity net 10)
  in
  let group =
    {
      Merge.gid = 0;
      field = r2;
      action = Acl.Rule.Drop;
      members =
        [
          { Merge.ingress = 0; priority = 1; is_dummy = false };
          { Merge.ingress = 1; priority = 1; is_dummy = true };
        ];
    }
  in
  Layout.build
    ~plan:{ Merge.groups = [ group ] }
    inst

(* Small seeded fat-tree layouts: merged, sliced and monitored (one edge
   switch watching all traffic), alone and combined. *)
let small_layouts () =
  let family ~mergeable ~slice =
    {
      Workload.default with
      Workload.k = 4;
      num_policies = 4;
      rules = 10;
      paths = 32;
      capacity = 16;
      mergeable;
      slice;
      seed = 41;
    }
  in
  let build ?monitors (f : Workload.family) =
    let inst = Workload.build f in
    let inst, plan =
      if f.Workload.mergeable > 0 then Merge.plan inst
      else (inst, Merge.empty_plan)
    in
    Layout.build ~sliced:f.Workload.slice ~plan ?monitors inst
  in
  let monitors =
    [
      ( List.hd (Topo.Net.switches_of_kind (Topo.Fattree.make 4) Topo.Net.Edge),
        Ternary.Field.any );
    ]
  in
  [
    ("merged", build (family ~mergeable:3 ~slice:false));
    ("sliced", build (family ~mergeable:0 ~slice:true));
    ("monitored", build ~monitors (family ~mergeable:0 ~slice:false));
    ("all three", build ~monitors (family ~mergeable:3 ~slice:true));
  ]

let test_variable_scoping () =
  let layout = Layout.build (two_path_instance ~capacity:10) in
  (* S_0 = all five switches; placed rules = the drop + its one dependent
     permit (the trailing permit is irrelevant: nothing depends on it). *)
  Alcotest.(check int) "vars = 2 rules x 5 switches" 10 (Layout.num_vars layout);
  (* The irrelevant permit (priority 1) gets no variables anywhere. *)
  for k = 0 to 4 do
    Alcotest.(check (option int))
      (Printf.sprintf "irrelevant permit unplaced at %d" k)
      None
      (Layout.var layout ~ingress:0 ~priority:1 ~switch:k)
  done;
  (* One implication per switch; one cover per path. *)
  Alcotest.(check int) "implications" 5 (List.length (implications layout));
  Alcotest.(check int) "implication rows" 5 layout.Layout.implication_rows;
  Alcotest.(check int) "covers" 2 (List.length (covers layout));
  (* Capacity 10 can never bind (at most 2 rules per switch): no rows. *)
  Alcotest.(check int) "no capacity rows" 0
    (List.length layout.Layout.capacities);
  (* The dense index inverts [key] on every instance shape. *)
  ignore (check_numbering "two paths" layout);
  let dummies, _, _ = check_numbering "dummy" (dummy_layout ()) in
  Alcotest.(check int) "one dummy" 1 dummies;
  let forbidden, pinned =
    List.fold_left
      (fun (f, p) (name, layout) ->
        let _, f', p' = check_numbering name layout in
        (f + f', p + p'))
      (0, 0) (small_layouts ())
  in
  Alcotest.(check bool) "monitors forbid some variables" true (forbidden > 0);
  Alcotest.(check bool) "some policies are pinned" true (pinned > 0)

let test_capacity_rows_appear_when_binding () =
  let layout = Layout.build (two_path_instance ~capacity:1) in
  (* Two potential rules per switch > capacity 1: every switch with vars
     gets a row. *)
  Alcotest.(check int) "capacity rows" 5 (List.length layout.Layout.capacities);
  List.iter
    (fun (c : Layout.capacity) ->
      Alcotest.(check int) "bound" 1 c.Layout.bound;
      Alcotest.(check int) "two plain vars" 2 (List.length c.Layout.plain))
    layout.Layout.capacities

let test_cover_uses_path_switches_only () =
  let layout = Layout.build (two_path_instance ~capacity:10) in
  List.iter
    (fun cover ->
      let len = List.length cover in
      Alcotest.(check bool) "cover size = path length" true
        (len = 3 || len = 4))
    (covers layout)

let test_baseline_counts_required_set () =
  let layout = Layout.build (two_path_instance ~capacity:10) in
  (* A = drop + its dependent permit. *)
  Alcotest.(check int) "A" 2 layout.Layout.baseline_rule_count

let test_sliced_layout_prunes () =
  let net = Topo.Builder.figure3 () in
  let flow_to h = Ternary.Field.make ~dst:(Topo.Net.host_prefix h) () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~flow:(flow_to 1) ~ingress:0 ~egress:1
          ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~flow:(flow_to 2) ~ingress:0 ~egress:2
          ~switches:[ 0; 1; 3; 4 ] ();
      ]
  in
  let dst_field h =
    Util.field ~dst:(Ternary.Prefix.to_string (Topo.Net.host_prefix h)) ()
  in
  let policy =
    Acl.Policy.of_fields
      [ (dst_field 1, Acl.Rule.Drop); (dst_field 2, Acl.Rule.Drop) ]
  in
  let inst =
    Instance.make ~net ~routing ~policies:[ (0, policy) ]
      ~capacities:(Instance.uniform_capacity net 5)
  in
  let unsliced = Layout.build inst in
  let sliced = Layout.build ~sliced:true inst in
  (* Unsliced: 2 covers per drop (both paths).  Sliced: 1 each. *)
  Alcotest.(check int) "unsliced covers" 4 (List.length (covers unsliced));
  Alcotest.(check int) "sliced covers" 2 (List.length (covers sliced))

let test_monitor_forbidden_vars () =
  let inst = two_path_instance ~capacity:10 in
  let monitors = [ (1, Util.field ~src:"10.0.0.0/8" ()) ] in
  let layout = Layout.build ~monitors inst in
  let forbidden priority switch =
    match Layout.var layout ~ingress:0 ~priority ~switch with
    | Some v -> List.mem v layout.Layout.forbidden
    | None -> Alcotest.fail "no variable"
  in
  (* The drop (priority 2) is fixed to 0 at switch 0 (upstream of the
     monitor on both paths); the permit is not a drop, so unaffected. *)
  Alcotest.(check bool) "drop forbidden at 0" true (forbidden 2 0);
  Alcotest.(check bool) "drop allowed at 1" false (forbidden 2 1);
  Alcotest.(check bool) "permit unaffected" false (forbidden 3 0);
  Alcotest.(check int) "one forbidden var" 1
    (List.length layout.Layout.forbidden);
  (* The verifier reads the monitors off the paths itself: the drop and
     its permit at switch 0 break the monitor, at switch 1 they do not. *)
  let at k =
    Array.init (Layout.num_vars layout) (fun v ->
        match Layout.key layout v with
        | Layout.Place { switch; _ } -> switch = k
        | Layout.Merged _ -> false)
  in
  let monitor_violations k =
    Verify.structural layout
      (Solution.of_assignment layout (at k) ~objective:2.0)
    |> List.filter (function Verify.Monitor _ -> true | _ -> false)
  in
  Alcotest.(check int) "a drop at 0 breaks the monitor" 1
    (List.length (monitor_violations 0));
  Alcotest.(check int) "a drop at 1 does not" 0
    (List.length (monitor_violations 1))

(* A random k=4/6 family's layout, with and without slicing, the merge
   plan and a monitor at one switch that sees all traffic. *)
let random_layout seed =
  let g = Prng.create seed in
  let f =
    {
      Workload.k = (if Prng.bool g then 4 else 6);
      num_policies = Prng.int_in g 2 5;
      rules = Prng.int_in g 4 12;
      mergeable = Prng.int_in g 0 3;
      paths = Prng.int_in g 8 40;
      capacity = Prng.int_in g 6 30;
      seed;
      slice = Prng.bool g;
      ingress_mode =
        (if Prng.bool g then Workload.Spread else Workload.Contiguous);
    }
  in
  let inst = Workload.build f in
  let inst, plan =
    if f.Workload.mergeable > 0 && Prng.bool g then Merge.plan inst
    else (inst, Merge.empty_plan)
  in
  let monitors =
    if Prng.bool g then []
    else
      let switches = Topo.Net.num_switches inst.Instance.net in
      [ (Prng.int g switches, Ternary.Field.any) ]
  in
  (g, Layout.build ~sliced:f.Workload.slice ~plan ~monitors inst)

(* No two rows of an encoded model share their sense and packed terms:
   paths with equal switch sets get one cover row per drop, and nothing
   else repeats. *)
let prop_no_duplicate_rows =
  QCheck.Test.make ~name:"encoded rows are pairwise distinct" ~count:40
    QCheck.int (fun seed ->
      let _, layout = random_layout seed in
      let model = (Encode.to_model layout).Encode.model in
      let seen = Hashtbl.create 256 in
      Array.iteri
        (fun i (sense, terms, _) ->
          let key = (sense, terms) in
          match Hashtbl.find_opt seen key with
          | Some j -> QCheck.Test.fail_reportf "rows %d and %d are equal" j i
          | None -> Hashtbl.add seen key i)
        (Util.model_rows model);
      true)

(* The paper's rows as Encode wrote them before it filled the solver's
   matrix itself: one [Ilp.Model] builder call per row.  Returns the
   model, the objective constant of the pinned policies' rules (each at
   its ingress switch, 0 hops out) and each row as (sense, (coef,
   layout var) terms, rhs) for an evaluation that never reads a
   matrix. *)
let builder_encoding objective (layout : Layout.t) =
  let n = Layout.num_vars layout in
  let cost k =
    match objective with
    | Encode.Total_rules | Encode.Upstream_drops -> 1.0
    | Encode.Switch_weighted w -> w.(k)
  in
  let constant =
    List.fold_left
      (fun acc (_, k0, rules) -> acc +. (float_of_int rules *. cost k0))
      0.0 layout.Layout.pinned
  in
  let coef =
    Array.init n (fun v ->
        Encode.assignment_objective ~objective layout
          (Array.init n (fun u -> u = v))
        -. constant)
  in
  let model = Ilp.Model.create () in
  let xs = Array.init n (fun _ -> Ilp.Model.binary model) in
  let x v = xs.(v) in
  let rows = ref [] in
  let add sense terms b =
    rows := (sense, terms, b) :: !rows;
    let terms = List.map (fun (c, v) -> (c, x v)) terms in
    match sense with
    | Ilp.Model.Le -> Ilp.Model.add_le model terms b
    | Ilp.Model.Ge -> Ilp.Model.add_ge model terms b
    | Ilp.Model.Eq -> Ilp.Model.add_eq model terms b
  in
  let implies a b =
    rows := (Ilp.Model.Le, [ (1.0, a); (-1.0, b) ], 0.0) :: !rows;
    Ilp.Model.implies model (x a) (x b)
  in
  Layout.iter_implications layout implies;
  List.iter
    (fun v ->
      rows := (Ilp.Model.Eq, [ (1.0, v) ], 0.0) :: !rows;
      Ilp.Model.fix model (x v) false)
    layout.Layout.forbidden;
  List.iter
    (fun cover -> add Ilp.Model.Ge (List.map (fun v -> (1.0, v)) cover) 1.0)
    (covers layout);
  List.iter
    (fun (cap : Layout.capacity) ->
      add Ilp.Model.Le
        (List.map (fun v -> (1.0, v)) cap.Layout.plain
        @ List.concat_map
            (fun (mv, ms) ->
              (1.0 -. float_of_int (List.length ms), mv)
              :: List.map (fun v -> (1.0, v)) ms)
            cap.Layout.grouped)
        (float_of_int cap.Layout.bound))
    layout.Layout.capacities;
  List.iter
    (fun (mv, ms) ->
      add Ilp.Model.Ge
        ((1.0, mv) :: List.map (fun v -> (-1.0, v)) ms)
        (1.0 -. float_of_int (List.length ms));
      List.iter (implies mv) ms)
    layout.Layout.merge_defs;
  let objective =
    List.filter_map
      (fun v ->
        if coef.(v) <> 0.0 then Some (coef.(v), v) else None)
      (List.init n Fun.id)
  in
  Ilp.Model.set_objective model (List.map (fun (c, v) -> (c, x v)) objective);
  (model, constant, List.rev !rows, objective)

(* Single-variable flips of a feasible point that break exactly one
   row, over the whole run: the next case checks it is not vacuous. *)
let one_row_breaks = ref 0

(* The encoder's matrix, rhs, senses and objective equal the builder's,
   bit for bit, and the solver's feasibility check and objective agree
   with each row evaluated in its own sense on random 0-1 points, a
   feasible point and its one-variable flips. *)
let prop_encoder_matches_builder =
  QCheck.Test.make ~name:"encoder matrix equals the row-by-row builder's"
    ~count:40 QCheck.int (fun seed ->
      let g, layout = random_layout seed in
      let objective =
        match Prng.int g 3 with
        | 0 -> Encode.Total_rules
        | 1 -> Encode.Upstream_drops
        | _ ->
          Encode.Switch_weighted
            (Array.init
               (Topo.Net.num_switches layout.Layout.instance.Instance.net)
               (fun _ -> float_of_int (Prng.int g 4)))
      in
      let enc = Encode.to_model ~objective layout in
      let model, constant, rows, obj = builder_encoding objective layout in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let bits = Array.map Int64.bits_of_float in
      (* Entries past [rowptr.(m)] are spare room. *)
      let arrays (a : Simplex.Csc.t) =
        let live x = Array.sub x 0 (Simplex.Csc.nnz a) in
        ( (a.m, a.n, a.rowptr, live a.colind, a.colptr, a.rowind),
          (bits (live a.rval), bits a.cval) )
      in
      if
        arrays (Ilp.Model.matrix enc.Encode.model)
        <> arrays (Ilp.Model.matrix model)
      then fail "matrices differ";
      if bits (Ilp.Model.rhs enc.Encode.model) <> bits (Ilp.Model.rhs model)
      then fail "right-hand sides differ";
      let senses m =
        let l = ref [] in
        Ilp.Model.iter_rows m (fun sense i s -> l := (sense, i, s) :: !l);
        !l
      in
      if senses enc.Encode.model <> senses model then fail "senses differ";
      if Ilp.Model.objective enc.Encode.model <> Ilp.Model.objective model then
        fail "objectives differ";
      if Int64.bits_of_float enc.Encode.constant <> Int64.bits_of_float constant
      then fail "constants differ: %g, %g" enc.Encode.constant constant;
      (* Each row in its own sense, over layout variables. *)
      let value p v = p.(v) in
      let broken p =
        List.length
          (List.filter
             (fun (sense, terms, b) ->
               let lhs =
                 List.fold_left
                   (fun acc (c, v) -> if value p v then acc +. c else acc)
                   0.0 terms
               in
               not
                 (match sense with
                 | Ilp.Model.Le -> lhs <= b +. 1e-6
                 | Ilp.Model.Ge -> lhs >= b -. 1e-6
                 | Ilp.Model.Eq -> Float.abs (lhs -. b) <= 1e-6))
             rows)
      in
      let check p =
        let k = broken p in
        if Ilp.Solver.check_feasible enc.Encode.model p <> (k = 0) then
          fail "check_feasible disagrees on a point breaking %d rows" k;
        let expected =
          List.fold_left
            (fun acc (c, v) -> if value p v then acc +. c else acc)
            0.0 obj
        in
        if Ilp.Solver.objective_value enc.Encode.model p <> expected then
          fail "objective_value disagrees";
        k
      in
      let nv = Ilp.Model.num_vars enc.Encode.model in
      for _ = 1 to 20 do
        ignore (check (Array.init nv (fun _ -> Prng.bool g)))
      done;
      (match
         Ilp.Solver.solve
           ~config:{ Ilp.Solver.default_config with time_limit = 10.0 }
           enc.Encode.model
       with
      | (Ilp.Solver.Optimal s | Ilp.Solver.Feasible s), _ ->
        if check s.Ilp.Solver.values <> 0 then fail "the optimum breaks a row";
        for j = 0 to nv - 1 do
          let p = Array.copy s.Ilp.Solver.values in
          p.(j) <- not p.(j);
          if check p = 1 then incr one_row_breaks
        done
      | _ -> ());
      true)

let test_one_row_breaks () =
  Alcotest.(check bool)
    (Printf.sprintf "%d flips broke exactly one row" !one_row_breaks)
    true (!one_row_breaks > 0)

(* The cover rows as [Layout.build] listed them before it kept (path,
   drop slot) pairs, read off the public index: per free policy, the
   last policy first, the paths and drops walked backwards, the first
   row of each (drop, path switch set) kept, each row the drop's
   variables along its path. *)
let reference_covers (layout : Layout.t) =
  let inst = layout.Layout.instance in
  let sliced = layout.Layout.sliced in
  List.fold_left
    (fun rows (i, q) ->
      if List.exists (fun (i', _, _) -> i' = i) layout.Layout.pinned then rows
      else
        let paths = Routing.Table.paths_from inst.Instance.routing i in
        let meets (w : Acl.Rule.t) (p : Routing.Path.t) =
          (not sliced) || Ternary.Field.overlaps w.field p.Routing.Path.flow
        in
        let drops =
          List.filter
            (fun (w : Acl.Rule.t) ->
              (not (Layout.is_dummy layout ~ingress:i ~priority:w.priority))
              && List.exists (meets w) paths)
            (Acl.Policy.drops q)
        in
        let var (w : Acl.Rule.t) k =
          match Layout.var layout ~ingress:i ~priority:w.priority ~switch:k with
          | Some v -> v
          | None -> Alcotest.failf "no variable for %d/%d at %d" i w.priority k
        in
        let seen = Hashtbl.create 64 and own = ref [] in
        List.iter
          (fun (p : Routing.Path.t) ->
            let set =
              List.sort compare (Array.to_list p.Routing.Path.switches)
            in
            List.iter
              (fun (w : Acl.Rule.t) ->
                if (not (Hashtbl.mem seen (set, w.priority))) && meets w p
                then begin
                  Hashtbl.add seen (set, w.priority) ();
                  own :=
                    List.map (var w) (Array.to_list p.Routing.Path.switches)
                    :: !own
                end)
              (List.rev drops))
          (List.rev paths);
        List.rev_append !own rows)
    [] inst.Instance.policies

(* The implication rows as [Layout.build] listed them before it kept
   (drop slot, permit slot) pairs, read off the public index: per free
   policy in ingress order, each placed drop (the relevant ones, then
   the dummy drops), each permit it depends on and each switch of
   [S_i] ascending, consed onto one list, so the list runs last row
   first. *)
let reference_implications (layout : Layout.t) =
  let inst = layout.Layout.instance in
  let sliced = layout.Layout.sliced in
  List.fold_left
    (fun rows (i, q) ->
      if List.exists (fun (i', _, _) -> i' = i) layout.Layout.pinned then rows
      else
        let paths = Routing.Table.paths_from inst.Instance.routing i in
        let dummy (r : Acl.Rule.t) =
          Layout.is_dummy layout ~ingress:i ~priority:r.priority
        in
        let relevant (w : Acl.Rule.t) =
          (not sliced)
          || List.exists
               (fun (p : Routing.Path.t) ->
                 Ternary.Field.overlaps w.field p.Routing.Path.flow)
               paths
        in
        let placed_drops =
          List.filter (fun w -> (not (dummy w)) && relevant w)
            (Acl.Policy.drops q)
          @ List.filter
              (fun r -> dummy r && Acl.Rule.is_drop r)
              (Acl.Policy.rules q)
        in
        let switches =
          List.sort_uniq compare
            (List.concat_map
               (fun (p : Routing.Path.t) ->
                 Array.to_list p.Routing.Path.switches)
               paths)
        in
        let var (r : Acl.Rule.t) k =
          match Layout.var layout ~ingress:i ~priority:r.priority ~switch:k with
          | Some v -> v
          | None -> Alcotest.failf "no variable for %d/%d at %d" i r.priority k
        in
        let dep = Depgraph.build q in
        List.fold_left
          (fun rows w ->
            List.fold_left
              (fun rows u ->
                List.fold_left
                  (fun rows k -> (var w k, var u k) :: rows)
                  rows switches)
              rows
              (Depgraph.dependencies dep w))
          rows placed_drops)
    [] inst.Instance.policies

(* [Encode.feasible] as it read the rows when the layout kept them as
   lists: [imps] and [rows] are the reference implications and covers. *)
let reference_feasible (layout : Layout.t) imps rows a =
  let set = List.fold_left (fun n v -> if a.(v) then n + 1 else n) 0 in
  List.for_all (fun (vd, vp) -> (not a.(vd)) || a.(vp)) imps
  && List.for_all (fun v -> not a.(v)) layout.Layout.forbidden
  && List.for_all (List.exists (Array.get a)) rows
  && List.for_all
       (fun (c : Layout.capacity) ->
         List.fold_left
           (fun n (mv, ms) ->
             n + set ms - if a.(mv) then List.length ms - 1 else 0)
           (set c.Layout.plain) c.Layout.grouped
         <= c.Layout.bound)
       layout.Layout.capacities
  && List.for_all
       (fun (mv, ms) -> a.(mv) = (set ms = List.length ms))
       layout.Layout.merge_defs

(* Seeded fat-tree layouts at k = 4, 8 and 16, unsliced and sliced,
   spread and contiguous ingresses, each plain and with a merge plan
   and two monitors (an edge switch seeing all traffic, an aggregation
   switch seeing one prefix). *)
let differential_layouts () =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun slice ->
          List.concat_map
            (fun ingress_mode ->
              let f =
                {
                  Workload.k;
                  num_policies = 8;
                  rules = 12;
                  mergeable = 3;
                  paths = 16 * k;
                  capacity = 60;
                  seed = 17 + k;
                  slice;
                  ingress_mode;
                }
              in
              let inst = Workload.build f in
              let merged, plan = Merge.plan inst in
              let net = inst.Instance.net in
              let first kind = List.hd (Topo.Net.switches_of_kind net kind) in
              let monitors =
                [
                  (first Topo.Net.Edge, Ternary.Field.any);
                  ( first Topo.Net.Aggregation,
                    Util.field ~src:"10.0.0.0/12" () );
                ]
              in
              let name =
                Printf.sprintf "k=%d %s %s" k
                  (if slice then "sliced" else "unsliced")
                  (match ingress_mode with
                  | Workload.Spread -> "spread"
                  | Workload.Contiguous -> "contiguous")
              in
              [
                (name, Layout.build ~sliced:slice inst);
                ( name ^ " merged, monitored",
                  Layout.build ~sliced:slice ~plan ~monitors merged );
              ])
            [ Workload.Spread; Workload.Contiguous ])
        [ false; true ])
    [ 4; 8; 16 ]

(* Paths 0 and 2 of ingress 0 share a switch set in different orders,
   and each sliced flow meets one drop: the walk (paths 2, 1, 0) writes
   path 2's row, then path 1's, then path 0's, so the rows of the two
   switch sets interleave. *)
let interleaved_instance () =
  let net = Topo.Builder.figure3 () in
  let dst s = Ternary.Field.make ~dst:(Ternary.Prefix.of_string s) () in
  let routing =
    Routing.Table.of_paths
      [
        Routing.Path.make ~flow:(dst "10.0.1.0/24") ~ingress:0 ~egress:1
          ~switches:[ 0; 1; 2 ] ();
        Routing.Path.make ~flow:(dst "10.0.2.0/24") ~ingress:0 ~egress:2
          ~switches:[ 0; 1; 3; 4 ] ();
        Routing.Path.make ~flow:(dst "10.9.0.0/16") ~ingress:0 ~egress:1
          ~switches:[ 2; 1; 0 ] ();
      ]
  in
  let policy =
    Acl.Policy.of_fields
      [
        (Util.field ~dst:"10.0.1.0/24" (), Acl.Rule.Drop);
        (Util.field ~dst:"10.0.2.0/24" (), Acl.Rule.Drop);
        (Util.field ~dst:"10.9.0.0/16" (), Acl.Rule.Drop);
      ]
  in
  Instance.make ~net ~routing ~policies:[ (0, policy) ]
    ~capacities:(Instance.uniform_capacity net 5)

(* Paths of ingress 0 whose switch positions a weak grouping would
   merge.  [S_i] is switches 0-3, so a position is its switch.  Walked
   backwards: path 4 [3; 0] opens a group that path 0 [0; 3] joins
   (same switches, other order); path 3 [0; 1; 1] and path 2 [0; 0; 1]
   hold the same set but not the same multiset; path 1 [1; 2] and path
   0 [0; 3] have equal position sums.  Sliced, the flows of paths 2 and
   3 meet the drop of priority 1 and the others that of priority 2, so
   each pair that must stay apart meets the same drop. *)
let multiset_instance () =
  let net = Topo.Builder.figure3 () in
  let dst s = Ternary.Field.make ~dst:(Ternary.Prefix.of_string s) () in
  let path flow switches =
    Routing.Path.make ~flow:(dst flow) ~ingress:0 ~egress:1 ~switches ()
  in
  let routing =
    Routing.Table.of_paths
      [
        path "10.0.1.0/24" [ 0; 3 ];
        path "10.0.1.0/24" [ 1; 2 ];
        path "10.0.2.0/24" [ 0; 0; 1 ];
        path "10.0.2.0/24" [ 0; 1; 1 ];
        path "10.0.1.0/24" [ 3; 0 ];
      ]
  in
  let policy =
    Acl.Policy.of_fields
      [
        (Util.field ~dst:"10.0.1.0/24" (), Acl.Rule.Drop);
        (Util.field ~dst:"10.0.2.0/24" (), Acl.Rule.Drop);
      ]
  in
  Instance.make ~net ~routing ~policies:[ (0, policy) ]
    ~capacities:(Instance.uniform_capacity net 5)

(* The variable of [priority] at [switch] in ingress 0's block. *)
let var0 inst priority switch =
  Option.get (Layout.var (Layout.build inst) ~ingress:0 ~priority ~switch)

(* Each case [(name, sliced, want)]: [inst]'s cover rows are the list
   reference's and [want]. *)
let check_hand_built inst =
  List.iter (fun (name, sliced, want) ->
      let layout = Layout.build ~sliced inst in
      Alcotest.(check (list (list int)))
        (name ^ ": reference") (reference_covers layout) (covers layout);
      Alcotest.(check (list (list int))) name want (covers layout))

let test_covers_match_reference () =
  let layouts = differential_layouts () in
  List.iter
    (fun (name, layout) ->
      let rows = covers layout in
      Alcotest.(check (list (list int)))
        (name ^ ": rows and term order")
        (reference_covers layout) rows;
      Alcotest.(check int)
        (name ^ ": row count")
        (List.length rows) layout.Layout.cover_rows;
      Alcotest.(check int)
        (name ^ ": term count")
        (List.fold_left (fun n r -> n + List.length r) 0 rows)
        layout.Layout.cover_terms)
    layouts;
  Alcotest.(check bool) "some layouts are monitored and merged" true
    (List.exists
       (fun (_, (l : Layout.t)) ->
         l.Layout.forbidden <> [] && l.Layout.merge_defs <> [])
       layouts);
  let inst = interleaved_instance () in
  let v = var0 inst in
  check_hand_built inst
    [
      (* The drops have priorities 3, 2 and 1 and run backwards.
         Unsliced, path 2's order [2; 1; 0] serves its switch set. *)
      ( "unsliced",
        false,
        [
          [ v 1 2; v 1 1; v 1 0 ];
          [ v 2 2; v 2 1; v 2 0 ];
          [ v 3 2; v 3 1; v 3 0 ];
          [ v 1 0; v 1 1; v 1 3; v 1 4 ];
          [ v 2 0; v 2 1; v 2 3; v 2 4 ];
          [ v 3 0; v 3 1; v 3 3; v 3 4 ];
        ] );
      ( "sliced",
        true,
        [
          [ v 1 2; v 1 1; v 1 0 ];
          [ v 2 0; v 2 1; v 2 3; v 2 4 ];
          [ v 3 0; v 3 1; v 3 2 ];
        ] );
    ];
  let inst = multiset_instance () in
  let row priority = List.map (var0 inst priority) in
  check_hand_built inst
    [
      (* Four groups, each row of both drops from its first path. *)
      ( "multisets unsliced",
        false,
        [
          row 1 [ 3; 0 ];
          row 2 [ 3; 0 ];
          row 1 [ 0; 1; 1 ];
          row 2 [ 0; 1; 1 ];
          row 1 [ 0; 0; 1 ];
          row 2 [ 0; 0; 1 ];
          row 1 [ 1; 2 ];
          row 2 [ 1; 2 ];
        ] );
      ( "multisets sliced",
        true,
        [ row 2 [ 3; 0 ]; row 1 [ 0; 1; 1 ]; row 1 [ 0; 0; 1 ]; row 2 [ 1; 2 ] ]
      );
    ]

(* [Layout.iter_implications] against the list [Layout.build] kept
   before, pair by pair and in order: unsliced and sliced, spread and
   contiguous, plain and with a merge plan and monitors (the
   differential layouts, the small seeded ones, the hand-made dummy
   layout and random draws), pinned policies among them. *)
let test_implications_match_reference () =
  let layouts =
    differential_layouts () @ small_layouts ()
    @ [ ("dummy", dummy_layout ()) ]
    @ List.init 20 (fun seed ->
          (Printf.sprintf "random %d" seed, snd (random_layout seed)))
  in
  List.iter
    (fun (name, layout) ->
      let rows = implications layout in
      Alcotest.(check (list (pair int int)))
        (name ^ ": rows and order")
        (reference_implications layout)
        rows;
      Alcotest.(check int)
        (name ^ ": row count")
        (List.length rows) layout.Layout.implication_rows)
    layouts;
  let dummy_drop (l : Layout.t) =
    List.exists
      (fun (d, _) ->
        match Layout.key l d with
        | Layout.Place { ingress; priority; _ } ->
          Layout.is_dummy l ~ingress ~priority
        | Layout.Merged _ -> false)
      (implications l)
  in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) ("some layout " ^ what) true
        (List.exists (fun (_, l) -> p l) layouts))
    [
      ( "pins a policy and has implications",
        fun l -> l.Layout.pinned <> [] && l.Layout.implication_rows > 0 );
      ( "is sliced, monitored and merged",
        fun l ->
          l.Layout.sliced && l.Layout.forbidden <> []
          && l.Layout.merge_defs <> [] );
      ("has a dummy drop's implication", dummy_drop);
    ]

(* [Encode.feasible] against the list-based check on each layout's
   greedy assignment and every single-variable flip of it. *)
let test_feasible_matches_reference () =
  let agreed = ref 0 and infeasible = ref 0 in
  List.iter
    (fun (name, layout) ->
      match Baseline.greedy_assignment layout with
      | None -> ()
      | Some a ->
        let imps = reference_implications layout
        and rows = reference_covers layout in
        let check what a =
          let want = reference_feasible layout imps rows a in
          if Encode.feasible layout a <> want then
            Alcotest.failf "%s: feasible disagrees on %s" name what;
          incr agreed;
          if not want then incr infeasible
        in
        check "the greedy assignment" a;
        for v = 0 to Array.length a - 1 do
          a.(v) <- not a.(v);
          check (Printf.sprintf "flip %d" v) a;
          a.(v) <- not a.(v)
        done)
    (differential_layouts ());
  Alcotest.(check bool)
    (Printf.sprintf "%d points, %d infeasible" !agreed !infeasible)
    true
    (!infeasible > 0 && !infeasible < !agreed)

(* One layout read from two domains at once gives each the same model
   text and feasibility answers as a read on its own: [Layout.t] holds
   no state that a read fills in. *)
let test_two_domains_read_one_layout () =
  let layout, a =
    match
      List.find_map
        (fun (_, (l : Layout.t)) ->
          if l.Layout.merge_defs = [] || l.Layout.forbidden = [] then None
          else Option.map (fun a -> (l, a)) (Baseline.greedy_assignment l))
        (differential_layouts ())
    with
    | Some found -> found
    | None -> Alcotest.fail "no merged, monitored layout has a greedy point"
  in
  let points =
    a
    :: List.init (Array.length a) (fun v ->
           Array.mapi (fun u x -> if u = v then not x else x) a)
  in
  let read () =
    List.init 5 (fun _ ->
        ( Ilp.Model.to_lp_string (Encode.to_model layout).Encode.model,
          List.map (Encode.feasible layout) points ))
  in
  let d1 = Domain.spawn read and d2 = Domain.spawn read in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let alone = List.hd (read ()) in
  List.iter
    (fun (lp, answers) ->
      Alcotest.(check string) "model text" (fst alone) lp;
      Alcotest.(check (list bool)) "feasibility" (snd alone) answers)
    (r1 @ r2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_duplicate_rows;
    QCheck_alcotest.to_alcotest prop_encoder_matches_builder;
    Alcotest.test_case "encoder differential broke single rows" `Quick
      test_one_row_breaks;
    Alcotest.test_case "variable scoping" `Quick test_variable_scoping;
    Alcotest.test_case "capacity rows bind" `Quick test_capacity_rows_appear_when_binding;
    Alcotest.test_case "covers follow paths" `Quick test_cover_uses_path_switches_only;
    Alcotest.test_case "cover rows match the list reference" `Quick
      test_covers_match_reference;
    Alcotest.test_case "implications match the list reference" `Quick
      test_implications_match_reference;
    Alcotest.test_case "feasible matches the list reference" `Quick
      test_feasible_matches_reference;
    Alcotest.test_case "two domains read one layout" `Quick
      test_two_domains_read_one_layout;
    Alcotest.test_case "baseline A" `Quick test_baseline_counts_required_set;
    Alcotest.test_case "sliced pruning" `Quick test_sliced_layout_prunes;
    Alcotest.test_case "monitor forbidden vars" `Quick test_monitor_forbidden_vars;
  ]
