(* Golden digests of the placement ILP front end, captured before the
   rows became packed arrays.  For a fixed set of instances — three
   paper-grid ones (fat-tree k=16, 1024 paths, 20 rules, capacity 140)
   and ten seeded k=4/6 ones covering merged, sliced, spread and
   contiguous layouts — the test pins the LP text of [Encode.to_model]
   and of the [Presolve.reduce] result with its [keep]/[fixed] maps and
   objective offset (plus an upstream-drops and a monitored encoding),
   and the exact simplex pivot count of one k=16 root LP and of four
   full default-config ILP solves.  Any
   change to how rows are stored, presolved or handed to the LP that
   alters a reduction, a coefficient, a row order or a pivot shows up
   here as a mismatch. *)

let paper i =
  {
    Workload.default with
    Workload.k = 16;
    num_policies = 8;
    rules = 20;
    paths = 1024;
    capacity = 140;
    seed = 100_003 + i;
  }

let small i =
  {
    Workload.k = (if i mod 2 = 0 then 4 else 6);
    num_policies = 4 + (i mod 3);
    rules = 8 + i;
    mergeable = (if i mod 3 = 0 then 0 else 3);
    paths = 24 + (4 * i);
    capacity = 10 + (3 * (i mod 4));
    seed = 7 + (31 * i);
    slice = i mod 4 >= 2;
    ingress_mode = (if i mod 3 = 0 then Workload.Spread else Workload.Contiguous);
  }

(* The layout [Placement.Solve.run] would solve: redundancy removal,
   then the merge plan when the family has mergeable rules. *)
let layout_of ?monitors (f : Workload.family) =
  let inst =
    Placement.Instance.map_policies (Workload.build f) (fun _ q ->
        fst (Acl.Redundancy.remove q))
  in
  let inst, plan =
    if f.Workload.mergeable > 0 then Placement.Merge.plan inst
    else (inst, Placement.Merge.empty_plan)
  in
  Placement.Layout.build ~sliced:f.Workload.slice ~plan ?monitors inst

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let hex s = Digest.to_hex (Digest.string s)

(* Presolve's result: the reduced model's LP text, the [keep] and
   [fixed] maps and the objective offset, or "infeasible". *)
let reduction_text model =
  match Ilp.Presolve.reduce model with
  | Ilp.Presolve.Infeasible -> "infeasible"
  | Ilp.Presolve.Reduced r ->
    Printf.sprintf "%s %s %s %h"
      (Ilp.Model.to_lp_string r.Ilp.Presolve.reduced)
      (ints r.Ilp.Presolve.keep)
      (ints r.Ilp.Presolve.fixed)
      r.Ilp.Presolve.obj_offset

(* One line per layout: digests of the encoded model's LP text and of
   its reduction. *)
let layout_line ?objective layout =
  let model, _ = Placement.Encode.to_model ?objective layout in
  Printf.sprintf "%s %s"
    (hex (Ilp.Model.to_lp_string model))
    (hex (reduction_text model))

let instance_line f = layout_line (layout_of f)

(* Two lines beyond the total-rules encodings above, recorded before
   the layout moved to a dense variable index: the upstream-drops
   objective of the first paper-grid instance, which pins the layout's
   per-variable weights, and the merged, sliced small instance 2 with
   one edge switch monitoring all traffic (still feasible, 24 forbidden
   variables), which pins the forbidden set and its order. *)
let weighted_lines () =
  let upstream =
    layout_line ~objective:Placement.Encode.Upstream_drops (layout_of (paper 0))
  in
  let f = small 2 in
  let net = Topo.Fattree.make f.Workload.k in
  let monitors =
    [
      ( List.nth (Topo.Net.switches_of_kind net Topo.Net.Edge) 1,
        Ternary.Field.any );
    ]
  in
  [ upstream; layout_line (layout_of ~monitors f) ]

let expected_weighted =
  [
    "e0a9837d505ad58ed3b97aac819d5811 3588763f63e36a0bc123c33c454f4c97";
    "68836501a2e5cb8fac6fec9eddbfc8bb 69943f9f6f2abc4eafbbb03c524c4159";
  ]

let expected_lines =
  [
    "eba6df4d252d08c30ef719c17454cc2e d44a57d5a3c0c9d47fc76d2da5602ae6";
    "14a9e49d961748f84a1b8e0a71ee55d4 f0aa8a5f772b356b32af3d9acbfb3114";
    "4f4f4f9e057ba02fc95eb1eb5229fb43 63ba268ed1467faa68b2ebcba68e5f6a";
    "731355a3f6d20f4ed99d9888e165b604 46db6a36fbda9e043af33ad0c479cc37";
    "b56887a2743b58c7803e12825b25a7b8 9a29c024d9bc75fe68358dbdccc75c16";
    "eb2ff7b545df4c197746c53e1c886597 4cf08618cc49d1f46c9c686eb97699e5";
    "bcb5567842c7a95145391ba9b5660dfb 2638fbfe3af6e84a419dc2c69cb5c0b0";
    "64969310be2f4e7a3a7d7bf1b61368da fc988471d247479f88a57e29916bbf82";
    "8033cde2155ea621dd3dbb3fcc4a816e 825d9a3bb4bf81ad7f0b09b2dd100d7c";
    "a34ce6e73d4b27d1d0469a1e36aa3206 841868ebb8b0a2be0110a9efdc5c7d3f";
    "af9dcf6aad90af3193409a72e9a0a34d b12ae3963c9faffc22275c85248453c6";
    "a8a26b16f17ec66707250043875fa494 fc988471d247479f88a57e29916bbf82";
    "31098f099c9dda3c3efb90f4b95c70a6 514632eef6b71b5cc38fc48a4b0091a2";
  ]

let pivots =
  Telemetry.Metrics.counter ~help:"simplex basis pivots"
    "sdnplace_simplex_pivots_total"

let with_metrics f =
  let was = Telemetry.Metrics.is_enabled () in
  Telemetry.Metrics.enable ();
  Fun.protect f ~finally:(fun () ->
      if not was then Telemetry.Metrics.disable ())

let count_pivots f =
  with_metrics @@ fun () ->
  let p0 = Telemetry.Metrics.counter_value pivots in
  let r = f () in
  (r, Telemetry.Metrics.counter_value pivots - p0)

(* Root LP of the first paper-grid instance's reduced model, crashed
   from the greedy incumbent exactly as a production solve does; the
   node limit stops the search right after the root.  Then the full
   default-config solve (presolve, cuts, pump) of each paper-grid
   instance and of a tight k=8 instance whose root runs the cut loop and
   the feasibility pump: objective, nodes, LP calls and pivots. *)
let tight = { Workload.default with Workload.k = 8; capacity = 6; seed = 2 }

let family_model f =
  let layout = layout_of f in
  let model, _ = Placement.Encode.to_model layout in
  (* The incumbent a production solve starts from: greedy, else a
     short SAT probe. *)
  let warm =
    match Placement.Baseline.greedy_assignment layout with
    | Some a -> Some a
    | None ->
      (Placement.Sat_encode.solve ~conflict_limit:5_000 layout)
        .Placement.Sat_encode.assignment
  in
  (model, warm)

let root_lp_line () =
  let model, greedy = family_model (paper 0) in
  let red =
    match Ilp.Presolve.reduce model with
    | Ilp.Presolve.Reduced r -> r
    | Ilp.Presolve.Infeasible -> Alcotest.fail "paper instance 0 infeasible"
  in
  let root_config =
    {
      Ilp.Solver.default_config with
      Ilp.Solver.presolve = false;
      cuts = false;
      fpump = false;
      node_limit = 0;
    }
  in
  let (_, root_stats), root_pivots =
    count_pivots (fun () ->
        Ilp.Solver.solve ~config:root_config
          ~warm_start:(Ilp.Presolve.project red (Option.get greedy))
          red.Ilp.Presolve.reduced)
  in
  let full f =
    let model, greedy = family_model f in
    let (outcome, stats), pivots =
      count_pivots (fun () -> Ilp.Solver.solve ?warm_start:greedy model)
    in
    let objective =
      match outcome with
      | Ilp.Solver.Optimal s -> Printf.sprintf "%h" s.Ilp.Solver.objective
      | o -> Format.asprintf "%a" Ilp.Solver.pp_outcome o
    in
    Printf.sprintf "; full %s %d %d %d" objective stats.Ilp.Solver.nodes
      stats.Ilp.Solver.lp_calls pivots
  in
  Printf.sprintf "root %h %d%s" root_stats.Ilp.Solver.root_bound root_pivots
    (String.concat "" (List.map full (List.init 3 paper @ [ tight ])))

let expected_root =
  "root 0x1.bp+4 52; full 0x1.48p+6 0 1 52; full 0x1.3p+6 0 1 52; full 0x1.34p+6 0 \
   1 40; full 0x1.0ap+7 0 4 1684"

let test_golden () =
  let got =
    List.map instance_line (List.init 3 paper @ List.init 10 small)
  in
  if got <> expected_lines then
    Alcotest.failf "front-end digests changed:\n%s" (String.concat "\n" got);
  let weighted = weighted_lines () in
  if weighted <> expected_weighted then
    Alcotest.failf "weighted or monitored digests changed:\n%s"
      (String.concat "\n" weighted);
  let root = root_lp_line () in
  Alcotest.(check string) "root LP pivots" expected_root root

let suite = [ Alcotest.test_case "front-end digests and root pivots" `Quick test_golden ]
