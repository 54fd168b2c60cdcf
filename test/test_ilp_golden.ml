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
   here as a mismatch.

   The encoded-model digests of paper instances 0-2, small instances 0
   and 9 and the upstream-drops line were re-pinned when [Layout] began
   pinning forced policies: their encoded models lost the pinned
   variables and rows, so the LP text and the [keep]/[fixed] maps
   changed.  The reduced models, their total constant, the placements
   (pinned by the second case below) and every pivot count did not. *)

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
  let model =
    (Placement.Encode.to_model ?objective layout).Placement.Encode.model
  in
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
    "4464cbbb591b1e602b3e3058e34b9c1a 051c6c6bf6b472bca8ff88d9765f0fa8";
    "68836501a2e5cb8fac6fec9eddbfc8bb 69943f9f6f2abc4eafbbb03c524c4159";
  ]

let expected_lines =
  [
    "71ba57f9717722f5909bfef295c79765 ebd22553681a950182b87fd1db5afd28";
    "16011f445569ff765cab830ab3384e25 8615e85c7f82fb3d37f7c9dd7e99579b";
    "ecf08f9bfa07c9c81b784e6cc51ee6d3 b1cac1415c30881c9937d408820849cb";
    "88e99d4224f5b9a521fec305290ec8c7 d444e04887f8a486068d522deeeccd87";
    "b56887a2743b58c7803e12825b25a7b8 9a29c024d9bc75fe68358dbdccc75c16";
    "eb2ff7b545df4c197746c53e1c886597 4cf08618cc49d1f46c9c686eb97699e5";
    "bcb5567842c7a95145391ba9b5660dfb 2638fbfe3af6e84a419dc2c69cb5c0b0";
    "64969310be2f4e7a3a7d7bf1b61368da fc988471d247479f88a57e29916bbf82";
    "8033cde2155ea621dd3dbb3fcc4a816e 825d9a3bb4bf81ad7f0b09b2dd100d7c";
    "a34ce6e73d4b27d1d0469a1e36aa3206 841868ebb8b0a2be0110a9efdc5c7d3f";
    "af9dcf6aad90af3193409a72e9a0a34d b12ae3963c9faffc22275c85248453c6";
    "a8a26b16f17ec66707250043875fa494 fc988471d247479f88a57e29916bbf82";
    "20c76bc2d5fb00bbf7cc0711bc7dc2b0 798a13ee1c91b905b8fd8d50bbc6c1d7";
  ]

(* Same-work digests, recorded before forced policies were pinned in
   the layout.  Per layout: the reduced model's LP text with the total
   objective constant (presolve's offset plus the cost of what the
   layout pins to 1), and the status, objective and sorted placements
   of the [Solve.run] that builds the layout.  Pinning may shrink the
   encoded model but must leave the model the search sees, and its
   answer, exactly as they were. *)
let total_constant_text ?objective layout =
  let enc = Placement.Encode.to_model ?objective layout in
  match Ilp.Presolve.reduce enc.Placement.Encode.model with
  | Ilp.Presolve.Infeasible -> "infeasible"
  | Ilp.Presolve.Reduced r ->
    Printf.sprintf "%s %h"
      (Ilp.Model.to_lp_string r.Ilp.Presolve.reduced)
      (r.Ilp.Presolve.obj_offset +. enc.Placement.Encode.constant)

let placements_text (r : Placement.Solve.report) =
  let cells (sol : Placement.Solution.t) =
    Array.to_list sol.Placement.Solution.per_switch
    |> List.mapi (fun k cells ->
           List.map
             (fun (c : Placement.Solution.cell) ->
               List.sort compare c.Placement.Solution.tags
               |> List.map (fun (i, p) -> Printf.sprintf "%d/%d" i p)
               |> String.concat "+"
               |> Printf.sprintf "%d:%s" k)
             cells)
    |> List.concat |> List.sort compare |> String.concat ","
  in
  Format.asprintf "%a %s" Placement.Encode.pp_status r.Placement.Solve.status
    (match r.Placement.Solve.solution with
    | Some sol ->
      Printf.sprintf "%h %s" sol.Placement.Solution.objective (cells sol)
    | None -> "-")

let same_work_line ?objective ?monitors ?(solve = true) (f : Workload.family)
    =
  let placements =
    if solve then
      let options =
        Placement.Solve.options ~merge:(f.Workload.mergeable > 0)
          ~slice:f.Workload.slice ?monitors ?objective ()
      in
      hex (placements_text (Placement.Solve.run ~options (Workload.build f)))
    else "-"
  in
  Printf.sprintf "%s %s"
    (hex (total_constant_text ?objective (layout_of ?monitors f)))
    placements

(* Small instance 5 is solved for its model only: its merged pipeline
   warm-starts from a plain solve with no incumbent, whose cold root LP
   (ROADMAP item 1) takes about ten seconds of its 15 s budget. *)
let same_work_lines () =
  List.map same_work_line (List.init 3 paper)
  @ List.init 10 (fun i -> same_work_line ~solve:(i <> 5) (small i))
  @ [
      same_work_line ~objective:Placement.Encode.Upstream_drops (paper 0);
      (let f = small 2 in
       let net = Topo.Fattree.make f.Workload.k in
       same_work_line
         ~monitors:
           [
             ( List.nth (Topo.Net.switches_of_kind net Topo.Net.Edge) 1,
               Ternary.Field.any );
           ]
         f);
    ]

let expected_same_work =
  [
    "1a5fb883cf3ca96752c4f08b28501679 07058fdb191cd007a44f4ff0531f87e7";
    "5e0d91000a4081509844efbebb0e5a02 3f2f0cbfd7622053d5926b3dcca7cf5b";
    "c0214f226b888e618269d7419dc40a20 082c522dfa981743dbf0b49c0660c54f";
    "082993eb521d7d14ab39ed31c0b24ab1 87c72ddcd80292ab9ba9053d7a16cec8";
    "a1a1198c115c9d9de539db07505766dc 76a6f4e34cb221ea50328eb837a6833e";
    "7a38bc1072d24d7aa5784d3f719f6f83 8952ba8838f0a00d6be0f70161c51dc4";
    "b7af19fb980316ed0e76650c95fe7bf9 bfaa1e8b2d25d5e8a67293cc3b660e27";
    "fc988471d247479f88a57e29916bbf82 334f0281473ff90108281aab2733c124";
    "b57fd76a71111a15a7fe20be7676a117 -";
    "a9aa5aa01272e54248cde94682db8c7b 7018116aeeb7366132d7e35bd1005494";
    "fb271a8bf5bf2a42c8783792f55fa1d1 2dc045d730a62a007892901c5202466f";
    "fc988471d247479f88a57e29916bbf82 334f0281473ff90108281aab2733c124";
    "66f53976ed4db0beada0526ca27e8285 d4eeb7c7bad753aa32ca8b49caeaf473";
    "16e8cea8b77e26222e206fba7c9c1f74 07058fdb191cd007a44f4ff0531f87e7";
    "5c4da0e3de6849d49e72614b19bd2797 a9e8bdc495c68afb0cb0da425a67cde0";
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
  let enc = Placement.Encode.to_model layout in
  (* The incumbent a production solve starts from: greedy, else a
     short SAT probe, projected onto the model's variables. *)
  let warm =
    match Placement.Baseline.greedy_assignment layout with
    | Some a -> Some a
    | None ->
      (Placement.Sat_encode.solve ~conflict_limit:5_000 layout)
        .Placement.Sat_encode.assignment
  in
  (enc, Option.map (Placement.Encode.project enc) warm)

let root_lp_line () =
  let enc, greedy = family_model (paper 0) in
  let red =
    match Ilp.Presolve.reduce enc.Placement.Encode.model with
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
    let enc, greedy = family_model f in
    let (outcome, stats), pivots =
      count_pivots (fun () ->
          Ilp.Solver.solve ?warm_start:greedy enc.Placement.Encode.model)
    in
    let objective =
      match outcome with
      | Ilp.Solver.Optimal s ->
        Printf.sprintf "%h"
          (s.Ilp.Solver.objective +. enc.Placement.Encode.constant)
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

let test_same_work () =
  let got = same_work_lines () in
  if got <> expected_same_work then
    Alcotest.failf "same-work digests changed:\n%s" (String.concat "\n" got)

let suite =
  [
    Alcotest.test_case "front-end digests and root pivots" `Quick test_golden;
    Alcotest.test_case "reduced models and placements" `Quick test_same_work;
  ]
