(* Golden digests of the placement ILP front end.  For a fixed set of
   instances — three paper-grid ones (fat-tree k=16, 1024 paths, 20
   rules, capacity 140), ten seeded k=4/6 ones covering merged, sliced,
   spread and contiguous layouts and a tight k=8 one — the test pins the
   LP text of [Encode.to_model] (plus an upstream-drops and a monitored
   encoding), and the exact simplex pivot count of one k=16 root LP, of
   four full default-config ILP solves and of two cold root LPs.  Any
   change to how rows are laid out, stored or handed to the LP that
   alters a coefficient, a row order or a pivot shows up here as a
   mismatch.

   The model digests were re-pinned when the solver's presolve was
   deleted and [Layout] began emitting each cover row once.  Where the
   presolve fixed no variable (paper instances 0-2, small instances 0,
   1 and 9, the tight instance and the upstream-drops line), each new
   digest is that of the old presolved model, and every pivot count is
   unchanged. *)

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

(* A tight k=8 instance whose root runs the cut loop and the
   feasibility pump. *)
let tight = { Workload.default with Workload.k = 8; capacity = 6; seed = 2 }

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

let hex s = Digest.to_hex (Digest.string s)

(* One line per layout: the digest of the encoded model's LP text. *)
let layout_line ?objective layout =
  hex
    (Ilp.Model.to_lp_string
       (Placement.Encode.to_model ?objective layout).Placement.Encode.model)

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
    "937f4124f3b4d2e4380f5499e0d0be24";
    "25e4c20f68503da2b4414a1f1f3d1109";
  ]

let expected_lines =
  [
    "c3b4ac9b341cd68a16b69faa15b43f7c";
    "cec3b1cb7ccff53c5e08589fea08456e";
    "5cf4e2389ef3480e13f91dd8469b4518";
    "32c406a848b92b6cc9e19a91966a13e3";
    "497aa6b6b7d189174078ca3e019eed7b";
    "e1be69d2a12e26f48bb2b8957b497af5";
    "6bc9fd60c093638886c94dad400d3995";
    "50e5c9b761df56662b289067c663dd10";
    "fd87e524a758e5f39e95c41b5d390cbf";
    "50b8098887bed273099dea66014d898d";
    "901cc1a668f07b33d3a79373b4a6c889";
    "58cf657a06645f46dd8fb420e90bcc13";
    "60cd7323a029df4fad901536e21626fd";
    "100e00dd9f43ddfc0c3ab6b21e9afdc6";
  ]

(* Same-work digests.  Per layout: the LP text of the model the search
   sees with the objective constant (the cost of what the layout pins
   to 1), and the status, objective and sorted placements of the
   [Solve.run] that builds the layout.  A front-end change may move
   work between the layout and the solver but must leave the model the
   search sees, and its answer, exactly as they were. *)
let total_constant_text ?objective layout =
  let enc = Placement.Encode.to_model ?objective layout in
  Printf.sprintf "%s %h"
    (Ilp.Model.to_lp_string enc.Placement.Encode.model)
    enc.Placement.Encode.constant

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

let same_work_line ?objective ?monitors (f : Workload.family) =
  let options =
    Placement.Solve.options ~merge:(f.Workload.mergeable > 0)
      ~slice:f.Workload.slice ?monitors ?objective ()
  in
  Printf.sprintf "%s %s"
    (hex (total_constant_text ?objective (layout_of ?monitors f)))
    (hex (placements_text (Placement.Solve.run ~options (Workload.build f))))

let same_work_lines () =
  List.map same_work_line (List.init 3 paper)
  @ List.map same_work_line (List.init 10 small)
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
    "dd500a489796551897acfddcfa5d6fc4 8952ba8838f0a00d6be0f70161c51dc4";
    "1f656e5d9fc5a3e4ecb7425c991c096b bfaa1e8b2d25d5e8a67293cc3b660e27";
    "9c8f08c3e535055c47250719ab49f3ad 334f0281473ff90108281aab2733c124";
    "bb1cc164690adfd2f7c75aa14fd61b8e 8508166f24569866cd088b6100a8706a";
    "d82fdca692ef78f42279bdbf2a06ddd4 7018116aeeb7366132d7e35bd1005494";
    "a044a23f3749833502f315f234991e53 ebb5b469b00f78d8f7a1e76328835497";
    "89a890640dbd2d12c5211d8ea528b265 334f0281473ff90108281aab2733c124";
    "66f53976ed4db0beada0526ca27e8285 d4eeb7c7bad753aa32ca8b49caeaf473";
    "16e8cea8b77e26222e206fba7c9c1f74 07058fdb191cd007a44f4ff0531f87e7";
    "e3acd1802016fd561d84e0fa4d13cdf2 c493469441944b7801fc0bff051b5dec";
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

(* Root LP of the first paper-grid instance's model, crashed from the
   greedy incumbent exactly as a production solve does; the node limit
   stops the search right after the root.  Then the full default-config
   solve (cuts, pump) of each paper-grid instance and of the tight
   instance: objective, nodes, LP calls and pivots.  Last, the cold root
   LP (no warm start) of the tight instance and of [Workload.default]:
   these start from the all-logical basis, so they pin phase 1, pricing
   over many attractive columns and the Bland fallback. *)
let family_model f =
  let layout = layout_of f in
  let enc = Placement.Encode.to_model layout in
  (* The incumbent a production solve starts from: greedy, else a
     short SAT probe. *)
  let warm =
    match Placement.Baseline.greedy_assignment layout with
    | Some a -> Some a
    | None ->
      (Placement.Sat_encode.solve ~conflict_limit:5_000 layout)
        .Placement.Sat_encode.assignment
  in
  (enc, warm)

let root_config =
  {
    Ilp.Solver.default_config with
    Ilp.Solver.cuts = false;
    fpump = false;
    node_limit = 0;
  }

let root_lp_line () =
  let enc, greedy = family_model (paper 0) in
  let (_, root_stats), root_pivots =
    count_pivots (fun () ->
        Ilp.Solver.solve ~config:root_config ~warm_start:(Option.get greedy)
          enc.Placement.Encode.model)
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
      | _ -> "not-optimal"
    in
    Printf.sprintf "; full %s %d %d %d" objective stats.Ilp.Solver.nodes
      stats.Ilp.Solver.lp_calls pivots
  in
  let cold f =
    let enc = Placement.Encode.to_model (layout_of f) in
    let (_, stats), pivots =
      count_pivots (fun () ->
          Ilp.Solver.solve ~config:root_config enc.Placement.Encode.model)
    in
    Printf.sprintf "; cold %h %d" stats.Ilp.Solver.root_bound pivots
  in
  Printf.sprintf "root %h %d%s%s" root_stats.Ilp.Solver.root_bound root_pivots
    (String.concat "" (List.map full (List.init 3 paper @ [ tight ])))
    (String.concat "" (List.map cold [ tight; Workload.default ]))

let expected_root =
  "root 0x1.bp+4 52; full 0x1.48p+6 0 1 52; full 0x1.3p+6 0 1 52; full 0x1.34p+6 0 \
   1 40; full 0x1.0ap+7 0 4 1684; cold 0x1.0ap+7 869; cold 0x1.a8p+5 691"

let test_golden () =
  let got =
    List.map instance_line (List.init 3 paper @ List.init 10 small @ [ tight ])
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
