(* Experiment 5 of the paper: incremental deployment.  A base network is
   solved from scratch; its spare capacity then absorbs (a) batches of
   freshly installed policies (one path each, like the paper) and (b)
   re-routings of existing policies — both in milliseconds, against a
   from-scratch solve taking orders of magnitude longer. *)

let run ~title ~base_family ~install_batches ~reroute_batches ~new_rules
    ~time_limit () =
  let inst = Workload.build base_family in
  let base_report, base_time =
    Harness.wall (fun () ->
        Placement.Solve.run ~options:(Harness.solve_options ~time_limit ()) inst)
  in
  match base_report.Placement.Solve.solution with
  | None ->
    Printf.printf "\n== %s ==\nbase instance unsolved (%s); skipped\n" title
      (Harness.status_short base_report.Placement.Solve.status)
  | Some base ->
    Printf.printf "\n== %s ==\nbase solve: %s in %ss\n" title
      (Harness.status_short base_report.Placement.Solve.status)
      (Harness.sec base_time);
    let net = inst.Placement.Instance.net in
    let hosts = Topo.Net.num_hosts net in
    let g = Prng.create 4242 in
    (* A random shortest path from host [h] to a random other host. *)
    let random_path h =
      let rec egress () =
        let e = Prng.int g hosts in
        if e = h then egress () else e
      in
      let egress = egress () in
      Option.get (Routing.Shortest.random_path g net ~ingress:h ~egress)
    in
    (* (a) install new policies, one random path each. *)
    let install_rows =
      List.map
        (fun batch ->
          let existing =
            Placement.Instance.ingresses base.Placement.Solution.instance
          in
          let fresh =
            List.filter (fun h -> not (List.mem h existing))
              (List.init hosts Fun.id)
          in
          let chosen = List.filteri (fun i _ -> i < batch) fresh in
          let policies =
            List.map
              (fun h -> (h, Classbench.policy g ~num_rules:new_rules))
              chosen
          in
          let paths = List.map random_path chosen in
          let result, dt =
            Harness.wall (fun () ->
                Placement.Incremental.install
                  ~options:(Harness.solve_options ~time_limit ())
                  ~base ~policies ~paths ())
          in
          [
            Printf.sprintf "install %d policies" batch;
            Harness.ms dt ^ " ms";
            Harness.status_short result.Placement.Incremental.status;
          ])
        install_batches
    in
    (* (b) re-route existing policies. *)
    let reroute_rows =
      List.map
        (fun batch ->
          let ingresses =
            List.filteri (fun i _ -> i < batch)
              (Placement.Instance.ingresses base.Placement.Solution.instance)
          in
          let new_paths =
            List.concat_map (fun h -> List.init 2 (fun _ -> random_path h))
              ingresses
          in
          let policies =
            List.map
              (fun h ->
                ( h,
                  Option.get
                    (Placement.Instance.policy_of base.Placement.Solution.instance
                       h) ))
              ingresses
          in
          (* A re-route tears the ingresses down and installs their
             policies again over the new paths. *)
          let result, dt =
            Harness.wall (fun () ->
                Placement.Incremental.install
                  ~options:(Harness.solve_options ~time_limit ())
                  ~base:(Placement.Incremental.remove ~base ~ingresses)
                  ~policies ~paths:new_paths ())
          in
          [
            Printf.sprintf "reroute %d policies" batch;
            Harness.ms dt ^ " ms";
            Harness.status_short result.Placement.Incremental.status;
          ])
        reroute_batches
    in
    Harness.print_table ~title:(title ^ " (updates)")
      ~headers:[ "change"; "time"; "status" ]
      (install_rows @ reroute_rows)
