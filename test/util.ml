(* Shared helpers for the tests: instance generators, verification
   wrappers and metric readers. *)

let field ?src ?dst ?proto () =
  let parse = Ternary.Prefix.of_string in
  Ternary.Field.make
    ?src:(Option.map parse src)
    ?dst:(Option.map parse dst)
    ?proto ()

(* A random small instance: connected topology, sprayed shortest-path
   routing, classbench policies. *)
let random_instance ?(max_switches = 7) ?(max_rules = 10) ?(capacity_lo = 2)
    ?(capacity_hi = 18) g =
  let switches = Prng.int_in g 3 max_switches in
  let hosts = Prng.int_in g 3 6 in
  let net =
    Topo.Builder.random_connected g ~switches
      ~extra_edges:(Prng.int g 4)
      ~hosts
  in
  let num_ingresses = Prng.int_in g 1 (min 3 hosts) in
  let ingresses = List.init num_ingresses (fun i -> i) in
  let routing =
    Routing.Table.spray g net ~ingresses
      ~total_paths:(Prng.int_in g num_ingresses (3 * num_ingresses))
  in
  let policies =
    List.map
      (fun i ->
        (i, Classbench.policy g ~num_rules:(Prng.int_in g 2 max_rules)))
      ingresses
  in
  let capacities =
    Array.init (Topo.Net.num_switches net) (fun _ ->
        Prng.int_in g capacity_lo capacity_hi)
  in
  Placement.Instance.make ~net ~routing ~policies ~capacities

let check_no_violations name g (report : Placement.Solve.report) =
  match report.Placement.Solve.solution with
  | None -> Alcotest.failf "%s: no solution to verify" name
  | Some sol ->
    let violations =
      Placement.Verify.check ~random_samples:10 g report.Placement.Solve.layout
        sol
    in
    (match violations with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "%s: %d violations, first: %a" name
        (List.length violations) Placement.Verify.pp_violation v)

(* The rows of a model in the senses they were added with, read back
   from its normalized matrix: (sense, packed terms, rhs). *)
let model_rows model =
  Array.of_list
    (List.map
       (fun (r : Simplex.row) -> (r.sense, r.coeffs, r.rhs))
       (Ilp.Model.lp_relaxation model).Simplex.rows)

(* A histogram's observations so far: its buckets' counts summed, which
   is what [Metrics.render] prints as its [_count] series. *)
let observations h =
  Array.fold_left ( + ) 0 (Telemetry.Metrics.snapshot h).Telemetry.Metrics.counts
