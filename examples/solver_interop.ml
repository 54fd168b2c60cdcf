(* Three engines, one problem — plus export for external solvers.

   The same placement instance is solved by:
     - the ILP engine (proven optimum),
     - the SAT engine (feasibility only, fastest),
     - the SAT-opt engine (cardinality descent: reaches the optimum,
       proves it only on small instances);
   and the underlying models are exported as a CPLEX LP file and a
   DIMACS CNF so the encodings can be fed to industrial solvers.  The
   exports go to temporary files, removed when the example ends.

   Run with:  dune exec examples/solver_interop.exe *)

(* Writes [text] to a fresh temporary file, passes its path to [k] and
   removes the file once [k] returns or raises. *)
let with_export suffix text k =
  let path = Filename.temp_file "placement" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  k path

let () =
  let inst =
    Workload.build
      {
        Workload.default with
        Workload.num_policies = 4;
        rules = 10;
        paths = 24;
        capacity = 20;
      }
  in
  Format.printf "instance: %a@.@." Placement.Instance.pp inst;

  let engines =
    [
      ("ilp", Placement.Solve.Ilp_engine);
      ("sat", Placement.Solve.Sat_engine);
      ("sat-opt", Placement.Solve.Sat_opt_engine);
    ]
  in
  List.iter
    (fun (name, engine) ->
      let t0 = Unix.gettimeofday () in
      let report =
        Placement.Solve.run
          ~options:(Placement.Solve.options ~engine ~sat_conflict_limit:5_000 ())
          inst
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%-8s %-10s %s in %.3fs@." name
        (Format.asprintf "%a" Placement.Encode.pp_status
           report.Placement.Solve.status)
        (match report.Placement.Solve.solution with
        | Some sol ->
          Printf.sprintf "%d entries" (Placement.Solution.total_entries sol)
        | None -> "no placement")
        dt)
    engines;

  (* Export the exact models.  The LP file holds the layout's
     variables; the pinned policies' rules add a constant to its
     objective. *)
  let layout = Placement.Layout.build inst in
  let enc = Placement.Encode.to_model layout in
  let model = enc.Placement.Encode.model in
  with_export ".lp" (Ilp.Model.to_lp_string model) (fun lp_path ->
      Format.printf "@.ILP model: %a, objective constant %g -> %s@."
        Ilp.Model.pp_stats model enc.Placement.Encode.constant lp_path);

  (* The clause part of the SAT encoding as DIMACS (capacity rows use
     native cardinality constraints and are listed separately; the
     pinned policies have no variables). *)
  let clauses = ref [] in
  Placement.Layout.iter_covers layout (fun off js ->
      clauses :=
        Array.to_list (Array.map (fun j -> off + j + 1) js) :: !clauses);
  Placement.Layout.iter_implications layout (fun d p ->
      clauses := [ -(d + 1); p + 1 ] :: !clauses);
  let cnf =
    {
      Cdcl.Dimacs.num_vars = Placement.Layout.num_vars layout;
      clauses = List.rev !clauses;
    }
  in
  with_export ".cnf" (Cdcl.Dimacs.print cnf) @@ fun cnf_path ->
  Format.printf
    "SAT clauses: %d vars, %d clauses (+%d cardinality rows) -> %s@."
    cnf.Cdcl.Dimacs.num_vars
    (List.length cnf.Cdcl.Dimacs.clauses)
    (List.length layout.Placement.Layout.capacities)
    cnf_path;

  (* Round-trip sanity: our own solver accepts its own export. *)
  match
    Cdcl.Dimacs.solve_text
      (In_channel.with_open_text cnf_path In_channel.input_all)
  with
  | Cdcl.Sat _ -> Format.printf "DIMACS round-trip: sat (as expected)@."
  | r -> Format.printf "DIMACS round-trip: %a?!@." Cdcl.pp_result r
