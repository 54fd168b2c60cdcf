(* Experiment CACHE1: traffic-driven rule caching and flow delegation.

   Runs the {!Traffic.Controller} epoch loop over a drifting-Zipf
   workload, with the cache placed once, across a seed matrix and three
   hardware fractions.  A packet is a hit when every cached entry it
   matches sits in its switch's hardware slots.

   Gates (all must hold, else the bench exits non-zero):
   - zero differential violations and zero cache-invariant violations
     across every run;
   - on every seed, the hit rate does not fall as the hardware fraction
     grows over 0.05, 0.3 and 1.0.

   Writes BENCH_caching.json for the CI caching lane to archive. *)

module C = Traffic.Controller

let family seed =
  {
    Workload.default with
    Workload.seed;
    num_policies = 4;
    rules = 10;
    paths = 24;
    capacity = 80;
  }

let config ~smoke ~seed ~hw_frac =
  {
    C.default with
    C.family = family seed;
    epochs = (if smoke then 6 else 10);
    packets = 4096;
    alpha = 1.3;
    probes = 4;
    hw_frac;
  }

(* The hardware fractions of the monotonicity gate; delegated hits are
   reported at the middle one, where the larger tables do not fit. *)
let fracs = [ 0.05; 0.3; 1.0 ]

let deleg_frac = 0.3

let hit_rate reps =
  let h, m =
    List.fold_left
      (fun (h, m) (r : C.epoch_report) -> (h + r.C.e_hits, m + r.C.e_misses))
      (0, 0) reps
  in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)

let delegated reps =
  List.fold_left (fun acc (r : C.epoch_report) -> acc + r.C.e_dhits) 0 reps

(* Differential and cache-invariant violations over a run. *)
let violations reps =
  List.fold_left
    (fun acc (r : C.epoch_report) ->
      acc + r.C.e_violations
      + r.C.e_check.Traffic.Cache.guard_violations
      + r.C.e_check.Traffic.Cache.coverage_violations
      + r.C.e_check.Traffic.Cache.capacity_violations)
    0 reps

type point = {
  p_seed : int;
  p_rates : float list;  (** hit rate per entry of [fracs] *)
  p_delegated : int;  (** delegated hits at [deleg_frac] *)
  p_violations : int;
}

let rec non_decreasing = function
  | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
  | _ -> true

let run ~title ~seeds ~smoke ?(json_path = "BENCH_caching.json") () =
  Printf.printf "\n== %s ==\n" title;
  let points =
    List.map
      (fun seed ->
        let runs =
          List.map
            (fun hw_frac -> (hw_frac, C.run (config ~smoke ~seed ~hw_frac)))
            fracs
        in
        let reps = List.assoc deleg_frac runs in
        {
          p_seed = seed;
          p_rates = List.map (fun (_, reps) -> hit_rate reps) runs;
          p_delegated = delegated reps;
          p_violations =
            List.fold_left (fun acc (_, reps) -> acc + violations reps) 0 runs;
        })
      seeds
  in
  Harness.print_table ~title:"hit rate by hardware fraction"
    ~headers:
      ([ "seed" ]
      @ List.map (Printf.sprintf "hw %.2f") fracs
      @ [ "dhits"; "viol" ])
    (List.map
       (fun p ->
         [ string_of_int p.p_seed ]
         @ List.map (Printf.sprintf "%.4f") p.p_rates
         @ [ string_of_int p.p_delegated; string_of_int p.p_violations ])
       points);
  let zero_violations = List.for_all (fun p -> p.p_violations = 0) points in
  let monotone_in_hw =
    List.for_all (fun p -> non_decreasing p.p_rates) points
  in
  let ok = zero_violations && monotone_in_hw in
  Printf.printf "gates: zero_violations=%b monotone_in_hw=%b\n"
    zero_violations monotone_in_hw;
  if not ok then print_endline "CACHE1 FAILED";
  Harness.(
    write_json ~path:json_path
      (Obj
         [
           ("experiment", Str "caching");
           ("mode", Str (if smoke then "smoke" else "full"));
           ("seeds", List (List.map (fun s -> Int s) seeds));
           ("hw_fracs", List (List.map (fun f -> Float f) fracs));
           ( "points",
             List
               (List.map
                  (fun p ->
                    Obj
                      [
                        ("seed", Int p.p_seed);
                        ( "hit_rates",
                          List (List.map (fun r -> Float r) p.p_rates) );
                        ("delegated_hits", Int p.p_delegated);
                        ("violations", Int p.p_violations);
                      ])
                  points) );
           ( "gates",
             Obj
               [
                 ("zero_violations", Bool zero_violations);
                 ("monotone_in_hw", Bool monotone_in_hw);
               ] );
           ("ok", Bool ok);
         ]));
  ok
