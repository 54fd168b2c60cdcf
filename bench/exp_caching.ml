(* Experiment CACHE1: traffic-driven rule caching and flow delegation.

   Runs the {!Traffic.Controller} epoch loop over a drifting-Zipf
   workload, with the cache placed once, across a seed matrix and three
   hardware fractions, plus kill/resume rounds per seed.  A packet is a
   hit when every cached entry it matches sits in its switch's hardware
   slots.

   Gates (all must hold, else the bench exits non-zero):
   - zero differential violations and zero cache-invariant violations
     across every run;
   - on every seed, the hit rate does not fall as the hardware fraction
     grows over 0.05, 0.3 and 1.0;
   - every kill/resume round crashed, and its resumed run's epoch
     report lines are byte-identical to the uncrashed run's.

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

(* The hardware fractions of the monotonicity gate; the kill rounds run
   at the middle one, where the larger tables do not fit. *)
let fracs = [ 0.05; 0.3; 1.0 ]

let crash_frac = 0.3

let hit_rate reps =
  let h, m =
    List.fold_left
      (fun (h, m) (r : C.epoch_report) -> (h + r.C.e_hits, m + r.C.e_misses))
      (0, 0) reps
  in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)

let delegated reps =
  List.fold_left (fun acc (r : C.epoch_report) -> acc + r.C.e_dhits) 0 reps

let check_violations reps =
  List.fold_left
    (fun acc (r : C.epoch_report) ->
      acc
      + r.C.e_check.Traffic.Cache.guard_violations
      + r.C.e_check.Traffic.Cache.coverage_violations
      + r.C.e_check.Traffic.Cache.capacity_violations)
    0 reps

let lines t = List.map C.line (C.reports t)

exception Killed

(* One kill/resume round: the [nth] snapshot write raises [Killed],
   before the write reaches the store or after it; the run resumes from
   the store and its full report-line sequence is compared against the
   reference.  Returns [(crashed, identical)]. *)
let crash_round cfg ~reference ~nth ~after =
  let store, _mem = Journal.Store.memory () in
  let writes = ref 0 in
  let snap_write blob =
    incr writes;
    if !writes = nth && not after then raise Killed;
    store.Journal.Store.snap_write blob;
    if !writes = nth && after then raise Killed
  in
  match C.run (C.create ~store:{ store with snap_write } cfg) with
  | _ -> (false, false)
  | exception Killed -> (
    match C.resume ~store cfg with
    | Error _ -> (true, false)
    | Ok resumed ->
      ignore (C.run resumed);
      (true, lines resumed = reference))

let round_ok (_, _, crashed, identical) = crashed && identical

type point = {
  p_seed : int;
  p_rates : float list;  (** hit rate per entry of [fracs] *)
  p_delegated : int;  (** delegated hits at [crash_frac] *)
  p_violations : int;
  p_crashes : (int * bool * bool * bool) list;
      (** nth write, killed after it, crashed, identical *)
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
            (fun hw_frac ->
              let t = C.create (config ~smoke ~seed ~hw_frac) in
              (hw_frac, t, C.run t))
            fracs
        in
        let _, t, reps = List.find (fun (f, _, _) -> f = crash_frac) runs in
        let reference = lines t in
        (* write 1 is the placement, write k + 1 closes epoch k: every
           listed write happens in a run of this length *)
        let kills =
          if smoke then [ (3, false); (7, true) ]
          else [ (2, false); (5, true); (9, false); (11, true) ]
        in
        let crashes =
          List.map
            (fun (nth, after) ->
              let crashed, identical =
                crash_round
                  (config ~smoke ~seed ~hw_frac:crash_frac)
                  ~reference ~nth ~after
              in
              (nth, after, crashed, identical))
            kills
        in
        {
          p_seed = seed;
          p_rates = List.map (fun (_, _, reps) -> hit_rate reps) runs;
          p_delegated = delegated reps;
          p_violations =
            List.fold_left
              (fun acc (_, t, reps) ->
                acc + C.violations t + check_violations reps)
              0 runs;
          p_crashes = crashes;
        })
      seeds
  in
  Harness.print_table ~title:"hit rate by hardware fraction"
    ~headers:
      ([ "seed" ]
      @ List.map (Printf.sprintf "hw %.2f") fracs
      @ [ "dhits"; "viol"; "crash" ])
    (List.map
       (fun p ->
         [ string_of_int p.p_seed ]
         @ List.map (Printf.sprintf "%.4f") p.p_rates
         @ [
             string_of_int p.p_delegated;
             string_of_int p.p_violations;
             (if List.for_all round_ok p.p_crashes then "ok" else "FAILED");
           ])
       points);
  let zero_violations = List.for_all (fun p -> p.p_violations = 0) points in
  let monotone_in_hw =
    List.for_all (fun p -> non_decreasing p.p_rates) points
  in
  let crash_identical =
    List.for_all (fun p -> List.for_all round_ok p.p_crashes) points
  in
  let ok = zero_violations && monotone_in_hw && crash_identical in
  Printf.printf
    "gates: zero_violations=%b monotone_in_hw=%b crash_identical=%b\n"
    zero_violations monotone_in_hw crash_identical;
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
                        ( "crashes",
                          List
                            (List.map
                               (fun (nth, after, crashed, identical) ->
                                 Obj
                                   [
                                     ("kill_write", Int nth);
                                     ("after_write", Bool after);
                                     ("crashed", Bool crashed);
                                     ("identical", Bool identical);
                                   ])
                               p.p_crashes) );
                      ])
                  points) );
           ( "gates",
             Obj
               [
                 ("zero_violations", Bool zero_violations);
                 ("monotone_in_hw", Bool monotone_in_hw);
                 ("crash_identical", Bool crash_identical);
               ] );
           ("ok", Bool ok);
         ]));
  ok
