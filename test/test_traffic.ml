(* Traffic-driven caching: Zipf drift properties, cache correctness
   and hit accounting under delegation, and controller determinism. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Zipf drift properties                                               *)

let zipf_gen =
  QCheck.Gen.(
    let* flows = 1 -- 40 in
    let* packets = 0 -- 5000 in
    let* alpha = float_bound_inclusive 2.0 in
    let* drift = float_bound_inclusive 1.0 in
    let* seed = 0 -- 10_000 in
    return { Traffic.Zipf.flows; packets; alpha; drift; seed })

let zipf_print (c : Traffic.Zipf.config) =
  Printf.sprintf "{flows=%d; packets=%d; alpha=%g; drift=%g; seed=%d}"
    c.Traffic.Zipf.flows c.packets c.alpha c.drift c.seed

let zipf_arb = QCheck.make ~print:zipf_print zipf_gen

let epochs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Traffic.Zipf.epoch) (y : Traffic.Zipf.epoch) ->
         x.Traffic.Zipf.index = y.Traffic.Zipf.index
         && x.Traffic.Zipf.counts = y.Traffic.Zipf.counts)
       a b

let qcheck_zipf_deterministic =
  QCheck.Test.make ~name:"equal seeds give identical epoch matrices" ~count:50
    zipf_arb (fun cfg ->
      let a = Traffic.Zipf.create cfg and b = Traffic.Zipf.create cfg in
      epochs_equal
        (List.init 6 (fun _ -> Traffic.Zipf.next a))
        (List.init 6 (fun _ -> Traffic.Zipf.next b)))

let qcheck_zipf_mass =
  QCheck.Test.make ~name:"drift preserves total traffic mass" ~count:50
    zipf_arb (fun cfg ->
      let t = Traffic.Zipf.create cfg in
      List.for_all
        (fun (e : Traffic.Zipf.epoch) ->
          Array.fold_left ( + ) 0 e.Traffic.Zipf.counts
          = cfg.Traffic.Zipf.packets)
        (List.init 8 (fun _ -> Traffic.Zipf.next t)))

let qcheck_zipf_prefix =
  QCheck.Test.make ~name:"a longer run leaves earlier epochs untouched"
    ~count:50 zipf_arb (fun cfg ->
      let a = Traffic.Zipf.create cfg and b = Traffic.Zipf.create cfg in
      let short = List.init 4 (fun _ -> Traffic.Zipf.next a) in
      let long = List.init 9 (fun _ -> Traffic.Zipf.next b) in
      epochs_equal short (List.filteri (fun i _ -> i < 4) long))

let test_zipf_at () =
  let cfg =
    {
      Traffic.Zipf.flows = 64;
      packets = 4096;
      alpha = 1.1;
      drift = 0.3;
      seed = 7;
    }
  in
  let t = Traffic.Zipf.create cfg in
  let all = List.init 8 (fun _ -> Traffic.Zipf.next t) in
  List.iteri
    (fun i (e : Traffic.Zipf.epoch) ->
      let r = Traffic.Zipf.epoch cfg i in
      Alcotest.(check int) "index" e.Traffic.Zipf.index r.Traffic.Zipf.index;
      Alcotest.(check bool) "counts" true
        (e.Traffic.Zipf.counts = r.Traffic.Zipf.counts))
    all

(* ------------------------------------------------------------------ *)
(* Controller: correctness, determinism, hit accounting                 *)

(* at hw_frac 0.3 seed 2 of this family both delegates and force-pins —
   the one config exercises every assertion below *)
let small_family =
  {
    Workload.default with
    Workload.seed = 2;
    num_policies = 4;
    rules = 10;
    paths = 24;
    capacity = 80;
  }

let small =
  {
    Traffic.Controller.default with
    family = small_family;
    epochs = 10;
    packets = 4096;
    alpha = 1.3;
    probes = 4;
    hw_frac = 0.3;
  }

let test_controller_clean_run () =
  let reps = Traffic.Controller.run small in
  Alcotest.(check int) "epochs" 10 (List.length reps);
  List.iter
    (fun (r : Traffic.Controller.epoch_report) ->
      Alcotest.(check int) "zero differential violations" 0
        r.Traffic.Controller.e_violations;
      Alcotest.(check int) "guard violations" 0
        r.Traffic.Controller.e_check.Traffic.Cache.guard_violations;
      Alcotest.(check int) "coverage violations" 0
        r.Traffic.Controller.e_check.Traffic.Cache.coverage_violations;
      Alcotest.(check int) "capacity violations" 0
        r.Traffic.Controller.e_check.Traffic.Cache.capacity_violations)
    reps

let test_controller_deterministic () =
  let lines () =
    List.map Traffic.Controller.line
      (Traffic.Controller.run small)
  in
  Alcotest.(check (list string)) "equal-seed report lines" (lines ()) (lines ())

let hit_rate reps =
  let h, m =
    List.fold_left
      (fun (h, m) (r : Traffic.Controller.epoch_report) ->
        (h + r.Traffic.Controller.e_hits, m + r.Traffic.Controller.e_misses))
      (0, 0) reps
  in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)

(* More hardware never lowers the hit rate: a hit is a packet whose
   cached matches all sit in hardware slots, so rules pinned past the
   capacity no longer count as hits (they once made 0.05 read 0.8456
   against 0.6606 at 0.3 here). *)
let test_hit_rate_monotone_in_hw () =
  let rates =
    List.map
      (fun hw_frac ->
        hit_rate (Traffic.Controller.run { small with hw_frac }))
      [ 0.05; 0.3; 1.0 ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (String.concat " <= " (List.map (Printf.sprintf "%.4f") rates))
    true (non_decreasing rates)

(* A delegated copy sits in a neighbor's hardware slots, so a packet it
   serves is a hit: per packet, the delegated-hit tally grows only with
   the hit tally, and per epoch it stays within it. *)
let test_delegated_hits_are_hits () =
  let inst = Workload.build small_family in
  let paths = Routing.Table.paths inst.Placement.Instance.routing in
  let sol = Option.get (Placement.Solve.run inst).Placement.Solve.solution in
  let full = (Placement.Tables.of_solution sol).Placement.Tables.tables in
  let cache =
    Traffic.Cache.create ~net:inst.Placement.Instance.net ~paths
      ~hw:(Traffic.Controller.hw_of_frac full small.hw_frac)
      full
  in
  let paths = Array.of_list paths in
  let zcfg =
    {
      Traffic.Zipf.flows = Array.length paths;
      packets = small.packets;
      alpha = small.alpha;
      drift = small.drift;
      seed = small_family.Workload.seed;
    }
  in
  let delegated = ref 0 in
  Traffic.Zipf.walk ~seed:small_family.Workload.seed ~probes:small.probes
    (Traffic.Zipf.epoch zcfg 0)
    ~field:(Traffic.Controller.probe_field paths full)
    (fun f pkt w ->
      let h0 = Traffic.Cache.hits cache
      and d0 = Traffic.Cache.delegated_hits cache in
      ignore (Traffic.Cache.account cache ~path:paths.(f) ~weight:w pkt);
      let dd = Traffic.Cache.delegated_hits cache - d0 in
      if dd > 0 then begin
        incr delegated;
        Alcotest.(check int) "a delegated hit is a hit" dd
          (Traffic.Cache.hits cache - h0)
      end);
  Alcotest.(check bool) "some packet is served by a delegated copy" true
    (!delegated > 0);
  let reps = Traffic.Controller.run small in
  List.iter
    (fun (r : Traffic.Controller.epoch_report) ->
      Alcotest.(check bool) "e_dhits <= e_hits" true
        (r.Traffic.Controller.e_dhits <= r.Traffic.Controller.e_hits))
    reps;
  Alcotest.(check bool) "some epoch has delegated hits" true
    (List.exists (fun (r : Traffic.Controller.epoch_report) ->
         r.Traffic.Controller.e_dhits > 0) reps)

(* The hardware fraction must reach the capacity: most switches of a
   placement hold no rule, and a mean over all of them once put every
   switch of this family (the caching CLI's default) at the 1-slot
   floor for any fraction up to about 1.3. *)
let test_hw_frac_sets_capacity () =
  let sol =
    Option.get
      (Placement.Solve.run (Workload.build small_family)).Placement.Solve.solution
  in
  let full = (Placement.Tables.of_solution sol).Placement.Tables.tables in
  let hw frac = (Traffic.Controller.hw_of_frac full frac).(0) in
  Alcotest.(check bool)
    (Printf.sprintf "0.3 gives %d slots, 0.6 gives %d" (hw 0.3) (hw 0.6))
    true
    (hw 0.3 > 1 && hw 0.6 > hw 0.3)

(* ------------------------------------------------------------------ *)
(* Hit accounting over hand-built tables                               *)

let entry action priority dst =
  {
    Netsim.tags = [ 0 ];
    rule = Acl.Rule.make ~field:(Util.field ~dst ()) ~action ~priority;
  }

let packet_to dst = Ternary.Packet.make ~src:0 ~dst ~sport:0 ~dport:0 ~proto:6

(* 10.0.x.5 *)
let host x = (10 lsl 24) lor (x lsl 8) lor 5

(* One switch of one hardware slot holding two disjoint drops: neither
   can be delegated (the switch has no neighbor), so both are pinned and
   the lower-priority one sits at cached index 1, exactly [hw].  A
   switch's TCAM holds its first [hw] entries, so a packet whose only
   match is that entry is a miss, and one matching the entry at index 0
   is a hit. *)
let test_match_at_hw_is_miss () =
  let path = Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0 ] () in
  let cache =
    Traffic.Cache.create
      ~net:(Topo.Builder.linear ~switches:1 ~hosts_per_end:1)
      ~paths:[ path ] ~hw:[| 1 |]
      [|
        [
          entry Acl.Rule.Drop 2 "10.0.1.0/24";
          entry Acl.Rule.Drop 1 "10.0.2.0/24";
        ];
      |]
  in
  Alcotest.(check int) "one slot over hardware" 1
    (Traffic.Cache.stats cache).Traffic.Cache.overflow;
  let w = Traffic.Cache.account cache ~path ~weight:1 (packet_to (host 2)) in
  Alcotest.(check bool) "dropped by the entry at index hw" true
    (w.Traffic.Cache.w_cached = Netsim.Dropped 0);
  Alcotest.(check (pair int int)) "a match at index hw is a miss" (0, 1)
    (Traffic.Cache.hits cache, Traffic.Cache.misses cache);
  ignore (Traffic.Cache.account cache ~path ~weight:1 (packet_to (host 1)));
  Alcotest.(check (pair int int)) "a match at index 0 is a hit" (1, 1)
    (Traffic.Cache.hits cache, Traffic.Cache.misses cache)

(* A hit needs every entry the packet matches along its path in
   hardware, not just one.  Switch 0 holds a drop and its permit guard
   in its two slots; switch 1 has one slot and two drops, both pinned
   (switch 0 has no room to take a delegate).  A packet the guard lets
   through on switch 0 and whose only match on switch 1 sits past its
   slot is a miss. *)
let test_any_match_past_hw_is_miss () =
  let path = Routing.Path.make ~ingress:0 ~egress:1 ~switches:[ 0; 1 ] () in
  let cache =
    Traffic.Cache.create
      ~net:(Topo.Builder.linear ~switches:2 ~hosts_per_end:1)
      ~paths:[ path ] ~hw:[| 2; 1 |]
      [|
        [
          entry Acl.Rule.Permit 4 "10.0.0.0/16";
          entry Acl.Rule.Drop 3 "10.0.1.0/24";
        ];
        [
          entry Acl.Rule.Drop 2 "10.0.3.0/24";
          entry Acl.Rule.Drop 1 "10.0.2.0/24";
        ];
      |]
  in
  Alcotest.(check int) "one slot over hardware" 1
    (Traffic.Cache.stats cache).Traffic.Cache.overflow;
  let w = Traffic.Cache.account cache ~path ~weight:1 (packet_to (host 2)) in
  Alcotest.(check bool) "permitted on switch 0, dropped on switch 1" true
    (w.Traffic.Cache.w_cached = Netsim.Dropped 1);
  Alcotest.(check (pair int int)) "one match past hw makes a miss" (0, 1)
    (Traffic.Cache.hits cache, Traffic.Cache.misses cache)

let suite =
  [
    qtest qcheck_zipf_deterministic;
    qtest qcheck_zipf_mass;
    qtest qcheck_zipf_prefix;
    Alcotest.test_case "zipf stateless regeneration" `Quick test_zipf_at;
    Alcotest.test_case "clean run is correct" `Quick test_controller_clean_run;
    Alcotest.test_case "equal seeds, equal reports" `Quick
      test_controller_deterministic;
    Alcotest.test_case "hit rate never falls as hw grows" `Quick
      test_hit_rate_monotone_in_hw;
    Alcotest.test_case "delegated hits are hits" `Quick
      test_delegated_hits_are_hits;
    Alcotest.test_case "hw fraction sets the TCAM capacity" `Quick
      test_hw_frac_sets_capacity;
    Alcotest.test_case "a match at index hw is a miss" `Quick
      test_match_at_hw_is_miss;
    Alcotest.test_case "one match past hw on the path is a miss" `Quick
      test_any_match_past_hw_is_miss;
  ]
