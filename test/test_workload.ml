let test_determinism () =
  let f = { Workload.default with Workload.rules = 10; paths = 24 } in
  let a = Workload.build f and b = Workload.build f in
  Alcotest.(check int) "same paths"
    (List.length (Routing.Table.paths a.Placement.Instance.routing))
    (List.length (Routing.Table.paths b.Placement.Instance.routing));
  List.iter2
    (fun (_, qa) (_, qb) ->
      Alcotest.(check bool) "same policies" true
        (List.for_all2 Acl.Rule.equal (Acl.Policy.rules qa) (Acl.Policy.rules qb)))
    a.Placement.Instance.policies b.Placement.Instance.policies

let test_paths_nested () =
  (* Sweeping the path count keeps smaller path sets as prefixes of
     larger ones, and policies identical. *)
  let fam p = { Workload.default with Workload.paths = p } in
  let small = Workload.build (fam 24) and large = Workload.build (fam 48) in
  Alcotest.(check int) "small count" 24
    (List.length (Routing.Table.paths small.Placement.Instance.routing));
  Alcotest.(check int) "large count" 48
    (List.length (Routing.Table.paths large.Placement.Instance.routing));
  let paths_of inst i =
    Routing.Table.paths_from inst.Placement.Instance.routing i
  in
  List.iter
    (fun i ->
      let ps = paths_of small i and pl = paths_of large i in
      Alcotest.(check bool)
        (Printf.sprintf "ingress %d prefix" i)
        true
        (ps = List.filteri (fun n _ -> n < List.length ps) pl))
    (Routing.Table.ingresses small.Placement.Instance.routing);
  List.iter2
    (fun (_, qa) (_, qb) ->
      Alcotest.(check bool) "policies unchanged by path sweep" true
        (List.for_all2 Acl.Rule.equal (Acl.Policy.rules qa) (Acl.Policy.rules qb)))
    small.Placement.Instance.policies large.Placement.Instance.policies

let test_mergeable_blacklist_shared () =
  let f = { Workload.default with Workload.mergeable = 5; rules = 6 } in
  let inst = Workload.build f in
  let groups = Placement.Merge.find_groups inst in
  Alcotest.(check bool) "at least the blacklist merges" true
    (List.length groups >= 5);
  List.iter
    (fun (_, q) -> Alcotest.(check int) "policy size" 11 (Acl.Policy.size q))
    inst.Placement.Instance.policies

let test_ingress_modes () =
  let net = Topo.Fattree.make 4 in
  let spread = Workload.ingresses net Workload.Spread 8 in
  let contiguous = Workload.ingresses net Workload.Contiguous 8 in
  Alcotest.(check (list int)) "contiguous" [ 0; 1; 2; 3; 4; 5; 6; 7 ] contiguous;
  Alcotest.(check int) "spread count" 8 (List.length spread);
  (* Spread ingresses land on distinct edge switches. *)
  let attach = List.map (Topo.Net.host_attach net) spread in
  Alcotest.(check int) "distinct switches" 8
    (List.length (List.sort_uniq Stdlib.compare attach))

(* Fewer paths than policy ingresses: [build] raises a named error
   instead of failing deep in [Instance.make], and [validate] gives the
   same message for the CLI's usage error. *)
let test_too_few_paths () =
  let f = { Workload.default with Workload.paths = 1; num_policies = 8 } in
  let msg =
    "paths = 1 is fewer than the 8 policy ingresses (num_policies = 8): \
     each needs a path"
  in
  Alcotest.(check (result unit string)) "validate" (Error msg)
    (Workload.validate f);
  Alcotest.check_raises "build raises"
    (Invalid_argument ("Workload.build: " ^ msg))
    (fun () -> ignore (Workload.build f));
  (* One path per ingress is enough, counted after [ingresses] caps the
     policies at the 16 hosts of k=4. *)
  List.iter
    (fun (paths, num_policies) ->
      let f = { Workload.default with Workload.paths; num_policies } in
      Alcotest.(check bool)
        (Printf.sprintf "%d paths, %d policies" paths num_policies)
        true
        (Workload.validate f = Ok ());
      ignore (Workload.build f))
    [ (8, 8); (16, 20) ]

(* The [place_paper] benchmark family (its seed-1 instance 0) and the
   [churn_journal] base (seed 1, episode 0). *)
let place_paper_family =
  {
    Workload.default with
    Workload.k = 16;
    num_policies = 8;
    rules = 20;
    paths = 1024;
    capacity = 140;
    seed = 100_003;
  }

let churn_base_family =
  {
    Workload.default with
    Workload.k = 4;
    rules = 20;
    paths = 48;
    capacity = 60;
    seed = 7919;
  }

let paths_digest (inst : Placement.Instance.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (List.map
             (fun (p : Routing.Path.t) -> (p.ingress, p.egress, p.switches))
             (Routing.Table.paths inst.Placement.Instance.routing))
          []))

(* Golden: the exact paths [build] routes for the two benchmark
   families.  The benchmark digests cover only a solve's status and
   objective, so a routing change that moved every instance could pass
   them; it fails here. *)
let test_paths_golden () =
  List.iter
    (fun (name, family, want) ->
      let inst = Workload.build family in
      Alcotest.(check int) (name ^ " paths") family.Workload.paths
        (List.length (Routing.Table.paths inst.Placement.Instance.routing));
      Alcotest.(check string) (name ^ " paths digest") want
        (paths_digest inst))
    [
      ("place_paper", place_paper_family, "55096fa14cc56ebf4f7ccadbea840231");
      ("churn_journal", churn_base_family, "2f1f3b269edd5b78bf8a451d3cb5b239");
    ]

(* Allocation gate.  One [build] of the k=16 family allocates the same
   number of minor-heap words on every run, so this bound is a count,
   not a timing.  Routing it with one BFS per path allocated 3.43 Mwords;
   one BFS row per destination switch allocates 0.84.  The bound of 1.2
   Mwords sits between: it fails if routing goes back to a BFS per path,
   or if any other part of [build] grows by half again. *)
let test_build_allocation () =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Workload.build place_paper_family));
  let mwords = (Gc.minor_words () -. w0) /. 1e6 in
  if mwords > 1.2 then
    Alcotest.failf
      "Workload.build of the k=16 family allocated %.3f Mwords (bound 1.2)"
      mwords

(* [sdnplace generate] and its [--ingress] flag, run as a process.
   Without the flag the output is byte for byte what [generate] wrote
   before the flag existed (the pinned digest), [spread] is that
   default, [contiguous] selects [Workload.Contiguous], and any other
   mode is a usage error (exit 124). *)
let sdnplace =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/sdnplace.exe"

let generate args =
  let out = Filename.temp_file "generate" ".sdn" in
  let code =
    Sys.command
      (Filename.quote_command sdnplace ("generate" :: args) ~stdout:out
         ~stderr:Filename.null)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let test_generate_ingress_flag () =
  let base = [ "-k"; "4"; "--seed"; "3" ] in
  let code, default = generate base in
  Alcotest.(check int) "default exit" 0 code;
  Alcotest.(check string) "default output unchanged"
    "41f39179c3379ba502b7daafc43f22b7"
    (Digest.to_hex (Digest.string default));
  Alcotest.(check (pair int string)) "spread is the default" (0, default)
    (generate (base @ [ "--ingress"; "spread" ]));
  let contiguous =
    Workload.build
      {
        Workload.default with
        Workload.seed = 3;
        ingress_mode = Workload.Contiguous;
      }
  in
  Alcotest.(check (pair int string)) "contiguous"
    (0, Placement.Spec.to_string contiguous)
    (generate (base @ [ "--ingress"; "contiguous" ]));
  Alcotest.(check int) "unknown mode is a usage error" 124
    (fst (generate (base @ [ "--ingress"; "edge" ])))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "nested path sweeps" `Quick test_paths_nested;
    Alcotest.test_case "blacklist shared" `Quick test_mergeable_blacklist_shared;
    Alcotest.test_case "ingress modes" `Quick test_ingress_modes;
    Alcotest.test_case "too few paths is a named error" `Quick
      test_too_few_paths;
    Alcotest.test_case "benchmark families route golden paths" `Quick
      test_paths_golden;
    Alcotest.test_case "k=16 build allocation bound" `Quick
      test_build_allocation;
    Alcotest.test_case "generate --ingress" `Quick test_generate_ingress_flag;
  ]
