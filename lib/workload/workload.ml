(* Scaled instance families for the paper's experiments.

   The paper's testbed (CPLEX on a 3.2 GHz Xeon; Fat-Tree k in {8,16,32},
   p up to 2048 paths, r up to 110 rules per ingress policy) is scaled to
   what the in-repo exact solver completes in benchmark time; every sweep
   keeps the paper's structure (which parameter moves, which are pinned).
   EXPERIMENTS.md records the mapping per figure.

   Determinism niceties for clean sweeps:
   - routing and policies draw from independent RNG streams, so changing
     the path count does not perturb the policies;
   - paths are generated as a prefix of a fixed "universe" of
     [max paths 64] paths, so a sweep over p compares nested path sets
     (the paper's figure 10 varies only p). *)

type ingress_mode =
  | Spread  (** one ingress per region of the host space (default) *)
  | Contiguous
      (** hosts 0..n-1: multiple policies share edge switches, which is
          what makes capacity pressure (and merging) bite — used by the
          Table II experiment *)

type family = {
  k : int;  (* fat-tree arity *)
  num_policies : int;
  rules : int;  (* per-policy rule count (non-mergeable part) *)
  mergeable : int;  (* shared blacklist rules appended to every policy *)
  paths : int;  (* total routed paths *)
  capacity : int;  (* uniform per-switch ACL capacity *)
  seed : int;
  slice : bool;
  ingress_mode : ingress_mode;
}

let default =
  {
    k = 4;
    num_policies = 8;
    rules = 20;
    mergeable = 0;
    paths = 64;
    capacity = 100;
    seed = 1;
    slice = false;
    ingress_mode = Spread;
  }

(* Named substreams of a family's seed.  Each purpose gets an
   independent SplitMix64 stream keyed by a fixed xor constant, so
   consuming one stream (or adding a new purpose) never perturbs the
   others — the discipline that keeps the committed scoreboard
   baseline (tools/scoreboard_baseline.json) byte-stable across
   refactors.  The routing and policy
   constants predate this table and must never change: the paper-scale
   scoreboard gate diffs solver results on instances generated from
   them. *)
let routing_stream f = Prng.create f.seed

let policy_stream f = Prng.create (f.seed lxor 0x5DEECE66D)

let ingresses net mode num =
  let hosts = Topo.Net.num_hosts net in
  let num = min num hosts in
  match mode with
  | Spread -> List.init num (fun i -> i * (hosts / num))
  | Contiguous -> List.init num (fun i -> i)

(* [spray] hands paths to the ingresses round-robin, so each gets one
   only when [paths] reaches their count. *)
let paths_error f ing =
  let n = List.length ing in
  if f.paths >= n then Ok ()
  else
    Error
      (Printf.sprintf
         "paths = %d is fewer than the %d policy ingresses (num_policies = \
          %d): each needs a path"
         f.paths n f.num_policies)

let validate f =
  paths_error f
    (ingresses (Topo.Fattree.make f.k) f.ingress_mode f.num_policies)

let build f =
  let g_routing = routing_stream f in
  let g_policy = policy_stream f in
  let net = Topo.Fattree.make f.k in
  let ing = ingresses net f.ingress_mode f.num_policies in
  Result.iter_error (fun m -> invalid_arg ("Workload.build: " ^ m))
    (paths_error f ing);
  let universe = max f.paths 64 in
  let routing_universe =
    Routing.Table.spray ~slice:f.slice g_routing net ~ingresses:ing
      ~total_paths:universe
  in
  (* Keep the first [paths] paths, preserving the round-robin balance
     over ingresses. *)
  let routing =
    if f.paths >= universe then routing_universe
    else begin
      (* [spray] hands path n to ingress (n mod #ingresses); the first
         [paths] paths therefore give ingress index [idx] the first
         ceil((paths - idx) / #ingresses) of its paths. *)
      let n_ing = List.length ing in
      Routing.Table.of_paths
        (List.concat
           (List.mapi
              (fun idx i ->
                let keep = (f.paths - idx + n_ing - 1) / n_ing in
                List.filteri
                  (fun n _ -> n < keep)
                  (Routing.Table.paths_from routing_universe i))
              ing))
    end
  in
  let blacklist =
    if f.mergeable > 0 then Classbench.blacklist g_policy ~num:f.mergeable
    else []
  in
  let policies =
    List.map
      (fun i ->
        let egresses =
          List.sort_uniq Stdlib.compare
            (List.map
               (fun (p : Routing.Path.t) -> p.Routing.Path.egress)
               (Routing.Table.paths_from routing_universe i))
        in
        let base =
          Classbench.policy
            ~egress_prefixes:(List.map Topo.Net.host_prefix egresses)
            g_policy ~num_rules:f.rules
        in
        (i, Classbench.with_blacklist base blacklist))
      ing
  in
  Placement.Instance.make ~net ~routing ~policies
    ~capacities:(Placement.Instance.uniform_capacity net f.capacity)
