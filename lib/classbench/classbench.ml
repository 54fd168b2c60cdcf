open Ternary

type profile = {
  drop_fraction : float; (* probability a rule is a DROP *)
  src_any_prob : float; (* probability the source is fully wildcarded *)
  dst_any_prob : float;
  dst_host_bias : float;
      (* probability a destination is one of the network's actual egress
         host prefixes (makes path slicing meaningful) *)
  port_any_prob : float;
  port_point_prob : float; (* else a short range *)
  pool_size : int; (* prefixes per pool *)
}

(* TCP-heavy, moderately nested pools. *)
let profile =
  {
    drop_fraction = 0.45;
    src_any_prob = 0.15;
    dst_any_prob = 0.10;
    dst_host_bias = 0.40;
    port_any_prob = 0.55;
    port_point_prob = 0.35;
    pool_size = 24;
  }

(* Tenant address space: the host addressing plan of [Topo.Net] lives in
   10.0.0.0/8, so policies talk about prefixes nested under it. *)
let tenant_root = Prefix.make 0x0A000000 8

(* Grow a prefix pool by random refinement: start from [roots], repeatedly
   pick a pool member and generate a strictly longer sub-prefix.  The
   resulting pool is nested (trie-shaped), which is what produces
   overlapping rules of different granularity. *)
let grow_pool g ~roots ~size =
  let pool = ref (Array.of_list roots) in
  while Array.length !pool < size do
    let parent = Prng.choose g !pool in
    let plen = Prefix.len parent in
    if plen >= 30 then
      (* Too specific to refine; re-draw from the root instead. *)
      pool :=
        Array.append !pool
          [| Prefix.random_subprefix g tenant_root ~len:(Prng.int_in g 12 24) |]
    else
      let len = Prng.int_in g (plen + 2) (min 32 (plen + 10)) in
      pool := Array.append !pool [| Prefix.random_subprefix g parent ~len |]
  done;
  !pool

let well_known_ports = [| 22; 25; 53; 80; 110; 123; 143; 443; 993; 3306; 8080 |]

let gen_port g =
  let u = Prng.float g 1.0 in
  if u < profile.port_any_prob then Range.full
  else if u < profile.port_any_prob +. profile.port_point_prob then
    Range.point (Prng.choose g well_known_ports)
  else
    (* A short range: ephemeral block or service band. *)
    let lo = Prng.int_in g 1024 60000 in
    Range.make lo (min Range.max_value (lo + Prng.int_in g 1 1023))

let gen_proto g =
  let u = Prng.float g 1.0 in
  if u < 0.55 then Proto.tcp
  else if u < 0.80 then Proto.udp
  else if u < 0.88 then Proto.icmp
  else Proto.Any

let gen_field g ~src_pool ~dst_pool ~egress =
  let src =
    if Prng.float g 1.0 < profile.src_any_prob then Prefix.any
    else Prng.choose g src_pool
  in
  let dst =
    if Prng.float g 1.0 < profile.dst_any_prob then Prefix.any
    else if egress <> [||] && Prng.float g 1.0 < profile.dst_host_bias then
      Prng.choose g egress
    else Prng.choose g dst_pool
  in
  Field.make ~src ~dst ~sport:(gen_port g) ~dport:(gen_port g)
    ~proto:(gen_proto g) ()

let policy ?(egress_prefixes = []) g ~num_rules =
  let src_pool = grow_pool g ~roots:[ tenant_root ] ~size:profile.pool_size in
  let dst_roots =
    match egress_prefixes with [] -> [ tenant_root ] | l -> tenant_root :: l
  in
  let dst_pool = grow_pool g ~roots:dst_roots ~size:profile.pool_size in
  let egress = Array.of_list egress_prefixes in
  let specs =
    List.init num_rules (fun _ ->
        let field = gen_field g ~src_pool ~dst_pool ~egress in
        let action =
          if Prng.float g 1.0 < profile.drop_fraction then Acl.Rule.Drop
          else Acl.Rule.Permit
        in
        (field, action))
  in
  Acl.Policy.of_fields specs

let policy_for_ingress g ~net ~egresses ~num_rules =
  let egress_prefixes = List.map Topo.Net.host_prefix egresses in
  ignore net;
  policy ~egress_prefixes g ~num_rules

(* Blacklists name attacker sources outside the tenant space, so they are
   disjoint from normal inter-tenant rules and safe to share verbatim. *)
let blacklist_root = Prefix.make 0xC0A80000 16 (* 192.168.0.0/16 *)

let blacklist g ~num =
  List.init num (fun _ ->
      let len = Prng.int_in g 20 32 in
      Field.make ~src:(Prefix.random_subprefix g blacklist_root ~len) ())

let with_blacklist policy fields =
  let base = Acl.Policy.max_priority policy in
  let n = List.length fields in
  let extra =
    List.mapi
      (fun i field ->
        Acl.Rule.make ~field ~action:Acl.Rule.Drop ~priority:(base + n - i))
      fields
  in
  List.fold_left Acl.Policy.add_rule policy extra
