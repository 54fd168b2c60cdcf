type member = { ingress : int; priority : int; is_dummy : bool }

type group = {
  gid : int;
  field : Ternary.Field.t;
  action : Acl.Rule.action;
  members : member list;
}

type plan = { groups : group list }

let empty_plan = { groups = [] }

let renumber_factor = 1024

let dummy_set plan =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun g ->
      List.iter
        (fun m -> if m.is_dummy then Hashtbl.replace tbl (m.ingress, m.priority) ())
        g.members)
    plan.groups;
  tbl

let renumber inst =
  Instance.map_policies inst (fun _ q ->
      Acl.Policy.of_rules
        (List.map
           (fun (r : Acl.Rule.t) ->
             { r with priority = r.priority * renumber_factor })
           (Acl.Policy.rules q)))

let signature (r : Acl.Rule.t) = (r.field, r.action)

let find_groups (inst : Instance.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (i, q) ->
      let seen = Hashtbl.create 16 in
      (* Rules are in descending priority: the first occurrence of a
         signature within a policy is the one that can match. *)
      List.iter
        (fun (r : Acl.Rule.t) ->
          let s = signature r in
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            let prev = try Hashtbl.find tbl s with Not_found -> [] in
            Hashtbl.replace tbl s
              ({ ingress = i; priority = r.priority; is_dummy = false } :: prev)
          end)
        (Acl.Policy.rules q))
    inst.Instance.policies;
  let groups = ref [] and gid = ref 0 in
  Hashtbl.iter
    (fun (field, action) members ->
      if List.length members >= 2 then begin
        groups :=
          { gid = !gid; field; action; members = List.rev members } :: !groups;
        incr gid
      end)
    tbl;
  (* Deterministic order regardless of hash iteration. *)
  let sorted =
    List.sort
      (fun a b -> Ternary.Field.compare a.field b.field)
      !groups
  in
  List.mapi (fun i g -> { g with gid = i }) sorted

(* ---------------- Order graph and cycle analysis ---------------- *)

(* Nodes of the entry-level order graph: a rule is represented by its
   merge group when it has one, else by itself.  Edges u -> v mean "u must
   sit above v in any shared table" and arise from overlapping rules with
   different actions within one policy. *)
type node = G of int | P of int * int

let build_graph (inst : Instance.t) groups =
  let member_tbl = Hashtbl.create 64 in
  List.iter
    (fun g ->
      List.iter
        (fun m -> Hashtbl.replace member_tbl (m.ingress, m.priority) g.gid)
        g.members)
    groups;
  let node_of i (r : Acl.Rule.t) =
    match Hashtbl.find_opt member_tbl (i, r.priority) with
    | Some gid -> G gid
    | None -> P (i, r.priority)
  in
  let edges = Hashtbl.create 256 in
  (* edge (u, v) -> witnesses (ingress, upper priority, lower priority) *)
  List.iter
    (fun (i, q) ->
      let rules = Array.of_list (Acl.Policy.rules q) in
      let n = Array.length rules in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          let ra = rules.(a) and rb = rules.(b) in
          if
            (not (Acl.Rule.action_equal ra.action rb.action))
            && Acl.Rule.overlaps ra rb
          then begin
            let u = node_of i ra and v = node_of i rb in
            if u <> v then begin
              let prev = try Hashtbl.find edges (u, v) with Not_found -> [] in
              Hashtbl.replace edges (u, v)
                ((i, ra.priority, rb.priority) :: prev)
            end
          end
        done
      done)
    inst.Instance.policies;
  edges

let adjacency edges =
  let adj = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (u, v) _ ->
      let prev = try Hashtbl.find adj u with Not_found -> [] in
      Hashtbl.replace adj u (v :: prev))
    edges;
  adj

(* Returns a cycle as the list of its consecutive edges, if any. *)
let find_cycle edges =
  let adj = adjacency edges in
  let color = Hashtbl.create 256 in
  (* 1 = on stack, 2 = done *)
  let exception Found of node list in
  let rec dfs stack u =
    Hashtbl.replace color u 1;
    List.iter
      (fun v ->
        match Hashtbl.find_opt color v with
        | None -> dfs (v :: stack) v
        | Some 1 ->
          (* stack runs from u back to the start; the cycle is the prefix
             up to (and including) v. *)
          let rec take acc = function
            | x :: rest -> if x = v then v :: acc else take (x :: acc) rest
            | [] -> acc
          in
          raise (Found (take [] stack))
        | Some _ -> ())
      (try Hashtbl.find adj u with Not_found -> []);
    Hashtbl.replace color u 2
  in
  try
    Hashtbl.iter
      (fun u _ -> if not (Hashtbl.mem color u) then dfs [ u ] u)
      adj;
    None
  with Found nodes ->
    (* nodes = [v; ...; u] in forward order; close the loop. *)
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | [ last ] -> [ (last, List.hd nodes) ]
      | [] -> []
    in
    Some (pairs nodes)

(* Insert a dummy copy of [field]/[action] into policy [i] just below
   priority [below]; returns the updated instance and the dummy's
   priority. *)
let insert_dummy inst i ~field ~action ~below =
  let q = Option.get (Instance.policy_of inst i) in
  let taken = Hashtbl.create 64 in
  List.iter
    (fun (r : Acl.Rule.t) -> Hashtbl.replace taken r.priority ())
    (Acl.Policy.rules q);
  let rec free p =
    if p <= min_int + 1 then invalid_arg "Merge.insert_dummy: no free priority"
    else if Hashtbl.mem taken p then free (p - 1)
    else p
  in
  let priority = free (below - 1) in
  let inst' =
    Instance.map_policies inst (fun j q ->
        if j = i then
          Acl.Policy.add_rule q (Acl.Rule.make ~field ~action ~priority)
        else q)
  in
  (inst', priority)

(* Break one cycle: pick an edge whose tail is a group, and a policy
   [i] behind it where the group's member [pu] sits above a conflicting
   rule [pv].  That member leaves the group and rejoins it as a dummy
   just below [pv] (shadowed by the original, so [i]'s semantics are
   unchanged), so [i] no longer puts the group above [pv].  Expelling
   the edge's head member instead cannot work: whatever sits above a
   member sits above its dummy too, so the edge would come back. *)
let break_cycle inst groups cycle =
  let edges = build_graph inst groups in
  let target =
    List.find_map
      (fun (u, v) ->
        match u with
        | G gid -> (
          match Hashtbl.find_opt edges (u, v) with
          | Some ((i, pu, pv) :: _) ->
            let g = List.find (fun g -> g.gid = gid) groups in
            let m =
              List.find (fun m -> m.ingress = i && m.priority = pu) g.members
            in
            Some (g, m, i, pv)
          | _ -> None)
        | P _ -> None)
      cycle
  in
  match target with
  | None -> None (* cycle without group tails: impossible, but be safe *)
  | Some (g, m, i, pv) ->
    let inst', dummy_prio =
      insert_dummy inst i ~field:g.field ~action:g.action ~below:pv
    in
    let members' =
      { ingress = i; priority = dummy_prio; is_dummy = true }
      :: List.filter (fun m' -> m' <> m) g.members
    in
    let groups' =
      List.map (fun g' -> if g'.gid = g.gid then { g' with members = members' } else g')
        groups
    in
    Some (inst', groups', (i, dummy_prio))

let drop_group groups gid = List.filter (fun g -> g.gid <> gid) groups

let plan inst =
  let inst = renumber inst in
  let groups = find_groups inst in
  let max_iters =
    4 * List.fold_left (fun acc g -> acc + List.length g.members) 1 groups
  in
  (* [dummies]: the (ingress, priority) of every dummy inserted so far;
     each insertion demotes one member. *)
  let rec loop inst groups dummies iters =
    match find_cycle (build_graph inst groups) with
    | None -> (inst, groups, dummies)
    | Some cycle -> (
      let broken =
        if iters >= max_iters then None else break_cycle inst groups cycle
      in
      match broken with
      | Some (inst', groups', dummy) ->
        loop inst' groups' (dummy :: dummies) (iters + 1)
      | None -> (
        (* Safety valve: abandon merging for a group on the cycle. *)
        match
          List.find_map (function _, G gid -> Some gid | _ -> None) cycle
        with
        | Some gid -> loop inst (drop_group groups gid) dummies (iters + 1)
        | None -> (inst, groups, dummies)))
  in
  let inst, groups, dummies = loop inst groups [] 0 in
  (* Groups reduced below two members merge nothing: drop them. *)
  let groups = List.filter (fun g -> List.length g.members >= 2) groups in
  let plan = { groups } in
  (* A dummy that is in no surviving group (its group was dropped, or it
     was expelled itself) would stay behind as an ordinary shadowed rule
     that only costs a slot: remove it. *)
  let kept = dummy_set plan in
  let stale = List.filter (fun key -> not (Hashtbl.mem kept key)) dummies in
  let inst =
    if stale = [] then inst
    else
      Instance.map_policies inst (fun i q ->
          List.fold_left
            (fun q (j, priority) ->
              if j = i then Acl.Policy.remove_rule q ~priority else q)
            q stale)
  in
  (inst, plan)

let order_graph_acyclic inst plan =
  find_cycle (build_graph inst plan.groups) = None
