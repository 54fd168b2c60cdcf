type result = {
  status : Encode.status;
  solution : Solution.t option;
}

let residual_capacities (sol : Solution.t) =
  let usage = Solution.switch_usage sol in
  Array.mapi
    (fun k c -> max 0 (c - usage.(k)))
    sol.Solution.instance.Instance.capacities

(* Rebuild a combined solution record over the full (frozen + new)
   instance. *)
let combine ~(frozen : Solution.t) ~(sub : Solution.t) ~instance =
  {
    Solution.instance;
    sliced = frozen.Solution.sliced || sub.Solution.sliced;
    per_switch =
      Array.map2 (fun a b -> a @ b) frozen.Solution.per_switch
        sub.Solution.per_switch;
    baseline_rule_count =
      frozen.Solution.baseline_rule_count + sub.Solution.baseline_rule_count;
    objective = frozen.Solution.objective +. sub.Solution.objective;
  }

let install ?options ?deadline ~(base : Solution.t) ~policies ~paths () =
  let base_inst = base.Solution.instance in
  List.iter
    (fun (i, _) ->
      if Instance.policy_of base_inst i <> None then
        invalid_arg "Incremental.install: ingress already carries a policy")
    policies;
  let report =
    Solve.run ?options ?deadline
      (Instance.edit ~policies ~paths ~capacities:(residual_capacities base)
         (Instance.empty base_inst.Instance.net))
  in
  match report.Solve.solution with
  | Some sub ->
    let instance =
      Instance.edit ~policies:report.Solve.instance.Instance.policies ~paths
        base_inst
    in
    {
      status = report.Solve.status;
      solution = Some (combine ~frozen:base ~sub ~instance);
    }
  | None -> { status = report.Solve.status; solution = None }

let remove ~(base : Solution.t) ~ingresses =
  {
    (Solution.strip_ingresses base ingresses) with
    Solution.instance = Instance.edit ~drop:ingresses base.Solution.instance;
  }
