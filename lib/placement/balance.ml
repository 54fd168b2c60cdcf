type result = { budget : int; report : Solve.report; probes : int }

let capped (inst : Instance.t) u =
  Instance.edit
    ~capacities:(Array.map (fun c -> min c u) inst.Instance.capacities)
    inst

let solved (r : Solve.report) =
  match r.Solve.status with `Optimal | `Feasible -> true | _ -> false

let min_max_usage ?options (inst : Instance.t) =
  let solve u = Solve.run ?options (capped inst u) in
  let max_cap = Array.fold_left max 0 inst.Instance.capacities in
  let probes = ref 0 in
  let probe u =
    incr probes;
    solve u
  in
  let top = probe max_cap in
  if not (solved top) then None
  else begin
    (* Tightest bound is at least the largest per-switch usage the
       unrestricted optimum already achieves: start the search there. *)
    let initial_usage =
      match top.Solve.solution with
      | Some sol -> Array.fold_left max 0 (Solution.switch_usage sol)
      | None -> max_cap
    in
    let best = ref (initial_usage, top) in
    let rec search lo hi =
      (* Invariant: [hi] is feasible (witnessed by [best]), [lo - 1]
         unknown-or-infeasible. *)
      if lo >= hi then ()
      else begin
        let mid = (lo + hi) / 2 in
        let r = probe mid in
        if solved r then begin
          let usage =
            match r.Solve.solution with
            | Some sol -> Array.fold_left max 0 (Solution.switch_usage sol)
            | None -> mid
          in
          best := (usage, r);
          search lo (min mid usage)
        end
        else search (mid + 1) hi
      end
    in
    search 0 initial_usage;
    let budget, report = !best in
    Some { budget; report; probes = !probes }
  end
