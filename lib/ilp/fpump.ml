(* Feasibility pump and objective diving on the persistent root LP.

   Both heuristics reuse the solver's factorized Simplex.Revised
   instance instead of building their own: the pump alternates the true
   objective with rounding-distance objectives via set_objective (each
   re-solve is a warm dual/primal repair, not a cold solve), and the
   dive pins one fractional variable at a time with set_bounds exactly
   like a branch & bound node would.  Strong incumbents found here let
   the tree prune against a near-optimal bound from node one. *)

let itol = 1e-6
let max_rounds = 40
let max_depth = 400
let seed = 0x9e3779b9

let objective_value (model : Model.t) sol =
  Model.activity (Model.objective model) sol

(* Each row as it was added, read from the solver's matrix. *)
let feasible (model : Model.t) sol =
  let a = Model.matrix model and rhs = Model.rhs model in
  match
    Model.iter_rows model (fun sense i s ->
        let acc = ref 0.0 in
        for p = a.rowptr.(i) to a.rowptr.(i + 1) - 3 do
          if sol.(a.colind.(p)) then acc := !acc +. a.rval.(p)
        done;
        let lhs = s *. !acc and b = s *. rhs.(i) in
        let holds =
          match sense with
          | Model.Le -> lhs <= b +. itol
          | Model.Ge -> lhs >= b -. itol
          | Model.Eq -> Float.abs (lhs -. b) <= itol
        in
        if not holds then raise Exit)
  with
  | () -> true
  | exception Exit -> false

(* LP-round-project loop.  From the LP optimum, round to the nearest 0-1
   point; if infeasible, re-solve the LP minimizing the Hamming distance
   to the rounding and repeat.  A revisited rounding (cycle) triggers a
   seeded random perturbation, keeping runs deterministic for a fixed
   seed.  The true objective is always restored before returning; the
   caller owns the follow-up reoptimize. *)
let pump ?(deadline = infinity) ?(cancel = fun () -> false) ~lp
    (model : Model.t) =
  let n = Model.num_vars model in
  let g = Prng.create seed in
  let seen = Hashtbl.create 64 in
  let found = ref None in
  let rounds = ref 0 in
  let all = Array.init n Fun.id in
  let solve () = Simplex.Revised.reoptimize ~max_iters:30_000 ~deadline lp in
  (match solve () with
  | Simplex.Revised.Optimal { solution; _ } -> (
    let x = ref solution in
    try
      while
        !rounds < max_rounds
        && (deadline = infinity || Unix.gettimeofday () < deadline)
        && not (cancel ())
      do
        incr rounds;
        let xt = Array.init n (fun j -> !x.(j) >= 0.5) in
        if feasible model xt then begin
          found := Some xt;
          raise Exit
        end;
        let h = Hashtbl.hash xt in
        if Hashtbl.mem seen h then
          (* Cycle: flip a few random coordinates to restart elsewhere. *)
          for _ = 1 to 1 + (n / 20) do
            let j = Prng.int g n in
            xt.(j) <- not xt.(j)
          done;
        Hashtbl.replace seen h ();
        Simplex.Revised.set_objective lp
          {
            Simplex.Csc.idx = all;
            coef = Array.map (fun b -> if b then -1.0 else 1.0) xt;
          };
        match solve () with
        | Simplex.Revised.Optimal { solution; _ } -> x := solution
        | _ -> raise Exit
      done
    with Exit -> ())
  | _ -> ());
  Simplex.Revised.set_objective lp (Model.objective model);
  (!found |> Option.map (fun xt -> (xt, objective_value model xt)), !rounds)

(* Objective-driven dive: follow the true-objective LP, pinning the most
   fractional variable to its nearest bound (with one retry on the
   opposite bound if that kills the LP) until the relaxation comes out
   integral.  [base_bounds] are the caller's per-variable root bounds,
   restored before returning. *)
let dive ?(deadline = infinity) ?(cancel = fun () -> false) ~lp ~base_bounds
    (model : Model.t) =
  let n = Model.num_vars model in
  let touched = ref [] in
  let pin j v =
    touched := j :: !touched;
    Simplex.Revised.set_bounds lp j v v
  in
  let restore () =
    List.iter
      (fun j ->
        let l, u = base_bounds.(j) in
        Simplex.Revised.set_bounds lp j l u)
      !touched
  in
  let solve () = Simplex.Revised.reoptimize ~max_iters:30_000 ~deadline lp in
  let rec go x depth =
    if
      depth > max_depth
      || (deadline < infinity && Unix.gettimeofday () > deadline)
      || cancel ()
    then None
    else begin
      let xt = Array.init n (fun j -> x.(j) >= 0.5) in
      if feasible model xt then Some xt
      else begin
        let j = ref (-1) and best = ref itol in
        for v = 0 to n - 1 do
          let f = Float.min x.(v) (1.0 -. x.(v)) in
          if f > !best then begin
            best := f;
            j := v
          end
        done;
        if !j < 0 then None
        else begin
          let j = !j in
          let toward = if x.(j) >= 0.5 then 1.0 else 0.0 in
          pin j toward;
          match solve () with
          | Simplex.Revised.Optimal { solution; _ } -> go solution (depth + 1)
          | Simplex.Revised.Infeasible -> (
            Simplex.Revised.set_bounds lp j (1.0 -. toward) (1.0 -. toward);
            match solve () with
            | Simplex.Revised.Optimal { solution; _ } -> go solution (depth + 1)
            | _ -> None)
          | _ -> None
        end
      end
    end
  in
  let out =
    match solve () with
    | Simplex.Revised.Optimal { solution; _ } -> go solution 0
    | _ -> None
  in
  restore ();
  Option.map (fun xt -> (xt, objective_value model xt)) out
