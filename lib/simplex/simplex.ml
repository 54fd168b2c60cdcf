module Csc = Csc
module Lu = Lu
module Revised = Revised

type sense = Revised.sense = Le | Ge | Eq

type row = { coeffs : (int * float) list; sense : sense; rhs : float }

type problem = {
  num_vars : int;
  minimize : (int * float) list;
  rows : row list;
  upper : float array;
}

type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let eps = 1e-7
let pivot_tol = 1e-8

(* Telemetry: per-solve counts accumulate in the (domain-local) tableau
   and are flushed to the shared registry once per solve, so the hot
   pivot loops never touch an atomic. *)
let m_solves =
  Telemetry.Metrics.counter ~help:"LP solves started"
    "sdnplace_simplex_solves_total"

let m_pivots =
  Telemetry.Metrics.counter ~help:"simplex basis pivots"
    "sdnplace_simplex_pivots_total"

let m_flips =
  Telemetry.Metrics.counter ~help:"nonbasic bound flips (no basis change)"
    "sdnplace_simplex_bound_flips_total"

let m_iterations =
  Telemetry.Metrics.counter ~help:"simplex iterations across both phases"
    "sdnplace_simplex_iterations_total"

let m_phase1_s =
  Telemetry.Metrics.histogram ~help:"phase-1 (feasibility) duration"
    "sdnplace_simplex_phase1_seconds"

let m_phase2_s =
  Telemetry.Metrics.histogram ~help:"phase-2 (optimality) duration"
    "sdnplace_simplex_phase2_seconds"

let validate p =
  if p.num_vars < 0 then invalid_arg "Simplex: negative num_vars";
  if Array.length p.upper <> p.num_vars then
    invalid_arg "Simplex: upper bound array length mismatch";
  Array.iter
    (fun u -> if u < 0.0 then invalid_arg "Simplex: negative upper bound")
    p.upper;
  let check_terms terms =
    List.iter
      (fun (j, _) ->
        if j < 0 || j >= p.num_vars then
          invalid_arg "Simplex: variable index out of range")
      terms
  in
  check_terms p.minimize;
  List.iter (fun r -> check_terms r.coeffs) p.rows

let feasible p x =
  let tol = 1e-6 in
  Array.length x = p.num_vars
  && Array.for_all (fun v -> v >= -.tol) x
  && Array.for_all2 (fun v u -> v <= u +. tol) x p.upper
  && List.for_all
       (fun r ->
         let lhs =
           List.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0.0 r.coeffs
         in
         match r.sense with
         | Le -> lhs <= r.rhs +. tol
         | Ge -> lhs >= r.rhs -. tol
         | Eq -> Float.abs (lhs -. r.rhs) <= tol)
       p.rows

(* Internal tableau state.  All nonbasic variables sit at value 0 in the
   *current coordinates*: a variable marked [flipped] is represented by its
   reflection u - x, so "at upper bound" becomes "at 0".  [rhs] therefore
   always holds the basic variables' current-coordinate values. *)
type tableau = {
  m : int;  (** rows *)
  ncols : int;
  n_struct : int;
  first_artificial : int;
  t : float array array;  (** m x ncols *)
  b : float array;  (** m: basic values *)
  basis : int array;
  ub : float array;  (** ncols *)
  flipped : bool array;
  mutable n_pivots : int;
  mutable n_flips : int;
}

let build p =
  let rows = Array.of_list p.rows in
  let m = Array.length rows in
  (* Normalize to nonnegative right-hand sides. *)
  let norm =
    Array.map
      (fun r ->
        if r.rhs < 0.0 then
          ( List.map (fun (j, c) -> (j, -.c)) r.coeffs,
            (match r.sense with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.r.rhs )
        else (r.coeffs, r.sense, r.rhs))
      rows
  in
  let n_struct = p.num_vars in
  let num_slack =
    Array.fold_left
      (fun acc (_, s, _) -> match s with Le | Ge -> acc + 1 | Eq -> acc)
      0 norm
  in
  let num_art =
    Array.fold_left
      (fun acc (_, s, _) -> match s with Ge | Eq -> acc + 1 | Le -> acc)
      0 norm
  in
  let first_artificial = n_struct + num_slack in
  let ncols = first_artificial + num_art in
  let t = Array.init m (fun _ -> Array.make ncols 0.0) in
  let b = Array.make m 0.0 in
  let basis = Array.make m (-1) in
  let ub = Array.make ncols infinity in
  Array.blit p.upper 0 ub 0 n_struct;
  let next_slack = ref n_struct in
  let next_art = ref first_artificial in
  Array.iteri
    (fun i (coeffs, s, rhs) ->
      List.iter (fun (j, c) -> t.(i).(j) <- t.(i).(j) +. c) coeffs;
      b.(i) <- rhs;
      (match s with
      | Le ->
        t.(i).(!next_slack) <- 1.0;
        basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        t.(i).(!next_slack) <- -1.0;
        incr next_slack;
        t.(i).(!next_art) <- 1.0;
        basis.(i) <- !next_art;
        incr next_art
      | Eq ->
        t.(i).(!next_art) <- 1.0;
        basis.(i) <- !next_art;
        incr next_art))
    norm;
  { m; ncols; n_struct; first_artificial; t; b; basis; ub;
    flipped = Array.make ncols false; n_pivots = 0; n_flips = 0 }

(* Reflect nonbasic column [j] through its (finite) upper bound: the
   variable moves to the other bound without a basis change. *)
let bound_flip tab j =
  tab.n_flips <- tab.n_flips + 1;
  let u = tab.ub.(j) in
  for i = 0 to tab.m - 1 do
    tab.b.(i) <- tab.b.(i) -. (tab.t.(i).(j) *. u);
    tab.t.(i).(j) <- -.tab.t.(i).(j)
  done;
  tab.flipped.(j) <- not tab.flipped.(j)

(* Reflect the *basic* variable of row [r]; its column is the unit vector
   e_r, so the reflection reduces to negating row r around that column. *)
let flip_basic tab r =
  let v = tab.basis.(r) in
  let u = tab.ub.(v) in
  let row = tab.t.(r) in
  for c = 0 to tab.ncols - 1 do
    row.(c) <- -.row.(c)
  done;
  row.(v) <- 1.0;
  tab.b.(r) <- u -. tab.b.(r);
  tab.flipped.(v) <- not tab.flipped.(v)

let pivot tab cost r j =
  tab.n_pivots <- tab.n_pivots + 1;
  let row = tab.t.(r) in
  let piv = row.(j) in
  let inv = 1.0 /. piv in
  for c = 0 to tab.ncols - 1 do
    row.(c) <- row.(c) *. inv
  done;
  tab.b.(r) <- tab.b.(r) *. inv;
  for i = 0 to tab.m - 1 do
    if i <> r then begin
      let f = tab.t.(i).(j) in
      if Float.abs f > 0.0 then begin
        let ri = tab.t.(i) in
        for c = 0 to tab.ncols - 1 do
          ri.(c) <- ri.(c) -. (f *. row.(c))
        done;
        tab.b.(i) <- tab.b.(i) -. (f *. tab.b.(r));
        ri.(j) <- 0.0
      end
    end
  done;
  let f = cost.(j) in
  if Float.abs f > 0.0 then begin
    for c = 0 to tab.ncols - 1 do
      cost.(c) <- cost.(c) -. (f *. row.(c))
    done;
    cost.(j) <- 0.0
  end;
  tab.basis.(r) <- j

(* Make the reduced costs of basic columns zero. *)
let eliminate_basics tab cost =
  for i = 0 to tab.m - 1 do
    let f = cost.(tab.basis.(i)) in
    if Float.abs f > 0.0 then begin
      let row = tab.t.(i) in
      for c = 0 to tab.ncols - 1 do
        cost.(c) <- cost.(c) -. (f *. row.(c))
      done;
      cost.(tab.basis.(i)) <- 0.0
    end
  done

type step = Done | Stepped | Hit_unbounded

(* One simplex iteration on the given reduced-cost row; [allowed j] guards
   entering candidates (used to lock artificials out of phase 2). *)
let step tab cost ~allowed ~bland =
  let entering = ref (-1) in
  let best_cost = ref (-.eps) in
  (try
     for j = 0 to tab.ncols - 1 do
       if allowed j && cost.(j) < -.eps then
         if bland then begin
           entering := j;
           raise Exit
         end
         else if cost.(j) < !best_cost then begin
           best_cost := cost.(j);
           entering := j
         end
     done
   with Exit -> ());
  if !entering < 0 then Done
  else begin
    let j = !entering in
    (* Ratio test: the entering variable grows from 0; basics change at
       rate -t(i,j).  Limits: a basic reaching 0, a basic reaching its
       upper bound, or the entering variable reaching its own bound. *)
    let limit = ref tab.ub.(j) in
    let leave = ref (-1) in
    for i = 0 to tab.m - 1 do
      let a = tab.t.(i).(j) in
      let lim =
        if a > pivot_tol then tab.b.(i) /. a
        else if a < -.pivot_tol && tab.ub.(tab.basis.(i)) < infinity then
          (tab.ub.(tab.basis.(i)) -. tab.b.(i)) /. -.a
        else infinity
      in
      let better =
        lim < !limit -. 1e-10
        || (lim < !limit +. 1e-10 && !leave >= 0 && bland
            && tab.basis.(i) < tab.basis.(!leave))
      in
      if better then begin
        limit := lim;
        leave := i
      end
    done;
    if !limit = infinity then Hit_unbounded
    else if !leave < 0 then begin
      (* The entering variable hits its own bound first: flip, no pivot. *)
      bound_flip tab j;
      cost.(j) <- -.cost.(j);
      Stepped
    end
    else begin
      let r = !leave in
      if tab.t.(r).(j) < 0.0 then flip_basic tab r;
      pivot tab cost r j;
      Stepped
    end
  end

let run_phase tab cost ~allowed ~iters_left =
  let bland = ref false in
  let stall = ref 0 in
  let result = ref Iteration_limit in
  (try
     while true do
       if !iters_left <= 0 then raise Exit;
       decr iters_left;
       let before = Array.copy tab.b in
       match step tab cost ~allowed ~bland:!bland with
       | Done ->
         result := Optimal { objective = 0.0; solution = [||] };
         raise Exit
       | Hit_unbounded ->
         result := Unbounded;
         raise Exit
       | Stepped ->
         (* Degeneracy watchdog: many pivots without any basic-value
            movement means we may be cycling; fall back to Bland's rule. *)
         let moved = ref false in
         Array.iteri
           (fun i v -> if Float.abs (v -. tab.b.(i)) > eps then moved := true)
           before;
         if !moved then begin
           stall := 0;
           bland := false
         end
         else begin
           incr stall;
           if !stall > 60 then bland := true
         end
     done
   with Exit -> ());
  !result

let solve_dense ?(max_iters = 50_000) p =
  validate p;
  Telemetry.Metrics.incr m_solves;
  let tab = build p in
  let iters_left = ref max_iters in
  (* Phase 1: minimize the sum of artificials. *)
  let phase2 () =
    Telemetry.Metrics.time m_phase2_s @@ fun () ->
    let cost2 = Array.make tab.ncols 0.0 in
    List.iter
      (fun (j, c) -> cost2.(j) <- cost2.(j) +. c)
      p.minimize;
    for j = 0 to tab.n_struct - 1 do
      if tab.flipped.(j) then cost2.(j) <- -.cost2.(j)
    done;
    eliminate_basics tab cost2;
    let allowed j = j < tab.first_artificial in
    match run_phase tab cost2 ~allowed ~iters_left with
    | Optimal _ ->
      let x = Array.make tab.n_struct 0.0 in
      for i = 0 to tab.m - 1 do
        let v = tab.basis.(i) in
        if v < tab.n_struct then x.(v) <- tab.b.(i)
      done;
      for j = 0 to tab.n_struct - 1 do
        if tab.flipped.(j) then x.(j) <- tab.ub.(j) -. x.(j);
        if x.(j) < 0.0 then x.(j) <- 0.0;
        if x.(j) > p.upper.(j) then x.(j) <- p.upper.(j)
      done;
      let objective =
        List.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0.0 p.minimize
      in
      Optimal { objective; solution = x }
    | other -> other
  in
  let result =
  if tab.first_artificial = tab.ncols then phase2 ()
  else begin
    let cost1 = Array.make tab.ncols 0.0 in
    for j = tab.first_artificial to tab.ncols - 1 do
      cost1.(j) <- 1.0
    done;
    eliminate_basics tab cost1;
    match
      Telemetry.Metrics.time m_phase1_s (fun () ->
          run_phase tab cost1 ~allowed:(fun _ -> true) ~iters_left)
    with
    | Optimal _ ->
      let infeas = ref 0.0 in
      for i = 0 to tab.m - 1 do
        if tab.basis.(i) >= tab.first_artificial then
          infeas := !infeas +. tab.b.(i)
      done;
      if !infeas > 1e-6 then Infeasible
      else begin
        (* Drive remaining zero-level artificials out of the basis where a
           nonzero real pivot exists; all-zero rows are redundant and can
           stay (their artificial is frozen at 0). *)
        for r = 0 to tab.m - 1 do
          if tab.basis.(r) >= tab.first_artificial then begin
            let j = ref (-1) in
            for c = tab.first_artificial - 1 downto 0 do
              if Float.abs tab.t.(r).(c) > 1e-6 then j := c
            done;
            (* The artificial sits at zero, so pivoting on either sign
               keeps every basic value unchanged (degenerate pivot). *)
            if !j >= 0 then pivot tab cost1 r !j
          end
        done;
        phase2 ()
      end
    | Unbounded ->
      (* Phase 1 is bounded below by 0; numerical trouble if we get here. *)
      Infeasible
    | other -> other
  end
  in
  Telemetry.Metrics.add m_pivots tab.n_pivots;
  Telemetry.Metrics.add m_flips tab.n_flips;
  Telemetry.Metrics.add m_iterations (max_iters - !iters_left);
  result

(* The production engine: the revised simplex ({!Revised}) on a one-shot
   instance.  Lower bounds are all zero in this interface, so packing
   each row's term list is the whole translation. *)
let pack terms =
  Csc.pack
    (Array.of_list (List.map fst terms))
    (Array.of_list (List.map snd terms))

let solve ?(max_iters = 50_000) p =
  validate p;
  Telemetry.Metrics.incr m_solves;
  let rows = Array.of_list p.rows in
  let t =
    Revised.create
      ~a:
        (Revised.matrix ~nvars:p.num_vars
           (Array.map (fun r -> pack r.coeffs) rows))
      ~senses:(Array.map (fun r -> r.sense) rows)
      ~rhs:(Array.map (fun r -> r.rhs) rows)
      ~obj:(pack p.minimize)
      ~lower:(Array.make p.num_vars 0.0)
      ~upper:p.upper
  in
  match Revised.optimize ~max_iters t with
  | Revised.Optimal { objective; solution } -> Optimal { objective; solution }
  | Revised.Infeasible -> Infeasible
  | Revised.Unbounded -> Unbounded
  | Revised.Iteration_limit -> Iteration_limit
