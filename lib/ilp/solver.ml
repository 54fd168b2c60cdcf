type solution = { values : bool array; objective : float }

type outcome =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Unknown

type config = {
  time_limit : float;
  node_limit : int;
  lp_root : bool;
  lp_depth : int;
  cuts : bool;
  fpump : bool;
}

let default_config =
  {
    time_limit = 60.0;
    node_limit = 2_000_000;
    lp_root = true;
    lp_depth = 2;
    cuts = true;
    fpump = true;
  }

type stats = { nodes : int; lp_calls : int; elapsed : float; root_bound : float }

let eps = 1e-6

(* Maximum root cut-separation rounds. *)
let cut_rounds = 4

(* Telemetry.  Node/LP tallies accumulate in the search [state] and
   are flushed to the registry once per solve; only the incumbent
   counter is bumped inline (incumbents are rare by construction). *)
let m_solves =
  Telemetry.Metrics.counter ~help:"branch-and-bound solves"
    "sdnplace_ilp_solves_total"

let m_nodes =
  Telemetry.Metrics.counter ~help:"branch-and-bound nodes expanded"
    "sdnplace_ilp_nodes_total"

let m_lp_calls =
  Telemetry.Metrics.counter ~help:"LP relaxations attempted"
    "sdnplace_ilp_lp_calls_total"

let m_incumbents =
  Telemetry.Metrics.counter ~help:"incumbent (improving) solutions found"
    "sdnplace_ilp_incumbents_total"

let m_solve_s =
  Telemetry.Metrics.histogram ~help:"ILP solve duration"
    "sdnplace_ilp_solve_seconds"

let m_lp_s =
  Telemetry.Metrics.histogram ~help:"LP relaxation duration"
    "sdnplace_ilp_lp_seconds"

let m_root_bound =
  Telemetry.Metrics.gauge
    ~help:"root lower bound (LP or counting) of the last solve"
    "sdnplace_ilp_root_bound"

let m_warm_hits =
  Telemetry.Metrics.counter
    ~help:"LP re-solves warm-started from an existing basis"
    "sdnplace_ilp_warm_start_hits_total"

let m_warm_misses =
  Telemetry.Metrics.counter
    ~help:"LP solves that had no basis to warm-start from"
    "sdnplace_ilp_warm_start_misses_total"

let m_cuts =
  Telemetry.Metrics.counter
    ~help:"cutting planes appended to the root LP"
    "sdnplace_ilp_cuts_total"

let m_cut_rounds =
  Telemetry.Metrics.counter
    ~help:"separation rounds that produced at least one cut"
    "sdnplace_ilp_cut_rounds_total"

let m_pump_rounds =
  Telemetry.Metrics.counter
    ~help:"feasibility-pump LP-round-project iterations"
    "sdnplace_ilp_fpump_rounds_total"

let objective_value = Fpump.objective_value

let check_feasible model values =
  Array.length values = Model.num_vars model && Fpump.feasible model values

(* ------------------------------------------------------------------ *)
(* Internal search state                                              *)
(* ------------------------------------------------------------------ *)

(* All constraints are <= rows stored once, in [a]: the model's own
   matrix ({!Model.matrix}), which the persistent LP factorizes too, so
   each row ends with its LP slack and artificial entries, which
   propagation skips.  Bound consistency reads a row from [a]'s CSR,
   activity updates read a variable's occurrences from its CSC.
   [minact.(i)] is row [i]'s smallest achievable activity given current
   fixings (free variables contribute min(coef, 0)); the row is
   unsatisfiable iff minact > rhs. *)

(* Covering rows (sum of distinct variables >= need) get dedicated
   bookkeeping for branching and lower bounds.  A cover's variables are
   [a.colind.(c0 .. c1 - 1)]. *)
type cover = {
  c0 : int;
  c1 : int;
  need : int;
  mutable ones : int;
  mutable free : int;
}

type state = {
  n : int;
  c : float array;
  all_int : bool;
  a : Simplex.Csc.t;  (* <= rows x (vars, LP slacks, LP artificials) *)
  rhs : float array;  (* [Model.rhs], shared like [a] *)
  minact : float array;
  covers : cover array;
  cover_of : int array;  (* row of [a] -> its cover's index, or -1 *)
  value : int array;  (* -1 free, 0, 1 *)
  trail : int array;
  mutable trail_len : int;
  mutable obj_fixed : float;  (* sum of c over vars fixed to 1 *)
  mutable neg_free : float;  (* sum of negative c over free vars *)
  used_stamp : int array;  (* scratch for the cover bound *)
  mutable stamp : int;
  mutable best : solution option;
  mutable cancel : unit -> bool;
      (* cooperative cancellation, polled in [dfs] and between root cut
         rounds, pump rounds and dive steps *)
  mutable nodes : int;
  mutable lp_calls : int;
  mutable stopped : bool;
  mutable root_bound : float;
  (* LP relaxation: one persistent revised-simplex instance per search
     state, over [a] itself.  Each node narrows variable bounds in place
     and re-solves with the dual simplex from the parent's optimal basis
     instead of rebuilding a reduced LP from scratch. *)
  mutable splx : Simplex.Revised.t option;
  (* Wall-clock instant [time_limit] after the solve started: the search
     and every LP pivot loop give up once it passes, so a single long
     relaxation cannot blow through the limit either. *)
  mutable lp_deadline : float;
}

let build_state model =
  let n = Model.num_vars model in
  let c = Array.make n 0.0 in
  let { Simplex.Csc.idx = oidx; coef = ocoef } = Model.objective model in
  Array.iteri (fun k v -> c.(v) <- ocoef.(k)) oidx;
  let a = Model.matrix model and rhs = Model.rhs model in
  let m = a.m in
  let cover_of = Array.make m (-1) and covers = ref [] and ncov = ref 0 in
  (* A packed row has distinct variables, so a [Ge] row with all-unit
     coefficients and rhs >= 1 is a covering row. *)
  Model.iter_rows model (fun sense i s ->
      if sense = Model.Ge && s *. rhs.(i) >= 1.0 -. eps then begin
        let c0 = a.rowptr.(i) and c1 = a.rowptr.(i + 1) - 2 in
        let unit = ref true in
        for p = c0 to c1 - 1 do
          if not (Float.abs ((s *. a.rval.(p)) -. 1.0) < eps) then
            unit := false
        done;
        if !unit then begin
          cover_of.(i) <- !ncov;
          incr ncov;
          covers :=
            {
              c0;
              c1;
              need = int_of_float (Float.round (s *. rhs.(i)));
              ones = 0;
              free = c1 - c0;
            }
            :: !covers
        end
      end);
  (* Loops, not closures, so no float is boxed. *)
  let minact = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let acc = ref 0.0 in
    for p = a.rowptr.(i) to a.rowptr.(i + 1) - 3 do
      acc := !acc +. Float.min a.rval.(p) 0.0
    done;
    minact.(i) <- !acc
  done;
  let neg_free = ref 0.0 and all_int = ref true in
  for v = 0 to n - 1 do
    neg_free := !neg_free +. Float.min c.(v) 0.0;
    if not (Float.is_integer c.(v)) then all_int := false
  done;
  let neg_free = !neg_free and all_int = !all_int in
  {
    n;
    c;
    all_int;
    a;
    rhs;
    minact;
    covers = Array.of_list (List.rev !covers);
    cover_of;
    value = Array.make n (-1);
    trail = Array.make (max n 1) 0;
    trail_len = 0;
    obj_fixed = 0.0;
    neg_free;
    used_stamp = Array.make n 0;
    stamp = 0;
    best = None;
    cancel = (fun () -> false);
    nodes = 0;
    lp_calls = 0;
    stopped = false;
    root_bound = neg_infinity;
    splx = None;
    lp_deadline = infinity;
  }

(* Apply ([sign] = 1) or retract ([sign] = -1) the effect of [v] = [b]
   on row activities, covers and the objective tallies.  Scaling by
   [sign] is exact, so a retraction restores every float bit for bit. *)
let account st v b sign =
  let a = st.a and s = float_of_int sign in
  let bf = if b = 1 then 1.0 else 0.0 in
  for p = a.colptr.(v) to a.colptr.(v + 1) - 1 do
    let x = a.cval.(p) and i = a.rowind.(p) in
    st.minact.(i) <- st.minact.(i) +. (s *. ((x *. bf) -. Float.min x 0.0));
    let ci = st.cover_of.(i) in
    if ci >= 0 then begin
      let cv = st.covers.(ci) in
      cv.free <- cv.free - sign;
      if b = 1 then cv.ones <- cv.ones + sign
    end
  done;
  if st.c.(v) < 0.0 then st.neg_free <- st.neg_free -. (s *. st.c.(v));
  if b = 1 then st.obj_fixed <- st.obj_fixed +. (s *. st.c.(v))

let assign st v b =
  st.value.(v) <- b;
  st.trail.(st.trail_len) <- v;
  st.trail_len <- st.trail_len + 1;
  account st v b 1

let undo_to st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    let v = st.trail.(st.trail_len) in
    account st v st.value.(v) (-1);
    st.value.(v) <- -1
  done

exception Conflict

(* Enforce bound-consistency on one row; may assign further variables
   (which lengthens the trail and will be processed by the caller).  The
   row's last two entries are its LP slack and artificial. *)
let force_row st ri =
  let a = st.a in
  let minact = st.minact.(ri) and rhs = st.rhs.(ri) in
  if minact > rhs +. eps then raise Conflict;
  let slack = rhs -. minact in
  for p = a.rowptr.(ri) to a.rowptr.(ri + 1) - 3 do
    let v = a.colind.(p) in
    if st.value.(v) = -1 then begin
      let x = a.rval.(p) in
      if x > slack +. eps then assign st v 0
      else if -.x > slack +. eps then assign st v 1
    end
  done

(* Process trail entries from [mark] to fixpoint. *)
let propagate st mark =
  let a = st.a in
  let q = ref mark in
  try
    while !q < st.trail_len do
      let v = st.trail.(!q) in
      incr q;
      for p = a.colptr.(v) to a.colptr.(v + 1) - 1 do
        force_row st a.rowind.(p)
      done
    done;
    true
  with Conflict -> false

let propagate_root st =
  try
    for ri = 0 to st.a.m - 1 do
      force_row st ri
    done;
    propagate st 0
  with Conflict -> false

let cover_iter st cv f =
  for p = cv.c0 to cv.c1 - 1 do
    f st.a.colind.(p)
  done

(* Lower bound = cost already committed
                + negative costs still collectable
                + cheapest completions of disjoint unsatisfied covers. *)
let bound st =
  let base = st.obj_fixed +. st.neg_free in
  st.stamp <- st.stamp + 1;
  let extra = ref 0.0 in
  Array.iter
    (fun cv ->
      if cv.ones < cv.need then begin
        let free_costs = ref [] in
        let clean = ref true in
        cover_iter st cv (fun v ->
            if st.value.(v) = -1 then
              if st.used_stamp.(v) = st.stamp then clean := false
              else free_costs := Float.max st.c.(v) 0.0 :: !free_costs);
        if !clean then begin
          let costs = List.sort Stdlib.compare !free_costs in
          let needed = cv.need - cv.ones in
          let rec take k = function
            | cost :: rest when k > 0 -> cost +. take (k - 1) rest
            | _ -> 0.0
          in
          extra := !extra +. take needed costs;
          cover_iter st cv (fun v ->
              if st.value.(v) = -1 then st.used_stamp.(v) <- st.stamp)
        end
      end)
    st.covers;
  base +. !extra

(* The state's persistent LP, built on first use over the search's own
   matrix (every variable, every normalized <= row) and re-solved per
   node after narrowing the fixed variables' bounds to a point.  A bound
   change keeps the old basis dual-feasible, so each re-solve is a
   dual-simplex warm start. *)
let persistent_lp st =
  match st.splx with
  | Some lp -> lp
  | None ->
    let lp =
      Simplex.Revised.create ~a:st.a
        ~senses:(Array.make st.a.m Simplex.Revised.Le)
        ~rhs:st.rhs
        ~obj:(Simplex.Csc.pack (Array.init st.n Fun.id) (Array.copy st.c))
        ~lower:(Array.make st.n 0.0)
        ~upper:(Array.make st.n 1.0)
    in
    st.splx <- Some lp;
    lp

let lp_bound ?(max_iters = 20_000) ?point st =
  let lp = persistent_lp st in
  for v = 0 to st.n - 1 do
    match st.value.(v) with
    | -1 -> Simplex.Revised.set_bounds lp v 0.0 1.0
    | 0 -> Simplex.Revised.set_bounds lp v 0.0 0.0
    | _ -> Simplex.Revised.set_bounds lp v 1.0 1.0
  done;
  st.lp_calls <- st.lp_calls + 1;
  if Simplex.Revised.has_basis lp then Telemetry.Metrics.incr m_warm_hits
  else Telemetry.Metrics.incr m_warm_misses;
  match
    Telemetry.Metrics.time m_lp_s (fun () ->
        Simplex.Revised.reoptimize ~max_iters ~deadline:st.lp_deadline ?point lp)
  with
  | Simplex.Revised.Optimal { objective; solution } ->
    (* The bounds pin fixed variables, so [objective] already includes
       their contribution — no [obj_fixed] correction. *)
    Some (objective, solution)
  | Simplex.Revised.Infeasible -> raise Conflict
  | Simplex.Revised.Unbounded | Simplex.Revised.Iteration_limit -> None

(* Branch on the tightest unsatisfied cover (fewest spare variables),
   inside it on the variable covering the most unsatisfied covers.  With
   every cover satisfied, finish cheapest-first: negative-cost variables
   at 1, others at 0. *)
let pick_branch st =
  let best_cover = ref (-1) and best_slack = ref max_int in
  Array.iteri
    (fun ci cv ->
      if cv.ones < cv.need then begin
        let slack = cv.free - (cv.need - cv.ones) in
        if slack < !best_slack then begin
          best_slack := slack;
          best_cover := ci
        end
      end)
    st.covers;
  if !best_cover >= 0 then begin
    let cv = st.covers.(!best_cover) in
    let best_v = ref (-1) and best_score = ref neg_infinity in
    cover_iter st cv (fun v ->
        if st.value.(v) = -1 then begin
          let unsat = ref 0 in
          for p = st.a.colptr.(v) to st.a.colptr.(v + 1) - 1 do
            let ci = st.cover_of.(st.a.rowind.(p)) in
            if ci >= 0 && st.covers.(ci).ones < st.covers.(ci).need then
              incr unsat
          done;
          let score = float_of_int !unsat -. (0.01 *. st.c.(v)) in
          if score > !best_score then begin
            best_score := score;
            best_v := v
          end
        end);
    Some (!best_v, 1)
  end
  else begin
    (* No unsatisfied covers: fix remaining frees toward their cheap value. *)
    let neg = ref (-1) and any = ref (-1) in
    (try
       for v = 0 to st.n - 1 do
         if st.value.(v) = -1 then begin
           if st.c.(v) < 0.0 then begin
             neg := v;
             raise Exit
           end;
           if !any < 0 then any := v
         end
       done
     with Exit -> ());
    if !neg >= 0 then Some (!neg, 1)
    else if !any >= 0 then Some (!any, 0)
    else None
  end

exception Stop

let cutoff st =
  match st.best with
  | None -> infinity
  | Some b -> if st.all_int then b.objective -. 0.5 else b.objective -. 1e-9

let set_best st values objective =
  Telemetry.Metrics.incr m_incumbents;
  st.best <- Some { values; objective }

(* A lower bound usable for optimality tests: with an all-integer
   objective it rounds up to the next integer. *)
let round_bound ~all_int b =
  if all_int && b > neg_infinity then Float.round (Float.ceil (b -. eps)) else b

let settle_bound st = round_bound ~all_int:st.all_int st.root_bound

let settled st =
  match st.best with
  | Some b -> b.objective <= settle_bound st +. eps
  | None -> false

let record_incumbent st =
  let objective = st.obj_fixed in
  let improved =
    match st.best with None -> true | Some b -> objective < b.objective -. 1e-9
  in
  if improved then begin
    set_best st (Array.map (fun v -> v = 1) st.value) objective;
    (* The search proved a matching lower bound at the root: stop early. *)
    if objective <= settle_bound st +. eps then raise Stop
  end

let rec dfs st cfg ~depth =
  st.nodes <- st.nodes + 1;
  if
    st.nodes land 255 = 0
    && (Unix.gettimeofday () > st.lp_deadline || st.cancel ())
  then begin
    st.stopped <- true;
    raise Stop
  end;
  if st.nodes > cfg.node_limit then begin
    st.stopped <- true;
    raise Stop
  end;
  let lb = bound st in
  if lb >= cutoff st then ()
  else begin
    let lb =
      if depth <= cfg.lp_depth && depth > 0 then
        match lp_bound st with
        | Some (b, _) -> Float.max lb b
        | None -> lb
        | exception Conflict -> infinity
      else lb
    in
    let lb = if st.all_int then Float.round (Float.ceil (lb -. eps)) else lb in
    if lb >= cutoff st then ()
    else
      match pick_branch st with
      | None -> record_incumbent st
      | Some (v, first) ->
        let try_value b =
          let mark = st.trail_len in
          assign st v b;
          if propagate st mark then dfs st cfg ~depth:(depth + 1);
          undo_to st mark
        in
        try_value first;
        try_value (1 - first)
  end

(* If the LP point is integral, promote it to an incumbent. *)
let try_integral_incumbent st model lp_sol =
  let integral =
    Array.for_all (fun x -> Float.abs (x -. Float.round x) < 1e-7) lp_sol
  in
  if integral then begin
    let values = Array.map (fun v -> v = 1) st.value in
    Array.iteri
      (fun v x -> if st.value.(v) = -1 then values.(v) <- x > 0.5)
      lp_sol;
    if check_feasible model values then
      let objective = objective_value model values in
      let better =
        match st.best with
        | None -> true
        | Some b -> objective < b.objective -. 1e-9
      in
      if better then set_best st values objective
  end

(* Root cutting-plane loop on the persistent sparse LP.  Cuts are
   separated from model structure only (never node fixings), so they are
   valid for the whole 0-1 feasible set: they stay in the LP across the
   entire tree.  Each accepted round appends rows to the factorized instance
   ([Revised.add_rows] carries the basis, leaving it dual-feasible) and
   re-solves with the dual simplex.  A cut-LP infeasibility proves the
   model infeasible. *)
let cut_loop st model last_sol root_ok =
  let ctx = Cuts.prepare model in
  let pool = Hashtbl.create 64 in
  let round = ref 0 and go = ref true in
  while !go && !round < cut_rounds && not (st.cancel ()) do
    incr round;
    match (st.splx, !last_sol) with
    | Some lp, Some x ->
      let fresh =
        Cuts.separate ctx x
        |> List.filter (fun c ->
               if Hashtbl.mem pool c then false
               else begin
                 Hashtbl.add pool c ();
                 true
               end)
      in
      if fresh = [] then go := false
      else begin
        let rows =
          Array.of_list
            (List.map
               (fun (c : Cuts.cut) -> (c.Cuts.terms, c.Cuts.sense, c.Cuts.rhs))
               fresh)
        in
        let lp = Simplex.Revised.add_rows lp rows in
        st.splx <- Some lp;
        Telemetry.Metrics.add m_cuts (Array.length rows);
        Telemetry.Metrics.incr m_cut_rounds;
        st.lp_calls <- st.lp_calls + 1;
        match
          Telemetry.Metrics.time m_lp_s (fun () ->
              Simplex.Revised.reoptimize ~max_iters:100_000
                ~deadline:st.lp_deadline lp)
        with
        | Simplex.Revised.Optimal { objective; solution } ->
          if objective > st.root_bound then st.root_bound <- objective;
          last_sol := Some solution;
          try_integral_incumbent st model solution
        | Simplex.Revised.Infeasible ->
          root_ok := false;
          go := false
        | Simplex.Revised.Unbounded | Simplex.Revised.Iteration_limit ->
          go := false
      end
    | _ -> go := false
  done

(* Primal heuristics at the root: feasibility pump for a first (or
   better) incumbent, then an objective dive when the pump's point does
   not already match the bound.  Both borrow the persistent LP. *)
let pump_and_dive st model =
  match st.splx with
  | None -> ()
  | Some lp ->
    let deadline = st.lp_deadline in
    let better obj =
      match st.best with None -> true | Some b -> obj < b.objective -. 1e-9
    in
    let sol, rounds = Fpump.pump ~deadline ~cancel:st.cancel ~lp model in
    Telemetry.Metrics.add m_pump_rounds rounds;
    (match sol with
    | Some (xt, obj) when better obj && check_feasible model xt ->
      set_best st xt obj
    | _ -> ());
    if not (settled st) then begin
      let base_bounds =
        Array.init st.n (fun v ->
            match st.value.(v) with
            | -1 -> (0.0, 1.0)
            | 0 -> (0.0, 0.0)
            | _ -> (1.0, 1.0))
      in
      match Fpump.dive ~deadline ~cancel:st.cancel ~lp ~base_bounds model with
      | Some (xt, obj) when better obj && check_feasible model xt ->
        set_best st xt obj
      | _ -> ()
    end

(* Root work before the search: the checked warm start as incumbent,
   root propagation, root LP (crash-started from the incumbent, with
   the integral-hint incumbent), cutting planes, primal heuristics.
   The root bound starts at [lower_bound], and each LP stage can only
   raise it.  Each LP stage is skipped, or stopped between rounds, once
   [cancel] fires.  Returns the prepared state plus [`Settled outcome]
   when the root already decides the instance, [`Open] otherwise. *)
let prepare ~config ~cancel ~deadline ~lower_bound ~incumbent model =
  let st =
    Telemetry.Trace.with_span "ilp.setup" @@ fun () ->
    let st = build_state model in
    if config.lp_root then ignore (persistent_lp st);
    st
  in
  st.cancel <- cancel;
  st.lp_deadline <- deadline;
  st.root_bound <- lower_bound;
  Option.iter (fun b -> set_best st b.values b.objective) incumbent;
  if not (propagate_root st) then (st, `Settled Infeasible)
  else begin
    let root_ok = ref true in
    let last_sol = ref None in
    (if config.lp_root && not (cancel ()) then begin
       (* A known incumbent crashes the first basis: nonbasic statuses
          at the bound nearest the integer point give a primal-feasible
          start, skipping phase 1 entirely on paper-scale instances. *)
       let point =
         Option.map
           (fun b -> Array.map (fun v -> if v then 1.0 else 0.0) b.values)
           st.best
       in
       match lp_bound ~max_iters:200_000 ?point st with
       | Some (b, lp_sol) ->
         st.root_bound <- Float.max st.root_bound b;
         last_sol := Some lp_sol;
         (* An integral LP optimum is already the answer. *)
         try_integral_incumbent st model lp_sol
       | None -> ()
       | exception Conflict -> root_ok := false
     end);
    if !root_ok && config.cuts && not (settled st) then
      Telemetry.Trace.with_span "ilp.cuts" (fun () ->
          cut_loop st model last_sol root_ok);
    if
      !root_ok && config.fpump && !last_sol <> None && not (settled st)
    then Telemetry.Trace.with_span "ilp.pump" (fun () -> pump_and_dive st model);
    if not !root_ok then (st, `Settled Infeasible)
    else
      match st.best with
      | Some b when b.objective <= settle_bound st +. eps ->
        (st, `Settled (Optimal b))
      | _ -> (st, `Open)
  end

let outcome_of ~stopped best =
  match (stopped, best) with
  | false, Some b -> Optimal b
  | false, None -> Infeasible
  | true, Some b -> Feasible b
  | true, None -> Unknown

(* Root work, then the depth-first search below an open root.  A
   model with no variables is decided by its constant rows alone, with
   no state or LP built.  [time_limit] counts wall-clock seconds from
   here. *)
let solve ?(config = default_config) ?(cancel = fun () -> false) ?warm_start
    ?(lower_bound = neg_infinity) model =
  let wall0 = Unix.gettimeofday () in
  Telemetry.Metrics.incr m_solves;
  let incumbent =
    match warm_start with
    | Some values when check_feasible model values ->
      let objective = objective_value model values in
      Some { values = Array.copy values; objective }
    | _ -> None
  in
  let outcome, nodes, lp_calls, root_bound =
    if Model.num_vars model = 0 then
      if check_feasible model [||] then
        let objective = objective_value model [||] in
        (Optimal { values = [||]; objective }, 0, 0, objective)
      else (Infeasible, 0, 0, neg_infinity)
    else
      let st, root =
        prepare ~config ~cancel ~deadline:(wall0 +. config.time_limit)
          ~lower_bound ~incumbent model
      in
      let outcome =
        match root with
        | `Settled outcome -> outcome
        | `Open ->
          (try dfs st config ~depth:0 with Stop -> ());
          outcome_of ~stopped:st.stopped st.best
      in
      (outcome, st.nodes, st.lp_calls, st.root_bound)
  in
  let s =
    { nodes; lp_calls; elapsed = Unix.gettimeofday () -. wall0; root_bound }
  in
  Telemetry.Metrics.add m_nodes s.nodes;
  Telemetry.Metrics.add m_lp_calls s.lp_calls;
  Telemetry.Metrics.observe m_solve_s s.elapsed;
  Telemetry.Metrics.set m_root_bound s.root_bound;
  (outcome, s)
