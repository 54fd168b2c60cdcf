(* Internal literal encoding: variable indices are 0-based; literal
   [2v] is the positive, [2v+1] the negative phase.  [lit lxor 1] negates.
   External API literals are DIMACS integers. *)

type clause = { lits : int array; learnt : bool }

type am = { alits : int array; bound : int; mutable count : int }

type result = Sat of bool array | Unsat | Unknown

type t = {
  mutable nvars : int;
  mutable assigns : int array;  (* per var: -1 undef / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable watches : clause list array;  (* indexed by lit made true *)
  mutable am_occ : am list array;  (* indexed by lit made true *)
  mutable ams : am list;
  mutable trail : int array;  (* lits *)
  mutable trail_len : int;
  mutable trail_lim : int list;  (* marks, innermost first *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable conflicts : int;
  (* Profiling tallies: plain fields (a solver instance is single-domain)
     bumped in the hot loops, flushed to the telemetry registry once per
     [solve] call. *)
  mutable props : int;
  mutable decisions : int;
  mutable restarts : int;
  mutable am_hits : int;
  mutable root_unsat : bool;
  mutable order : int array;  (* vars sorted by activity, refreshed lazily *)
  mutable order_dirty : bool;
}

let create () =
  {
    nvars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    watches = [||];
    am_occ = [||];
    ams = [];
    trail = [||];
    trail_len = 0;
    trail_lim = [];
    qhead = 0;
    var_inc = 1.0;
    conflicts = 0;
    props = 0;
    decisions = 0;
    restarts = 0;
    am_hits = 0;
    root_unsat = false;
    order = [||];
    order_dirty = true;
  }

let grow arr n default =
  let old = Array.length arr in
  if n <= old then arr
  else begin
    let fresh = Array.make (max n (max 16 (2 * old))) default in
    Array.blit arr 0 fresh 0 old;
    fresh
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow s.assigns s.nvars (-1);
  s.level <- grow s.level s.nvars 0;
  s.reason <- grow s.reason s.nvars None;
  s.activity <- grow s.activity s.nvars 0.0;
  s.phase <- grow s.phase s.nvars false;
  s.watches <- grow s.watches (2 * s.nvars) [];
  s.am_occ <- grow s.am_occ (2 * s.nvars) [];
  s.trail <- grow s.trail s.nvars 0;
  s.assigns.(v) <- -1;
  s.reason.(v) <- None;
  s.order_dirty <- true;
  v + 1

let num_vars s = s.nvars

let num_conflicts s = s.conflicts

let lit_of_dimacs s l =
  if l = 0 then invalid_arg "Cdcl: literal 0";
  let v = abs l - 1 in
  if v >= s.nvars then invalid_arg "Cdcl: unallocated variable";
  if l > 0 then 2 * v else (2 * v) + 1

let lit_value s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = List.length s.trail_lim

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

(* Make literal [l] true; [reason = None] marks a decision.  Cardinality
   counters move with the trail (incremented here, decremented on
   cancellation) so they stay consistent even across conflicts that leave
   enqueued-but-unpropagated literals behind. *)
let enqueue s l reason =
  s.assigns.(l lsr 1) <- 1 - (l land 1);
  s.level.(l lsr 1) <- decision_level s;
  s.reason.(l lsr 1) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1;
  List.iter (fun a -> a.count <- a.count + 1) s.am_occ.(l)

let cancel_until s lvl =
  let keep =
    let rec nth_mark lims n = (* trail length at the start of level lvl+1 *)
      match lims with
      | m :: rest -> if n = 0 then m else nth_mark rest (n - 1)
      | [] -> 0
    in
    let depth = decision_level s in
    if lvl >= depth then s.trail_len
    else nth_mark s.trail_lim (depth - lvl - 1)
  in
  while s.trail_len > keep do
    s.trail_len <- s.trail_len - 1;
    let l = s.trail.(s.trail_len) in
    let v = l lsr 1 in
    s.phase.(v) <- l land 1 = 0;
    s.assigns.(v) <- -1;
    s.reason.(v) <- None;
    List.iter (fun a -> a.count <- a.count - 1) s.am_occ.(l)
  done;
  let rec drop lims n = if n = 0 then lims else
    match lims with _ :: rest -> drop rest (n - 1) | [] -> [] in
  let depth = decision_level s in
  if lvl < depth then s.trail_lim <- drop s.trail_lim (depth - lvl);
  s.qhead <- s.trail_len

let attach_clause s c =
  s.watches.(c.lits.(0) lxor 1) <- c :: s.watches.(c.lits.(0) lxor 1);
  s.watches.(c.lits.(1) lxor 1) <- c :: s.watches.(c.lits.(1) lxor 1)

(* Reason clause for a literal forced by a saturated at-most constraint:
   the [bound] literals currently true in it. *)
let am_reason s a forced =
  let trues = ref [] and n = ref 0 in
  Array.iter
    (fun l ->
      if !n < a.bound && lit_value s l = 1 then begin
        trues := (l lxor 1) :: !trues;
        incr n
      end)
    a.alits;
  { lits = Array.of_list (forced :: !trues); learnt = true }

let am_conflict_clause s a =
  let trues = ref [] and n = ref 0 in
  Array.iter
    (fun l ->
      if !n <= a.bound && lit_value s l = 1 then begin
        trues := (l lxor 1) :: !trues;
        incr n
      end)
    a.alits;
  { lits = Array.of_list !trues; learnt = true }

exception Conflict_found of clause

(* Propagate to fixpoint; returns the conflicting clause if any. *)
let propagate s =
  try
    while s.qhead < s.trail_len do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.props <- s.props + 1;
      (* Cardinality constraints containing p (count already bumped by
         [enqueue]). *)
      List.iter
        (fun a ->
          if a.count > a.bound then begin
            s.am_hits <- s.am_hits + 1;
            raise (Conflict_found (am_conflict_clause s a))
          end
          else if a.count = a.bound then begin
            s.am_hits <- s.am_hits + 1;
            Array.iter
              (fun l ->
                if lit_value s l = -1 then begin
                  let forced = l lxor 1 in
                  enqueue s forced (Some (am_reason s a forced))
                end)
              a.alits
          end)
        s.am_occ.(p);
      (* Clauses in which ~p is watched. *)
      let ws = s.watches.(p) in
      s.watches.(p) <- [];
      let rec go = function
        | [] -> ()
        | c :: rest ->
          let false_lit = p lxor 1 in
          (* Normalize: the false literal sits at position 1. *)
          if c.lits.(0) = false_lit then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- false_lit
          end;
          if lit_value s c.lits.(0) = 1 then begin
            (* Satisfied: keep watching. *)
            s.watches.(p) <- c :: s.watches.(p);
            go rest
          end
          else begin
            (* Look for a replacement watch. *)
            let found = ref false in
            (try
               for i = 2 to Array.length c.lits - 1 do
                 if lit_value s c.lits.(i) <> 0 then begin
                   c.lits.(1) <- c.lits.(i);
                   c.lits.(i) <- false_lit;
                   s.watches.(c.lits.(1) lxor 1) <-
                     c :: s.watches.(c.lits.(1) lxor 1);
                   found := true;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found then go rest
            else begin
              (* Unit or conflicting. *)
              s.watches.(p) <- c :: s.watches.(p);
              if lit_value s c.lits.(0) = 0 then begin
                s.watches.(p) <- rest @ s.watches.(p);
                raise (Conflict_found c)
              end
              else begin
                enqueue s c.lits.(0) (Some c);
                go rest
              end
            end
          end
      in
      go ws
    done;
    None
  with Conflict_found c -> Some c

(* First-UIP conflict analysis.  Returns the learnt clause (asserting
   literal first) and the backjump level. *)
let analyze s confl =
  let seen = Array.make s.nvars false in
  let learnt = ref [] in
  let path = ref 0 in
  let cur = decision_level s in
  let expand c skip =
    Array.iter
      (fun q ->
        if q <> skip then begin
          let v = q lsr 1 in
          if (not seen.(v)) && s.level.(v) > 0 then begin
            seen.(v) <- true;
            bump s v;
            if s.level.(v) >= cur then incr path
            else learnt := q :: !learnt
          end
        end)
      c.lits
  in
  expand confl (-1);
  let idx = ref (s.trail_len - 1) in
  let p = ref (-1) in
  let continue = ref true in
  while !continue do
    while not seen.(s.trail.(!idx) lsr 1) do
      decr idx
    done;
    let pl = s.trail.(!idx) in
    decr idx;
    decr path;
    if !path = 0 then begin
      p := pl;
      continue := false
    end
    else
      match s.reason.(pl lsr 1) with
      | Some c -> expand c pl
      | None -> assert false
  done;
  let asserting = !p lxor 1 in
  let tail = !learnt in
  let backjump =
    List.fold_left (fun acc q -> max acc s.level.(q lsr 1)) 0 tail
  in
  (Array.of_list (asserting :: tail), backjump)

let learn s lits backjump =
  cancel_until s backjump;
  if Array.length lits = 1 then enqueue s lits.(0) None
  else begin
    (* Watch the asserting literal and one literal of the backjump level. *)
    let pos = ref 1 in
    for i = 1 to Array.length lits - 1 do
      if s.level.(lits.(i) lsr 1) > s.level.(lits.(!pos) lsr 1) then pos := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!pos);
    lits.(!pos) <- tmp;
    let c = { lits; learnt = true } in
    attach_clause s c;
    enqueue s lits.(0) (Some c)
  end

let add_clause s dimacs_lits =
  if not s.root_unsat then begin
    (* Simplification below must only see root-level assignments. *)
    cancel_until s 0;
    let lits = List.map (lit_of_dimacs s) dimacs_lits in
    let lits = List.sort_uniq Stdlib.compare lits in
    let tautology =
      List.exists (fun l -> List.mem (l lxor 1) lits) lits
    in
    if not tautology then begin
      (* Root-level simplification. *)
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      if List.exists (fun l -> lit_value s l = 1) lits then ()
      else
        match lits with
        | [] -> s.root_unsat <- true
        | [ l ] ->
          enqueue s l None;
          if propagate s <> None then s.root_unsat <- true
        | l0 :: l1 :: _ ->
          ignore l0;
          ignore l1;
          attach_clause s { lits = Array.of_list lits; learnt = false }
    end
  end

let add_at_most s dimacs_lits k =
  if not s.root_unsat then begin
    cancel_until s 0;
    let lits = List.map (lit_of_dimacs s) dimacs_lits in
    let sorted = List.sort_uniq Stdlib.compare lits in
    if List.length sorted <> List.length lits then
      invalid_arg "Cdcl.add_at_most: duplicate literals";
    if k < 0 then s.root_unsat <- true
    else if k = 0 then List.iter (fun l -> add_clause s [ l ]) (List.map (fun l ->
        (* force each literal false *)
        let v = (l lsr 1) + 1 in
        if l land 1 = 0 then -v else v)
        lits)
    else if k < List.length lits then begin
      let a = { alits = Array.of_list lits; bound = k; count = 0 } in
      Array.iter
        (fun l -> s.am_occ.(l) <- a :: s.am_occ.(l))
        a.alits;
      s.ams <- a :: s.ams
    end
  end

let refresh_order s =
  if Array.length s.order <> s.nvars then
    s.order <- Array.init s.nvars (fun i -> i);
  let act = s.activity in
  let cmp a b = Stdlib.compare act.(b) act.(a) in
  Array.sort cmp s.order;
  s.order_dirty <- false

let decide s =
  if s.order_dirty then refresh_order s;
  let chosen = ref (-1) in
  (try
     Array.iter
       (fun v -> if s.assigns.(v) < 0 then begin chosen := v; raise Exit end)
       s.order
   with Exit -> ());
  if !chosen < 0 then None
  else begin
    let v = !chosen in
    s.decisions <- s.decisions + 1;
    let l = if s.phase.(v) then 2 * v else (2 * v) + 1 in
    s.trail_lim <- s.trail_len :: s.trail_lim;
    enqueue s l None;
    Some v
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec t x =
    let rec find k sz = if sz >= x then (k, sz) else find (k + 1) ((2 * sz) + 1) in
    let k, sz = find 1 1 in
    if sz = x then 1 lsl (k - 1) else t (x - ((sz - 1) / 2))
  in
  t (i + 1)

let m_solves =
  Telemetry.Metrics.counter ~help:"CDCL solve calls"
    "sdnplace_cdcl_solves_total"

let m_conflicts =
  Telemetry.Metrics.counter ~help:"CDCL conflicts" "sdnplace_cdcl_conflicts_total"

let m_props =
  Telemetry.Metrics.counter ~help:"unit/cardinality propagations"
    "sdnplace_cdcl_propagations_total"

let m_decisions =
  Telemetry.Metrics.counter ~help:"decision literals picked"
    "sdnplace_cdcl_decisions_total"

let m_restarts =
  Telemetry.Metrics.counter ~help:"Luby restarts" "sdnplace_cdcl_restarts_total"

let m_am_hits =
  Telemetry.Metrics.counter
    ~help:"native at-most-k constraints saturating (forcing or conflicting)"
    "sdnplace_cdcl_atmost_hits_total"

let m_solve_s =
  Telemetry.Metrics.histogram ~help:"CDCL solve duration"
    "sdnplace_cdcl_solve_seconds"

let run_solve ?(conflict_limit = max_int) ?(cancel = fun () -> false) s =
  if s.root_unsat then Unsat
  else begin
    cancel_until s 0;
    (* Reset cardinality counters against the root assignment. *)
    List.iter
      (fun a ->
        a.count <- 0;
        Array.iter (fun l -> if lit_value s l = 1 then a.count <- a.count + 1)
          a.alits)
      s.ams;
    let result = ref Unknown in
    let finished = ref false in
    let local_conflicts = ref 0 in
    let restart_idx = ref 0 in
    let restart_budget = ref (64 * luby 0) in
    (* Root-level saturated cardinality constraints. *)
    List.iter
      (fun a ->
        if a.count > a.bound then begin
          s.root_unsat <- true;
          result := Unsat;
          finished := true
        end
        else if a.count = a.bound then
          Array.iter
            (fun l -> if lit_value s l = -1 then enqueue s (l lxor 1) None)
            a.alits)
      s.ams;
    let ticks = ref 0 in
    while not !finished do
      incr ticks;
      if !ticks land 63 = 0 && cancel () then begin
        result := Unknown;
        finished := true
      end
      else
      match propagate s with
      | Some confl ->
        if decision_level s = 0 then begin
          s.root_unsat <- true;
          result := Unsat;
          finished := true
        end
        else begin
          s.conflicts <- s.conflicts + 1;
          incr local_conflicts;
          s.var_inc <- s.var_inc /. 0.95;
          if s.conflicts land 127 = 0 then s.order_dirty <- true;
          if !local_conflicts > conflict_limit then begin
            result := Unknown;
            finished := true
          end
          else begin
            let lits, backjump = analyze s confl in
            learn s lits backjump
          end
        end
      | None ->
        if !local_conflicts >= !restart_budget then begin
          s.restarts <- s.restarts + 1;
          incr restart_idx;
          restart_budget := !local_conflicts + (64 * luby !restart_idx);
          cancel_until s 0
        end
        else begin
          match decide s with
          | Some _ -> ()
          | None ->
            let model = Array.init s.nvars (fun v -> s.assigns.(v) = 1) in
            result := Sat model;
            finished := true
        end
    done;
    !result
  end

let solve ?conflict_limit ?cancel s =
  Telemetry.Metrics.incr m_solves;
  let c0 = s.conflicts and p0 = s.props in
  let d0 = s.decisions and r0 = s.restarts and a0 = s.am_hits in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.add m_conflicts (s.conflicts - c0);
      Telemetry.Metrics.add m_props (s.props - p0);
      Telemetry.Metrics.add m_decisions (s.decisions - d0);
      Telemetry.Metrics.add m_restarts (s.restarts - r0);
      Telemetry.Metrics.add m_am_hits (s.am_hits - a0))
    (fun () ->
      Telemetry.Metrics.time m_solve_s (fun () ->
          run_solve ?conflict_limit ?cancel s))

let pp_result fmt = function
  | Sat _ -> Format.pp_print_string fmt "sat"
  | Unsat -> Format.pp_print_string fmt "unsat"
  | Unknown -> Format.pp_print_string fmt "unknown"

(* ---------------- DIMACS interchange ---------------- *)

module Dimacs = struct
  type cnf = { num_vars : int; clauses : int list list }

  let parse text =
    let lines = String.split_on_char '\n' text in
    let header = ref None in
    let clauses = ref [] in
    let current = ref [] in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then ()
        else if line.[0] = 'p' then begin
          match
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          with
          | [ "p"; "cnf"; v; c ] -> (
            match (int_of_string_opt v, int_of_string_opt c) with
            | Some v, Some c -> header := Some (v, c)
            | _ -> failwith "Dimacs.parse: bad header numbers")
          | _ -> failwith "Dimacs.parse: bad header"
        end
        else
          String.split_on_char ' ' line
          |> List.filter (fun s -> s <> "")
          |> List.iter (fun tok ->
                 match int_of_string_opt tok with
                 | Some 0 ->
                   clauses := List.rev !current :: !clauses;
                   current := []
                 | Some l -> current := l :: !current
                 | None ->
                   failwith (Printf.sprintf "Dimacs.parse: bad literal %S" tok)))
      lines;
    if !current <> [] then failwith "Dimacs.parse: unterminated clause";
    match !header with
    | None -> failwith "Dimacs.parse: missing 'p cnf' header"
    | Some (num_vars, _) ->
      let clauses = List.rev !clauses in
      List.iter
        (List.iter (fun l ->
             if l = 0 || abs l > num_vars then
               failwith "Dimacs.parse: literal out of range"))
        clauses;
      { num_vars; clauses }

  let print cnf =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
    List.iter
      (fun clause ->
        List.iter
          (fun l -> Buffer.add_string buf (string_of_int l ^ " "))
          clause;
        Buffer.add_string buf "0\n")
      cnf.clauses;
    Buffer.contents buf

  let load_into solver cnf =
    while num_vars solver < cnf.num_vars do
      ignore (new_var solver)
    done;
    List.iter (add_clause solver) cnf.clauses

  let solve_text text =
    let cnf = parse text in
    let solver = create () in
    load_into solver cnf;
    solve solver
end
