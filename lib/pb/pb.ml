type encoding = [ `Native | `Sequential ]

let m_clauses =
  Telemetry.Metrics.counter ~help:"clauses added through the PB layer"
    "sdnplace_pb_clauses_total"

let m_at_most =
  Telemetry.Metrics.counter ~help:"at-most-k constraints encoded"
    "sdnplace_pb_atmost_constraints_total"

let m_aux =
  Telemetry.Metrics.counter ~help:"auxiliary variables minted by encodings"
    "sdnplace_pb_aux_vars_total"

type t = { solver : Cdcl.t; encoding : encoding }

let create ?(encoding = `Native) () = { solver = Cdcl.create (); encoding }

let fresh t = Cdcl.new_var t.solver

let fresh_aux t =
  Telemetry.Metrics.incr m_aux;
  Cdcl.new_var t.solver

let add_clause t lits =
  Telemetry.Metrics.incr m_clauses;
  Cdcl.add_clause t.solver lits

(* Sinz's LTSeq sequential-counter encoding of  sum(lits) <= k:
   register s.(i).(j) = "at least j+1 of the first i+1 literals are true". *)
let sequential_at_most t lits k =
  let xs = Array.of_list lits in
  let n = Array.length xs in
  if k < 0 then add_clause t [] (* unsatisfiable *)
  else if k = 0 then Array.iter (fun x -> add_clause t [ -x ]) xs
  else if k < n then begin
    let s = Array.init (n - 1) (fun _ -> Array.init k (fun _ -> fresh_aux t)) in
    add_clause t [ -xs.(0); s.(0).(0) ];
    for j = 1 to k - 1 do
      add_clause t [ -s.(0).(j) ]
    done;
    for i = 1 to n - 2 do
      add_clause t [ -xs.(i); s.(i).(0) ];
      add_clause t [ -s.(i - 1).(0); s.(i).(0) ];
      for j = 1 to k - 1 do
        add_clause t [ -xs.(i); -s.(i - 1).(j - 1); s.(i).(j) ];
        add_clause t [ -s.(i - 1).(j); s.(i).(j) ]
      done;
      add_clause t [ -xs.(i); -s.(i - 1).(k - 1) ]
    done;
    if n >= 2 then add_clause t [ -xs.(n - 1); -s.(n - 2).(k - 1) ]
  end

let at_most t lits k =
  Telemetry.Metrics.incr m_at_most;
  match t.encoding with
  | `Native -> Cdcl.add_at_most t.solver lits k
  | `Sequential -> sequential_at_most t lits k

let and_eq t v lits =
  List.iter (fun l -> add_clause t [ -v; l ]) lits;
  add_clause t (v :: List.map (fun l -> -l) lits)

let implies t a b = add_clause t [ -a; b ]

let solve ?conflict_limit ?cancel t = Cdcl.solve ?conflict_limit ?cancel t.solver

let num_conflicts t = Cdcl.num_conflicts t.solver
