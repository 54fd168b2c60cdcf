type var = int

type sense = Simplex.Revised.sense = Le | Ge | Eq

(* The model is the solver's constraint matrix.  Each row is stored
   normalized to <= (a >= row negated, an = row as its two <= halves,
   as given and then negated) and followed by two unit entries for its
   LP slack and artificial, in CSR buffers that grow as rows are
   written; [senses] keeps each model row's own sense.  The unit
   entries' columns depend on the final variable and row counts, so
   [matrix] writes them when it adds the CSC. *)
type t = {
  mutable num_vars : int;
  mutable senses : sense array;  (* first [num_rows] live *)
  mutable num_rows : int;
  mutable m : int;  (* <= rows *)
  mutable rowptr : int array;  (* first [m + 1] live *)
  mutable rhs : float array;  (* first [m] live *)
  mutable colind : int array;
  mutable rval : float array;
  mutable top : int;
      (* entries written; those past [rowptr.(m)] are the terms of the
         row being written *)
  mutable objective : Simplex.Csc.row;
  mutable frozen : (Simplex.Csc.t * float array) option;
  mutable shared : bool;  (* [colind] is some matrix's own *)
}

let create ?(rows = 16) ?(entries = 64) () =
  {
    num_vars = 0;
    senses = Array.make rows Le;
    num_rows = 0;
    m = 0;
    rowptr = Array.make (rows + 1) 0;
    rhs = Array.make rows 0.0;
    colind = Array.make entries 0;
    rval = Array.make entries 0.0;
    top = 0;
    objective = { Simplex.Csc.idx = [||]; coef = [||] };
    frozen = None;
    shared = false;
  }

let binary t =
  let v = t.num_vars in
  t.num_vars <- v + 1;
  t.frozen <- None;
  v

let num_vars t = t.num_vars

let grow a need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let reserve t k =
  t.colind <- grow t.colind (t.top + k) 0;
  t.rval <- grow t.rval (t.top + k) 0.0

let term t v c =
  if t.top = Array.length t.colind then reserve t 1;
  t.colind.(t.top) <- v;
  t.rval.(t.top) <- c;
  t.top <- t.top + 1

(* Close the <= row whose terms end at [top]: its two unit entries,
   then [b]. *)
let close t b =
  if t.top + 2 > Array.length t.colind then reserve t 2;
  t.rval.(t.top) <- 1.0;
  t.rval.(t.top + 1) <- 1.0;
  t.top <- t.top + 2;
  if t.m + 2 > Array.length t.rowptr then t.rowptr <- grow t.rowptr (t.m + 2) 0;
  if t.m + 1 > Array.length t.rhs then t.rhs <- grow t.rhs (t.m + 1) 0.0;
  t.rhs.(t.m) <- b;
  t.m <- t.m + 1;
  t.rowptr.(t.m) <- t.top

let end_row t sense b =
  let p0 = t.rowptr.(t.m) in
  for p = p0 to t.top - 1 do
    let v = t.colind.(p) in
    if v < 0 || v >= t.num_vars then begin
      t.top <- p0;
      invalid_arg "Ilp.Model: variable out of range"
    end
  done;
  let len = Simplex.Csc.pack_into t.colind t.rval p0 (t.top - p0) in
  t.top <- p0 + len;
  (match sense with
  | Le -> close t b
  | Ge ->
    for p = p0 to t.top - 1 do
      t.rval.(p) <- -.t.rval.(p)
    done;
    close t (-.b)
  | Eq ->
    close t b;
    reserve t len;
    for k = 0 to len - 1 do
      t.colind.(t.top + k) <- t.colind.(p0 + k);
      t.rval.(t.top + k) <- -.t.rval.(p0 + k)
    done;
    t.top <- t.top + len;
    close t (-.b));
  t.senses <- grow t.senses (t.num_rows + 1) Le;
  t.senses.(t.num_rows) <- sense;
  t.num_rows <- t.num_rows + 1;
  t.frozen <- None

let add_row t (terms : Simplex.Csc.row) sense rhs =
  if Array.length terms.coef <> Array.length terms.idx then
    invalid_arg "Ilp.Model.add_row: length mismatch";
  Array.iteri (fun k v -> term t v terms.coef.(k)) terms.idx;
  end_row t sense rhs

let add_terms t terms sense b =
  List.iter (fun (c, v) -> term t v c) terms;
  end_row t sense b

let add_le t terms b = add_terms t terms Le b

let add_ge t terms b = add_terms t terms Ge b

let add_eq t terms b = add_terms t terms Eq b

let implies t a b = add_terms t [ (1.0, a); (-1.0, b) ] Le 0.0

let fix t v value = add_terms t [ (1.0, v) ] Eq (if value then 1.0 else 0.0)

let set_objective_row t (r : Simplex.Csc.row) =
  let r = Simplex.Csc.pack r.idx r.coef in
  Array.iter
    (fun v ->
      if v < 0 || v >= t.num_vars then
        invalid_arg "Ilp.Model: variable out of range")
    r.idx;
  t.objective <- r

let set_objective t terms =
  set_objective_row t
    {
      Simplex.Csc.idx = Array.of_list (List.map snd terms);
      coef = Array.of_list (List.map fst terms);
    }

let objective t = t.objective

let activity (r : Simplex.Csc.row) x =
  let acc = ref 0.0 in
  Array.iteri (fun k v -> if x.(v) then acc := !acc +. r.coef.(k)) r.idx;
  !acc

let matrix t =
  match t.frozen with
  | Some (a, _) -> a
  | None ->
    let m = t.m and n = t.num_vars in
    let fit a len = if Array.length a = len then a else Array.sub a 0 len in
    let rowptr = fit t.rowptr (m + 1) and rhs = fit t.rhs m in
    (* Rows written later go past this matrix's entries, but a later
       matrix rewrites every unit column: only the first one takes the
       buffers as they are. *)
    let colind =
      if t.shared then Array.sub t.colind 0 rowptr.(m) else t.colind
    in
    t.shared <- true;
    for i = 0 to m - 1 do
      let p = rowptr.(i + 1) in
      colind.(p - 2) <- n + i;
      colind.(p - 1) <- n + m + i
    done;
    let a = Simplex.Csc.of_csr ~m ~n:(n + m + m) rowptr colind t.rval in
    t.frozen <- Some (a, rhs);
    a

let rhs t =
  ignore (matrix t);
  match t.frozen with Some (_, b) -> b | None -> assert false

let iter_rows t f =
  let i = ref 0 in
  for r = 0 to t.num_rows - 1 do
    let sense = t.senses.(r) in
    f sense !i (if sense = Ge then -1.0 else 1.0);
    i := !i + if sense = Eq then 2 else 1
  done

let pp_stats fmt t =
  Format.fprintf fmt "%d binary vars, %d constraints" t.num_vars t.num_rows

(* [iter_original t f] calls [f r sense terms b] for each model row [r]
   as it was added. *)
let iter_original t f =
  let a = matrix t and b = rhs t in
  let r = ref 0 in
  iter_rows t (fun sense i s ->
      let p = a.rowptr.(i) in
      let terms =
        List.init
          (a.rowptr.(i + 1) - 2 - p)
          (fun k -> (a.colind.(p + k), s *. a.rval.(p + k)))
      in
      f !r sense terms (s *. b.(i));
      incr r)

let objective_terms t =
  List.combine (Array.to_list t.objective.idx) (Array.to_list t.objective.coef)

let lp_relaxation t =
  let rows = ref [] in
  iter_original t (fun _ sense coeffs rhs ->
      rows := { Simplex.coeffs; sense; rhs } :: !rows);
  {
    Simplex.num_vars = t.num_vars;
    minimize = objective_terms t;
    rows = List.rev !rows;
    upper = Array.make t.num_vars 1.0;
  }

let to_lp_string t =
  let buf = Buffer.create 4096 in
  let terms = function
    | [] -> Buffer.add_string buf "0 x0"
    | l ->
      List.iteri
        (fun k (v, c) ->
          Printf.bprintf buf "%s%g x%d"
            (match (c >= 0.0, k = 0) with
            | true, true -> ""
            | true, false -> " + "
            | false, true -> "- "
            | false, false -> " - ")
            (if c >= 0.0 then c else -.c)
            v)
        l
  in
  Buffer.add_string buf
    "\\ generated by Ilp.Model.to_lp_string\nMinimize\n obj: ";
  terms (objective_terms t);
  Buffer.add_string buf "\nSubject To\n";
  iter_original t (fun r sense l rhs ->
      Printf.bprintf buf " c%d: " r;
      terms l;
      Printf.bprintf buf " %s %g\n"
        (match sense with Le -> "<=" | Ge -> ">=" | Eq -> "=")
        rhs);
  Buffer.add_string buf "Binary\n";
  for v = 0 to t.num_vars - 1 do
    Printf.bprintf buf " x%d" v;
    if v mod 16 = 15 then Buffer.add_string buf "\n"
  done;
  Buffer.add_string buf "\nEnd\n";
  Buffer.contents buf
