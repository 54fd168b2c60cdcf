type sense = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type vstat = Sbasic | Slower | Supper

(* Product-form eta: column [epiv at er; eidx/eval_ elsewhere] replaced
   basis slot [er]. *)
type eta = { er : int; eidx : int array; eval_ : float array; epiv : float }

type t = {
  m : int;
  n : int;  (** n_struct + m slacks + m artificials *)
  n_struct : int;
  a : Csc.t;
  b : float array;
  senses : sense array;
  obj : float array;  (** length n; zero outside structurals *)
  pobj : float array;  (** phase-1 objective; nonzero on artificials only *)
  mutable cost : float array;  (** current phase's cost vector *)
  lo : float array;
  up : float array;
  stat : vstat array;
  basis : int array;
  inbasis : int array;  (** var -> basis slot, -1 when nonbasic *)
  xb : float array;  (** basic values, slot space *)
  d : float array;  (** reduced costs *)
  gamma : float array;  (** Devex reference weights *)
  mutable lu : Lu.t option;
  mutable etas : eta array;
  mutable n_eta : int;
  mutable eta_nnz : int;  (** total entries across the eta file *)
  mutable d_exact : bool;
  (* scratch *)
  rw : float array;  (** row space, full passes *)
  sw : float array;  (** slot space, full passes *)
  all : int array;  (** every index [0 .. m - 1]: a full solve's list *)
  lst : int array;  (** index-list scratch, length m *)
  mark : bool array;  (** slot marks; all false between solves *)
  frhs : float array;  (** entering column, row space; zero between solves *)
  brhs : float array;  (** unit row, slot space; zero between solves *)
  w : float array;  (** FTRAN result, slot space; zero outside [wnz] *)
  wnz : int array;  (** nonzero slots of [w], ascending *)
  mutable n_wnz : int;
  rho : float array;  (** BTRAN result, row space; zero outside [rnz] *)
  rnz : int array;  (** nonzero rows of [rho], ascending *)
  mutable n_rnz : int;
  alpha : float array;  (** pivot row, length n *)
  astamp : int array;
  mutable stamp : int;
  touched : int array;
  mutable n_touched : int;
  cand : int array;
      (** a superset of the attractive columns, unless [cand_dense] *)
  mutable n_cand : int;
  incand : bool array;  (** membership of [cand] *)
  mutable cand_dense : bool;  (** too many candidates: price by a scan *)
  mutable price_start : int;
  mutable bland : bool;
  mutable stall : int;
  mutable iters_left : int;
  mutable deadline : float;
      (** Unix.gettimeofday instant; [infinity] disables *)
  (* counters *)
  mutable c_pivots : int;
  mutable c_flips : int;
  mutable c_iters : int;
  mutable c_refactor : int;
  mutable solved_once : bool;
}

let dtol = 1e-7 (* reduced-cost (dual) tolerance *)
let ftol = 1e-7 (* primal feasibility tolerance *)
let ptol = 1e-8 (* smallest acceptable pivot *)
let drop = 1e-11

exception Fallback

(* Telemetry: counts accumulate in the per-domain instance and are
   flushed to the shared registry once per (re)optimize, so the pivot
   loops never touch an atomic.  The pivot/flip/iteration series are
   shared with the dense oracle (registration is idempotent by name). *)
let m_pivots =
  Telemetry.Metrics.counter ~help:"simplex basis pivots"
    "sdnplace_simplex_pivots_total"

let m_flips =
  Telemetry.Metrics.counter ~help:"nonbasic bound flips (no basis change)"
    "sdnplace_simplex_bound_flips_total"

let m_iterations =
  Telemetry.Metrics.counter ~help:"simplex iterations across both phases"
    "sdnplace_simplex_iterations_total"

let m_refactor =
  Telemetry.Metrics.counter
    ~help:"basis LU refactorizations (eta-file limit or stability trigger)"
    "sdnplace_simplex_refactorizations_total"

let m_eta_len =
  Telemetry.Metrics.gauge
    ~help:"eta-file length after the last sparse solve"
    "sdnplace_simplex_eta_len"

let matrix ~nvars rows =
  let m = Array.length rows in
  let rowptr = Array.make (m + 1) 0 in
  Array.iteri
    (fun i (r : Csc.row) ->
      let len = Array.length r.idx in
      if Array.length r.coef <> len then
        invalid_arg "Revised.matrix: row is not packed";
      if len > 0 && (r.idx.(0) < 0 || r.idx.(len - 1) >= nvars) then
        invalid_arg "Revised.matrix: variable index out of range";
      rowptr.(i + 1) <- rowptr.(i) + len + 2)
    rows;
  let colind = Array.make rowptr.(m) 0 and rval = Array.make rowptr.(m) 1.0 in
  Array.iteri
    (fun i (r : Csc.row) ->
      let p = rowptr.(i) and len = Array.length r.idx in
      Array.blit r.idx 0 colind p len;
      Array.blit r.coef 0 rval p len;
      colind.(p + len) <- nvars + i;
      colind.(p + len + 1) <- nvars + m + i)
    rows;
  Csc.of_csr ~m ~n:(nvars + m + m) rowptr colind rval

let create ~a ~senses ~rhs ~obj ~lower ~upper =
  let nvars = Array.length lower in
  if Array.length upper <> nvars then
    invalid_arg "Revised.create: bound array length mismatch";
  Array.iteri
    (fun j l ->
      if not (Float.is_finite l) then
        invalid_arg "Revised.create: lower bounds must be finite";
      if l > upper.(j) then invalid_arg "Revised.create: empty bound interval")
    lower;
  let m = a.Csc.m in
  let n = nvars + m + m in
  if Array.length senses <> m || Array.length rhs <> m then
    invalid_arg "Revised.create: row count mismatch";
  if not (Array.for_all (fun j -> j >= 0 && j < nvars) obj.Csc.idx) then
    invalid_arg "Revised.create: variable index out of range";
  (* Past the structural columns, [a] must be exactly the slack and
     artificial blocks {!matrix} appends: one 1.0 per column, in row
     [(j - nvars) mod m]. *)
  if a.Csc.n <> n then invalid_arg "Revised.create: matrix is not augmented";
  for j = nvars to n - 1 do
    let p = a.Csc.colptr.(j) in
    if
      a.Csc.colptr.(j + 1) - p <> 1
      || a.Csc.rowind.(p) <> (j - nvars) mod m
      || a.Csc.cval.(p) <> 1.0
    then invalid_arg "Revised.create: matrix is not augmented"
  done;
  let lo = Array.make n 0.0 and up = Array.make n 0.0 in
  Array.blit lower 0 lo 0 nvars;
  Array.blit upper 0 up 0 nvars;
  Array.iteri
    (fun k s ->
      let js = nvars + k and ja = nvars + m + k in
      (match s with
      | Le ->
        lo.(js) <- 0.0;
        up.(js) <- infinity
      | Ge ->
        lo.(js) <- neg_infinity;
        up.(js) <- 0.0
      | Eq ->
        lo.(js) <- 0.0;
        up.(js) <- 0.0);
      lo.(ja) <- 0.0;
      up.(ja) <- 0.0)
    senses;
  let objd = Array.make n 0.0 in
  Array.iteri (fun k j -> objd.(j) <- objd.(j) +. obj.Csc.coef.(k)) obj.Csc.idx;
  let basis = Array.init m (fun k -> nvars + m + k) in
  let inbasis = Array.make n (-1) in
  Array.iteri (fun k v -> inbasis.(v) <- k) basis;
  let stat = Array.make n Slower in
  Array.iter (fun v -> stat.(v) <- Sbasic) basis;
  {
    m;
    n;
    n_struct = nvars;
    a;
    b = rhs;
    senses;
    obj = objd;
    pobj = Array.make n 0.0;
    cost = objd;
    lo;
    up;
    stat;
    basis;
    inbasis;
    xb = Array.make m 0.0;
    d = Array.make n 0.0;
    gamma = Array.make n 1.0;
    lu = None;
    etas = Array.make 16 { er = 0; eidx = [||]; eval_ = [||]; epiv = 1.0 };
    n_eta = 0;
    eta_nnz = 0;
    d_exact = false;
    rw = Array.make m 0.0;
    sw = Array.make m 0.0;
    all = Array.init m Fun.id;
    lst = Array.make m 0;
    mark = Array.make m false;
    frhs = Array.make m 0.0;
    brhs = Array.make m 0.0;
    w = Array.make m 0.0;
    wnz = Array.make m 0;
    n_wnz = 0;
    rho = Array.make m 0.0;
    rnz = Array.make m 0;
    n_rnz = 0;
    alpha = Array.make n 0.0;
    astamp = Array.make n 0;
    stamp = 0;
    touched = Array.make n 0;
    n_touched = 0;
    cand = Array.make n 0;
    n_cand = 0;
    incand = Array.make n false;
    cand_dense = true;
    price_start = 0;
    bland = false;
    stall = 0;
    iters_left = 0;
    deadline = infinity;
    c_pivots = 0;
    c_flips = 0;
    c_iters = 0;
    c_refactor = 0;
    solved_once = false;
  }

let set_bounds t j l u =
  if j < 0 || j >= t.n_struct then invalid_arg "Revised.set_bounds: bad index";
  if not (Float.is_finite l) || l > u then
    invalid_arg "Revised.set_bounds: bad interval";
  t.lo.(j) <- l;
  t.up.(j) <- u

let has_basis t = t.solved_once

(* Current value of a nonbasic variable. *)
let nb_value t j = match t.stat.(j) with Supper -> t.up.(j) | _ -> t.lo.(j)

(* ---------- factorization + solves through the eta file ---------- *)

let push_eta t e =
  if t.n_eta = Array.length t.etas then begin
    let grown = Array.make (2 * Array.length t.etas) e in
    Array.blit t.etas 0 grown 0 t.n_eta;
    t.etas <- grown
  end;
  t.etas.(t.n_eta) <- e;
  t.n_eta <- t.n_eta + 1;
  t.eta_nnz <- t.eta_nnz + Array.length e.eidx

let lu t = match t.lu with Some lu -> lu | None -> raise Fallback

(* Solve B x = rhs (row space -> slot space), every component. *)
let ftran_full t rhs x =
  ignore (Lu.ftran (lu t) ~b:rhs ~rows:t.all t.m ~x ~slots:t.lst);
  for e = 0 to t.n_eta - 1 do
    let et = t.etas.(e) in
    let xr = x.(et.er) in
    if xr <> 0.0 then begin
      let tr = xr /. et.epiv in
      for p = 0 to Array.length et.eidx - 1 do
        x.(et.eidx.(p)) <- x.(et.eidx.(p)) -. (et.eval_.(p) *. tr)
      done;
      x.(et.er) <- tr
    end
  done

(* Solve B^T y = c (slot space, clobbered -> row space), every
   component. *)
let btran_full t c y =
  for e = t.n_eta - 1 downto 0 do
    let et = t.etas.(e) in
    let acc = ref c.(et.er) in
    for p = 0 to Array.length et.eidx - 1 do
      acc := !acc -. (et.eval_.(p) *. c.(et.eidx.(p)))
    done;
    c.(et.er) <- !acc /. et.epiv
  done;
  ignore (Lu.btran (lu t) ~c ~slots:t.all t.m ~y ~rows:t.lst)

(* Recompute basic values from scratch: xb = B^-1 (b - A_N x_N). *)
let compute_xb t =
  Array.blit t.b 0 t.rw 0 t.m;
  for j = 0 to t.n - 1 do
    if t.inbasis.(j) < 0 then begin
      let v = nb_value t j in
      if v <> 0.0 then Csc.col_iter t.a j (fun i aij -> t.rw.(i) <- t.rw.(i) -. (aij *. v))
    end
  done;
  ftran_full t t.rw t.xb

let attractive t j =
  t.inbasis.(j) < 0
  && t.lo.(j) < t.up.(j)
  &&
  match t.stat.(j) with
  | Slower -> t.d.(j) < -.dtol
  | Supper -> t.d.(j) > dtol
  | Sbasic -> false

(* Pricing keeps the candidate set [cand], a superset of the attractive
   columns, while it holds at most n/8 of them: past that a scan of the
   cyclic blocks finds a candidate sooner than a walk of the set. *)
let add_cand t j =
  t.cand.(t.n_cand) <- j;
  t.incand.(j) <- true;
  t.n_cand <- t.n_cand + 1;
  if t.n_cand > t.n / 8 then t.cand_dense <- true

(* Recompute reduced costs exactly for the current cost vector, and
   rebuild the candidate set from them. *)
let compute_d t =
  for k = 0 to t.m - 1 do
    t.sw.(k) <- t.cost.(t.basis.(k))
  done;
  btran_full t t.sw t.rw;
  for p = 0 to t.n_cand - 1 do
    t.incand.(t.cand.(p)) <- false
  done;
  t.n_cand <- 0;
  t.cand_dense <- false;
  for j = 0 to t.n - 1 do
    t.d.(j) <-
      (if t.inbasis.(j) >= 0 then 0.0
       else t.cost.(j) -. Csc.col_dot t.a j t.rw);
    if (not t.cand_dense) && attractive t j then add_cand t j
  done;
  t.d_exact <- true

let refactor t =
  t.c_refactor <- t.c_refactor + 1;
  t.lu <- Some (Lu.factor ~m:t.m (fun k f -> Csc.col_iter t.a t.basis.(k) f));
  t.n_eta <- 0;
  t.eta_nnz <- 0;
  compute_xb t;
  compute_d t

(* Refactor when the eta file's traversal cost rivals the factor's own:
   every FTRAN/BTRAN walks the whole file, so the budget tracks stored
   entries against the LU size rather than a fixed eta count.  The hard
   count cap bounds numerical drift. *)
let refactor_due t =
  let lu_nnz = match t.lu with Some lu -> Lu.nnz lu | None -> 0 in
  t.n_eta > 128 || t.eta_nnz > lu_nnz + (2 * t.m)

(* Sort [a.(0 .. n - 1)] ascending.  A solve lists the peeled blocks of
   its input's rows first, which a crash basis keeps in row order, so
   the list is usually sorted already or has a few descents, where
   insertion sort is linear. *)
let sort_prefix a n =
  let descents = ref 0 in
  for i = 1 to n - 1 do
    if a.(i) < a.(i - 1) then incr descents
  done;
  if !descents > 8 then begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 n
  end
  else if !descents > 0 then
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done

(* Keep the entries of [x] on [idx.(0 .. n - 1)] above [drop], zero the
   rest, and return how many stay (compacted to the front of [idx], in
   ascending order).  Clears [mark] on every listed index when given. *)
let keep_nonzeros ?mark x idx n =
  let k = ref 0 in
  for p = 0 to n - 1 do
    let i = idx.(p) in
    (match mark with Some mk -> mk.(i) <- false | None -> ());
    if Float.abs x.(i) > drop then begin
      idx.(!k) <- i;
      incr k
    end
    else x.(i) <- 0.0
  done;
  sort_prefix idx !k;
  !k

(* The nonzero list of a fully written [x] of length [len], by a scan
   that zeroes the entries at or below [drop]. *)
let scan_nonzeros x idx len =
  let k = ref 0 in
  for i = 0 to len - 1 do
    if Float.abs x.(i) > drop then begin
      idx.(!k) <- i;
      incr k
    end
    else x.(i) <- 0.0
  done;
  !k

(* A pivot's solves are hypersparse on the crash bases the search starts
   from: the kernel is empty, so a solve costs what its nonzeros cost.
   When the previous result held more than m/10 nonzeros, the next
   solve runs the full pass instead; both yield the same vector and the
   same ascending nonzero list. *)
let dense_solve t n_prev = n_prev > t.m / 10

(* FTRAN of structural column q into t.w; [wnz] collects the nonzero
   slots, ascending, so the ratio test (whose ties break in that order),
   xb update and eta construction touch only them. *)
let ftran_col t q =
  let lu = lu t and a = t.a and w = t.w and rhs = t.frhs in
  let p0 = a.Csc.colptr.(q) and p1 = a.Csc.colptr.(q + 1) in
  for p = p0 to p1 - 1 do
    rhs.(a.Csc.rowind.(p)) <- a.Csc.cval.(p)
  done;
  if dense_solve t t.n_wnz then begin
    ftran_full t rhs w;
    t.n_wnz <- scan_nonzeros w t.wnz t.m
  end
  else begin
    for p = 0 to t.n_wnz - 1 do
      w.(t.wnz.(p)) <- 0.0
    done;
    Array.blit a.Csc.rowind p0 t.lst 0 (p1 - p0);
    let nw = ref (Lu.ftran lu ~b:rhs ~rows:t.lst (p1 - p0) ~x:w ~slots:t.wnz) in
    for p = 0 to !nw - 1 do
      t.mark.(t.wnz.(p)) <- true
    done;
    (* The eta file, recording each slot it writes.  A nonzero [w.(er)]
       was written by this solve, so [er] is already listed. *)
    for e = 0 to t.n_eta - 1 do
      let et = t.etas.(e) in
      let xr = w.(et.er) in
      if xr <> 0.0 then begin
        let tr = xr /. et.epiv in
        for p = 0 to Array.length et.eidx - 1 do
          let k = et.eidx.(p) in
          w.(k) <- w.(k) -. (et.eval_.(p) *. tr);
          if not t.mark.(k) then begin
            t.mark.(k) <- true;
            t.wnz.(!nw) <- k;
            incr nw
          end
        done;
        w.(et.er) <- tr
      end
    done;
    t.n_wnz <- keep_nonzeros ~mark:t.mark w t.wnz !nw
  end;
  for p = p0 to p1 - 1 do
    rhs.(a.Csc.rowind.(p)) <- 0.0
  done

(* Pivot-row BTRAN: rho = B^-T e_r, with [rnz] its nonzero rows,
   ascending. *)
let btran_row t r =
  let lu = lu t and c = t.brhs and rho = t.rho in
  if dense_solve t t.n_rnz then begin
    c.(r) <- 1.0;
    btran_full t c rho;
    c.(r) <- 0.0;
    for e = 0 to t.n_eta - 1 do
      c.(t.etas.(e).er) <- 0.0
    done;
    t.n_rnz <- scan_nonzeros rho t.rnz t.m
  end
  else begin
    for p = 0 to t.n_rnz - 1 do
      rho.(t.rnz.(p)) <- 0.0
    done;
    c.(r) <- 1.0;
    t.mark.(r) <- true;
    t.lst.(0) <- r;
    let ns = ref 1 in
    (* The eta file in reverse, recording each slot it makes nonzero; an
       eta whose inputs are all zero leaves its slot zero. *)
    for e = t.n_eta - 1 downto 0 do
      let et = t.etas.(e) in
      let acc = ref c.(et.er) in
      for p = 0 to Array.length et.eidx - 1 do
        acc := !acc -. (et.eval_.(p) *. c.(et.eidx.(p)))
      done;
      if !acc <> 0.0 || c.(et.er) <> 0.0 then begin
        c.(et.er) <- !acc /. et.epiv;
        if not t.mark.(et.er) then begin
          t.mark.(et.er) <- true;
          t.lst.(!ns) <- et.er;
          incr ns
        end
      end
    done;
    let nr = Lu.btran lu ~c ~slots:t.lst !ns ~y:rho ~rows:t.rnz in
    for p = 0 to !ns - 1 do
      let k = t.lst.(p) in
      c.(k) <- 0.0;
      t.mark.(k) <- false
    done;
    t.n_rnz <- keep_nonzeros rho t.rnz nr
  end

(* Pivot row alpha = rho^T A, accumulated sparsely through the CSR rows
   where rho is nonzero, in ascending row order (which fixes alpha's
   bits and the order of [touched], and so the dual ratio test's ties);
   [touched] records which entries are live. *)
let compute_alpha t =
  t.stamp <- t.stamp + 1;
  t.n_touched <- 0;
  let stamp = t.stamp in
  for p = 0 to t.n_rnz - 1 do
    let i = t.rnz.(p) in
    let ri = t.rho.(i) in
    Csc.row_iter t.a i (fun j v ->
        if t.astamp.(j) <> stamp then begin
          t.astamp.(j) <- stamp;
          t.alpha.(j) <- 0.0;
          t.touched.(t.n_touched) <- j;
          t.n_touched <- t.n_touched + 1
        end;
        t.alpha.(j) <- t.alpha.(j) +. (ri *. v))
  done

(* Shared pivot bookkeeping once the entering column's FTRAN [t.w], the
   leaving slot [r], the entering direction [sig] and the step [tstep]
   are known.  [leave_at] is the bound the leaving variable lands on. *)
let apply_pivot t ~q ~r ~sig_ ~tstep ~leave_at =
  let wr = t.w.(r) in
  let wmax = ref 0.0 in
  for p = 0 to t.n_wnz - 1 do
    let k = t.wnz.(p) in
    let wk = t.w.(k) in
    let awk = Float.abs wk in
    if awk > !wmax then wmax := awk;
    if k <> r then t.xb.(k) <- t.xb.(k) -. (sig_ *. wk *. tstep)
  done;
  let entering_val =
    (if sig_ > 0.0 then t.lo.(q) else t.up.(q)) +. (sig_ *. tstep)
  in
  (* Reduced-cost + Devex update from the pivot row. *)
  btran_row t r;
  compute_alpha t;
  let theta = t.d.(q) /. wr in
  let gq = t.gamma.(q) in
  for p = 0 to t.n_touched - 1 do
    let j = t.touched.(p) in
    if t.inbasis.(j) < 0 && j <> q then begin
      let aj = t.alpha.(j) in
      t.d.(j) <- t.d.(j) -. (theta *. aj);
      let gr = aj /. wr in
      let cand = gr *. gr *. gq in
      if cand > t.gamma.(j) then t.gamma.(j) <- cand;
      if (not t.cand_dense) && (not t.incand.(j)) && attractive t j then
        add_cand t j
    end
  done;
  let vl = t.basis.(r) in
  t.d.(vl) <- -.theta;
  t.gamma.(vl) <- Float.max (gq /. (wr *. wr)) 1.0;
  t.stat.(vl) <- leave_at;
  t.inbasis.(vl) <- -1;
  t.basis.(r) <- q;
  t.inbasis.(q) <- r;
  t.stat.(q) <- Sbasic;
  t.d.(q) <- 0.0;
  t.xb.(r) <- entering_val;
  if (not t.cand_dense) && (not t.incand.(vl)) && attractive t vl then
    add_cand t vl;
  (* Append the product-form eta and decide whether to refactor. *)
  let cnt = ref 0 in
  for p = 0 to t.n_wnz - 1 do
    if t.wnz.(p) <> r then incr cnt
  done;
  let eidx = Array.make !cnt 0 and eval_ = Array.make !cnt 0.0 in
  let p = ref 0 in
  for q = 0 to t.n_wnz - 1 do
    let k = t.wnz.(q) in
    if k <> r then begin
      eidx.(!p) <- k;
      eval_.(!p) <- t.w.(k);
      incr p
    end
  done;
  push_eta t { er = r; eidx; eval_; epiv = wr };
  t.c_pivots <- t.c_pivots + 1;
  t.d_exact <- false;
  if refactor_due t || Float.abs wr < 1e-6 *. !wmax then refactor t

(* ---------- primal simplex ---------- *)

(* Devex pricing with partial pricing: scan cyclic blocks from the last
   stop, return the best candidate of the first block containing any;
   under Bland's rule, the smallest attractive index. *)
let price_scan t =
  if t.bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to t.n - 1 do
         if attractive t j then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let n = t.n in
    let bsize = max 256 (n / 16) in
    let best = ref (-1) and bscore = ref 0.0 in
    (try
       for cnt = 0 to n - 1 do
         let j = if t.price_start + cnt >= n then t.price_start + cnt - n
                 else t.price_start + cnt in
         if attractive t j then begin
           let dj = t.d.(j) in
           let score = dj *. dj /. t.gamma.(j) in
           if score > !bscore then begin
             bscore := score;
             best := j
           end
         end;
         if (cnt + 1) mod bsize = 0 && !best >= 0 then begin
           t.price_start <- (if j + 1 >= n then 0 else j + 1);
           raise Exit
         end
       done;
       t.price_start <- 0
     with Exit -> ());
    !best
  end

(* The same choice and the same [price_start] as [price_scan], from the
   candidate set, which the walk compacts to the attractive columns: the
   lowest cyclic block holding a positive Devex score, its maximum score,
   the earliest column on ties; [price_start] moves past a full block and
   to 0 after the last, partial one or when nothing is attractive. *)
let price_cands t =
  let n = t.n and start = t.price_start in
  let bsize = max 256 (n / 16) in
  let best = ref (-1) and bblock = ref max_int in
  let bscore = ref 0.0 and bcnt = ref max_int in
  let kept = ref 0 in
  for p = 0 to t.n_cand - 1 do
    let j = t.cand.(p) in
    if attractive t j then begin
      t.cand.(!kept) <- j;
      incr kept;
      if t.bland then begin
        if !best < 0 || j < !best then best := j
      end
      else begin
        let dj = t.d.(j) in
        let score = dj *. dj /. t.gamma.(j) in
        if score > 0.0 then begin
          let cnt = if j >= start then j - start else j - start + n in
          let blk = cnt / bsize in
          if
            blk < !bblock
            || blk = !bblock
               && (score > !bscore || (score = !bscore && cnt < !bcnt))
          then begin
            best := j;
            bblock := blk;
            bscore := score;
            bcnt := cnt
          end
        end
      end
    end
    else t.incand.(j) <- false
  done;
  t.n_cand <- !kept;
  if not t.bland then
    t.price_start <-
      (if !best < 0 || (!bblock + 1) * bsize > n then 0
       else
         let s = start + ((!bblock + 1) * bsize) in
         if s >= n then s - n else s);
  !best

let price t = if t.cand_dense then price_scan t else price_cands t

type step_result = Sdone | Sstep of float (* step length *) | Sunbounded

let primal_step t =
  let q = price t in
  if q < 0 then Sdone
  else begin
    let sig_ = if t.stat.(q) = Slower then 1.0 else -1.0 in
    ftran_col t q;
    let tmax_own = t.up.(q) -. t.lo.(q) in
    let tmin = ref infinity in
    let ratio k =
      let wk = t.w.(k) in
      if Float.abs wk <= ptol then infinity
      else begin
        let delta = -.sig_ *. wk in
        let vb = t.basis.(k) in
        if delta < 0.0 && t.lo.(vb) > neg_infinity then
          Float.max 0.0 ((t.xb.(k) -. t.lo.(vb)) /. -.delta)
        else if delta > 0.0 && t.up.(vb) < infinity then
          Float.max 0.0 ((t.up.(vb) -. t.xb.(k)) /. delta)
        else infinity
      end
    in
    for p = 0 to t.n_wnz - 1 do
      let tk = ratio t.wnz.(p) in
      if tk < !tmin then tmin := tk
    done;
    if tmax_own <= !tmin +. 1e-12 then begin
      if tmax_own = infinity then Sunbounded
      else begin
        (* Entering variable reaches its opposite bound: bound flip. *)
        for p = 0 to t.n_wnz - 1 do
          let k = t.wnz.(p) in
          t.xb.(k) <- t.xb.(k) -. (sig_ *. t.w.(k) *. tmax_own)
        done;
        t.stat.(q) <- (if t.stat.(q) = Slower then Supper else Slower);
        t.c_flips <- t.c_flips + 1;
        Sstep tmax_own
      end
    end
    else begin
      let r = ref (-1) and bestw = ref 0.0 in
      for p = 0 to t.n_wnz - 1 do
        let k = t.wnz.(p) in
        if ratio k <= !tmin +. 1e-9 then begin
          let awk = Float.abs t.w.(k) in
          let better =
            if t.bland then !r < 0 || t.basis.(k) < t.basis.(!r)
            else awk > !bestw
          in
          if better then begin
            r := k;
            bestw := awk
          end
        end
      done;
      if !r < 0 then Sunbounded
      else begin
        let r = !r in
        let delta_r = -.sig_ *. t.w.(r) in
        let leave_at = if delta_r < 0.0 then Slower else Supper in
        let tstep = Float.max 0.0 !tmin in
        apply_pivot t ~q ~r ~sig_ ~tstep ~leave_at;
        Sstep tstep
      end
    end
  end

(* Run primal iterations to optimality for the current cost vector.
   Optimality is only declared once an exact reduced-cost recomputation
   confirms it, so incremental drift can never fake convergence. *)
(* Coarse wall-clock cutoff shared by both pivot loops; checked every
   256 iterations so the hot path stays syscall-free. *)
let out_of_time t =
  t.deadline < infinity
  && t.c_iters land 255 = 0
  && Unix.gettimeofday () > t.deadline

let run_primal t =
  t.bland <- false;
  t.stall <- 0;
  let result = ref Iteration_limit in
  (try
     while true do
       if t.iters_left <= 0 || out_of_time t then raise Exit;
       t.iters_left <- t.iters_left - 1;
       t.c_iters <- t.c_iters + 1;
       match primal_step t with
       | Sdone ->
         if t.d_exact then begin
           result := Optimal { objective = 0.0; solution = [||] };
           raise Exit
         end
         else compute_d t
       | Sunbounded ->
         result := Unbounded;
         raise Exit
       | Sstep step ->
         if step > 1e-9 then begin
           t.stall <- 0;
           t.bland <- false
         end
         else begin
           t.stall <- t.stall + 1;
           if t.stall > 60 then t.bland <- true
         end
     done
   with Exit -> ());
  !result

(* ---------- dual simplex ---------- *)

type dual_result = Dfeasible | Dinfeasible | Dlimit

let dual_step t =
  (* Leaving row: largest bound violation (Bland: smallest slot). *)
  let r = ref (-1) and viol = ref ftol in
  (try
     for k = 0 to t.m - 1 do
       let vb = t.basis.(k) in
       let v =
         if t.xb.(k) < t.lo.(vb) then t.lo.(vb) -. t.xb.(k)
         else if t.xb.(k) > t.up.(vb) then t.xb.(k) -. t.up.(vb)
         else 0.0
       in
       if v > !viol then begin
         viol := v;
         r := k;
         if t.bland then raise Exit
       end
     done
   with Exit -> ());
  if !r < 0 then `Feasible
  else begin
    let r = !r in
    let vb = t.basis.(r) in
    let below = t.xb.(r) < t.lo.(vb) in
    btran_row t r;
    compute_alpha t;
    (* Dual ratio test over sign-correct nonbasic candidates. *)
    let q = ref (-1) and bratio = ref infinity and balpha = ref 0.0 in
    for p = 0 to t.n_touched - 1 do
      let j = t.touched.(p) in
      if t.inbasis.(j) < 0 && t.lo.(j) < t.up.(j) then begin
        let aj = t.alpha.(j) in
        if Float.abs aj > ptol then begin
          let sig_j = if t.stat.(j) = Slower then 1.0 else -1.0 in
          let ok = if below then sig_j *. aj < 0.0 else sig_j *. aj > 0.0 in
          if ok then begin
            let ratio = Float.abs t.d.(j) /. Float.abs aj in
            let better =
              ratio < !bratio -. 1e-12
              || (ratio < !bratio +. 1e-12
                  && (if t.bland then !q < 0 || j < !q
                      else Float.abs aj > !balpha))
            in
            if better then begin
              bratio := ratio;
              balpha := Float.abs aj;
              q := j
            end
          end
        end
      end
    done;
    if !q < 0 then `Infeasible
    else begin
      let q = !q in
      ftran_col t q;
      let wr = t.w.(r) in
      if Float.abs wr <= ptol
         || (wr > 0.0) <> (t.alpha.(q) > 0.0)
      then
        if t.n_eta > 0 then begin
          (* Disagreement between the eta-file pivot row and the fresh
             FTRAN: wash the drift out and retry this iteration. *)
          refactor t;
          `Retry
        end
        else raise Fallback
      else begin
        let sig_q = if t.stat.(q) = Slower then 1.0 else -1.0 in
        let target = if below then t.lo.(vb) else t.up.(vb) in
        let tstep = Float.max 0.0 ((target -. t.xb.(r)) /. (-.sig_q *. wr)) in
        let leave_at = if below then Slower else Supper in
        apply_pivot t ~q ~r ~sig_:sig_q ~tstep ~leave_at;
        `Step tstep
      end
    end
  end

let run_dual t =
  t.bland <- false;
  t.stall <- 0;
  let result = ref Dlimit in
  (try
     while true do
       if t.iters_left <= 0 || out_of_time t then raise Exit;
       t.iters_left <- t.iters_left - 1;
       t.c_iters <- t.c_iters + 1;
       match dual_step t with
       | `Feasible ->
         result := Dfeasible;
         raise Exit
       | `Infeasible ->
         result := Dinfeasible;
         raise Exit
       | `Retry -> ()
       | `Step step ->
         if step > 1e-9 then begin
           t.stall <- 0;
           t.bland <- false
         end
         else begin
           t.stall <- t.stall + 1;
           if t.stall > 60 then t.bland <- true
         end
     done
   with Exit -> ());
  !result

(* ---------- solve drivers ---------- *)

let extract t =
  let x = Array.make t.n_struct 0.0 in
  for j = 0 to t.n_struct - 1 do
    let v = if t.inbasis.(j) >= 0 then t.xb.(t.inbasis.(j)) else nb_value t j in
    x.(j) <- Float.min (Float.max v t.lo.(j)) t.up.(j)
  done;
  let objective = ref 0.0 in
  for j = 0 to t.n_struct - 1 do
    if t.obj.(j) <> 0.0 then objective := !objective +. (t.obj.(j) *. x.(j))
  done;
  Optimal { objective = !objective; solution = x }

(* All-logical starting basis: the slack absorbs the row's residual when
   it can; otherwise the signed bounded artificial does, and carries the
   phase-1 cost.  The resulting basis is the identity, so the first
   factorization is trivial.

   With [?point] each structural nonbasic sits at the bound nearest the
   supplied value instead of always at its lower bound.  A feasible 0/1
   point then leaves every slack able to absorb its row's residual, no
   artificial is needed, and phase 1 is skipped entirely: the crash basis
   starts phase 2 at the point's own objective. *)
let init_logical_basis ?point t =
  let ns = t.n_struct and m = t.m in
  for j = 0 to ns - 1 do
    if t.inbasis.(j) >= 0 then t.inbasis.(j) <- -1;
    t.stat.(j) <-
      (match point with
      | Some p
        when t.lo.(j) < t.up.(j)
             && t.up.(j) < infinity
             && Float.abs (p.(j) -. t.up.(j)) < Float.abs (p.(j) -. t.lo.(j)) ->
        Supper
      | _ -> Slower)
  done;
  Array.blit t.b 0 t.rw 0 m;
  for j = 0 to ns - 1 do
    let v = nb_value t j in
    if v <> 0.0 then Csc.col_iter t.a j (fun i aij -> t.rw.(i) <- t.rw.(i) -. (aij *. v))
  done;
  let any_art = ref false in
  for k = 0 to m - 1 do
    let js = ns + k and ja = ns + m + k in
    let r = t.rw.(k) in
    t.pobj.(ja) <- 0.0;
    t.lo.(ja) <- 0.0;
    t.up.(ja) <- 0.0;
    let slack_ok =
      match t.senses.(k) with
      | Le -> r >= -.ftol
      | Ge -> r <= ftol
      | Eq -> Float.abs r <= ftol
    in
    if slack_ok then begin
      t.basis.(k) <- js;
      t.inbasis.(js) <- k;
      t.stat.(js) <- Sbasic;
      t.inbasis.(ja) <- -1;
      t.stat.(ja) <- Slower;
      t.xb.(k) <- r
    end
    else begin
      any_art := true;
      t.basis.(k) <- ja;
      t.inbasis.(ja) <- k;
      t.stat.(ja) <- Sbasic;
      t.inbasis.(js) <- -1;
      t.stat.(js) <- (match t.senses.(k) with Ge -> Supper | _ -> Slower);
      t.lo.(ja) <- Float.min 0.0 r;
      t.up.(ja) <- Float.max 0.0 r;
      t.pobj.(ja) <- (if r > 0.0 then 1.0 else -1.0);
      t.xb.(k) <- r
    end
  done;
  !any_art

let phase1_objective t =
  let ns = t.n_struct and m = t.m in
  let acc = ref 0.0 in
  for k = 0 to m - 1 do
    let ja = ns + m + k in
    if t.pobj.(ja) <> 0.0 then begin
      let v =
        if t.inbasis.(ja) >= 0 then t.xb.(t.inbasis.(ja)) else nb_value t ja
      in
      acc := !acc +. (t.pobj.(ja) *. v)
    end
  done;
  !acc

(* Pin every artificial back to [0,0] after phase 1. *)
let lock_artificials t =
  let ns = t.n_struct and m = t.m in
  for k = 0 to m - 1 do
    let ja = ns + m + k in
    t.lo.(ja) <- 0.0;
    t.up.(ja) <- 0.0;
    t.pobj.(ja) <- 0.0;
    if t.inbasis.(ja) < 0 then t.stat.(ja) <- Slower
  done

let reset_pricing t =
  t.price_start <- 0;
  Array.fill t.gamma 0 t.n 1.0

(* Once phase 2 is entered the artificials are locked to [0,0], so the
   basis stays warm-startable even if the iteration budget runs out
   mid-solve: marking [solved_once] here lets the next [reoptimize]
   resume from the partial basis instead of cold-starting.  Mid-phase-1
   bases are never marked (their artificials still carry residuals). *)
let enter_phase2 t =
  lock_artificials t;
  t.cost <- t.obj;
  t.solved_once <- true

let cold_optimize ?point t =
  let need_phase1 = init_logical_basis ?point t in
  if need_phase1 then begin
    t.cost <- t.pobj;
    refactor t;
    reset_pricing t;
    match run_primal t with
    | Optimal _ ->
      if phase1_objective t > 1e-6 then Infeasible
      else begin
        enter_phase2 t;
        compute_xb t;
        compute_d t;
        reset_pricing t;
        match run_primal t with
        | Optimal _ -> extract t
        | other -> other
      end
    | Unbounded ->
      (* Phase 1 is bounded below by 0; numerical trouble if we get here. *)
      Infeasible
    | other -> other
  end
  else begin
    enter_phase2 t;
    refactor t;
    reset_pricing t;
    match run_primal t with
    | Optimal _ -> extract t
    | other -> other
  end

(* Restore dual feasibility after bound changes by re-siting nonbasic
   variables: a bound change never touches reduced costs, so picking the
   bound whose sign condition matches d_j is always legal.  Fails (and
   forces a cold solve) only when the required bound is infinite. *)
let make_dual_feasible t =
  let ok = ref true in
  (try
     for j = 0 to t.n - 1 do
       if t.inbasis.(j) < 0 then begin
         if t.lo.(j) >= t.up.(j) then t.stat.(j) <- Slower
         else if t.d.(j) < -.dtol then
           if t.up.(j) < infinity then t.stat.(j) <- Supper
           else begin
             ok := false;
             raise Exit
           end
         else if t.d.(j) > dtol then
           if t.lo.(j) > neg_infinity then t.stat.(j) <- Slower
           else begin
             ok := false;
             raise Exit
           end
         else if t.stat.(j) = Slower && t.lo.(j) = neg_infinity then
           t.stat.(j) <- Supper
         else if t.stat.(j) = Supper && t.up.(j) = infinity then
           t.stat.(j) <- Slower
       end
     done
   with Exit -> ());
  !ok

let warm_optimize t =
  t.cost <- t.obj;
  refactor t;
  if not (make_dual_feasible t) then raise Fallback;
  compute_xb t;
  reset_pricing t;
  match run_dual t with
  | Dinfeasible -> Infeasible
  | Dlimit -> Iteration_limit
  | Dfeasible -> (
    (* Dual termination is primal feasible; a short primal phase-2 pass
       washes out dual-update drift and certifies optimality exactly. *)
    compute_d t;
    match run_primal t with
    | Optimal _ ->
      t.solved_once <- true;
      extract t
    | other -> other)

let flush t f =
  let p0 = t.c_pivots and f0 = t.c_flips and i0 = t.c_iters
  and r0 = t.c_refactor in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.add m_pivots (t.c_pivots - p0);
      Telemetry.Metrics.add m_flips (t.c_flips - f0);
      Telemetry.Metrics.add m_iterations (t.c_iters - i0);
      Telemetry.Metrics.add m_refactor (t.c_refactor - r0);
      Telemetry.Metrics.set m_eta_len (float_of_int t.n_eta))
    f

let optimize ?(max_iters = 50_000) t =
  t.iters_left <- max_iters;
  t.deadline <- infinity;
  flush t @@ fun () ->
  try cold_optimize t with Fallback | Lu.Singular -> Iteration_limit

let reoptimize ?(max_iters = 50_000) ?(deadline = infinity) ?point t =
  t.iters_left <- max_iters;
  t.deadline <- deadline;
  flush t @@ fun () ->
  try
    if not t.solved_once then cold_optimize ?point t
    else
      try warm_optimize t
      with Fallback | Lu.Singular -> cold_optimize ?point t
  with Fallback | Lu.Singular -> Iteration_limit

(* ---------- in-place objective replacement ---------- *)

(* [t.cost] aliases [t.obj] outside phase 1, so mutating the entries in
   place keeps both views consistent; the next [reoptimize] recomputes
   reduced costs from scratch (d_exact is cleared) and re-sites
   nonbasics, which is exactly a dual-feasibility repair for the new
   objective.  Used by the feasibility pump to swap distance objectives
   in and out without rebuilding the instance.  Every index is checked
   before the first write, so a rejected objective leaves the old one
   in place. *)
let set_objective t (obj : Csc.row) =
  if not (Array.for_all (fun j -> j >= 0 && j < t.n_struct) obj.Csc.idx) then
    invalid_arg "Revised.set_objective: variable index out of range";
  Array.fill t.obj 0 t.n_struct 0.0;
  Array.iteri
    (fun k j -> t.obj.(j) <- t.obj.(j) +. obj.Csc.coef.(k))
    obj.Csc.idx;
  t.d_exact <- false

(* ---------- row append ---------- *)

(* Appending rows to a factorized instance: rebuild the augmented matrix
   (original rows recovered from the CSR, structural entries only) with
   the extra rows, then carry the basis across.  Structural and slack
   column indices are unchanged; artificial indices shift by the number
   of new rows; each new row's slack enters the basis.  When every new
   row is a cut that the current solution violates, the carried basis is
   primal infeasible but still dual feasible, so [reoptimize]'s dual
   simplex restores optimality in a few pivots instead of resolving from
   scratch. *)
let add_rows t extra =
  let ne = Array.length extra in
  if ne = 0 then t
  else begin
    let ns = t.n_struct and m0 = t.m in
    (* A stored row is packed, so its structural entries are a prefix
       ahead of the row's slack and artificial. *)
    let rows =
      Array.init (m0 + ne) (fun k ->
          if k < m0 then begin
            let p0 = t.a.Csc.rowptr.(k) and p1 = t.a.Csc.rowptr.(k + 1) - 2 in
            {
              Csc.idx = Array.sub t.a.Csc.colind p0 (p1 - p0);
              coef = Array.sub t.a.Csc.rval p0 (p1 - p0);
            }
          end
          else
            let r, _, _ = extra.(k - m0) in
            r)
    in
    let t' =
      create ~a:(matrix ~nvars:ns rows)
        ~senses:(Array.append t.senses (Array.map (fun (_, s, _) -> s) extra))
        ~rhs:(Array.append t.b (Array.map (fun (_, _, r) -> r) extra))
        ~obj:(Csc.pack (Array.init ns Fun.id) (Array.sub t.obj 0 ns))
        ~lower:(Array.sub t.lo 0 ns) ~upper:(Array.sub t.up 0 ns)
    in
    if t.solved_once then begin
      Array.blit t.stat 0 t'.stat 0 (ns + m0);
      Array.fill t'.stat (ns + m0) (t'.n - ns - m0) Slower;
      for k = 0 to m0 - 1 do
        let v = t.basis.(k) in
        t'.basis.(k) <- (if v < ns + m0 then v else v + ne)
      done;
      for k = m0 to m0 + ne - 1 do
        t'.basis.(k) <- ns + k
      done;
      Array.fill t'.inbasis 0 t'.n (-1);
      Array.iteri
        (fun k v ->
          t'.inbasis.(v) <- k;
          t'.stat.(v) <- Sbasic)
        t'.basis;
      t'.solved_once <- true
    end;
    (* The deadline poll keeps its cadence across the copy. *)
    t'.c_iters <- t.c_iters;
    t'
  end
