exception Singular

(* One kernel factor step: pivot position, L multipliers below it, U
   row, in kernel indices. *)
type step = {
  pr : int;  (** pivot row *)
  pc : int;  (** pivot column *)
  l_idx : int array;  (** rows receiving a multiplier *)
  l_val : float array;
  u_idx : int array;  (** later columns in the pivot row *)
  u_val : float array;
  u_piv : float;
}

type t = {
  (* Permutation part: peeled block [q] is basis slot [p_slot.(q)], a
     unit column whose one nonzero [p_piv.(q)] sits on row [p_row.(q)],
     a row no other basis column touches. *)
  p_row : int array;
  p_slot : int array;
  p_piv : float array;
  row_blk : int array;  (** row -> its peeled block, or -1 *)
  slot_blk : int array;  (** slot -> its peeled block, or -1 *)
  (* Kernel: every other column, factored alone in local indices.
     Kernel column [c] is basis slot [kslot.(c)]; kernel row [i] is
     constraint row [kglob.(i)]. *)
  kslot : int array;
  kglob : int array;
  steps : step array;
  (* Transposed kernel indices, built once per factorization, so both
     triangular backward passes run push-form: work lands only on the
     nonzero entries of the solution instead of scanning every stored
     nonzero of L and U.  [ut] maps a column to the steps whose U row
     references it (push target: that step's accumulator); [lt] maps a
     row to the steps whose L column references it (push target: that
     step's pivot row). *)
  ut_ptr : int array;
  ut_step : int array;
  ut_val : float array;
  lt_ptr : int array;
  lt_tgt : int array;
  lt_val : float array;
  z : float array;  (** scratch, kernel rows *)
  s : float array;  (** scratch, kernel columns *)
  ux : float array;  (** scratch, per-step accumulator for the U solve *)
  nnz : int;
}

let tau = 0.1 (* threshold partial pivoting *)
let drop_tol = 1e-12
let abs_tol = 1e-11

(* The active submatrix lives in flat arrays: rows as unordered
   (column, value) pairs, plus an exact column -> active-rows index for
   Markowitz selection.  Columns are bucketed by active count through an
   intrusive doubly-linked list so the sparsest column is found in O(1)
   amortized; the elimination itself runs through a sparse accumulator
   so each update is array reads, never a hash probe.  All scans and
   tie-breaks are index-ordered, keeping the factorization
   deterministic.  [eliminate m col] factors the [m x m] matrix whose
   column [c] [col] enumerates and returns its steps, in the indices of
   [col], and the stored L + U nonzeros. *)
let eliminate m col =
  (* Row storage. *)
  let rlen = Array.make m 0 in
  let rcol = Array.make m [||] in
  let rval = Array.make m [||] in
  let row_push i c v =
    let len = rlen.(i) in
    if len = Array.length rcol.(i) then begin
      let cap = max 4 (2 * len) in
      let nc = Array.make cap 0 and nv = Array.make cap 0.0 in
      Array.blit rcol.(i) 0 nc 0 len;
      Array.blit rval.(i) 0 nv 0 len;
      rcol.(i) <- nc;
      rval.(i) <- nv
    end;
    rcol.(i).(len) <- c;
    rval.(i).(len) <- v;
    rlen.(i) <- len + 1
  in
  let row_find i c =
    let cols = rcol.(i) in
    let len = rlen.(i) in
    let k = ref (-1) in
    (try
       for p = 0 to len - 1 do
         if cols.(p) = c then begin
           k := p;
           raise Exit
         end
       done
     with Exit -> ());
    !k
  in
  (* Column -> active rows (exact, unordered). *)
  let clen = Array.make m 0 in
  let crow = Array.make m [||] in
  (* Count buckets: doubly-linked lists threaded through columns. *)
  let bhead = Array.make (m + 1) (-1) in
  let bnext = Array.make m (-1) in
  let bprev = Array.make m (-1) in
  let inbucket = Array.make m (-1) in
  let cur_min = ref 0 in
  let unlink c =
    let b = inbucket.(c) in
    if b >= 0 then begin
      let p = bprev.(c) and m = bnext.(c) in
      if p >= 0 then bnext.(p) <- m else bhead.(b) <- m;
      if m >= 0 then bprev.(m) <- p;
      inbucket.(c) <- -1
    end
  in
  let relink c =
    let b = clen.(c) in
    if inbucket.(c) <> b then begin
      unlink c;
      let h = bhead.(b) in
      bnext.(c) <- h;
      bprev.(c) <- -1;
      if h >= 0 then bprev.(h) <- c;
      bhead.(b) <- c;
      inbucket.(c) <- b;
      if b < !cur_min then cur_min := b
    end
  in
  let crow_push c i =
    let len = clen.(c) in
    if len = Array.length crow.(c) then begin
      let cap = max 4 (2 * len) in
      let nr = Array.make cap 0 in
      Array.blit crow.(c) 0 nr 0 len;
      crow.(c) <- nr
    end;
    crow.(c).(len) <- i;
    clen.(c) <- len + 1;
    relink c
  in
  let crow_remove c i =
    let rows = crow.(c) in
    let len = clen.(c) in
    (try
       for p = 0 to len - 1 do
         if rows.(p) = i then begin
           rows.(p) <- rows.(len - 1);
           clen.(c) <- len - 1;
           raise Exit
         end
       done
     with Exit -> ());
    relink c
  in
  (* Load the basis columns (duplicate entries within a column merge). *)
  for k = 0 to m - 1 do
    col k (fun i v ->
        if Float.abs v > drop_tol then begin
          let p = row_find i k in
          if p < 0 then begin
            row_push i k v;
            crow_push k i
          end
          else begin
            let nv = rval.(i).(p) +. v in
            if Float.abs nv <= drop_tol then begin
              rcol.(i).(p) <- rcol.(i).(rlen.(i) - 1);
              rval.(i).(p) <- rval.(i).(rlen.(i) - 1);
              rlen.(i) <- rlen.(i) - 1;
              crow_remove k i
            end
            else rval.(i).(p) <- nv
          end
        end)
  done;
  for c = 0 to m - 1 do
    relink c
  done;
  cur_min := 0;
  let col_active = Array.make m true in
  (* Sparse accumulator for the elimination updates. *)
  let wv = Array.make m 0.0 in
  let wstamp = Array.make m 0 in
  let estamp = Array.make m 0 in
  let stamp = ref 0 in
  (* Scratch for pivot selection: candidate rows and their magnitudes,
     gathered once per considered column. *)
  let cand_rows = Array.make m 0 in
  let cand_vals = Array.make m 0.0 in
  let steps = Array.make m None in
  let nnz = ref 0 in
  for step_k = 0 to m - 1 do
    (* Markowitz-style selection: among the sparsest active columns pick
       the entry minimizing (rowcount-1)*(colcount-1) that passes the
       threshold test; ties break on (magnitude, column, row) so the
       choice is independent of scan order. *)
    while !cur_min <= m && bhead.(!cur_min) < 0 do
      incr cur_min
    done;
    if !cur_min <= 0 || !cur_min > m then raise Singular;
    let best_metric = ref max_int
    and best_abs = ref 0.0
    and best_r = ref (-1)
    and best_c = ref (-1) in
    let consider c =
      let cc = clen.(c) in
      if cc > 0 then begin
        let colmax = ref 0.0 in
        for p = 0 to cc - 1 do
          let i = crow.(c).(p) in
          let v = Float.abs rval.(i).(row_find i c) in
          cand_rows.(p) <- i;
          cand_vals.(p) <- v;
          if v > !colmax then colmax := v
        done;
        if !colmax > abs_tol then
          for p = 0 to cc - 1 do
            let i = cand_rows.(p) in
            let v = cand_vals.(p) in
            if v >= tau *. !colmax && v > abs_tol then begin
              let metric = (rlen.(i) - 1) * (cc - 1) in
              let better =
                metric < !best_metric
                || (metric = !best_metric
                    && (v > !best_abs *. 1.000001
                        || (v >= !best_abs *. 0.999999
                            && (c < !best_c || (c = !best_c && i < !best_r)))))
              in
              if better then begin
                best_metric := metric;
                best_abs := v;
                best_r := i;
                best_c := c
              end
            end
          done
      end
    in
    (* Pass 1: up to 8 columns from the sparsest bucket. *)
    let scanned = ref 0 and c = ref bhead.(!cur_min) in
    while !c >= 0 && !scanned < 8 do
      consider !c;
      incr scanned;
      c := bnext.(!c)
    done;
    (* Pass 2: widen to every active column if the threshold rejected
       the whole bucket sample. *)
    if !best_r < 0 then
      for c = 0 to m - 1 do
        if col_active.(c) then consider c
      done;
    if !best_r < 0 then raise Singular;
    let pr = !best_r and pc = !best_c in
    let piv = rval.(pr).(row_find pr pc) in
    (* Gather the pivot row (excluding the pivot itself), sorted. *)
    let un = ref 0 in
    for p = 0 to rlen.(pr) - 1 do
      if rcol.(pr).(p) <> pc then incr un
    done;
    let u_idx = Array.make !un 0 and u_val = Array.make !un 0.0 in
    let up = ref 0 in
    for p = 0 to rlen.(pr) - 1 do
      let cc = rcol.(pr).(p) in
      if cc <> pc then begin
        u_idx.(!up) <- cc;
        u_val.(!up) <- rval.(pr).(p);
        incr up
      end
    done;
    let perm = Array.init !un (fun i -> i) in
    Array.sort (fun a b -> compare u_idx.(a) u_idx.(b)) perm;
    let u_idx' = Array.map (fun i -> u_idx.(i)) perm in
    let u_val' = Array.map (fun i -> u_val.(i)) perm in
    (* Eliminate below the pivot, smallest target row first. *)
    let targets = Array.make (clen.(pc) - 1) 0 in
    let tp = ref 0 in
    for p = 0 to clen.(pc) - 1 do
      let i = crow.(pc).(p) in
      if i <> pr then begin
        targets.(!tp) <- i;
        incr tp
      end
    done;
    Array.sort compare targets;
    let l_idx = Array.make (Array.length targets) 0 in
    let l_val = Array.make (Array.length targets) 0.0 in
    Array.iteri
      (fun ti i ->
        let l = rval.(i).(row_find i pc) /. piv in
        l_idx.(ti) <- i;
        l_val.(ti) <- l;
        (* Scatter row i (minus the pivot column) into the accumulator. *)
        incr stamp;
        let st = !stamp in
        for p = 0 to rlen.(i) - 1 do
          let c = rcol.(i).(p) in
          if c <> pc then begin
            wv.(c) <- rval.(i).(p);
            wstamp.(c) <- st
          end
        done;
        (* Apply the pivot-row update, tracking fill-in and drops in the
           column index as membership flips. *)
        for p = 0 to Array.length u_idx' - 1 do
          let c = u_idx'.(p) in
          let had = wstamp.(c) = st in
          let cur = if had then wv.(c) else 0.0 in
          let nv = cur -. (l *. u_val'.(p)) in
          let has = Float.abs nv > drop_tol in
          wv.(c) <- nv;
          wstamp.(c) <- st;
          if had && not has then crow_remove c i
          else if (not had) && has then crow_push c i
        done;
        (* Gather the surviving entries back into row i.  The first pass
           compacts in place — the write index never overtakes the read
           index, so the old entries are still intact when read. *)
        incr stamp;
        let est = !stamp in
        let old_cols = rcol.(i) and old_len = rlen.(i) in
        rlen.(i) <- 0;
        for p = 0 to old_len - 1 do
          let c = old_cols.(p) in
          if c <> pc && estamp.(c) <> est then begin
            estamp.(c) <- est;
            if Float.abs wv.(c) > drop_tol then begin
              let w = rlen.(i) in
              rcol.(i).(w) <- c;
              rval.(i).(w) <- wv.(c);
              rlen.(i) <- w + 1
            end
          end
        done;
        for p = 0 to Array.length u_idx' - 1 do
          let c = u_idx'.(p) in
          if estamp.(c) <> est then begin
            estamp.(c) <- est;
            if Float.abs wv.(c) > drop_tol then row_push i c wv.(c)
          end
        done)
      targets;
    (* Retire the pivot row and column. *)
    for p = 0 to rlen.(pr) - 1 do
      let c = rcol.(pr).(p) in
      if c <> pc then crow_remove c pr
    done;
    clen.(pc) <- 0;
    unlink pc;
    col_active.(pc) <- false;
    nnz := !nnz + Array.length l_idx + Array.length u_idx' + 1;
    steps.(step_k) <-
      Some { pr; pc; l_idx; l_val; u_idx = u_idx'; u_val = u_val'; u_piv = piv }
  done;
  (Array.map Option.get steps, !nnz)

(* Peel the isolated unit blocks, then eliminate the kernel.  Pass 1
   counts each column's and each row's nonzeros, remembering a column's
   last entry; a column with one nonzero on a row of count one is an
   isolated block.  Nothing in the kernel ever touches a peeled row or
   column, so the kernel factors alone, in local indices whose order
   follows the global one (every Markowitz tie-break is unchanged), and
   each peeled block counts one stored nonzero. *)
let factor ~m col =
  let ccnt = Array.make m 0 and clast = Array.make m 0 in
  let cval = Array.make m 0.0 and rcnt = Array.make m 0 in
  for k = 0 to m - 1 do
    col k (fun i v ->
        if Float.abs v > drop_tol then begin
          ccnt.(k) <- ccnt.(k) + 1;
          clast.(k) <- i;
          cval.(k) <- v;
          rcnt.(i) <- rcnt.(i) + 1
        end)
  done;
  let peeled k = ccnt.(k) = 1 && rcnt.(clast.(k)) = 1 in
  let np = ref 0 in
  for k = 0 to m - 1 do
    if ccnt.(k) = 0 then raise Singular;
    if peeled k then begin
      if Float.abs cval.(k) <= abs_tol then raise Singular;
      incr np
    end
  done;
  let np = !np in
  let nk = m - np in
  let p_row = Array.make np 0 and p_slot = Array.make np 0 in
  let p_piv = Array.make np 0.0 and kslot = Array.make nk 0 in
  let row_blk = Array.make m (-1) and slot_blk = Array.make m (-1) in
  let q = ref 0 and c = ref 0 in
  for k = 0 to m - 1 do
    if peeled k then begin
      p_row.(!q) <- clast.(k);
      p_slot.(!q) <- k;
      p_piv.(!q) <- cval.(k);
      row_blk.(clast.(k)) <- !q;
      slot_blk.(k) <- !q;
      rcnt.(clast.(k)) <- -1;
      incr q
    end
    else begin
      kslot.(!c) <- k;
      incr c
    end
  done;
  (* [rcnt] now marks the peeled rows with -1; reuse it as the row ->
     kernel-row map. *)
  let krow = rcnt and kglob = Array.make nk 0 in
  let r = ref 0 in
  for i = 0 to m - 1 do
    if krow.(i) >= 0 then begin
      krow.(i) <- !r;
      kglob.(!r) <- i;
      incr r
    end
  done;
  let steps, knnz =
    eliminate nk (fun c f ->
        col kslot.(c) (fun i v -> if Float.abs v > drop_tol then f krow.(i) v))
  in
  (* Transpose CSR builds for the push-form solves. *)
  let ut_cnt = Array.make (nk + 1) 0 in
  let lt_cnt = Array.make (nk + 1) 0 in
  Array.iter
    (fun st ->
      Array.iter (fun c -> ut_cnt.(c + 1) <- ut_cnt.(c + 1) + 1) st.u_idx;
      Array.iter (fun i -> lt_cnt.(i + 1) <- lt_cnt.(i + 1) + 1) st.l_idx)
    steps;
  for k = 1 to nk do
    ut_cnt.(k) <- ut_cnt.(k) + ut_cnt.(k - 1);
    lt_cnt.(k) <- lt_cnt.(k) + lt_cnt.(k - 1)
  done;
  let ut_ptr = Array.copy ut_cnt and lt_ptr = Array.copy lt_cnt in
  let ut_step = Array.make ut_cnt.(nk) 0 in
  let ut_val = Array.make ut_cnt.(nk) 0.0 in
  let lt_tgt = Array.make lt_cnt.(nk) 0 in
  let lt_val = Array.make lt_cnt.(nk) 0.0 in
  let unext = Array.copy ut_ptr and lnext = Array.copy lt_ptr in
  Array.iteri
    (fun k st ->
      Array.iteri
        (fun p c ->
          let q = unext.(c) in
          ut_step.(q) <- k;
          ut_val.(q) <- st.u_val.(p);
          unext.(c) <- q + 1)
        st.u_idx;
      Array.iteri
        (fun p i ->
          let q = lnext.(i) in
          lt_tgt.(q) <- st.pr;
          lt_val.(q) <- st.l_val.(p);
          lnext.(i) <- q + 1)
        st.l_idx)
    steps;
  {
    p_row;
    p_slot;
    p_piv;
    row_blk;
    slot_blk;
    kslot;
    kglob;
    steps;
    ut_ptr;
    ut_step;
    ut_val;
    lt_ptr;
    lt_tgt;
    lt_val;
    z = Array.make nk 0.0;
    s = Array.make nk 0.0;
    ux = Array.make nk 0.0;
    nnz = np + knnz;
  }

let nnz t = t.nnz

(* Solve B x = b for a [b] that is zero outside [rows.(0 .. nr - 1)].
   Each peeled block on a listed row is one division; the others are
   zero in [x] and left untouched.  For the kernel, (E_{k-1} ... E_0)
   B_K = U, so z = E b then U x = z.  Both kernel passes spend flops
   only where values are nonzero: the L pass skips steps whose
   pivot-row value is zero, and the U pass pushes each resolved
   component through the transpose index instead of pulling over every
   stored U entry.  Every nonzero written lands in [slots]: the peeled
   ones in the order of [rows], then the kernel ones ascending. *)
let ftran t ~b ~rows nr ~x ~slots =
  let n = ref 0 in
  for p = 0 to nr - 1 do
    let q = t.row_blk.(rows.(p)) in
    if q >= 0 then begin
      let bv = b.(rows.(p)) in
      x.(t.p_slot.(q)) <- (if bv = 0.0 then 0.0 else bv /. t.p_piv.(q));
      if bv <> 0.0 then begin
        slots.(!n) <- t.p_slot.(q);
        incr n
      end
    end
  done;
  let nk = Array.length t.steps in
  let z = t.z in
  for i = 0 to nk - 1 do
    z.(i) <- b.(t.kglob.(i))
  done;
  for k = 0 to nk - 1 do
    let st = t.steps.(k) in
    let zr = z.(st.pr) in
    if zr <> 0.0 then
      for p = 0 to Array.length st.l_idx - 1 do
        z.(st.l_idx.(p)) <- z.(st.l_idx.(p)) -. (st.l_val.(p) *. zr)
      done
  done;
  let ux = t.ux in
  for k = 0 to nk - 1 do
    ux.(k) <- z.(t.steps.(k).pr)
  done;
  for k = nk - 1 downto 0 do
    let st = t.steps.(k) in
    let acc = ux.(k) in
    if acc = 0.0 then x.(t.kslot.(st.pc)) <- 0.0
    else begin
      let xv = acc /. st.u_piv in
      x.(t.kslot.(st.pc)) <- xv;
      for p = t.ut_ptr.(st.pc) to t.ut_ptr.(st.pc + 1) - 1 do
        ux.(t.ut_step.(p)) <- ux.(t.ut_step.(p)) -. (t.ut_val.(p) *. xv)
      done
    end
  done;
  for c = 0 to nk - 1 do
    if x.(t.kslot.(c)) <> 0.0 then begin
      slots.(!n) <- t.kslot.(c);
      incr n
    end
  done;
  !n

(* Solve B^T y = c for a [c] that is zero outside [slots.(0 .. ns - 1)]:
   one division per peeled block on a listed slot; for the kernel,
   forward-substitute U^T by scattering each pivot row, then apply the
   transposed etas in reverse.  Every nonzero written lands in [rows]:
   the peeled ones in the order of [slots], then the kernel ones
   ascending. *)
let btran t ~c ~slots ns ~y ~rows =
  let n = ref 0 in
  for p = 0 to ns - 1 do
    let q = t.slot_blk.(slots.(p)) in
    if q >= 0 then begin
      let cv = c.(slots.(p)) in
      y.(t.p_row.(q)) <- (if cv <> 0.0 then cv /. t.p_piv.(q) else cv);
      if cv <> 0.0 then begin
        rows.(!n) <- t.p_row.(q);
        incr n
      end
    end
  done;
  let nk = Array.length t.steps in
  let s = t.s and z = t.z in
  for j = 0 to nk - 1 do
    s.(j) <- c.(t.kslot.(j))
  done;
  for k = 0 to nk - 1 do
    let st = t.steps.(k) in
    let sv = s.(st.pc) in
    if sv <> 0.0 then begin
      let wk = sv /. st.u_piv in
      s.(st.pc) <- wk;
      for p = 0 to Array.length st.u_idx - 1 do
        s.(st.u_idx.(p)) <- s.(st.u_idx.(p)) -. (st.u_val.(p) *. wk)
      done
    end
  done;
  (* Scatter w (indexed by step) into kernel rows via the pivot rows. *)
  for k = 0 to nk - 1 do
    let st = t.steps.(k) in
    z.(st.pr) <- s.(st.pc)
  done;
  (* L^T backward, push form: a row's final value feeds exactly the
     steps whose L column references it, so zero components cost one
     read. *)
  for k = nk - 1 downto 0 do
    let st = t.steps.(k) in
    let zv = z.(st.pr) in
    if zv <> 0.0 then
      for p = t.lt_ptr.(st.pr) to t.lt_ptr.(st.pr + 1) - 1 do
        z.(t.lt_tgt.(p)) <- z.(t.lt_tgt.(p)) -. (t.lt_val.(p) *. zv)
      done
  done;
  for i = 0 to nk - 1 do
    y.(t.kglob.(i)) <- z.(i);
    if z.(i) <> 0.0 then begin
      rows.(!n) <- t.kglob.(i);
      incr n
    end
  done;
  !n
