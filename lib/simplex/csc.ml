type t = {
  m : int;
  n : int;
  colptr : int array;
  rowind : int array;
  cval : float array;
  rowptr : int array;
  colind : int array;
  rval : float array;
}

type row = { idx : int array; coef : float array }

(* Whether the [len] terms from [pos] are packed. *)
let is_packed (idx : int array) (coef : float array) pos len =
  let ok = ref true in
  for k = pos to pos + len - 1 do
    if coef.(k) = 0.0 || (k > pos && idx.(k - 1) >= idx.(k)) then ok := false
  done;
  !ok

let is_sorted (idx : int array) pos len =
  let ok = ref true in
  for k = pos + 1 to pos + len - 1 do
    if idx.(k - 1) > idx.(k) then ok := false
  done;
  !ok

(* Short runs (the common case) are sorted in place by insertion, which
   is stable; long ones through a stably sorted permutation. *)
let sort_terms (idx : int array) (coef : float array) pos len =
  if len <= 32 then
    for k = pos + 1 to pos + len - 1 do
      let j = idx.(k) and c = coef.(k) in
      let p = ref k in
      while !p > pos && idx.(!p - 1) > j do
        idx.(!p) <- idx.(!p - 1);
        coef.(!p) <- coef.(!p - 1);
        decr p
      done;
      idx.(!p) <- j;
      coef.(!p) <- c
    done
  else begin
    let perm = Array.init len (fun k -> pos + k) in
    Array.stable_sort (fun a b -> compare (idx.(a) : int) idx.(b)) perm;
    let sidx = Array.map (fun k -> idx.(k)) perm in
    let scoef = Array.map (fun k -> coef.(k)) perm in
    Array.blit sidx 0 idx pos len;
    Array.blit scoef 0 coef pos len
  end

let pack_into (idx : int array) (coef : float array) pos len =
  if is_packed idx coef pos len then len
  else begin
    if not (is_sorted idx pos len) then sort_terms idx coef pos len;
    (* Sum runs of one index left to right, then drop zero sums. *)
    let out = ref pos and k = ref pos and stop = pos + len in
    while !k < stop do
      let j = idx.(!k) in
      let c = ref coef.(!k) in
      incr k;
      while !k < stop && idx.(!k) = j do
        c := !c +. coef.(!k);
        incr k
      done;
      if !c <> 0.0 then begin
        idx.(!out) <- j;
        coef.(!out) <- !c;
        incr out
      end
    done;
    !out - pos
  end

let pack idx coef =
  let len = Array.length idx in
  if Array.length coef <> len then invalid_arg "Csc.pack: length mismatch";
  let kept = pack_into idx coef 0 len in
  if kept = len then { idx; coef }
  else { idx = Array.sub idx 0 kept; coef = Array.sub coef 0 kept }

let of_csr ~m ~n rowptr colind rval =
  if Array.length rowptr <> m + 1 || rowptr.(0) <> 0 then
    invalid_arg "Csc.of_csr: row pointers do not match the row count";
  let nnz = rowptr.(m) in
  if Array.length colind < nnz || Array.length rval < nnz then
    invalid_arg "Csc.of_csr: entry arrays shorter than the row pointers";
  (* Check every row, counting its entries per column. *)
  let colptr = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let p0 = rowptr.(i) and p1 = rowptr.(i + 1) in
    if p1 < p0 || not (is_packed colind rval p0 (p1 - p0)) then
      invalid_arg "Csc.of_csr: row is not packed";
    if p1 > p0 && (colind.(p0) < 0 || colind.(p1 - 1) >= n) then
      invalid_arg "Csc.of_csr: column index out of range";
    for p = p0 to p1 - 1 do
      colptr.(colind.(p) + 1) <- colptr.(colind.(p) + 1) + 1
    done
  done;
  for j = 1 to n do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  (* Rows scatter in order, so each column lists its rows ascending. *)
  let rowind = Array.make nnz 0 and cval = Array.make nnz 0.0 in
  let next = Array.sub colptr 0 n in
  for i = 0 to m - 1 do
    for p = rowptr.(i) to rowptr.(i + 1) - 1 do
      let j = colind.(p) in
      rowind.(next.(j)) <- i;
      cval.(next.(j)) <- rval.(p);
      next.(j) <- next.(j) + 1
    done
  done;
  { m; n; colptr; rowind; cval; rowptr; colind; rval }

let nnz a = a.colptr.(a.n)

let col_iter a j f =
  for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    f a.rowind.(p) a.cval.(p)
  done

let row_iter a i f =
  for p = a.rowptr.(i) to a.rowptr.(i + 1) - 1 do
    f a.colind.(p) a.rval.(p)
  done

let col_dot a j y =
  let acc = ref 0.0 in
  for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    acc := !acc +. (a.cval.(p) *. y.(a.rowind.(p)))
  done;
  !acc
