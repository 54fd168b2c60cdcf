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

let is_packed idx coef =
  let ok = ref true in
  for k = 0 to Array.length idx - 1 do
    if coef.(k) = 0.0 || (k > 0 && idx.(k - 1) >= idx.(k)) then ok := false
  done;
  !ok

let is_sorted idx =
  let ok = ref true in
  for k = 1 to Array.length idx - 1 do
    if idx.(k - 1) > idx.(k) then ok := false
  done;
  !ok

(* Short rows (the common case) are sorted in place by insertion, which
   is stable; long ones through a stably sorted permutation. *)
let sort_terms idx coef =
  let len = Array.length idx in
  if len <= 32 then begin
    for k = 1 to len - 1 do
      let j = idx.(k) and c = coef.(k) in
      let p = ref k in
      while !p > 0 && idx.(!p - 1) > j do
        idx.(!p) <- idx.(!p - 1);
        coef.(!p) <- coef.(!p - 1);
        decr p
      done;
      idx.(!p) <- j;
      coef.(!p) <- c
    done;
    (idx, coef)
  end
  else begin
    let perm = Array.init len Fun.id in
    Array.stable_sort (fun a b -> compare (idx.(a) : int) idx.(b)) perm;
    (Array.map (fun k -> idx.(k)) perm, Array.map (fun k -> coef.(k)) perm)
  end

let pack idx coef =
  let len = Array.length idx in
  if Array.length coef <> len then invalid_arg "Csc.pack: length mismatch";
  if is_packed idx coef then { idx; coef }
  else begin
    let idx, coef = if is_sorted idx then (idx, coef) else sort_terms idx coef in
    (* Sum runs of one index left to right, then drop zero sums. *)
    let out = ref 0 and k = ref 0 in
    while !k < len do
      let j = idx.(!k) in
      let c = ref coef.(!k) in
      incr k;
      while !k < len && idx.(!k) = j do
        c := !c +. coef.(!k);
        incr k
      done;
      if !c <> 0.0 then begin
        idx.(!out) <- j;
        coef.(!out) <- !c;
        incr out
      end
    done;
    if !out = len then { idx; coef }
    else { idx = Array.sub idx 0 !out; coef = Array.sub coef 0 !out }
  end

let of_rows ?(units = 0) ~m ~n rows =
  if Array.length rows <> m then invalid_arg "Csc.of_rows: row count mismatch";
  let ncols = n + (units * m) in
  (* Check and size every row, counting its entries per column; each
     unit column holds exactly one entry. *)
  let rowptr = Array.make (m + 1) 0 in
  let colptr = Array.make (ncols + 1) 0 in
  Array.iteri
    (fun i r ->
      let len = Array.length r.idx in
      if Array.length r.coef <> len || not (is_packed r.idx r.coef) then
        invalid_arg "Csc.of_rows: row is not packed";
      if len > 0 && (r.idx.(0) < 0 || r.idx.(len - 1) >= n) then
        invalid_arg "Csc.of_rows: column index out of range";
      rowptr.(i + 1) <- rowptr.(i) + len + units;
      for p = 0 to len - 1 do
        colptr.(r.idx.(p) + 1) <- colptr.(r.idx.(p) + 1) + 1
      done)
    rows;
  for j = 1 to n do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  for j = n + 1 to ncols do
    colptr.(j) <- colptr.(j - 1) + 1
  done;
  (* One scatter per row: its packed terms, then its unit entries,
     whose columns exceed every term's, into the CSR; the same entries
     into the CSC, where rows arrive in order. *)
  let nnz = rowptr.(m) in
  let colind = Array.make nnz 0 and rval = Array.make nnz 1.0 in
  let rowind = Array.make nnz 0 and cval = Array.make nnz 1.0 in
  let next = Array.sub colptr 0 n in
  Array.iteri
    (fun i r ->
      let len = Array.length r.idx and p0 = rowptr.(i) in
      Array.blit r.idx 0 colind p0 len;
      Array.blit r.coef 0 rval p0 len;
      for p = 0 to len - 1 do
        let j = r.idx.(p) in
        rowind.(next.(j)) <- i;
        cval.(next.(j)) <- r.coef.(p);
        next.(j) <- next.(j) + 1
      done;
      for u = 0 to units - 1 do
        let j = n + (u * m) + i in
        colind.(p0 + len + u) <- j;
        rowind.(colptr.(j)) <- i
      done)
    rows;
  { m; n = ncols; colptr; rowind; cval; rowptr; colind; rval }

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
