(* Root presolve for 0-1 models: bound propagation, activity-redundant
   and duplicate row removal, and safe column fixing, producing a smaller
   model plus the bookkeeping to map solutions back.  Shrinking the
   matrix before the first factorization cuts both the LP work per node
   and the branching space; every reduction below preserves at least one
   optimal solution of the original model. *)

let eps = 1e-9

type t = {
  reduced : Model.t;
  keep : int array;  (* reduced index -> original index *)
  fixed : int array;  (* original index -> -1 free / 0 / 1 *)
  obj_offset : float;
  orig_vars : int;
  rows_dropped : int;
  vars_fixed : int;
}

type outcome = Reduced of t | Infeasible

exception Infeas

(* A working row: original sense and kind, the model's packed terms
   (shared until a fixing first drops a term), rhs already adjusted for
   fixed variables. *)
type wrow = {
  mutable coefs : float array;
  mutable vars : int array;
  mutable rhs : float;
  sense : Model.sense;
  kind : Model.kind;
  mutable live : bool;
}

(* Edits to the working rows within one [reduce] call, so that the
   duplicate pass can skip a re-run on rows it has already searched.
   [edits] counts every row rewrite and kill (a duplicate's kill also
   stands for the rhs it tightens); [dups_clean] holds its value after
   the last duplicate pass that changed nothing, else -1. *)
type passes = { mutable edits : int; mutable dups_clean : int }

let kill st r =
  r.live <- false;
  st.edits <- st.edits + 1

(* Substitute current fixings into [r], dropping fixed terms into the
   rhs.  Returns false when the row became empty (after checking that
   the empty row is satisfiable). *)
let substitute st fixed r =
  let n_free = ref 0 in
  for i = 0 to Array.length r.vars - 1 do
    if fixed.(r.vars.(i)) = -1 then incr n_free
  done;
  if !n_free <> Array.length r.vars then begin
    st.edits <- st.edits + 1;
    let coefs = Array.make !n_free 0.0 and vars = Array.make !n_free 0 in
    let p = ref 0 in
    for i = 0 to Array.length r.vars - 1 do
      let v = r.vars.(i) and c = r.coefs.(i) in
      match fixed.(v) with
      | -1 ->
        coefs.(!p) <- c;
        vars.(!p) <- v;
        incr p
      | f -> if f = 1 then r.rhs <- r.rhs -. c
    done;
    r.coefs <- coefs;
    r.vars <- vars
  end;
  if Array.length r.vars = 0 then begin
    let sat =
      match r.sense with
      | Model.Le -> r.rhs >= -.eps
      | Model.Ge -> r.rhs <= eps
      | Model.Eq -> Float.abs r.rhs <= eps
    in
    if not sat then raise Infeas;
    false
  end
  else true

let activity_bounds r =
  let lo = ref 0.0 and hi = ref 0.0 in
  Array.iter
    (fun c -> if c > 0.0 then hi := !hi +. c else lo := !lo +. c)
    r.coefs;
  (!lo, !hi)

(* Propagate the <=-oriented view [sign * (coefs . x) <= sign * rhs] of
   a live row ([sign] is 1.0 or -1.0, so a >= row needs no negated
   copy); returns true when it fixed something. *)
let propagate_le fixed sign coefs vars rhs =
  let rhs = sign *. rhs in
  let minact = ref 0.0 in
  for i = 0 to Array.length coefs - 1 do
    let c = sign *. coefs.(i) in
    match fixed.(vars.(i)) with
    | -1 -> if c < 0.0 then minact := !minact +. c
    | 1 -> minact := !minact +. c
    | _ -> ()
  done;
  if !minact > rhs +. eps then raise Infeas;
  let hit = ref false in
  for i = 0 to Array.length coefs - 1 do
    let v = vars.(i) in
    if fixed.(v) = -1 then begin
      let c = sign *. coefs.(i) in
      if c > 0.0 && !minact +. c > rhs +. eps then begin
        fixed.(v) <- 0;
        hit := true
      end
      else if c < 0.0 && !minact -. c > rhs +. eps then begin
        (* [c] is already in [minact]: a free negative term counts at
           its x = 1 value, which is the value it is fixed to. *)
        fixed.(v) <- 1;
        hit := true
      end
    end
  done;
  !hit

let propagate st fixed rows =
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun r ->
        if r.live then begin
          let prop sign =
            if propagate_le fixed sign r.coefs r.vars r.rhs then changed := true
          in
          (match r.sense with
          | Model.Le -> prop 1.0
          | Model.Ge -> prop (-1.0)
          | Model.Eq ->
            prop 1.0;
            prop (-1.0));
          if !changed && not (substitute st fixed r) then kill st r
        end)
      rows
  done

(* Rows keyed by sense and terms, hashing every variable (the
   polymorphic hash stops after a few), for duplicate detection. *)
module Dups = Hashtbl.Make (struct
  type t = wrow

  let equal a b =
    a.sense = b.sense && a.vars = b.vars && compare a.coefs b.coefs = 0

  let hash r =
    Array.fold_left (fun h v -> (h * 31) + v) (Hashtbl.hash r.sense) r.vars
    land max_int
end)

(* Exact duplicates: same sense and packed terms, tightest rhs wins. *)
let remove_duplicates st rows =
  let dup = Dups.create 256 in
  Array.iter
    (fun r ->
      if r.live then begin
        match Dups.find_opt dup r with
        | None -> Dups.add dup r r
        | Some first -> (
          kill st r;
          match r.sense with
          | Model.Le -> first.rhs <- Float.min first.rhs r.rhs
          | Model.Ge -> first.rhs <- Float.max first.rhs r.rhs
          | Model.Eq -> if Float.abs (first.rhs -. r.rhs) > eps then raise Infeas)
      end)
    rows

(* Row-level cleanup: substitution, activity-redundant rows and exact
   duplicates.  The duplicate pass is skipped when its last run changed
   nothing and no row has been edited since: on identical rows it would
   again change nothing. *)
let cleanup st fixed rows =
  Array.iter
    (fun r ->
      if r.live then begin
        if substitute st fixed r then begin
          let lo, hi = activity_bounds r in
          match r.sense with
          | Model.Le -> if hi <= r.rhs +. eps then kill st r
          | Model.Ge -> if lo >= r.rhs -. eps then kill st r
          | Model.Eq -> ()
        end
        else kill st r
      end)
    rows;
  if st.dups_clean <> st.edits then begin
    let before = st.edits in
    remove_duplicates st rows;
    if st.edits = before then st.dups_clean <- st.edits
  end

(* Column dominance: a variable with nonnegative cost whose only
   appearances are nonnegative coefficients in <=-rows can always be 0
   in some optimal solution; symmetrically a negative-cost variable
   whose appearances only help feasibility can always be 1. *)
let fix_dominated_columns fixed obj rows =
  let n = Array.length fixed in
  let bad0 = Array.make n false (* appearing where x=1 could be required *) in
  let bad1 = Array.make n false (* appearing where x=1 could hurt *) in
  Array.iter
    (fun r ->
      if r.live then
        Array.iteri
          (fun i c ->
            let v = r.vars.(i) in
            match r.sense with
            | Model.Eq ->
              bad0.(v) <- true;
              bad1.(v) <- true
            | Model.Le ->
              if c < 0.0 then bad0.(v) <- true;
              if c > 0.0 then bad1.(v) <- true
            | Model.Ge ->
              if c > 0.0 then bad0.(v) <- true;
              if c < 0.0 then bad1.(v) <- true)
          r.coefs)
    rows;
  let hit = ref false in
  for v = 0 to n - 1 do
    if fixed.(v) = -1 then
      if obj.(v) >= 0.0 && not bad0.(v) then begin
        fixed.(v) <- 0;
        hit := true
      end
      else if obj.(v) < 0.0 && not bad1.(v) then begin
        fixed.(v) <- 1;
        hit := true
      end
  done;
  !hit

let reduce (model : Model.t) =
  let n = Model.num_vars model in
  let fixed = Array.make n (-1) in
  let obj = Array.make n 0.0 in
  let { Simplex.Csc.idx = oidx; coef = ocoef } = Model.objective model in
  Array.iteri (fun k v -> obj.(v) <- ocoef.(k)) oidx;
  let rows =
    Array.map
      (fun (r : Model.row) ->
        {
          coefs = r.Model.terms.Simplex.Csc.coef;
          vars = r.Model.terms.Simplex.Csc.idx;
          rhs = r.Model.rhs;
          sense = r.Model.sense;
          kind = r.Model.kind;
          live = true;
        })
      (Model.rows model)
  in
  let total_rows = Array.length rows in
  let st = { edits = 0; dups_clean = -1 } in
  try
    propagate st fixed rows;
    cleanup st fixed rows;
    let rounds = ref 0 in
    while fix_dominated_columns fixed obj rows && !rounds < 3 do
      incr rounds;
      propagate st fixed rows;
      cleanup st fixed rows
    done;
    (* Assemble the reduced model. *)
    let map = Array.make n (-1) in
    let n_keep = ref 0 in
    for v = 0 to n - 1 do
      if fixed.(v) = -1 then begin
        map.(v) <- !n_keep;
        incr n_keep
      end
    done;
    let keep = Array.make !n_keep 0 in
    for v = 0 to n - 1 do
      if map.(v) >= 0 then keep.(map.(v)) <- v
    done;
    let reduced = Model.create () in
    let rvars = Array.init !n_keep (fun _ -> Model.binary reduced) in
    let live_rows = ref 0 in
    (* [map] is increasing on free variables, so a renumbered packed row
       is still packed and shares its coefficient array. *)
    Array.iter
      (fun r ->
        if r.live then begin
          incr live_rows;
          Model.add_row ~kind:r.kind reduced
            {
              Simplex.Csc.idx = Array.map (fun v -> map.(v)) r.vars;
              coef = r.coefs;
            }
            r.sense r.rhs
        end)
      rows;
    let offset = ref 0.0 in
    for v = 0 to n - 1 do
      if fixed.(v) = 1 then offset := !offset +. obj.(v)
    done;
    let oterms = ref [] in
    for r = !n_keep - 1 downto 0 do
      let c = obj.(keep.(r)) in
      if c <> 0.0 then oterms := (c, rvars.(r)) :: !oterms
    done;
    Model.set_objective reduced !oterms;
    Reduced
      {
        reduced;
        keep;
        fixed;
        obj_offset = !offset;
        orig_vars = n;
        rows_dropped = total_rows - !live_rows;
        vars_fixed = n - !n_keep;
      }
  with Infeas -> Infeasible

let restore t sol =
  if Array.length sol <> Array.length t.keep then
    invalid_arg "Presolve.restore: solution length mismatch";
  let out = Array.make t.orig_vars false in
  Array.iteri (fun r v -> out.(v) <- sol.(r)) t.keep;
  Array.iteri (fun v f -> if f = 1 then out.(v) <- true) t.fixed;
  out

let project t warm =
  if Array.length warm <> t.orig_vars then
    invalid_arg "Presolve.project: warm-start length mismatch";
  Array.map (fun v -> warm.(v)) t.keep
