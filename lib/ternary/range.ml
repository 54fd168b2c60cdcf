type t = { lo : int; hi : int }

let bits = 16

let max_value = (1 lsl bits) - 1

let make lo hi =
  if lo > hi then invalid_arg "Range.make: lo > hi";
  if lo < 0 || hi > max_value then invalid_arg "Range.make: bound outside port space";
  { lo; hi }

let full = { lo = 0; hi = max_value }

let point v = make v v

let lo t = t.lo

let hi t = t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

let compare a b =
  let c = Stdlib.compare a.lo b.lo in
  if c <> 0 then c else Stdlib.compare a.hi b.hi

let is_full t = t.lo = 0 && t.hi = max_value

let inter a b =
  if a.lo <= b.hi && b.lo <= a.hi then Some { lo = max a.lo b.lo; hi = min a.hi b.hi } else None

(* Greedy prefix cover: repeatedly take the largest aligned power-of-two
   block starting at [lo] that does not overshoot [hi]. *)
let to_prefixes t =
  let rec go lo acc =
    if lo > t.hi then List.rev acc
    else
      let max_align = if lo = 0 then bits else
        let rec tz v n = if v land 1 = 1 then n else tz (v lsr 1) (n + 1) in
        tz lo 0
      in
      let rec fit k =
        (* Largest k <= max_align with lo + 2^k - 1 <= hi. *)
        if k > 0 && lo + (1 lsl k) - 1 > t.hi then fit (k - 1) else k
      in
      let k = fit max_align in
      go (lo + (1 lsl k)) ((lo, bits - k) :: acc)
  in
  go t.lo []

let to_tbvs t =
  List.map (fun (v, len) -> Tbv.prefix ~width:bits ~value:v ~len) (to_prefixes t)

let random_member g t = Prng.int_in g t.lo t.hi

let pp fmt t =
  if is_full t then Format.pp_print_string fmt "*"
  else if t.lo = t.hi then Format.pp_print_int fmt t.lo
  else Format.fprintf fmt "[%d,%d]" t.lo t.hi
