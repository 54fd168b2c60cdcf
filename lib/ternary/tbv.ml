(* Packed representation: position [i] lives in word [i / word_bits] at bit
   [i mod word_bits].  [mask] has 1 where the position is cared for
   (Zero/One), [bits] holds the cared-for value.  Invariants: [bits] is 0
   wherever [mask] is 0, and both are 0 beyond [width]. *)

type t = { width : int; mask : int array; bits : int array }

type trit = Zero | One | Star

let word_bits = 32

let nwords width = (width + word_bits - 1) / word_bits

let width t = t.width

let all_star w =
  if w < 0 then invalid_arg "Tbv.all_star: negative width";
  { width = w; mask = Array.make (nwords w) 0; bits = Array.make (nwords w) 0 }

let check_pos t i =
  if i < 0 || i >= t.width then invalid_arg "Tbv: position out of bounds"

let get t i =
  check_pos t i;
  let w = i / word_bits and b = i mod word_bits in
  if t.mask.(w) land (1 lsl b) = 0 then Star
  else if t.bits.(w) land (1 lsl b) = 0 then Zero
  else One

let set t i v =
  check_pos t i;
  let w = i / word_bits and b = i mod word_bits in
  let mask = Array.copy t.mask and bits = Array.copy t.bits in
  (match v with
  | Star ->
    mask.(w) <- mask.(w) land lnot (1 lsl b);
    bits.(w) <- bits.(w) land lnot (1 lsl b)
  | Zero ->
    mask.(w) <- mask.(w) lor (1 lsl b);
    bits.(w) <- bits.(w) land lnot (1 lsl b)
  | One ->
    mask.(w) <- mask.(w) lor (1 lsl b);
    bits.(w) <- bits.(w) lor (1 lsl b));
  { t with mask; bits }

let check_same_width a b =
  if a.width <> b.width then invalid_arg "Tbv: width mismatch"

let is_disjoint a b =
  check_same_width a b;
  let conflict = ref false in
  for w = 0 to Array.length a.mask - 1 do
    if a.mask.(w) land b.mask.(w) land (a.bits.(w) lxor b.bits.(w)) <> 0 then
      conflict := true
  done;
  !conflict

let inter a b =
  if is_disjoint a b then None
  else
    let n = Array.length a.mask in
    let mask = Array.init n (fun w -> a.mask.(w) lor b.mask.(w)) in
    let bits = Array.init n (fun w -> a.bits.(w) lor b.bits.(w)) in
    Some { width = a.width; mask; bits }

let prefix ~width ~value ~len =
  if len < 0 || len > width then invalid_arg "Tbv.prefix: bad length";
  let t = ref (all_star width) in
  for i = 0 to len - 1 do
    (* Position [i] corresponds to bit [width - 1 - i] of [value]. *)
    let bit = (value lsr (width - 1 - i)) land 1 in
    t := set !t i (if bit = 1 then One else Zero)
  done;
  !t

let exact ~width v = prefix ~width ~value:v ~len:width

let concat a b =
  let t = ref (all_star (a.width + b.width)) in
  for i = 0 to a.width - 1 do
    t := set !t i (get a i)
  done;
  for i = 0 to b.width - 1 do
    t := set !t (a.width + i) (get b i)
  done;
  !t

let matches_int t v =
  if t.width > 62 then invalid_arg "Tbv.matches_int: width exceeds 62 bits";
  let ok = ref true in
  for i = 0 to t.width - 1 do
    let bit = (v lsr (t.width - 1 - i)) land 1 in
    (match get t i with
    | Star -> ()
    | Zero -> if bit <> 0 then ok := false
    | One -> if bit <> 1 then ok := false)
  done;
  !ok

let random g ~width ~star_prob =
  let t = ref (all_star width) in
  for i = 0 to width - 1 do
    if Prng.float g 1.0 >= star_prob then
      t := set !t i (if Prng.bool g then One else Zero)
  done;
  !t

let random_member g t =
  if t.width > 62 then invalid_arg "Tbv.random_member: width exceeds 62 bits";
  let v = ref 0 in
  for i = 0 to t.width - 1 do
    let bit =
      match get t i with
      | Zero -> 0
      | One -> 1
      | Star -> if Prng.bool g then 1 else 0
    in
    v := (!v lsl 1) lor bit
  done;
  !v
