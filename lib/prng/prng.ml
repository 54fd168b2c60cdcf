type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g = { state = bits64 g }

(* Rejection sampling over the top 62 bits keeps the result exactly
   uniform for any bound that fits in an OCaml [int]. *)
let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  if n land (n - 1) = 0 then mask land (n - 1)
  else
    let rec go v = if v + (n - 1) - (v mod n) < 0 then go (Int64.to_int (Int64.shift_right_logical (bits64 g) 2)) else v mod n in
    go mask

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty interval";
  lo + int g (hi - lo + 1)

let float g x =
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  x *. (float_of_int bits /. 9007199254740992.0)

let bool g = Int64.logand (bits64 g) 1L = 1L

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let choose_list g l =
  match l with
  | [] -> invalid_arg "Prng.choose_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
