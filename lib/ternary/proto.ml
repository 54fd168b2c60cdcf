type t = Any | Eq of int

let tcp = Eq 6
let udp = Eq 17
let icmp = Eq 1

let equal a b =
  match (a, b) with
  | Any, Any -> true
  | Eq x, Eq y -> x = y
  | Any, Eq _ | Eq _, Any -> false

let compare = Stdlib.compare

let inter a b =
  match (a, b) with
  | Any, x | x, Any -> Some x
  | Eq x, Eq y -> if x = y then Some a else None

let to_tbv = function
  | Any -> Tbv.all_star 8
  | Eq x -> Tbv.exact ~width:8 x

let random_member g = function
  | Any -> Prng.int g 256
  | Eq x -> x

let pp fmt = function
  | Any -> Format.pp_print_string fmt "*"
  | Eq 6 -> Format.pp_print_string fmt "tcp"
  | Eq 17 -> Format.pp_print_string fmt "udp"
  | Eq 1 -> Format.pp_print_string fmt "icmp"
  | Eq x -> Format.pp_print_int fmt x
