type t = {
  ingress : int;
  egress : int;
  switches : int array;
  flow : Ternary.Field.t;
}

let make ?(flow = Ternary.Field.any) ~ingress ~egress ~switches () =
  if switches = [] then invalid_arg "Path.make: empty switch list";
  { ingress; egress; switches = Array.of_list switches; flow }

let position p s =
  let rec go i =
    if i >= Array.length p.switches then None
    else if p.switches.(i) = s then Some i
    else go (i + 1)
  in
  go 0

(* A scan with no option or closure: the greedy's merged stage and the
   cache call it once per path. *)
let mem p s =
  let sw = p.switches in
  let i = ref 0 in
  while !i < Array.length sw && sw.(!i) <> s do
    incr i
  done;
  !i < Array.length sw
