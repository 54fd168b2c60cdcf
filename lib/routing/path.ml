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

let mem p s = position p s <> None
