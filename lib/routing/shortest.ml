(* Sets each unseen switch of [vs] at distance [d], queued from
   [queue.(tail)] on; returns the new tail. *)
let rec visit dist queue tail d = function
  | [] -> tail
  | v :: vs ->
    if dist.(v) = max_int then begin
      dist.(v) <- d;
      queue.(tail) <- v;
      visit dist queue (tail + 1) d vs
    end
    else visit dist queue tail d vs

(* Breadth first from [src]; each switch enters [queue] once. *)
let distances net src =
  let n = Topo.Net.num_switches net in
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    tail := visit dist queue !tail (dist.(u) + 1) (Topo.Net.neighbors net u)
  done;
  dist

let downhill net dist u =
  List.filter (fun v -> dist.(v) < dist.(u) && dist.(v) <> max_int)
    (Topo.Net.neighbors net u)

(* A row's destination is its one switch at distance 0. *)
let random_walk g net dist ~src =
  if dist.(src) = max_int then None
  else
    let rec walk u acc =
      if dist.(u) = 0 then List.rev (u :: acc)
      else walk (Prng.choose_list g (downhill net dist u)) (u :: acc)
    in
    Some (walk src [])

let random_shortest_path g net ~src ~dst =
  random_walk g net (distances net dst) ~src

let random_path ?flow g net ~ingress ~egress =
  Option.map
    (fun switches -> Path.make ?flow ~ingress ~egress ~switches ())
    (random_shortest_path g net ~src:(Topo.Net.host_attach net ingress)
       ~dst:(Topo.Net.host_attach net egress))
