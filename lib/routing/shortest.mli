(** Shortest-path machinery over the switch graph (unit edge weights).

    Every path is a walk down a BFS distance row toward its destination
    switch.  A row takes no random draws, so a caller routing many paths
    ({!Table.random}) computes one row per destination switch and hands
    it to {!random_walk}; the per-pair functions compute their own row
    and draw the same paths. *)

val distances : Topo.Net.t -> int -> int array
(** [distances net src] is BFS hop distance from switch [src] to every
    switch; [max_int] marks unreachable switches. *)

val random_walk :
  Prng.t -> Topo.Net.t -> int array -> src:int -> int list option
(** [random_walk g net dist ~src] is one shortest switch path from [src]
    to the destination of the row [dist] ([distances net dst]), each
    next hop drawn uniformly among the neighbors that decrease the
    distance (random shortest-path routing, the paper's routing-module
    stand-in).  [None] when unreachable; [Some [src]] when [src] is the
    destination. *)

val random_shortest_path : Prng.t -> Topo.Net.t -> src:int -> dst:int -> int list option
(** {!random_walk} from [src] on the row of [dst], computed for this
    one call; it draws exactly what {!random_walk} draws. *)

val random_path :
  ?flow:Ternary.Field.t ->
  Prng.t ->
  Topo.Net.t ->
  ingress:int ->
  egress:int ->
  Path.t option
(** {!random_shortest_path} between the two hosts' attachment switches,
    as a routed path carrying [flow] (default [Field.any]); [None] when
    unreachable. *)
