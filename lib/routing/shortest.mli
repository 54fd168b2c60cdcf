(** Shortest-path machinery over the switch graph (unit edge weights). *)

val distances : Topo.Net.t -> int -> int array
(** [distances net src] is BFS hop distance from switch [src] to every
    switch; [max_int] marks unreachable switches. *)

val random_shortest_path : Prng.t -> Topo.Net.t -> src:int -> dst:int -> int list option
(** One shortest switch path from [src] to [dst], each next hop drawn
    uniformly among the neighbors that decrease the distance to [dst]
    (random shortest-path routing, the paper's routing-module stand-in).
    [None] when unreachable; [Some [src]] when [src = dst]. *)

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

val all_shortest_paths : ?limit:int -> Topo.Net.t -> src:int -> dst:int -> int list list
(** Every shortest path (ECMP set), cut off at [limit] paths
    (default 1024). *)

val count_shortest_paths : Topo.Net.t -> src:int -> dst:int -> int
(** Number of distinct shortest paths (DAG path count; saturates at
    [max_int]). *)
