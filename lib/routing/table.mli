(** A routing table: the set of routed paths, indexed by ingress host.

    This is the paper's routing-policy input [{P_i}]: for each ingress
    [l_i] a set of paths [p_{i,j}], with [S_i] the union of their switches.
    The table is produced by an external routing module; {!random} plays
    that role with seeded random shortest-path routing. *)

type t

val of_paths : Path.t list -> t

val paths : t -> Path.t list

val ingresses : t -> int list
(** Hosts with at least one originating path, ascending. *)

val paths_from : t -> int -> Path.t list
(** [P_i]. *)

val random :
  ?slice:bool ->
  Prng.t ->
  Topo.Net.t ->
  pairs:(int * int) list ->
  t
(** One random shortest path per [(ingress, egress)] host pair.  With
    [slice] (default false) each path's flow region is restricted to the
    egress host's /24 destination prefix, enabling path-sliced placement.
    Unreachable pairs raise [Invalid_argument] (they indicate a broken
    topology).

    The call computes one BFS distance row per destination switch, on
    first use, and draws every path toward that switch from it
    ({!Shortest.random_walk}); the paths and the draws are exactly those
    of one {!Shortest.random_path} per pair, in order. *)

val spray :
  ?slice:bool ->
  Prng.t ->
  Topo.Net.t ->
  ingresses:int list ->
  total_paths:int ->
  t
(** Distributes [total_paths] paths round-robin over the given ingress
    hosts, each toward a random distinct egress host, then routes them
    with {!random}.  This is how the experiments scale the path count
    [p] independently of topology. *)

val pp : Format.formatter -> t -> unit
