(** Network topologies: an undirected switch graph plus host attachments.

    Switches are numbered [0 .. num_switches - 1]; hosts are numbered
    [0 .. num_hosts - 1] and each attaches to exactly one switch.  Hosts are
    the network entry/exit points — the paper's ingress/egress ports [l_i]
    are in one-to-one correspondence with hosts. *)

type kind = Core | Aggregation | Edge | Plain
(** Role of a switch; Fat-Trees label their three layers, ad-hoc
    topologies use [Plain]. *)

type t

val create :
  ?kinds:kind array ->
  num_switches:int ->
  edges:(int * int) list ->
  host_attach:int array ->
  unit ->
  t
(** [create ~num_switches ~edges ~host_attach ()] builds a topology;
    [host_attach.(h)] is the switch host [h] plugs into.  Self-loops,
    duplicate edges and out-of-range endpoints raise [Invalid_argument]. *)

val num_switches : t -> int
val num_hosts : t -> int

val neighbors : t -> int -> int list
(** Adjacent switches, ascending. *)

val edges : t -> (int * int) list
(** Each undirected edge once, with [fst < snd]. *)

val host_attach : t -> int -> int
(** Attachment switch of a host. *)

val kind : t -> int -> kind

val switches_of_kind : t -> kind -> int list

val host_prefix : int -> Ternary.Prefix.t
(** The /24 subnet [10.x.y.0] a host [h] owns, with [x.y = h]: hosts
    live in [10.0.0.0/8], which gives experiments a realistic,
    collision-free address plan. *)

val pp : Format.formatter -> t -> unit
