(** k-ary Fat-Tree construction (Al-Fares, Loukissas & Vahdat, SIGCOMM
    2008) — the evaluation topology of the paper.

    For an even port count [k], the Fat-Tree has [(k/2)^2] core switches,
    [k] pods each with [k/2] aggregation and [k/2] edge switches
    ([5k^2/4] switches total) and [k/2] hosts per edge switch ([k^3/4]
    hosts).  Every edge switch links to every aggregation switch of its
    pod; aggregation switch [a] of every pod links to the [k/2] core
    switches of core-row [a]. *)

val make : int -> Net.t
(** [make k]; raises [Invalid_argument] when [k] is odd or [< 2]. *)

val num_switches : int -> int
(** [5k^2/4], without building the network. *)

val num_hosts : int -> int
(** [k^3/4]. *)
