type config = {
  flows : int;
  packets : int;
  alpha : float;
  drift : float;
  seed : int;
}

type epoch = { index : int; counts : int array }

type t = {
  cfg : config;
  g : Prng.t;  (* the dedicated traffic stream; nothing else draws here *)
  perm : int array;  (* perm.(r) = flow id currently at popularity rank r *)
  weights : float array;  (* rank weights (r+1)^-alpha, fixed *)
  mutable index : int;  (* next epoch to emit *)
}

let validate cfg =
  if cfg.flows < 1 then invalid_arg "Zipf.create: flows < 1";
  if cfg.packets < 0 then invalid_arg "Zipf.create: packets < 0";
  if not (Float.is_finite cfg.alpha && cfg.alpha >= 0.0) then
    invalid_arg "Zipf.create: alpha < 0 or not finite";
  if not (Float.is_finite cfg.drift && cfg.drift >= 0.0) then
    invalid_arg "Zipf.create: drift < 0 or not finite"

let create cfg =
  validate cfg;
  let g = Prng.create (cfg.seed lxor 0x2545F4914F6CDD1) in
  let perm = Array.init cfg.flows (fun i -> i) in
  Prng.shuffle g perm;
  let weights =
    Array.init cfg.flows (fun r -> Float.pow (float_of_int (r + 1)) (-.cfg.alpha))
  in
  { cfg; g; perm; weights; index = 0 }

let config t = t.cfg

(* Largest-remainder rounding of [packets] onto the rank weights: exact
   integer mass, so "drift preserves total traffic" is an identity, not
   an approximation. *)
let counts_of_perm t =
  let n = t.cfg.flows in
  let total = t.cfg.packets in
  let w_sum = Array.fold_left ( +. ) 0.0 t.weights in
  let counts = Array.make n 0 in
  let rem = Array.make n (0.0, 0) in
  let assigned = ref 0 in
  for r = 0 to n - 1 do
    let exact = float_of_int total *. t.weights.(r) /. w_sum in
    let base = int_of_float (Float.floor exact) in
    counts.(t.perm.(r)) <- base;
    assigned := !assigned + base;
    rem.(r) <- (exact -. float_of_int base, r)
  done;
  (* Leftover units go to the largest fractional remainders; ties break
     toward the more popular rank so the result is order-independent. *)
  Array.sort
    (fun (a, ra) (b, rb) -> if a = b then compare ra rb else compare b a)
    rem;
  let leftover = total - !assigned in
  for i = 0 to leftover - 1 do
    let _, r = rem.(i) in
    counts.(t.perm.(r)) <- counts.(t.perm.(r)) + 1
  done;
  counts

let swaps_per_epoch cfg =
  int_of_float (Float.round (cfg.drift *. float_of_int cfg.flows))

let advance_perm t =
  let n = t.cfg.flows in
  if n > 1 then
    for _ = 1 to swaps_per_epoch t.cfg do
      let r = Prng.int t.g (n - 1) in
      let a = t.perm.(r) in
      t.perm.(r) <- t.perm.(r + 1);
      t.perm.(r + 1) <- a
    done

let next t =
  let e = { index = t.index; counts = counts_of_perm t } in
  t.index <- t.index + 1;
  advance_perm t;
  e

let epoch cfg i =
  let t = create cfg in
  (* Epoch i's permutation depends only on the i * swaps drift draws
     before it, so skipping is a pure permutation replay. *)
  for _ = 1 to i do
    advance_perm t
  done;
  t.index <- i;
  next t

(* The probe stream is independent of the drift stream and of the
   workload's routing/policy streams, and a pure function of (seed,
   epoch index), so a replayed epoch redraws the identical probes. *)
let walk ~seed ~probes (e : epoch) ~field f =
  let g = Prng.create (((seed * 0x100000001B3) + e.index) lxor 0x243F6A8885A308D) in
  Array.iteri
    (fun flow c ->
      if c > 0 then begin
        let n = min c probes in
        let q = c / n and r = c mod n in
        for k = 0 to n - 1 do
          let pkt = Ternary.Field.random_packet g (field flow k) in
          f flow pkt (if k < r then q + 1 else q)
        done
      end)
    e.counts
