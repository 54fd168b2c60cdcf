type outcome = Ok | Fail | Timeout

type t = {
  prng : Prng.t option;  (* None = faultless plan, no draws consumed *)
  fail_rate : float;
  timeout_rate : float;
  mutable forced_fails : int;
  mutable dead : int list;
}

let faultless () =
  { prng = None; fail_rate = 0.0; timeout_rate = 0.0; forced_fails = 0; dead = [] }

let make ?(fail_rate = 0.0) ?(timeout_rate = 0.0) ~seed () =
  if fail_rate < 0.0 || timeout_rate < 0.0 || fail_rate +. timeout_rate > 1.0
  then invalid_arg "Fault_plan.make: rates must be >= 0 and sum to <= 1";
  {
    prng = Some (Prng.create seed);
    fail_rate;
    timeout_rate;
    forced_fails = 0;
    dead = [];
  }

let fail_next t n = t.forced_fails <- t.forced_fails + n

let mark_dead t k =
  if not (List.mem k t.dead) then t.dead <- k :: t.dead

let is_dead t k = List.mem k t.dead

let draw t ~switch =
  if is_dead t switch then Fail
  else if t.forced_fails > 0 then begin
    t.forced_fails <- t.forced_fails - 1;
    Fail
  end
  else
    match t.prng with
    | None -> Ok
    | Some g ->
      let u = Prng.float g 1.0 in
      if u < t.fail_rate then Fail
      else if u < t.fail_rate +. t.timeout_rate then Timeout
      else Ok

let jitter t =
  match t.prng with None -> 1.0 | Some g -> 0.5 +. Prng.float g 1.0
