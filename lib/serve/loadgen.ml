type weights = {
  connect : int;
  flow : int;
  update : int;
  disconnect : int;
  chaos : int;
}

let default_weights = { connect = 3; flow = 6; update = 3; disconnect = 1; chaos = 1 }

type t = {
  prng : Prng.t;
  weights : weights;
  tenants : int;
  flood_bias : int;
}

(* The tenant that [flood_bias] favours. *)
let flood_tenant = 0

let make ?(weights = default_weights) ?(tenants = 8) ?(flood_bias = 2) ~seed
    () =
  {
    prng = Prng.create ((seed * 0x5851) + 0x2F);
    weights;
    tenants = max 1 tenants;
    flood_bias = max 0 flood_bias;
  }

let next t =
  let tenant =
    if t.flood_bias > 0 && Prng.int t.prng (t.flood_bias + 1) > 0 then
      flood_tenant
    else Prng.int t.prng t.tenants
  in
  let w = t.weights in
  let total = w.connect + w.flow + w.update + w.disconnect + w.chaos in
  let roll = Prng.int t.prng (max 1 total) in
  let op =
    if roll < w.connect then Wire.Connect { rules = 2 + Prng.int t.prng 3 }
    else if roll < w.connect + w.flow then Wire.Flow
    else if roll < w.connect + w.flow + w.update then
      Wire.Update { rules = 2 + Prng.int t.prng 3 }
    else if roll < w.connect + w.flow + w.update + w.disconnect then
      Wire.Disconnect
    else
      Wire.Chaos
        (match Prng.int t.prng 3 with
        | 0 -> Wire.Kill_switch
        | 1 -> Wire.Cut_link
        | _ -> Wire.Shrink_capacity)
  in
  Wire.Submit { tenant; op }
