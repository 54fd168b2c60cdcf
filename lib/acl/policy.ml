type t = { rules : Rule.t list (* strictly descending priority *) }

let check_distinct rules =
  let sorted = List.sort Rule.compare_priority_desc rules in
  let rec dup = function
    | a :: (b :: _ as rest) ->
      if a.Rule.priority = b.Rule.priority then
        invalid_arg "Policy.of_rules: duplicate priority"
      else dup rest
    | [ _ ] | [] -> ()
  in
  dup sorted;
  sorted

let of_rules rules = { rules = check_distinct rules }

let of_fields specs =
  let n = List.length specs in
  let rules =
    List.mapi
      (fun i (field, action) -> Rule.make ~field ~action ~priority:(n - i))
      specs
  in
  { rules }

let rules t = t.rules

let size t = List.length t.rules

let drops t = List.filter Rule.is_drop t.rules

let first_match t p = List.find_opt (fun r -> Rule.matches r p) t.rules

let evaluate t p =
  match first_match t p with Some r -> r.Rule.action | None -> Rule.Permit

let max_priority t =
  match t.rules with [] -> 0 | r :: _ -> r.Rule.priority

let add_rule t r = of_rules (r :: t.rules)

let remove_rule t ~priority =
  { rules = List.filter (fun r -> r.Rule.priority <> priority) t.rules }

(* Deterministic seed: witness packets must be stable across runs so test
   failures are reproducible.  Each packet is drawn when the sequence
   first reaches it, so a caller keeping a prefix pays for that prefix
   only; memoized, so every traversal yields the same packets. *)
let witness_seq t =
  Seq.memoize (fun () ->
      let g = Prng.create 0x5EED in
      let rules = List.to_seq t.rules in
      let singles =
        Seq.map (fun r -> Ternary.Field.random_packet g r.Rule.field) rules
      in
      let pairs =
        Seq.concat_map
          (fun r1 ->
            Seq.filter_map
              (fun r2 ->
                if r1 == r2 then None
                else
                  Option.map
                    (Ternary.Field.random_packet g)
                    (Ternary.Field.inter r1.Rule.field r2.Rule.field))
              rules)
          rules
      in
      Seq.append singles pairs ())

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Rule.pp)
    t.rules
