type action = Permit | Drop

type t = { field : Ternary.Field.t; action : action; priority : int }

let make ~field ~action ~priority = { field; action; priority }

let action_equal (a : action) b = a = b

let equal a b =
  Ternary.Field.equal a.field b.field
  && action_equal a.action b.action
  && a.priority = b.priority

let is_drop r = r.action = Drop

let is_permit r = r.action = Permit

let overlaps a b = Ternary.Field.overlaps a.field b.field

let matches r p = Ternary.Field.matches r.field p

let compare_priority_desc a b = Stdlib.compare b.priority a.priority

let pp_action fmt = function
  | Permit -> Format.pp_print_string fmt "PERMIT"
  | Drop -> Format.pp_print_string fmt "DROP"

let pp fmt r =
  Format.fprintf fmt "@[<h>[%d] %a %a@]" r.priority pp_action r.action
    Ternary.Field.pp r.field
