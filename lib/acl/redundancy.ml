type report = { shadowed : int; downward : int; default_permit : int }

(* [rules] is in descending priority order throughout; [before] are the
   strictly higher-priority rules, [after] the strictly lower ones. *)

let is_shadowed before (r : Rule.t) =
  List.exists (fun (h : Rule.t) -> Ternary.Field.subsumes h.field r.field) before

let is_downward_redundant (r : Rule.t) after =
  let rec scan = function
    | [] -> false
    | (l : Rule.t) :: rest ->
      if Ternary.Field.subsumes l.field r.field then
        Rule.action_equal l.action r.action
      else if Rule.overlaps l r && not (Rule.action_equal l.action r.action)
      then false
      else scan rest
  in
  scan after

let is_default_redundant (r : Rule.t) after =
  Rule.is_permit r
  && not (List.exists (fun l -> Rule.is_drop l && Rule.overlaps l r) after)

let one_pass rules report =
  let removed_any = ref false in
  let rec go before acc report = function
    | [] -> (List.rev acc, report)
    | r :: after ->
      if is_shadowed before r then begin
        removed_any := true;
        go before acc { report with shadowed = report.shadowed + 1 } after
      end
      else if is_downward_redundant r after then begin
        removed_any := true;
        go before acc { report with downward = report.downward + 1 } after
      end
      else if is_default_redundant r after then begin
        removed_any := true;
        go before acc
          { report with default_permit = report.default_permit + 1 }
          after
      end
      else go (r :: before) (r :: acc) report after
  in
  let rules, report = go [] [] report rules in
  (rules, report, !removed_any)

let remove policy =
  let rec fixpoint rules report =
    let rules, report, again = one_pass rules report in
    if again then fixpoint rules report else (rules, report)
  in
  let rules, report =
    fixpoint (Policy.rules policy)
      { shadowed = 0; downward = 0; default_permit = 0 }
  in
  (Policy.of_rules rules, report)
