open Cdcl.Dimacs

let test_parse_basic () =
  let cnf =
    parse "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
  in
  Alcotest.(check int) "vars" 3 cnf.num_vars;
  Alcotest.(check (list (list int))) "clauses" [ [ 1; -2 ]; [ 2; 3 ] ] cnf.clauses

let test_multiline_clause () =
  let cnf = parse "p cnf 4 1\n1 2\n3 -4 0\n" in
  Alcotest.(check (list (list int))) "spanning clause" [ [ 1; 2; 3; -4 ] ]
    cnf.clauses

let test_roundtrip () =
  let g = Prng.create 12 in
  for _ = 1 to 50 do
    let num_vars = Prng.int_in g 1 10 in
    let clauses =
      List.init (Prng.int_in g 0 12) (fun _ ->
          List.init (Prng.int_in g 1 4) (fun _ ->
              let v = Prng.int_in g 1 num_vars in
              if Prng.bool g then v else -v))
    in
    let cnf = { num_vars; clauses } in
    let cnf' = parse (print cnf) in
    Alcotest.(check int) "vars" cnf.num_vars cnf'.num_vars;
    Alcotest.(check (list (list int))) "clauses" cnf.clauses cnf'.clauses
  done

let test_solve_text () =
  (match solve_text "p cnf 2 2\n1 2 0\n-1 0\n" with
  | Cdcl.Sat model -> Alcotest.(check bool) "var 2 true" true model.(1)
  | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r);
  match solve_text "p cnf 1 2\n1 0\n-1 0\n" with
  | Cdcl.Unsat -> ()
  | r -> Alcotest.failf "expected unsat, got %a" Cdcl.pp_result r

let test_errors () =
  let expect_failure name text =
    match parse text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected failure" name
  in
  expect_failure "no header" "1 2 0\n";
  expect_failure "unterminated" "p cnf 2 1\n1 2\n";
  expect_failure "out of range" "p cnf 1 1\n2 0\n";
  expect_failure "garbage" "p cnf 1 1\nx 0\n"

let test_export_placement_encoding () =
  (* The placement SAT encoding's clause part can be shipped as DIMACS
     (capacities use native cardinality and are not exported here). *)
  let g = Prng.create 3 in
  let inst = Util.random_instance g in
  let layout = Placement.Layout.build inst in
  let clauses = ref [] in
  Placement.Layout.iter_covers layout (fun off js ->
      clauses :=
        Array.to_list (Array.map (fun j -> off + j + 1) js) :: !clauses);
  Placement.Layout.iter_implications layout (fun d p ->
      clauses := [ -(d + 1); p + 1 ] :: !clauses);
  let clauses = List.rev !clauses in
  let cnf = { num_vars = Placement.Layout.num_vars layout; clauses } in
  let printed = print cnf in
  let reparsed = parse printed in
  Alcotest.(check int) "clauses survive" (List.length clauses)
    (List.length reparsed.clauses)

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "multiline clause" `Quick test_multiline_clause;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "solve text" `Quick test_solve_text;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "export placement encoding" `Quick test_export_placement_encoding;
  ]
