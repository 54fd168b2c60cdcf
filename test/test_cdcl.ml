(* Brute-force evaluation of a formula given as clauses + at-most rows,
   used as ground truth against the CDCL solver. *)

type formula = { nvars : int; clauses : int list list; ams : (int list * int) list }

let eval_lit model l = if l > 0 then model.(l - 1) else not model.(-l - 1)

let satisfies f model =
  List.for_all (fun c -> List.exists (eval_lit model) c) f.clauses
  && List.for_all
       (fun (lits, k) ->
         List.length (List.filter (eval_lit model) lits) <= k)
       f.ams

let brute_sat f =
  let model = Array.make f.nvars false in
  let rec go v =
    if v = f.nvars then satisfies f model
    else begin
      model.(v) <- false;
      if go (v + 1) then true
      else begin
        model.(v) <- true;
        go (v + 1)
      end
    end
  in
  go 0

let build f =
  let s = Cdcl.create () in
  for _ = 1 to f.nvars do
    ignore (Cdcl.new_var s)
  done;
  List.iter (Cdcl.add_clause s) f.clauses;
  List.iter (fun (lits, k) -> Cdcl.add_at_most s lits k) f.ams;
  s

let check_formula name f =
  let expected = brute_sat f in
  match Cdcl.solve (build f) with
  | Cdcl.Sat model ->
    Alcotest.(check bool) (name ^ ": claims sat") true expected;
    Alcotest.(check bool) (name ^ ": model valid") true (satisfies f model)
  | Cdcl.Unsat -> Alcotest.(check bool) (name ^ ": claims unsat") false expected
  | Cdcl.Unknown -> Alcotest.fail (name ^ ": unknown on tiny formula")

let test_trivial () =
  check_formula "unit" { nvars = 1; clauses = [ [ 1 ] ]; ams = [] };
  check_formula "contradiction"
    { nvars = 1; clauses = [ [ 1 ]; [ -1 ] ]; ams = [] };
  check_formula "empty clause" { nvars = 1; clauses = [ [] ]; ams = [] };
  check_formula "2sat"
    { nvars = 2; clauses = [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ]; ams = [] }

let test_pigeonhole () =
  (* PHP(4,3): 4 pigeons, 3 holes — classic UNSAT. Var p*3+h+1. *)
  let v p h = (p * 3) + h + 1 in
  let clauses =
    List.init 4 (fun p -> List.init 3 (fun h -> v p h))
  in
  let ams =
    List.concat_map
      (fun h ->
        [ (List.init 4 (fun p -> v p h), 1) ])
      [ 0; 1; 2 ]
  in
  let f = { nvars = 12; clauses; ams } in
  match Cdcl.solve (build f) with
  | Cdcl.Unsat -> ()
  | r -> Alcotest.failf "pigeonhole: expected unsat, got %a" Cdcl.pp_result r

let test_pigeonhole_sat () =
  (* PHP(3,3) is satisfiable. *)
  let v p h = (p * 3) + h + 1 in
  let clauses = List.init 3 (fun p -> List.init 3 (fun h -> v p h)) in
  let ams = List.map (fun h -> (List.init 3 (fun p -> v p h), 1)) [ 0; 1; 2 ] in
  check_formula "php33" { nvars = 9; clauses; ams }

let test_at_most_bounds () =
  (* Exactly-k via at-most k of the literals and at-most n - k of their
     negations. *)
  let neg = List.map (fun v -> -v) in
  let s = Cdcl.create () in
  let vars = List.init 6 (fun _ -> Cdcl.new_var s) in
  Cdcl.add_at_most s vars 2;
  Cdcl.add_at_most s (neg vars) 4;
  (match Cdcl.solve s with
  | Cdcl.Sat model ->
    let trues = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model in
    Alcotest.(check int) "exactly 2" 2 trues
  | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r);
  (* Over-constrain: at least 3 but at most 2 of the same set. *)
  let s2 = Cdcl.create () in
  let vars2 = List.init 4 (fun _ -> Cdcl.new_var s2) in
  Cdcl.add_at_most s2 vars2 2;
  Cdcl.add_at_most s2 (neg vars2) 1;
  match Cdcl.solve s2 with
  | Cdcl.Unsat -> ()
  | r -> Alcotest.failf "expected unsat, got %a" Cdcl.pp_result r

let random_formula g =
  let nvars = Prng.int_in g 3 12 in
  let nclauses = Prng.int_in g 1 (4 * nvars) in
  let clause () =
    let len = Prng.int_in g 1 3 in
    List.init len (fun _ ->
        let v = Prng.int_in g 1 nvars in
        if Prng.bool g then v else -v)
  in
  let clauses = List.init nclauses (fun _ -> clause ()) in
  let ams =
    List.init (Prng.int g 3) (fun _ ->
        let len = Prng.int_in g 2 nvars in
        let vars = Array.init nvars (fun i -> i + 1) in
        Prng.shuffle g vars;
        let lits =
          Array.to_list
            (Array.map (fun v -> if Prng.bool g then v else -v)
               (Array.sub vars 0 len))
        in
        (lits, Prng.int_in g 1 (len - 1)))
  in
  { nvars; clauses; ams }

let test_random_vs_brute () =
  let g = Prng.create 7 in
  for i = 1 to 500 do
    check_formula (Printf.sprintf "random %d" i) (random_formula g)
  done

let test_resolve_after_add () =
  (* Incremental use: solve, add a blocking clause, solve again. *)
  let s = Cdcl.create () in
  let a = Cdcl.new_var s in
  let b = Cdcl.new_var s in
  Cdcl.add_clause s [ a; b ];
  (match Cdcl.solve s with
  | Cdcl.Sat m ->
    (* Block this model. *)
    let block =
      List.filteri (fun i _ -> i < 2)
        [ (if m.(0) then -a else a); (if m.(1) then -b else b) ]
    in
    Cdcl.add_clause s block
  | r -> Alcotest.failf "expected sat, got %a" Cdcl.pp_result r);
  (match Cdcl.solve s with
  | Cdcl.Sat m ->
    Alcotest.(check bool) "still satisfies a|b" true (m.(0) || m.(1))
  | r -> Alcotest.failf "expected second sat, got %a" Cdcl.pp_result r);
  ignore (Cdcl.num_conflicts s)

let suite =
  [
    Alcotest.test_case "trivial formulas" `Quick test_trivial;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
    Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
    Alcotest.test_case "cardinality bounds" `Quick test_at_most_bounds;
    Alcotest.test_case "random vs brute force" `Quick test_random_vs_brute;
    Alcotest.test_case "incremental re-solve" `Quick test_resolve_after_add;
  ]
