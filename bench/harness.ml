(* Timing, aggregation and table printing shared by all experiments. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum xs = List.fold_left Float.min infinity xs

let maximum xs = List.fold_left Float.max neg_infinity xs

let status_short : Placement.Encode.status -> string = function
  | `Optimal -> "opt"
  | `Feasible -> "feas*"
  | `Infeasible -> "INF"
  | `Unknown -> "unk"

(* Fixed-width table printing. *)
let print_table ~title ~headers rows =
  let all = headers :: rows in
  let ncols = List.length headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%*s" (List.nth widths c) cell)
         row)
  in
  Printf.printf "\n== %s ==\n%s\n%s\n" title (line headers)
    (String.make (String.length (line headers)) '-');
  List.iter (fun row -> print_endline (line row)) rows;
  print_newline ()

let sec t = Printf.sprintf "%.3f" t

let ms t = Printf.sprintf "%.0f" (t *. 1000.0)

(* Minimal JSON emission for the BENCH_*.json artifacts the CI lanes
   diff and gate on.  Hand-rolled (no deps) but shared, so every
   experiment escapes strings and formats floats the same way. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* [Null]-or-value, for optional measurements the gate scripts expect
   as JSON null rather than an absent key. *)
let opt wrap = function Some v -> wrap v | None -> Null

let rec json_to_buf buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    Buffer.add_string buf "[";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        json_to_buf buf indent x)
      xs;
    Buffer.add_string buf "]"
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        json_to_buf buf indent (Str k);
        Buffer.add_string buf ": ";
        json_to_buf buf (indent + 2) v)
      fields;
    Buffer.add_string buf "\n";
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_string buf "}"

let json_to_string j =
  let buf = Buffer.create 256 in
  json_to_buf buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_json ~path j =
  let oc = open_out path in
  output_string oc (json_to_string j);
  close_out oc;
  Printf.printf "wrote %s\n" path

let solve_options ?(merge = false) ?(slice = false) ?(time_limit = 10.0) () =
  Placement.Solve.options ~merge ~slice
    ~ilp_config:{ Ilp.Solver.default_config with time_limit }
    ()
