(* Hierarchical tracing spans.

   Span creation and the per-(parent, name) occurrence counters go
   through one global mutex — spans mark phase boundaries (a solve, a
   ladder rung, a WAL append), not per-iteration work, so contention is
   irrelevant next to the work they bracket.  The per-domain current
   span lives in [Domain.DLS]; spawned domains start with an empty
   scope. *)

type span = {
  id : int64; (* 0L = the null span *)
  parent_id : int64; (* 0L = root *)
  name : string;
  start_s : float;
  mutable end_s : float; (* nan while open *)
  mutable attrs : (string * string) list; (* reverse insertion order *)
}

let null =
  { id = 0L; parent_id = 0L; name = ""; start_s = 0.0; end_s = 0.0; attrs = [] }

let enabled = Atomic.make false

let enable () = Atomic.set enabled true

let disable () = Atomic.set enabled false

let is_enabled () = Atomic.get enabled

let seed = Atomic.make 0

let set_seed s = Atomic.set seed s

let lock = Mutex.create ()

(* All spans, reverse start order; occurrence counts per (parent, name).
   Both protected by [lock]. *)
let recorded : span list ref = ref []

let occurrences : (int64 * string, int) Hashtbl.t = Hashtbl.create 256

let scope : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* SplitMix64 finaliser: a good 64-bit mixer for id derivation. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let span_id ~parent ~name ~occ =
  let h = Int64.of_int (Hashtbl.hash name) in
  let s = Int64.of_int (Atomic.get seed) in
  let id =
    mix64
      (Int64.add
         (mix64 (Int64.logxor parent (Int64.mul s 0x9e3779b97f4a7c15L)))
         (Int64.add (mix64 h) (Int64.of_int occ)))
  in
  if id = 0L then 1L else id

let current () =
  match !(Domain.DLS.get scope) with [] -> None | sp :: _ -> Some sp

let start name =
  if not (Atomic.get enabled) then null
  else begin
    let parent_id = match current () with Some p -> p.id | None -> 0L in
    let t = Unix.gettimeofday () in
    Mutex.lock lock;
    let occ =
      let key = (parent_id, name) in
      let n = Option.value ~default:0 (Hashtbl.find_opt occurrences key) in
      Hashtbl.replace occurrences key (n + 1);
      n
    in
    let sp =
      {
        id = span_id ~parent:parent_id ~name ~occ;
        parent_id;
        name;
        start_s = t;
        end_s = Float.nan;
        attrs = [];
      }
    in
    recorded := sp :: !recorded;
    Mutex.unlock lock;
    sp
  end

let finish sp =
  if sp.id <> 0L && Float.is_nan sp.end_s then
    sp.end_s <- Float.max (Unix.gettimeofday ()) sp.start_s

let add_attr sp k v = if sp.id <> 0L then sp.attrs <- (k, v) :: sp.attrs

let with_span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let sp = start name in
    let stack = Domain.DLS.get scope in
    let saved = !stack in
    stack := sp :: saved;
    Fun.protect
      ~finally:(fun () ->
        stack := saved;
        finish sp)
      f
  end

(* ---------------- inspection & export ---------------- *)

type info = {
  id : int64;
  parent : int64 option;
  name : string;
  start_s : float;
  end_s : float;
  attrs : (string * string) list;
}

let spans () =
  Mutex.lock lock;
  let all = !recorded in
  Mutex.unlock lock;
  List.rev_map
    (fun (sp : span) ->
      {
        id = sp.id;
        parent = (if sp.parent_id = 0L then None else Some sp.parent_id);
        name = sp.name;
        start_s = sp.start_s;
        end_s = sp.end_s;
        attrs = List.rev sp.attrs;
      })
    all

let root_count ?name () =
  List.length
    (List.filter
       (fun i ->
         i.parent = None
         && (not (Float.is_nan i.end_s))
         && match name with None -> true | Some n -> i.name = n)
       (spans ()))

let check_nesting () =
  let all = spans () in
  let by_id = Hashtbl.create (List.length all) in
  List.iter (fun i -> Hashtbl.replace by_id i.id i) all;
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun i ->
      if Float.is_nan i.end_s then bad "span %s (%Lx) never finished" i.name i.id
      else if i.end_s < i.start_s then
        bad "span %s (%Lx) ends before it starts" i.name i.id;
      match i.parent with
      | None -> ()
      | Some pid -> (
        match Hashtbl.find_opt by_id pid with
        | None -> bad "span %s (%Lx) has unknown parent %Lx" i.name i.id pid
        | Some p ->
          if i.start_s < p.start_s then
            bad "span %s (%Lx) starts before parent %s" i.name i.id p.name;
          if
            (not (Float.is_nan i.end_s))
            && (not (Float.is_nan p.end_s))
            && i.end_s > p.end_s
          then bad "span %s (%Lx) ends after parent %s" i.name i.id p.name))
    all;
  List.rev !violations

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let export_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string buf (Printf.sprintf "{\"id\":\"%016Lx\"" i.id);
      (match i.parent with
      | None -> Buffer.add_string buf ",\"parent\":null"
      | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent\":\"%016Lx\"" p));
      Buffer.add_string buf ",\"name\":\"";
      json_escape buf i.name;
      Buffer.add_string buf (Printf.sprintf "\",\"start\":%.6f" i.start_s);
      if Float.is_nan i.end_s then Buffer.add_string buf ",\"end\":null"
      else Buffer.add_string buf (Printf.sprintf ",\"end\":%.6f" i.end_s);
      if i.attrs <> [] then begin
        Buffer.add_string buf ",\"attrs\":{";
        List.iteri
          (fun k (key, v) ->
            if k > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            json_escape buf key;
            Buffer.add_string buf "\":\"";
            json_escape buf v;
            Buffer.add_char buf '"')
          i.attrs;
        Buffer.add_char buf '}'
      end;
      Buffer.add_string buf "}\n")
    (spans ());
  Buffer.contents buf

let reset () =
  Mutex.lock lock;
  recorded := [];
  Hashtbl.reset occurrences;
  Mutex.unlock lock
