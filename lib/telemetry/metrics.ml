(* Domain-safe metrics registry.

   Counters are [int Atomic.t] bumped with [fetch_and_add]; gauges and
   histogram sums are [float Atomic.t] updated through a CAS retry loop
   (the compare is on the exact box just read, so physical equality is
   the right test).  Histogram buckets are one atomic per bucket; a
   snapshot is not a consistent cut across cells, which is the usual
   monitoring contract.

   Every record operation is gated on the registry's [enabled] flag so
   the disabled path is a single atomic load and branch — and never
   touches the clock. *)

type kind = Counter | Gauge | Histogram

type hist = {
  h_upper : float array; (* finite upper bounds, ascending *)
  h_buckets : int Atomic.t array; (* length = Array.length h_upper + 1 *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type cell = C of int Atomic.t | G of float Atomic.t | H of hist

type metric = {
  m_name : string;
  m_labels : (string * string) list;
  m_help : string;
  m_kind : kind;
  m_cell : cell;
}

type registry = {
  lock : Mutex.t;
  mutable items : metric list; (* reverse registration order *)
  mutable label_cap : int option;
      (* max distinct labeled series per base name; overflow collapses *)
  enabled : bool Atomic.t;
}

let create_registry () =
  {
    lock = Mutex.create ();
    items = [];
    label_cap = None;
    enabled = Atomic.make false;
  }

let default_registry = create_registry ()

let reg = function Some r -> r | None -> default_registry

let enable ?registry () = Atomic.set (reg registry).enabled true

let disable ?registry () = Atomic.set (reg registry).enabled false

let is_enabled () = Atomic.get default_registry.enabled

let set_label_cap ?registry cap =
  (match cap with
  | Some c when c < 1 ->
    invalid_arg "Telemetry.Metrics.set_label_cap: cap must be >= 1"
  | _ -> ());
  let r = reg registry in
  Mutex.lock r.lock;
  r.label_cap <- cap;
  Mutex.unlock r.lock

let overflow_value = "_overflow"

type counter = { c_on : bool Atomic.t; c : int Atomic.t }

type gauge = { g_on : bool Atomic.t; g : float Atomic.t }

type histogram = { h_on : bool Atomic.t; h : hist }

let duration_buckets =
  [| 1e-5; 1e-4; 1e-3; 5e-3; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 30.0 |]

(* ---------------- registration ---------------- *)

let valid_name n =
  n <> ""
  && (let ok0 c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
      in
      ok0 n.[0])
  &&
  try
    String.iter
      (fun c ->
        let ok =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '_' || c = ':'
        in
        if not ok then raise Exit)
      n;
    true
  with Exit -> false

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* Look up (name, labels); create the cell under the registry lock if
   absent.  Module initialisers register concurrently-safe this way.

   When a label cap is set, a registration that would create a new
   labeled series for a base name already carrying [cap] distinct label
   sets is redirected to that name's overflow series — every label value
   replaced by ["_overflow"] — so unbounded label spaces (per-tenant
   series, say) aggregate into one bounded cell instead of growing the
   registry without limit. *)
let overflow_labels labels = List.map (fun (k, _) -> (k, overflow_value)) labels

let register r ~name ~labels ~help ~kind mk =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Telemetry.Metrics: bad metric name %S" name);
  Mutex.lock r.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.lock)
    (fun () ->
      let find labels =
        List.find_opt
          (fun m -> m.m_name = name && m.m_labels = labels)
          r.items
      in
      let labels =
        match (find labels, labels, r.label_cap) with
        | None, _ :: _, Some cap ->
          let ovf = overflow_labels labels in
          let distinct =
            List.length
              (List.filter
                 (fun m ->
                   m.m_name = name && m.m_labels <> [] && m.m_labels <> ovf)
                 r.items)
          in
          if labels <> ovf && distinct >= cap then ovf else labels
        | _ -> labels
      in
      match find labels with
      | Some m ->
        if m.m_kind <> kind then
          invalid_arg
            (Printf.sprintf
               "Telemetry.Metrics: %s already registered as a %s, not a %s"
               name (kind_name m.m_kind) (kind_name kind));
        m.m_cell
      | None ->
        let cell = mk () in
        r.items <-
          { m_name = name; m_labels = labels; m_help = help; m_kind = kind;
            m_cell = cell }
          :: r.items;
        cell)

let counter ?registry ?(help = "") ?(labels = []) name =
  let r = reg registry in
  match
    register r ~name ~labels ~help ~kind:Counter (fun () -> C (Atomic.make 0))
  with
  | C c -> { c_on = r.enabled; c }
  | _ -> assert false

let gauge ?registry ?(help = "") name =
  let r = reg registry in
  match
    register r ~name ~labels:[] ~help ~kind:Gauge (fun () -> G (Atomic.make 0.0))
  with
  | G g -> { g_on = r.enabled; g }
  | _ -> assert false

let histogram ?registry ?(help = "") ?(labels = [])
    ?(buckets = duration_buckets) name =
  let r = reg registry in
  if Array.length buckets = 0 then
    invalid_arg "Telemetry.Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Telemetry.Metrics.histogram: buckets must be ascending")
    buckets;
  match
    register r ~name ~labels ~help ~kind:Histogram (fun () ->
        H
          {
            h_upper = Array.copy buckets;
            h_buckets =
              Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0;
            h_count = Atomic.make 0;
          })
  with
  | H h -> { h_on = r.enabled; h }
  | _ -> assert false

(* ---------------- recording ---------------- *)

let incr c =
  if Atomic.get c.c_on then ignore (Atomic.fetch_and_add c.c 1)

let add c n =
  if n <> 0 && Atomic.get c.c_on then ignore (Atomic.fetch_and_add c.c n)

let counter_value c = Atomic.get c.c

(* CAS retry on a boxed float: [compare_and_set] uses physical equality,
   and [cur] is the very box we read, so a lost race just retries. *)
let rec float_add cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then float_add cell x

let set g x = if Atomic.get g.g_on then Atomic.set g.g x

let gauge_value g = Atomic.get g.g

let bucket_index upper x =
  let n = Array.length upper in
  let rec go i = if i >= n then n else if x <= upper.(i) then i else go (i + 1) in
  go 0

let observe hm x =
  if Atomic.get hm.h_on then begin
    let h = hm.h in
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index h.h_upper x) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    float_add h.h_sum x
  end

let time hm f =
  if Atomic.get hm.h_on then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe hm (Unix.gettimeofday () -. t0)) f
  end
  else f ()

(* ---------------- snapshots ---------------- *)

type histogram_snapshot = {
  upper : float array;
  counts : int array;
  count : int;
  sum : float;
}

let snapshot hm =
  let h = hm.h in
  {
    upper = Array.copy h.h_upper;
    counts = Array.map Atomic.get h.h_buckets;
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
  }

(* ---------------- Prometheus text exposition ---------------- *)

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v))
           labels)
    ^ "}"

let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let le_str x = float_str x

(* Items in registration order, grouped so HELP/TYPE are emitted once
   per base name (at its first registration). *)
let ordered_items r =
  Mutex.lock r.lock;
  let items = r.items in
  Mutex.unlock r.lock;
  List.rev items

let render ?registry () =
  let items = ordered_items (reg registry) in
  let buf = Buffer.create 4096 in
  let seen_header = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem seen_header m.m_name) then begin
        Hashtbl.add seen_header m.m_name ();
        if m.m_help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" m.m_name m.m_help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.m_name (kind_name m.m_kind))
      end;
      match m.m_cell with
      | C c ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" m.m_name
             (render_labels m.m_labels)
             (Atomic.get c))
      | G g ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" m.m_name
             (render_labels m.m_labels)
             (float_str (Atomic.get g)))
      | H h ->
        let cum = ref 0 in
        Array.iteri
          (fun i b ->
            cum := !cum + Atomic.get b;
            let le =
              if i = Array.length h.h_upper then "+Inf"
              else le_str h.h_upper.(i)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                 (render_labels (m.m_labels @ [ ("le", le) ]))
                 !cum))
          h.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" m.m_name
             (render_labels m.m_labels)
             (float_str (Atomic.get h.h_sum)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" m.m_name
             (render_labels m.m_labels)
             (Atomic.get h.h_count)))
    items;
  Buffer.contents buf

let series_names ?registry () =
  let items = ordered_items (reg registry) in
  List.concat_map
    (fun m ->
      let ls = render_labels m.m_labels in
      match m.m_cell with
      | C _ | G _ -> [ m.m_name ^ ls ]
      | H h ->
        Array.to_list
          (Array.mapi
             (fun i _ ->
               let le =
                 if i = Array.length h.h_upper then "+Inf"
                 else le_str h.h_upper.(i)
               in
               m.m_name ^ "_bucket"
               ^ render_labels (m.m_labels @ [ ("le", le) ]))
             h.h_buckets)
        @ [ m.m_name ^ "_sum" ^ ls; m.m_name ^ "_count" ^ ls ])
    items

(* ---------------- exposition checker ---------------- *)

(* A deliberately small parser for our own output format: enough to
   catch unknown series (an instrumented layer emitting a name it never
   registered) and duplicates (double registration / double render). *)
let check_exposition ?registry text =
  let known = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.replace known s ())
    (series_names ?registry ());
  let seen = Hashtbl.create 256 in
  let err = ref None in
  let fail line msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" line msg)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !err = None && line <> "" && line.[0] <> '#' then begin
        (* series = everything up to the value separator: the space that
           follows the name or the closing '}' of the label set. *)
        let n = String.length line in
        let rec series_end j in_labels =
          if j >= n then n
          else
            match line.[j] with
            | '{' -> series_end (j + 1) true
            | '}' -> j + 1
            | ' ' when not in_labels -> j
            | _ -> series_end (j + 1) in_labels
        in
        let e = series_end 0 false in
        let series = String.sub line 0 e in
        if e >= n || (e < n && line.[e] <> ' ') then
          fail lineno (Printf.sprintf "malformed sample %S" line)
        else begin
          let value = String.sub line (e + 1) (n - e - 1) in
          if float_of_string_opt (String.trim value) = None then
            fail lineno (Printf.sprintf "bad value %S for %s" value series);
          if not (Hashtbl.mem known series) then
            fail lineno (Printf.sprintf "unknown series %s" series);
          if Hashtbl.mem seen series then
            fail lineno (Printf.sprintf "duplicate series %s" series);
          Hashtbl.replace seen series ()
        end
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None -> Ok (Hashtbl.length seen)
