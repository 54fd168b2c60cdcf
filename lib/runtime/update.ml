(* Per-packet-consistent update scheduling: two-phase tag-and-match
   waves with bounded retry and wave-level rollback.  See update.mli for
   the full protocol description. *)

type ingress_paths = {
  ingress : int;
  old_paths : Routing.Path.t list;
  new_paths : Routing.Path.t list;
  probes : Ternary.Packet.t list Lazy.t;
}

type op =
  | Install of { switch : int; entry : Netsim.entry }
  | Delete of { switch : int; entry : Netsim.entry }

type wave = {
  label : string;
  ops : op list;
  reorders : (int * Netsim.entry list) list;
}

type plan = {
  waves : wave array;
  retries : int;
  flip_wave : int;
  unflip_wave : int;
  affected : int list;
  corpus : ingress_paths list;
  old_tables : Netsim.entry list array;
  target : Netsim.entry list array;
  shadow_headroom : int array;
  base_occupancy : int array;
  peak_occupancy : int array;
}

type observer = {
  on_wave_begin : wave:int -> unit;
  on_wave_commit : wave:int -> unit;
}

type outcome = Committed | Aborted of { switch : int; op : string }

type result = {
  outcome : outcome;
  waves_committed : int;
}

let m_waves =
  Telemetry.Metrics.counter ~help:"consistent-update waves committed"
    "sdnplace_update_waves_total"

let m_wave_rollbacks =
  Telemetry.Metrics.counter
    ~help:"waves rolled back to their entry state after an operation failure"
    "sdnplace_update_wave_rollbacks_total"

let m_probe_walks =
  Telemetry.Metrics.counter
    ~help:"probe packets the wave barriers walked on a differing projection"
    "sdnplace_update_probe_walks_total"

let m_wave_s =
  Telemetry.Metrics.histogram ~help:"wall-clock latency of one update wave"
    ~buckets:[| 0.0001; 0.001; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 |]
    "sdnplace_update_wave_seconds"

(* Process-wide violation tally, deliberately independent of the
   telemetry registry: chaos benches report it machine-readably even
   when telemetry is off, and a consistency violation must never be
   maskable by a monitoring switch. *)
let violations_seen = Atomic.make 0

let violations_total () = Atomic.get violations_seen

module IS = Set.Make (Int)

(* Multiset difference [a \ b] preserving the order of [a]: the entries
   a move from [b] to [a] must install. *)
let diff a b =
  List.fold_left
    (fun (kept, rest) e ->
      match Netsim.remove_first e rest with
      | Some rest' -> (kept, rest')
      | None -> (e :: kept, rest))
    ([], b) a
  |> fun (kept, _) -> List.rev kept

(* Equal as multisets: the tables differ at most in priority order. *)
let same_contents a b = diff a b = [] && diff b a = []

let m_entries_scanned =
  Telemetry.Metrics.counter
    ~help:"table entries the changed-tag diffs grouped by tag"
    "sdnplace_runtime_entries_scanned_total"

let changed_tags old_tables new_tables =
  let tags, switches, scanned = Netsim.changed_tags old_tables new_tables in
  Telemetry.Metrics.add m_entries_scanned scanned;
  (tags, switches)

let build ~attach ~corpus ~old_tables ~target =
  let n = Array.length old_tables in
  if Array.length target <> n then
    invalid_arg "Update.build: switch count mismatch";
  (* Detach the snapshots from the live array: the plan must keep the
     pre-update view even while execution mutates the data plane. *)
  let old_tables = Array.copy old_tables in
  let target = Array.copy target in
  (* Affected ingresses: any whose per-switch projection changes, plus
     any whose routed paths change.  Everything in the add/delete
     multisets carries only affected tags — a count change in any
     entry's tag is a projection change for that tag — so unaffected
     ingresses' match sequences are untouched by every wave below. *)
  let changed, differing = changed_tags old_tables target in
  let affected_tables =
    IS.of_list
      (List.filter
         (fun i -> not (Netsim.is_version_tag i || Netsim.is_stamp_tag i))
         changed)
  in
  let affected_set =
    List.fold_left
      (fun acc ip ->
        if ip.old_paths <> ip.new_paths then IS.add ip.ingress acc else acc)
      affected_tables corpus
  in
  let affected = IS.elements affected_set in
  let is_affected i = IS.mem i affected_set in
  (* Shadow installs go only to switches on the *new* paths of affected
     ingresses (new paths never traverse dead switches, so a consistent
     update never wastes retries on guaranteed-failing installs).  The
     depth of a switch is its deepest position across those paths;
     shadows are installed deepest-first so each wave only ever extends
     coverage downstream of what is already in place. *)
  let depth = Hashtbl.create 16 in
  List.iter
    (fun ip ->
      if is_affected ip.ingress then
        List.iter
          (fun (p : Routing.Path.t) ->
            Array.iteri
              (fun pos k ->
                let d = pos + 1 in
                match Hashtbl.find_opt depth k with
                | Some d' when d' >= d -> ()
                | _ -> Hashtbl.replace depth k d)
              p.Routing.Path.switches)
          ip.new_paths)
    corpus;
  let shadow_switches =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) depth [])
  in
  (* The shadow copy of a new-placement entry keeps the target's match
     order and is keyed on the version-tagged aliases of its affected
     tags: a flipped packet walking with [vtag i] sees exactly the
     target's projection for [i], and nothing else ever matches it. *)
  let shadow_at k =
    List.filter_map
      (fun (e : Netsim.entry) ->
        let atags = List.filter is_affected e.Netsim.tags in
        if atags = [] then None
        else Some { Netsim.tags = List.map Netsim.vtag atags; rule = e.rule })
      target.(k)
  in
  let depths =
    List.sort_uniq
      (fun a b -> compare b a)
      (List.map (fun k -> Hashtbl.find depth k) shadow_switches)
  in
  let shadow_waves =
    List.filter_map
      (fun d ->
        let ops =
          List.concat_map
            (fun k ->
              if Hashtbl.find depth k = d then
                List.map (fun e -> Install { switch = k; entry = e }) (shadow_at k)
              else [])
            shadow_switches
        in
        if ops = [] then None
        else
          Some { label = Printf.sprintf "shadow-depth-%d" d; ops; reorders = [] })
      depths
  in
  (* Flipping an ingress is marked in the data plane by a stamp entry at
     its attachment point (first switch of a new path when it has one —
     new paths avoid dead switches — the attachment switch otherwise,
     which may be dead: then the flip wave cannot commit, the update
     aborts and the engine falls back to the direct plan; ROADMAP item
     28 gives such an ingress no stamp).
     Every affected ingress flips, including ones losing their paths
     entirely: their old entries are about to be GC'd, so leaving them
     on old stamping would change what their packets see mid-update. *)
  let stamp_entry i =
    {
      Netsim.tags = [ Netsim.stamp_tag i ];
      rule =
        Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Permit
          ~priority:0;
    }
  in
  let stamp_switch i =
    match List.find_opt (fun ip -> ip.ingress = i) corpus with
    | Some { new_paths = p :: _; _ } when Array.length p.Routing.Path.switches > 0
      ->
      p.Routing.Path.switches.(0)
    | _ -> attach i
  in
  let flip_ops =
    List.map
      (fun i -> Install { switch = stamp_switch i; entry = stamp_entry i })
      affected
  in
  (* Only a switch whose tables differ has entries to retire or add. *)
  let gc_old_ops =
    List.concat_map
      (fun k ->
        List.map
          (fun e -> Delete { switch = k; entry = e })
          (diff old_tables.(k) target.(k)))
      differing
  in
  let install_new_ops =
    List.concat_map
      (fun k ->
        List.map
          (fun e -> Install { switch = k; entry = e })
          (diff target.(k) old_tables.(k)))
      differing
  in
  (* Plan-time simulation: replay every operation over a copy of the old
     tables to (a) derive the renormalisation rewrites, (b) track the
     per-switch transient peak, and (c) prove the final state is exactly
     the target before a single live operation is issued. *)
  let sim = Array.map Fun.id old_tables in
  let peak = Array.map List.length old_tables in
  let base =
    Array.init n (fun k ->
        max (List.length old_tables.(k)) (List.length target.(k)))
  in
  let note k =
    let len = List.length sim.(k) in
    if len > peak.(k) then peak.(k) <- len
  in
  let sim_op = function
    | Install { switch; entry } ->
      sim.(switch) <- sim.(switch) @ [ entry ];
      note switch
    | Delete { switch; entry } -> (
      match Netsim.remove_first entry sim.(switch) with
      | Some t -> sim.(switch) <- t
      | None -> ())
  in
  List.iter sim_op (List.concat_map (fun w -> w.ops) shadow_waves);
  List.iter sim_op flip_ops;
  List.iter sim_op gc_old_ops;
  List.iter sim_op install_new_ops;
  (* Renormalisation: once the new plain entries are in, rewrite each
     touched switch to target-order plain entries followed by its
     shadows and stamps.  A pure priority reorder (content-preserving,
     no fault draws) — but it must land *before* the unflip, or an
     ingress whose update is a pure reorder would unflip onto the old
     order.  Every other switch holds its old table, which is its target:
     only the differing switches and those a shadow or a stamp reaches
     are read here and in the final-state check. *)
  let touched =
    IS.elements
      (IS.of_list
         (differing @ shadow_switches @ List.map stamp_switch affected))
  in
  let classify (e : Netsim.entry) =
    if List.exists Netsim.is_stamp_tag e.Netsim.tags then `Stamp
    else if List.exists Netsim.is_version_tag e.Netsim.tags then `Shadow
    else `Plain
  in
  let reorders =
    List.filter_map
      (fun k ->
        let shadows = List.filter (fun e -> classify e = `Shadow) sim.(k) in
        let stamps = List.filter (fun e -> classify e = `Stamp) sim.(k) in
        let want = target.(k) @ shadows @ stamps in
        if sim.(k) = want then None
        else begin
          let plain = List.filter (fun e -> classify e = `Plain) sim.(k) in
          if not (same_contents plain target.(k)) then
            invalid_arg "Update.build: renormalisation would change contents";
          Some (k, want)
        end)
      touched
  in
  List.iter (fun (k, table) -> sim.(k) <- table) reorders;
  let unflip_ops =
    List.map
      (fun i -> Delete { switch = stamp_switch i; entry = stamp_entry i })
      affected
  in
  let gc_shadow_ops =
    List.concat_map
      (fun k ->
        List.map (fun e -> Delete { switch = k; entry = e }) (shadow_at k))
      shadow_switches
  in
  List.iter sim_op unflip_ops;
  List.iter sim_op gc_shadow_ops;
  List.iter
    (fun k ->
      if sim.(k) <> target.(k) then
        invalid_arg "Update.build: simulated final state differs from target")
    touched;
  let headroom = Array.make n 0 in
  List.iter (fun k -> headroom.(k) <- List.length (shadow_at k)) shadow_switches;
  List.iter
    (fun i ->
      let k = stamp_switch i in
      headroom.(k) <- headroom.(k) + 1)
    affected;
  let waves_rev = ref [] in
  let idx = ref 0 in
  let flip_idx = ref (-1) in
  let unflip_idx = ref (-1) in
  let push ?(mark = `None) label ops reorders =
    if ops <> [] || reorders <> [] then begin
      waves_rev := { label; ops; reorders } :: !waves_rev;
      (match mark with
      | `Flip -> flip_idx := !idx
      | `Unflip -> unflip_idx := !idx
      | `None -> ());
      incr idx
    end
  in
  List.iter (fun w -> push w.label w.ops w.reorders) shadow_waves;
  push ~mark:`Flip "flip" flip_ops [];
  push "gc-old" gc_old_ops [];
  push "install-new" install_new_ops reorders;
  push ~mark:`Unflip "unflip" unflip_ops [];
  push "gc-shadow" gc_shadow_ops [];
  {
    waves = Array.of_list (List.rev !waves_rev);
    retries = 1;
    flip_wave = !flip_idx;
    unflip_wave = !unflip_idx;
    affected;
    corpus;
    old_tables;
    target;
    shadow_headroom = headroom;
    base_occupancy = base;
    peak_occupancy = peak;
  }

(* The direct plan: one add-before-delete wave.  Between its installs
   and its deletes the tables hold a superset of both placements, so no
   packet a correct placement drops slips through mid-update.  Not
   per-packet consistent, and nothing to prove: the corpus is empty, so
   its barrier walks nothing. *)
let direct ~old_tables ~target =
  let n = Array.length old_tables in
  if Array.length target <> n then
    invalid_arg "Update.direct: switch count mismatch";
  let old_tables = Array.copy old_tables in
  let target = Array.copy target in
  let touched =
    List.filter (fun k -> old_tables.(k) <> target.(k)) (List.init n Fun.id)
  in
  let ops mk a b =
    List.concat_map (fun k -> List.map (mk k) (diff a.(k) b.(k))) touched
  in
  let installs =
    ops (fun switch entry -> Install { switch; entry }) target old_tables
  in
  let deletes =
    ops (fun switch entry -> Delete { switch; entry }) old_tables target
  in
  let base =
    Array.init n (fun k ->
        max (List.length old_tables.(k)) (List.length target.(k)))
  in
  (* Every install lands before the first delete. *)
  let peak = Array.map List.length old_tables in
  List.iter
    (function
      | Install { switch; _ } -> peak.(switch) <- peak.(switch) + 1
      | Delete _ -> ())
    installs;
  {
    waves =
      (if touched = [] then [||]
       else
         [|
           {
             label = "direct";
             ops = installs @ deletes;
             reorders = List.map (fun k -> (k, target.(k))) touched;
           };
         |]);
    retries = 0;
    flip_wave = -1;
    unflip_wave = -1;
    affected = [];
    corpus = [];
    old_tables;
    target;
    shadow_headroom = Array.mapi (fun k p -> p - base.(k)) peak;
    base_occupancy = base;
    peak_occupancy = peak;
  }

(* Whether a walk with tag [t] over table [a] and one with tag [i] over
   table [b] see the same rules in the same order: the rules of the
   entries carrying the tag, which is all a first-match walk reads of a
   switch.  Physically equal tables under one tag are equal at once. *)
let rec same_rules t a i b =
  (t = i && a == b)
  ||
  match (a, b) with
  | (e : Netsim.entry) :: a, _ when not (List.mem t e.tags) ->
    same_rules t a i b
  | _, (e : Netsim.entry) :: b when not (List.mem i e.tags) ->
    same_rules t a i b
  | e :: a, e' :: b -> e.rule = e'.rule && same_rules t a i b
  | [], [] -> true
  | _ -> false

(* Barrier check: with [committed] waves in, every probe of every
   ingress must see entirely-old or entirely-new policy.  Unaffected
   ingresses and affected ones before their flip walk the live tables
   with their plain tag and must reproduce the old placement's verdict;
   between flip and unflip an affected ingress walks its new paths with
   the version tag and must reproduce the target's; after unflip, the
   plain tag over the new paths must already be the target's.

   A path whose walk-tag projection equals the reference's on each of
   its switches forwards every packet alike, so it adds 0 unwalked; only
   a path where they differ walks its probes, forcing the lazy corpus. *)
let inconsistencies plan ~live ~committed =
  let bad = ref 0 in
  List.iter
    (fun ip ->
      let i = ip.ingress in
      let paths, walk_tag, reference =
        if
          (not (List.mem i plan.affected))
          || plan.flip_wave < 0 || committed <= plan.flip_wave
        then (ip.old_paths, i, plan.old_tables)
        else if plan.unflip_wave < 0 || committed <= plan.unflip_wave then
          (ip.new_paths, Netsim.vtag i, plan.target)
        else (ip.new_paths, i, plan.target)
      in
      let proven k = same_rules walk_tag live.(k) i reference.(k) in
      List.iter
        (fun (p : Routing.Path.t) ->
          if not (Array.for_all proven p.switches) then begin
            let probes = Lazy.force ip.probes in
            Telemetry.Metrics.add m_probe_walks (List.length probes);
            List.iter
              (fun pkt ->
                let got = Netsim.forward live p ~tag:walk_tag pkt in
                let want = Netsim.forward reference p ~tag:i pkt in
                if got <> want then incr bad)
              probes
          end)
        paths)
    plan.corpus;
  !bad

let execute ?observer ?on_op ~api plan =
  let live = Switch_api.tables api in
  if Array.length live <> Array.length plan.target then
    invalid_arg "Update.execute: switch count mismatch";
  (* Only the consistent schedule retries its waves; the direct plan's
     one wave is not a consistent-update wave, so it stays out of the
     wave series. *)
  let consistent = plan.retries > 0 in
  let undo = Switch_api.snapshot api in
  let n = Array.length plan.waves in
  let w = ref 0 in
  let finish outcome = { outcome; waves_committed = !w } in
  let barrier ~committed =
    let bad = inconsistencies plan ~live ~committed in
    if bad > 0 then ignore (Atomic.fetch_and_add violations_seen bad);
    bad = 0
  in
  let aborted = ref None in
  while !aborted = None && !w < n do
    let wave = plan.waves.(!w) in
    (match observer with Some o -> o.on_wave_begin ~wave:!w | None -> ());
    let t0 = Unix.gettimeofday () in
    let snap = Switch_api.snapshot api in
    let apply_op op =
      let switch, name =
        match op with
        | Install { switch; _ } -> (switch, "install")
        | Delete { switch; _ } -> (switch, "delete")
      in
      (match on_op with Some f -> f ~switch ~op:name | None -> ());
      match op with
      | Install { switch; entry } -> Switch_api.install api ~switch entry
      | Delete { switch; entry } -> Switch_api.delete api ~switch entry
    in
    let rec attempt tries =
      let done_ops = ref [] in
      let rec run = function
        | [] -> None
        | op :: rest ->
          if apply_op op then begin
            done_ops := op :: !done_ops;
            run rest
          end
          else Some op
      in
      match run wave.ops with
      | None -> `Committed
      | Some failed ->
        if consistent then Telemetry.Metrics.incr m_wave_rollbacks;
        (* Wave rollback: compensate the wave's applied installs newest
           first, then its applied deletes newest first, through the
           faulty API; then force-resync whatever is still off the
           wave's entry snapshot, so the data plane is back on the last
           consistent state either way.  A consistent wave holds one
           kind of operation, so this is its reverse order. *)
        let installs, deletes =
          List.partition
            (function Install _ -> true | Delete _ -> false)
            !done_ops
        in
        Switch_api.compensating api (fun () ->
            List.iter
              (function
                | Install { switch; entry } ->
                  ignore (Switch_api.delete api ~switch entry)
                | Delete { switch; entry } ->
                  ignore (Switch_api.install api ~switch entry))
              (installs @ deletes));
        Switch_api.restore api snap;
        if tries < plan.retries then attempt (tries + 1)
        else
          let switch, op =
            match failed with
            | Install { switch; _ } -> (switch, "install")
            | Delete { switch; _ } -> (switch, "delete")
          in
          `Failed (switch, op)
    in
    match attempt 0 with
    | `Failed (switch, op) ->
      Switch_api.restore api undo;
      aborted := Some (finish (Aborted { switch; op }))
    | `Committed ->
      (* Renormalisation rides the wave's commit: a direct controller
         priority rewrite, content-preserving by construction. *)
      List.iter
        (fun (k, table) ->
          assert (same_contents live.(k) table);
          live.(k) <- table)
        wave.reorders;
      if not (barrier ~committed:(!w + 1)) then begin
        Switch_api.restore api undo;
        aborted := Some (finish (Aborted { switch = -1; op = "verify" }))
      end
      else begin
        if consistent then begin
          Telemetry.Metrics.incr m_waves;
          Telemetry.Metrics.observe m_wave_s (Unix.gettimeofday () -. t0)
        end;
        (match observer with Some o -> o.on_wave_commit ~wave:!w | None -> ());
        incr w
      end
  done;
  (* A committed plan leaves exactly its target: {!build} proves that by
     simulation, and {!direct} writes each touched switch's order. *)
  match !aborted with Some r -> r | None -> finish Committed
