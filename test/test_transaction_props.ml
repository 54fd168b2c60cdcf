(* Property-based tests for the data-plane executor.  The direct plan
   (one add-before-delete wave): whatever the fault plan does to the
   per-entry operations, a rolled-back update must leave the tables
   byte-for-byte at their pre-update state, rolling back again must
   change nothing, a snapshot restore must be idempotent, and the whole
   run must match a reference two-phase transaction op for op.  Then
   the per-packet-consistent wave schedule. *)
open Runtime

let qtest = QCheck_alcotest.to_alcotest

let random_entry g =
  {
    Netsim.tags = [ Prng.int g 8 ];
    rule =
      Acl.Rule.make ~field:Ternary.Field.any
        ~action:(if Prng.bool g then Acl.Rule.Permit else Acl.Rule.Drop)
        ~priority:(Prng.int g 32);
  }

let random_table g =
  let rec go n acc = if n = 0 then acc else go (n - 1) (random_entry g :: acc) in
  go (Prng.int g 5) []

let random_tables g ~switches = Array.init switches (fun _ -> random_table g)

let bytes_of tables = Marshal.to_string tables []

let seed_arb = QCheck.(make ~print:string_of_int Gen.int)

(* Move [api]'s tables to [target] with the direct plan. *)
let apply_direct ?on_op ~api target =
  (Update.execute ?on_op ~api
     (Update.direct ~old_tables:(Switch_api.tables api) ~target))
    .Update.outcome

(* Whatever happens — commit, clean rollback, rollback that itself had
   to fight injected faults — the tables end either exactly at the
   target or byte-for-byte back at the start. *)
let prop_apply_all_or_nothing =
  QCheck.Test.make ~name:"apply is all-or-nothing under injected faults"
    ~count:200 seed_arb (fun seed ->
      let g = Prng.create seed in
      let switches = 2 + Prng.int g 4 in
      let live = random_tables g ~switches in
      let target = random_tables g ~switches in
      let fault =
        Fault_plan.make
          ~fail_rate:(Prng.float g 0.6)
          ~timeout_rate:(Prng.float g 0.3)
          ~seed:(seed lxor 0x5EED) ()
      in
      let api = Switch_api.create ~fault live in
      (* a burst of forced fails can exhaust the first operations' five
         attempts, so the rollback starts at once *)
      Fault_plan.fail_next fault (Prng.int g 12);
      let before = bytes_of (Switch_api.snapshot api) in
      match apply_direct ~api target with
      | Update.Committed -> bytes_of (Switch_api.tables api) = bytes_of target
      | Update.Aborted _ -> bytes_of (Switch_api.tables api) = before)

(* An update that rolled back once rolls back again identically: the
   dead switch still refuses, and both rollbacks land on the same
   byte-identical pre-update tables. *)
let prop_double_rollback_noop =
  QCheck.Test.make ~name:"double rollback is a no-op" ~count:200 seed_arb
    (fun seed ->
      let g = Prng.create seed in
      let switches = 2 + Prng.int g 4 in
      let live = random_tables g ~switches in
      let target = random_tables g ~switches in
      let fault = Fault_plan.make ~seed:(seed lxor 0xDEAD) () in
      let dead = Prng.int g switches in
      Fault_plan.mark_dead fault dead;
      let api = Switch_api.create ~fault live in
      let before = bytes_of (Switch_api.snapshot api) in
      match apply_direct ~api target with
      | Update.Committed ->
        (* no operation touched the dead switch; nothing to roll back *)
        bytes_of (Switch_api.tables api) = bytes_of target
      | Update.Aborted _ -> (
        let after_first = bytes_of (Switch_api.tables api) in
        match apply_direct ~api target with
        | Update.Committed -> false
        | Update.Aborted _ ->
          after_first = before
          && bytes_of (Switch_api.tables api) = before))

(* Restoring a snapshot is idempotent: the first restore lands the
   tables byte-for-byte on the snapshot, the second touches nothing (no
   further forced resyncs). *)
let prop_restore_idempotent =
  QCheck.Test.make ~name:"snapshot restore is idempotent" ~count:200 seed_arb
    (fun seed ->
      let g = Prng.create seed in
      let switches = 2 + Prng.int g 4 in
      let live = random_tables g ~switches in
      let snapshot = random_tables g ~switches in
      let api = Switch_api.create ~fault:(Fault_plan.faultless ()) live in
      Switch_api.restore api snapshot;
      let after_first = bytes_of (Switch_api.tables api) in
      let resyncs = (Switch_api.stats api).Switch_api.forced_resyncs in
      Switch_api.restore api snapshot;
      after_first = bytes_of snapshot
      && bytes_of (Switch_api.tables api) = after_first
      && (Switch_api.stats api).Switch_api.forced_resyncs = resyncs)

(* Rollback after a partial apply: force the failure onto a switch the
   update must touch late, so earlier operations have already mutated
   other switches before the rollback — those mutations must be
   compensated byte-for-byte. *)
let prop_partial_apply_restored =
  QCheck.Test.make ~name:"rollback after partial apply restores snapshot"
    ~count:200 seed_arb (fun seed ->
      let g = Prng.create seed in
      let switches = 3 + Prng.int g 3 in
      let live = random_tables g ~switches in
      (* tags from [random_entry] stay below 8, so these additions are
         guaranteed fresh — every switch really has an install to do *)
      let fresh i =
        {
          Netsim.tags = [ 1000 + i ];
          rule =
            Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Permit
              ~priority:40;
        }
      in
      let target = Array.mapi (fun i t -> fresh i :: t) live in
      let fault = Fault_plan.make ~seed:(seed lxor 0xBEEF) () in
      (* every switch gains an entry; killing the last one guarantees the
         earlier installs succeed first *)
      Fault_plan.mark_dead fault (switches - 1);
      let api = Switch_api.create ~fault live in
      let before = bytes_of (Switch_api.snapshot api) in
      match apply_direct ~api target with
      | Update.Committed -> false
      | Update.Aborted { switch; _ } ->
        switch = switches - 1 && bytes_of (Switch_api.tables api) = before)

(* The reference the direct plan must reproduce: a two-phase
   add-before-delete transaction with its own op loop.  Installs, then
   deletes, each phase over the differing switches in ascending order;
   on a failure, compensate the applied installs newest first, then the
   applied deletes newest first (in compensation mode), and force-resync
   each differing switch still off its pre-update table; on success,
   write each differing switch's target order.  [observe] is called
   before each forward operation. *)
let reference_apply ~observe ~api (target : Netsim.entry list array) =
  let live = Switch_api.tables api in
  let diff a b =
    List.fold_left
      (fun (kept, rest) e ->
        match Netsim.remove_first e rest with
        | Some rest' -> (kept, rest')
        | None -> (e :: kept, rest))
      ([], b) a
    |> fun (kept, _) -> List.rev kept
  in
  let touched =
    List.filter
      (fun k -> live.(k) <> target.(k))
      (List.init (Array.length live) Fun.id)
  in
  let saved = List.map (fun k -> (k, live.(k))) touched in
  let pairs a b =
    List.concat_map
      (fun k -> List.map (fun e -> (k, e)) (diff a.(k) b.(k)))
      touched
  in
  let adds = pairs target live and dels = pairs live target in
  let installed = ref [] and deleted = ref [] in
  let rollback () =
    Switch_api.compensating api (fun () ->
        List.iter
          (fun (k, e) -> ignore (Switch_api.delete api ~switch:k e))
          !installed;
        List.iter
          (fun (k, e) -> ignore (Switch_api.install api ~switch:k e))
          !deleted);
    List.iter
      (fun (k, table) ->
        if live.(k) <> table then Switch_api.force_set api ~switch:k table)
      saved
  in
  let rec phase name op acted = function
    | [] -> None
    | (k, e) :: rest ->
      observe ~switch:k ~op:name;
      if op api ~switch:k e then begin
        acted := (k, e) :: !acted;
        phase name op acted rest
      end
      else Some k
  in
  match phase "install" Switch_api.install installed adds with
  | Some switch ->
    rollback ();
    Update.Aborted { switch; op = "install" }
  | None -> (
    match phase "delete" Switch_api.delete deleted dels with
    | Some switch ->
      rollback ();
      Update.Aborted { switch; op = "delete" }
    | None ->
      List.iter (fun k -> live.(k) <- target.(k)) touched;
      Update.Committed)

(* The direct plan run by [Update.execute] does exactly what the
   reference transaction does: on two APIs over equal tables with
   equally seeded fault plans, the outcome, the table bytes, every
   [Switch_api.stats] field and the sequence of [on_op] calls agree.
   The fault mix draws fail and timeout rates, a dead switch, and a
   [fail_next] burst before a random forward operation, so a run fails
   in the install phase, in the delete phase, in compensation, or not
   at all. *)
let prop_direct_matches_reference =
  QCheck.Test.make ~name:"the direct plan matches the reference transaction"
    ~count:500 seed_arb (fun seed ->
      let g = Prng.create seed in
      let switches = 2 + Prng.int g 4 in
      let live = random_tables g ~switches in
      let target = random_tables g ~switches in
      let fail_rate = Prng.float g 0.5 and timeout_rate = Prng.float g 0.3 in
      let dead =
        if Prng.int g 4 = 0 then Some (Prng.int g switches) else None
      in
      let burst_at = Prng.int g 12 and burst = Prng.int g 12 in
      let run apply =
        let fault =
          Fault_plan.make ~fail_rate ~timeout_rate ~seed:(seed lxor 0xD1FF) ()
        in
        Option.iter (Fault_plan.mark_dead fault) dead;
        let api = Switch_api.create ~fault (Array.copy live) in
        let calls = ref [] in
        let on_op ~switch ~op =
          if List.length !calls = burst_at then
            Fault_plan.fail_next fault burst;
          calls := (switch, op) :: !calls
        in
        let outcome = apply ~on_op ~api target in
        ( outcome,
          bytes_of (Switch_api.tables api),
          Switch_api.stats api,
          !calls )
      in
      let ((o, b, s, c) as want) =
        run (fun ~on_op -> reference_apply ~observe:on_op)
      in
      let ((o', b', s', c') as got) =
        run (fun ~on_op -> apply_direct ~on_op)
      in
      if got <> want then
        QCheck.Test.fail_reportf
          "outcome %b, tables %b, stats %b, on_op calls %b (%d vs %d)" (o = o')
          (b = b') (s = s') (c = c') (List.length c) (List.length c');
      true)

(* ------------------------------------------------------------------ *)
(* Per-packet-consistent wave updates                                  *)

let random_packet g =
  Ternary.Packet.make ~src:(Prng.int g 1000)
    ~dst:(Prng.int g 1000)
    ~sport:(Prng.int g 100) ~dport:(Prng.int g 100)
    ~proto:(if Prng.bool g then 6 else 17)

let random_path g ~switches ~ingress =
  let len = 1 + Prng.int g switches in
  let hops = List.init len (fun _ -> Prng.int g switches) in
  Routing.Path.make ~ingress ~egress:(Prng.int g 4) ~switches:hops ()

let random_corpus g ~switches ~ingresses =
  List.init ingresses (fun ingress ->
      let paths () =
        List.init (1 + Prng.int g 2) (fun _ ->
            random_path g ~switches ~ingress)
      in
      {
        Update.ingress;
        old_paths = paths ();
        new_paths = paths ();
        probes =
          Lazy.from_val
            (List.init (1 + Prng.int g 3) (fun _ -> random_packet g));
      })

(* A random update over 2-5 switches and 1-4 ingresses, with entry tags
   drawn from the ingress ids so projections overlap.  Returns the plan,
   the switch count and the ingress count. *)
let random_update g =
  let switches = 2 + Prng.int g 4 in
  let ingresses = 1 + Prng.int g 4 in
  let random_entry g =
    {
      Netsim.tags = [ Prng.int g ingresses ];
      rule =
        Acl.Rule.make ~field:Ternary.Field.any
          ~action:(if Prng.bool g then Acl.Rule.Permit else Acl.Rule.Drop)
          ~priority:(Prng.int g 32);
    }
  in
  let table g = List.init (Prng.int g 5) (fun _ -> random_entry g) in
  let old_tables = Array.init switches (fun _ -> table g) in
  let target = Array.init switches (fun _ -> table g) in
  let corpus = random_corpus g ~switches ~ingresses in
  let plan =
    Update.build ~attach:(fun i -> i mod switches) ~corpus ~old_tables ~target
  in
  (plan, switches, ingresses)

(* The tentpole property: whatever placements an update moves between
   and whatever the fault plan does to it, every barrier must see each
   ingress on entirely-old or entirely-new policy (zero violations), a
   committed update must land byte-exactly on the target, an aborted one
   byte-exactly back on the old tables, and no intermediate state may
   exceed the planned base-plus-headroom occupancy on any switch. *)
let prop_waves_old_xor_new =
  QCheck.Test.make ~name:"wave updates are per-packet consistent under faults"
    ~count:150 seed_arb (fun seed ->
      let g = Prng.create seed in
      let plan, _, _ = random_update g in
      let occupancy_ok () =
        Array.for_all Fun.id
          (Array.mapi
             (fun k peak ->
               peak
               <= plan.Update.base_occupancy.(k)
                  + plan.Update.shadow_headroom.(k))
             plan.Update.peak_occupancy)
      in
      let fault =
        Fault_plan.make
          ~fail_rate:(Prng.float g 0.4)
          ~timeout_rate:(Prng.float g 0.2)
          ~seed:(seed lxor 0x3A7E) ()
      in
      let live = Array.copy plan.Update.old_tables in
      let api = Switch_api.create ~fault live in
      (* a burst of forced fails before a random operation: long enough
         to exhaust an operation's five attempts, fail its wave's retry
         too, or hit a compensation *)
      let burst_at = Prng.int g 8 and burst = Prng.int g 16 in
      let ops = ref 0 in
      let on_op ~switch:_ ~op:_ =
        if !ops = burst_at then Fault_plan.fail_next fault burst;
        incr ops
      in
      let before = bytes_of (Switch_api.snapshot api) in
      (* re-run the barrier ourselves after every committed wave: the
         live tables mid-update must already be single-version *)
      let observer =
        {
          Update.on_wave_begin = (fun ~wave:_ -> ());
          on_wave_commit =
            (fun ~wave ->
              if
                Update.inconsistencies plan ~live:(Switch_api.tables api)
                  ~committed:(wave + 1)
                <> 0
              then QCheck.Test.fail_reportf "mixed policy after wave %d" wave);
        }
      in
      let v0 = Update.violations_total () in
      let r =
        Update.execute ~observer ~on_op ~api plan
      in
      Update.violations_total () = v0 && occupancy_ok ()
      &&
      match r.Update.outcome with
      | Update.Committed ->
        bytes_of (Switch_api.tables api) = bytes_of plan.Update.target
      | Update.Aborted _ -> bytes_of (Switch_api.tables api) = before)

(* The barrier inside [execute] proves each path by projection and
   walks only where the projections differ; the full oracle walks every
   probe.  Put a drop-any entry no plan holds, on a random plain or
   version tag, at the head of a random switch just before a random
   operation of wave W of a fault-free run.  Waves only append and
   delete other entries, so until a reorder rewrites that switch the
   live tables at barrier c are the clean run's tables after wave c - 1
   with the same entry on top.  The update must abort at the first
   barrier whose full count on those tables is not 0, with exactly that
   count, and land back on the old tables.  A corruption a walk first
   meets at a later barrier, under a changed mode, shows that the count
   follows the mode. *)
let prop_barrier_matches_oracle =
  QCheck.Test.make
    ~name:"the incremental barrier counts what the full oracle counts"
    ~count:300 ~max_gen:3000 seed_arb (fun seed ->
      let g = Prng.create seed in
      let plan, switches, ingresses = random_update g in
      let waves = plan.Update.waves in
      let n = Array.length waves in
      QCheck.assume (n > 0);
      (* the api mutates [live] in place *)
      let execute ?on_op live observer =
        let api = Switch_api.create ~fault:(Fault_plan.faultless ()) live in
        Update.execute ~observer:(observer api) ?on_op ~api plan
      in
      let clean = Array.make n [||] in
      let record api =
        {
          Update.on_wave_begin = (fun ~wave:_ -> ());
          on_wave_commit =
            (fun ~wave -> clean.(wave) <- Switch_api.snapshot api);
        }
      in
      ignore (execute (Array.copy plan.Update.old_tables) record);
      let w = Prng.int g n in
      let ops = List.length waves.(w).Update.ops in
      QCheck.assume (ops > 0);
      let at = Prng.int g ops in
      let k = Prng.int g switches in
      let i = Prng.int g ingresses in
      let bad =
        {
          Netsim.tags = [ (if Prng.bool g then i else Netsim.vtag i) ];
          rule =
            Acl.Rule.make ~field:Ternary.Field.any ~action:Acl.Rule.Drop
              ~priority:1000;
        }
      in
      let corrupt tables =
        let t = Array.copy tables in
        t.(k) <- bad :: t.(k);
        t
      in
      let rec first c =
        if c > n || List.mem_assoc k waves.(c - 1).Update.reorders then None
        else
          match
            Update.inconsistencies plan ~live:(corrupt clean.(c - 1))
              ~committed:c
          with
          | 0 -> first (c + 1)
          | count -> Some (c, count)
      in
      match first (w + 1) with
      | None -> QCheck.assume_fail ()
      | Some (c, expected) ->
        let wave = ref (-1) and nth = ref 0 in
        let observer _ =
          {
            Update.on_wave_begin =
              (fun ~wave:x ->
                wave := x;
                nth := 0);
            on_wave_commit = (fun ~wave:_ -> ());
          }
        in
        let live = Array.copy plan.Update.old_tables in
        let on_op ~switch:_ ~op:_ =
          if !wave = w && !nth = at then live.(k) <- bad :: live.(k);
          incr nth
        in
        let v0 = Update.violations_total () in
        let r = execute ~on_op live observer in
        r.Update.outcome = Update.Aborted { switch = -1; op = "verify" }
        && Update.violations_total () - v0 = expected
        && r.Update.waves_committed = c - 1
        && bytes_of live = bytes_of plan.Update.old_tables)

(* A test-local oracle with no projection shortcut: with [committed]
   waves in, every probe of every path each ingress walks, over [live]
   with its walk tag and over its reference placement with its own tag,
   counting the walks whose outcomes differ. *)
let walk_every_probe (plan : Update.plan) ~live ~committed =
  List.fold_left
    (fun bad (ip : Update.ingress_paths) ->
      let i = ip.Update.ingress in
      let flipped =
        List.mem i plan.Update.affected
        && plan.Update.flip_wave >= 0
        && committed > plan.Update.flip_wave
      in
      let unflipped =
        flipped && plan.Update.unflip_wave >= 0
        && committed > plan.Update.unflip_wave
      in
      let paths, tag, reference =
        if unflipped then (ip.Update.new_paths, i, plan.Update.target)
        else if flipped then
          (ip.Update.new_paths, Netsim.vtag i, plan.Update.target)
        else (ip.Update.old_paths, i, plan.Update.old_tables)
      in
      List.fold_left
        (fun bad p ->
          List.fold_left
            (fun bad pkt ->
              if
                Netsim.forward live p ~tag pkt
                <> Netsim.forward reference p ~tag:i pkt
              then bad + 1
              else bad)
            bad (Lazy.force ip.Update.probes))
        bad paths)
    0 plan.Update.corpus

(* One corruption of one switch's table: a drop entry (on any packet or
   on TCP only) on a plain or a version tag at a random position, two
   entries carrying one tag swapped, an entry duplicated in place, or an
   entry deleted.  A table with nothing to swap, duplicate or delete gets
   the drop entry. *)
let corrupt g ~ingresses tables =
  let t = Array.copy tables in
  let k = Prng.int g (Array.length t) in
  let a = Array.of_list t.(k) in
  let n = Array.length a in
  let insert_drop () =
    let i = Prng.int g ingresses in
    let field =
      if Prng.bool g then Ternary.Field.any
      else Ternary.Field.make ~proto:Ternary.Proto.tcp ()
    in
    let bad =
      {
        Netsim.tags = [ (if Prng.bool g then i else Netsim.vtag i) ];
        rule = Acl.Rule.make ~field ~action:Acl.Rule.Drop ~priority:1000;
      }
    in
    let pos = Prng.int g (n + 1) in
    List.filteri (fun j _ -> j < pos) t.(k)
    @ (bad :: List.filteri (fun j _ -> j >= pos) t.(k))
  in
  let swap () =
    let tag = List.hd a.(Prng.int g n).Netsim.tags in
    let at =
      List.filter
        (fun j -> List.mem tag a.(j).Netsim.tags)
        (List.init n Fun.id)
    in
    match at with
    | _ :: _ :: _ ->
      let m = List.length at in
      let x = List.nth at (Prng.int g m) and y = List.nth at (Prng.int g m) in
      let e = a.(x) in
      a.(x) <- a.(y);
      a.(y) <- e;
      Array.to_list a
    | _ -> insert_drop ()
  in
  let duplicate () =
    let x = Prng.int g n in
    List.concat (List.mapi (fun j e -> if j = x then [ e; e ] else [ e ]) t.(k))
  in
  let delete () =
    let x = Prng.int g n in
    List.filteri (fun j _ -> j <> x) t.(k)
  in
  t.(k) <-
    (match Prng.int g 4 with
    | 1 when n > 0 -> swap ()
    | 2 when n > 0 -> duplicate ()
    | 3 when n > 0 -> delete ()
    | _ -> insert_drop ());
  t

(* The barrier's projection proof counts exactly what walking every
   probe counts: on random plans, at a random committed count, over the
   clean run's tables at that barrier with one to three corruptions.  A
   quarter of the cases corrupt the target's own lists instead, so a
   live table is often physically a reference table under another
   walk tag. *)
let prop_projection_matches_walker =
  QCheck.Test.make
    ~name:"the projection barrier counts what walking every probe counts"
    ~count:400 seed_arb (fun seed ->
      let g = Prng.create seed in
      let plan, _, ingresses = random_update g in
      let n = Array.length plan.Update.waves in
      let clean = Array.make (n + 1) plan.Update.old_tables in
      let api =
        Switch_api.create ~fault:(Fault_plan.faultless ())
          (Array.copy plan.Update.old_tables)
      in
      let record =
        {
          Update.on_wave_begin = (fun ~wave:_ -> ());
          on_wave_commit =
            (fun ~wave -> clean.(wave + 1) <- Switch_api.snapshot api);
        }
      in
      ignore (Update.execute ~observer:record ~api plan);
      let committed = Prng.int g (n + 1) in
      let rec corrupt_n m live =
        if m = 0 then live else corrupt_n (m - 1) (corrupt g ~ingresses live)
      in
      let base =
        if Prng.int g 4 = 0 then plan.Update.target else clean.(committed)
      in
      let live = corrupt_n (1 + Prng.int g 3) base in
      let want = walk_every_probe plan ~live ~committed in
      let got = Update.inconsistencies plan ~live ~committed in
      if got <> want then
        QCheck.Test.fail_reportf "barrier %d, walker %d at committed %d" got
          want committed;
      walk_every_probe plan ~live:clean.(committed) ~committed = 0
      && Update.inconsistencies plan ~live:clean.(committed) ~committed = 0)

let suite =
  [
    qtest prop_apply_all_or_nothing;
    qtest prop_double_rollback_noop;
    qtest prop_restore_idempotent;
    qtest prop_partial_apply_restored;
    qtest prop_direct_matches_reference;
    qtest prop_waves_old_xor_new;
    qtest prop_barrier_matches_oracle;
    qtest prop_projection_matches_walker;
  ]
