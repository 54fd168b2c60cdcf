type outcome = Committed | Rolled_back of { switch : int; op : string }

(* Multiset difference [a \ b] preserving the order of [a]. *)
let diff a b =
  List.fold_left
    (fun (kept, rest) e ->
      match Netsim.remove_first e rest with
      | Some rest' -> (kept, rest')
      | None -> (e :: kept, rest))
    ([], b) a
  |> fun (kept, _) -> List.rev kept

let same_contents a b = diff a b = [] && diff b a = []

let restore ~api (tables : Netsim.entry list array) =
  let live = Switch_api.tables api in
  if Array.length tables <> Array.length live then
    invalid_arg "Transaction.restore: switch count mismatch";
  Array.iteri
    (fun k table ->
      if live.(k) <> table then Switch_api.force_set api ~switch:k table)
    tables

let apply ?observe ~api (target : Netsim.entry list array) =
  let live = Switch_api.tables api in
  if Array.length target <> Array.length live then
    invalid_arg "Transaction.apply: switch count mismatch";
  let touched =
    List.filter
      (fun k -> live.(k) <> target.(k))
      (List.init (Array.length live) Fun.id)
  in
  let saved = List.map (fun k -> (k, live.(k))) touched in
  let adds =
    List.concat_map
      (fun k -> List.map (fun e -> (k, e)) (diff target.(k) live.(k)))
      touched
  in
  let dels =
    List.concat_map
      (fun k -> List.map (fun e -> (k, e)) (diff live.(k) target.(k)))
      touched
  in
  let installed = ref [] and deleted = ref [] in
  let rollback () =
    (* Compensate through the same faulty API (in compensation mode, so
       the aborted ops' backoff is not double-counted in the forward
       histogram) — then force-resync any switch still off its snapshot,
       so rollback itself cannot leave the data plane torn. *)
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
  let phase op acted ops =
    List.for_all
      (fun (k, e) ->
        (match observe with
        | Some f ->
          f ~switch:k ~op:(match op with `Install -> "install" | `Delete -> "delete")
        | None -> ());
        let ok =
          match op with
          | `Install -> Switch_api.install api ~switch:k e
          | `Delete -> Switch_api.delete api ~switch:k e
        in
        if ok then acted := (k, e) :: !acted;
        ok)
      ops
  in
  let fail_of ops acted =
    (* The op that broke the phase is the first one not acted on. *)
    match List.nth_opt ops (List.length !acted) with
    | Some (k, _) -> k
    | None -> -1
  in
  if not (phase `Install installed adds) then begin
    let switch = fail_of adds installed in
    rollback ();
    Rolled_back { switch; op = "install" }
  end
  else if not (phase `Delete deleted dels) then begin
    let switch = fail_of dels deleted in
    rollback ();
    Rolled_back { switch; op = "delete" }
  end
  else begin
    (* Commit: contents are in place; write the target order. *)
    List.iter
      (fun k ->
        assert (same_contents live.(k) target.(k));
        live.(k) <- target.(k))
      touched;
    Committed
  end
