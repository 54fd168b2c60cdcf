type t = {
  wal_append : string -> unit;
  wal_sync : unit -> unit;
  wal_read : unit -> string;
  wal_reset : unit -> unit;
  snap_write : string -> unit;
  snap_read : unit -> string option;
}

(* ------------------------------------------------------------------ *)
(* In-memory store with scriptable failures                            *)

type memory = {
  durable : Buffer.t;  (* log bytes that survived the last barrier *)
  mutable pending : Buffer.t;  (* appended but not yet synced *)
  mutable snap : string option;
}

let memory () =
  let m = { durable = Buffer.create 256; pending = Buffer.create 256; snap = None } in
  let store =
    {
      wal_append = (fun s -> Buffer.add_string m.pending s);
      wal_sync =
        (fun () ->
          Buffer.add_buffer m.durable m.pending;
          Buffer.clear m.pending);
      (* [wal_read] models re-opening the file after a crash: whatever
         never hit a barrier is simply gone. *)
      wal_read = (fun () -> Buffer.contents m.durable);
      wal_reset =
        (fun () ->
          Buffer.clear m.durable;
          Buffer.clear m.pending);
      snap_write = (fun s -> m.snap <- Some s);
      snap_read = (fun () -> m.snap);
    }
  in
  (store, m)

let crash ?(keep = 0) m =
  let pending = Buffer.contents m.pending in
  let keep = max 0 (min keep (String.length pending)) in
  Buffer.add_substring m.durable pending 0 keep;
  Buffer.clear m.pending

let corrupt m ~pos byte =
  let s = Buffer.contents m.durable in
  if pos >= 0 && pos < String.length s then begin
    let b = Bytes.of_string s in
    Bytes.set b pos byte;
    Buffer.clear m.durable;
    Buffer.add_bytes m.durable b
  end

let chop m n =
  let s = Buffer.contents m.durable in
  let keep = max 0 (String.length s - max 0 n) in
  Buffer.clear m.durable;
  Buffer.add_substring m.durable s 0 keep

let durable_size m = Buffer.length m.durable
let pending_size m = Buffer.length m.pending
let snapshot_of m = m.snap
let set_snapshot m s = m.snap <- s

(* ------------------------------------------------------------------ *)
(* Group-commit wrapper                                                *)

module Batched = struct
  type store = t

  type t = {
    store : store;
    mutable staged : int;
    mutable appends : int;
    mutable syncs : int;
  }

  let wrap store = { store; staged = 0; appends = 0; syncs = 0 }

  let append t bytes =
    t.store.wal_append bytes;
    t.staged <- t.staged + 1;
    t.appends <- t.appends + 1

  let flush t =
    if t.staged > 0 then begin
      t.store.wal_sync ();
      t.syncs <- t.syncs + 1;
      t.staged <- 0
    end

  let note_durable t = t.staged <- 0
  let staged t = t.staged
  let appends t = t.appends
  let syncs t = t.syncs
end

(* ------------------------------------------------------------------ *)
(* File-backed store                                                   *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let fsync_dir dir =
  (* Make the rename itself durable.  Some filesystems refuse fsync on a
     directory fd; that only weakens the barrier, never correctness. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

(* A new directory entry is durable only once its directory is
   fsynced: each new directory's parent, and [dir] for [wal.log]. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    mkdir_p parent;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    fsync_dir parent
  end

let file ~dir =
  mkdir_p dir;
  let wal_path = Filename.concat dir "wal.log" in
  let snap_path = Filename.concat dir "snapshot.bin" in
  let fresh = not (Sys.file_exists wal_path) in
  let wal_fd =
    ref (Unix.openfile wal_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644)
  in
  if fresh then fsync_dir dir;
  {
    wal_append = (fun s -> write_all !wal_fd s);
    wal_sync = (fun () -> Unix.fsync !wal_fd);
    wal_read = (fun () -> read_file wal_path);
    wal_reset =
      (fun () ->
        Unix.close !wal_fd;
        wal_fd :=
          Unix.openfile wal_path
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
            0o644;
        Unix.fsync !wal_fd);
    snap_write =
      (fun s ->
        let tmp = snap_path ^ ".tmp" in
        let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        write_all fd s;
        Unix.fsync fd;
        Unix.close fd;
        Unix.rename tmp snap_path;
        fsync_dir dir);
    snap_read =
      (fun () ->
        if Sys.file_exists snap_path then Some (read_file snap_path) else None);
  }
