(* Counting slots, not threads: the serving layer schedules shard work
   round by round and only needs an answer to "may this key start one
   more unit right now?".  Mutex-guarded plain ints — acquisition is
   rare (per event, not per packet) and the bulkhead invariant (no key
   exceeds its cap even under concurrent shards) matters more than
   lock-freedom. *)
type t = {
  lock : Mutex.t;
  slots : int;
  per_key_cap : int;
  mutable total : int;
  by_key : (int, int) Hashtbl.t;
}

let create ~slots ~per_key_cap =
  if slots < 1 then invalid_arg "Serve.Bulkhead.create: slots must be >= 1";
  if per_key_cap < 1 then
    invalid_arg "Serve.Bulkhead.create: per_key_cap must be >= 1";
  {
    lock = Mutex.create ();
    slots;
    per_key_cap;
    total = 0;
    by_key = Hashtbl.create 16;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let key_count t key = Option.value (Hashtbl.find_opt t.by_key key) ~default:0

let try_acquire t ~key =
  with_lock t @@ fun () ->
  let mine = key_count t key in
  if t.total >= t.slots || mine >= t.per_key_cap then false
  else begin
    t.total <- t.total + 1;
    Hashtbl.replace t.by_key key (mine + 1);
    true
  end

let release t ~key =
  with_lock t @@ fun () ->
  let mine = key_count t key in
  if mine = 0 then invalid_arg "Serve.Bulkhead.release: key holds no slot";
  t.total <- t.total - 1;
  if mine = 1 then Hashtbl.remove t.by_key key
  else Hashtbl.replace t.by_key key (mine - 1)

let reset t =
  with_lock t @@ fun () ->
  t.total <- 0;
  Hashtbl.reset t.by_key

let in_flight t = with_lock t @@ fun () -> t.total
let key_in_flight t ~key = with_lock t @@ fun () -> key_count t key
let slots t = t.slots
