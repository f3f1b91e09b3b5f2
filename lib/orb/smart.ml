type t = {
  invoker : Orb_intf.invoker;
  codec : Wire.Codec.t;  (* the base codec the memo keys are encoded in *)
  target : Objref.t;
  capacity : int;
  invalidate_on : string list;
  lock : Locked.t;
  memo : (string * string, Wire.Codec.t * string) Hashtbl.t;
      (* (op, args) -> reply payload and its codec *)
  mutable order : (string * string) list;  (* newest first *)
  mutable generation : int;  (* bumped by every [invalidate] *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) ?(invalidate_on = []) ~codec invoker target =
  {
    invoker;
    codec;
    target;
    capacity = max 1 capacity;
    invalidate_on;
    lock = Locked.create ~name:"smart" ~rank:Locked.Rank.smart;
    memo = Hashtbl.create 32;
    order = [];
    generation = 0;
    hits = 0;
    misses = 0;
  }

let with_lock t f = Locked.with_lock t.lock f

let invalidate t =
  with_lock t (fun () ->
      Hashtbl.reset t.memo;
      t.order <- [];
      t.generation <- t.generation + 1)

(* [generation] is the one the miss was looked up under: a reply that
   was in flight across an [invalidate] may predate the write that
   caused it, so it is not kept. *)
let remember t key generation reply =
  with_lock t (fun () ->
      if generation = t.generation && not (Hashtbl.mem t.memo key) then (
        Hashtbl.replace t.memo key reply;
        t.order <- key :: t.order;
        if List.length t.order > t.capacity then
          match List.rev t.order with
          | oldest :: rest ->
              Hashtbl.remove t.memo oldest;
              t.order <- List.rev rest
          | [] -> ()))

let lookup t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.memo key with
      | Some reply ->
          t.hits <- t.hits + 1;
          `Hit reply
      | None ->
          t.misses <- t.misses + 1;
          `Miss t.generation)

let decode (codec, payload) = codec.Wire.Codec.decoder payload

let call t ~op marshal =
  if List.mem op t.invalidate_on then begin
    (* Flushed on both sides of the write: before, so no read after it
       starts is served from the old state; after, so a read that
       raced it and cached a pre-write reply is dropped too. *)
    invalidate t;
    let reply = t.invoker t.target ~op marshal in
    invalidate t;
    decode reply
  end
  else
    let key =
      let e = t.codec.Wire.Codec.encoder () in
      marshal e;
      (op, e.Wire.Codec.finish ())
    in
    match lookup t key with
    | `Hit reply -> decode reply
    | `Miss generation ->
        let reply = t.invoker t.target ~op marshal in
        remember t key generation reply;
        decode reply

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let target t = t.target
