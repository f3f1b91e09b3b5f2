(** Smart proxies: client-side result caching in the stub layer.

    Section 5 surveys Orbix's "smart proxies that can cache object state"
    and Visibroker's "smart stubs" as fixed customization hooks. This
    module is the runtime support a generated (or hand-written) smart
    stub needs: a per-proxy memo of reply payloads keyed by
    (operation, argument payload), with explicit and operation-triggered
    invalidation.

    The cache works at the payload level, beneath argument/result types,
    so one implementation serves every interface. Keys are the
    arguments encoded in the ORB's base codec, whatever codec the
    connection carries the call in; each cached reply is kept with the
    codec it arrived in, so a proxy on a negotiated connection decodes
    its hits exactly like its misses. Typical use (see
    [test_smart.ml] and bench §E7): wrap an attribute getter so repeated
    reads cost no remote call, and list the corresponding setter in
    [invalidate_on] so writes flush the cached state.

    Construct through {!Orb.smart_proxy}, which binds the ORB's invoker
    and base codec. *)

type t

val create :
  ?capacity:int ->
  ?invalidate_on:string list ->
  codec:Wire.Codec.t ->
  Orb_intf.invoker ->
  Objref.t ->
  t
(** [codec] encodes the memo keys. [capacity] bounds the memo (default
    64, oldest evicted first). Operations listed in [invalidate_on]
    flush the whole memo before and after being invoked and are never
    cached themselves; a reply that was in flight across a flush is not
    cached either, since it may predate the write. *)

val call : t -> op:string -> (Wire.Codec.encoder -> unit) -> Wire.Codec.decoder
(** Like a two-way [Orb.invoke], but repeated calls with identical
    operation and arguments are served from the memo without touching
    the network. Exceptions from the underlying invoker pass through
    (and are never cached). *)

val invalidate : t -> unit
(** Flush the memo, including replies still in flight: a call that
    missed before the flush does not cache its reply. *)

val hits : t -> int
val misses : t -> int
val target : t -> Objref.t
