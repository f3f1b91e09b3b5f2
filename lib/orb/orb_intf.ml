(** Shared function types, defined outside the [Orb] facade so helper
    modules (e.g. {!Smart}) can reference the invoke shape without a
    dependency cycle. *)

type invoker =
  Objref.t -> op:string -> (Wire.Codec.encoder -> unit) -> Wire.Codec.t * string
(** Two-way invocation with the reply left encoded: the arguments'
    marshal closure in, the reply payload out together with the codec
    it is encoded in (the codec the connection carried the call in,
    which need not be the ORB's base codec). Raises the ORB's exceptions
    on failure. *)
