(* The observability facade: one [Obs.t] per ORB bundles an on/off
   switch, a metrics registry and the registered span sinks. The ORB's
   invocation and dispatch paths consult [enabled] before doing any
   tracing work, so a disabled instance costs one boolean load per
   probe point (the "trace-off" side of bench E9). Event counters are
   the exception: they always count. *)

module Jout = Jout
module Trace = Trace
module Metrics = Metrics
module Sink = Sink

type t = {
  on : bool Atomic.t;  (* read from every domain; a plain mutable bool
                          would be an unsynchronized cross-domain read *)
  lock : Locked.t;  (* guards [sinks]; rank [obs] *)
  mutable sinks : Sink.t list;  (* registration order; emit iterates as-is *)
  spans_emitted : int Atomic.t;
  metrics : Metrics.t;
}

let create ?(enabled = true) () =
  {
    on = Atomic.make enabled;
    lock = Locked.create ~name:"obs" ~rank:Locked.Rank.obs;
    sinks = [];
    spans_emitted = Atomic.make 0;
    metrics = Metrics.create ();
  }

let enabled t = Atomic.get t.on
let set_enabled t on = Atomic.set t.on on
let metrics t = t.metrics

let add_sink t sink =
  Locked.with_lock t.lock (fun () ->
      (* Append: registration is rare, emit is per-span — keeping the
         list in registration order saves a List.rev on every emit. *)
      t.sinks <- t.sinks @ [ sink ])

let sink_names t =
  Locked.with_lock t.lock (fun () ->
      List.map (fun (s : Sink.t) -> s.Sink.name) t.sinks)

let emit t span =
  if Atomic.get t.on then begin
    let sinks = Locked.with_lock t.lock (fun () -> t.sinks) in
    Atomic.incr t.spans_emitted;
    (* Sinks run outside the lock (a slow sink must not serialize the
       ORB) and never propagate: losing a span beats failing a call. *)
    List.iter (fun (s : Sink.t) -> try s.Sink.emit span with _ -> ()) sinks
  end

let observe t ~name seconds =
  if Atomic.get t.on then Metrics.observe t.metrics ~name seconds

let add_bytes t ~endpoint ~dir n =
  if Atomic.get t.on then Metrics.add_bytes t.metrics ~endpoint ~dir n

(* Counters are never gated: they are the ORB's only event ledger
   ([Orb.stats] reads them), and a bump is a map lookup plus one
   atomic add — no label to build, nothing allocated once the cell
   exists. *)
let incr t ~name = Metrics.incr t.metrics ~name

let set_gauge t ~name v =
  if Atomic.get t.on then Metrics.set_gauge t.metrics ~name v

(* ---------------- snapshots ---------------- *)

type snapshot = { spans_emitted : int; metrics : Metrics.snapshot }

let snapshot (t : t) =
  {
    spans_emitted = Atomic.get t.spans_emitted;
    metrics = Metrics.snapshot t.metrics;
  }

let snapshot_to_json s =
  Jout.obj
    [
      ("spans_emitted", Jout.int s.spans_emitted);
      ("metrics", Metrics.snapshot_to_json s.metrics);
    ]
