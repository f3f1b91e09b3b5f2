(** A bounded worker pool with explicit admission control — the server's
    overload policy (see DESIGN.md "Server model and overload policy").

    Connection reader threads decode requests and {!submit} them; a
    fixed set of workers executes them. The pending queue is bounded:
    a submit against a full queue fails immediately, so the server
    answers ["overloaded"] and stays responsive. The {!backend} decides
    what a worker is: a systhread (one shared runtime lock, the
    default) or an OCaml domain (parallel dispatch, the override for
    CPU-bound servants). *)

type backend =
  | Systhreads
      (** One systhread per worker: workers share the spawning domain's
          runtime lock, so they overlap waiting but not compute. *)
  | Domains
      (** One domain per worker: CPU-bound jobs run in parallel on
          separate cores. Worker domains are joined by a detached
          reaper after {!stop}; keep [workers] within the same order
          as the machine's cores — the runtime caps live domains. *)

type config = {
  workers : int;  (** Worker count (min 1). *)
  queue_capacity : int;  (** Pending-request bound (min 1). *)
  backend : backend;
}

val default_config : config
(** 8 workers, 64 queued requests, [Systhreads]. Not [Domains], because
    in OCaml 5 every minor collection stops every domain: with 8 worker
    domains each minor GC of a call was a nine-domain stop-the-world.
    On a 2-core host, callbench [bulk-hcx-tcp] (10 alternating pairs)
    measured 6009 µs of CPU per call on [Domains] against 1971 µs on
    [Systhreads], with the same number of minor collections. Set
    [backend = Domains] for CPU-bound servants that should run in
    parallel (bench E13). *)

type t

val create : config -> t
(** Create the pool and start its workers. *)

val submit :
  t ->
  ?cancel:(unit -> unit) ->
  ?expire:float ->
  (unit -> unit) ->
  [ `Accepted | `Rejected of string | `Expired ]
(** Enqueue a job if the queue has room; never blocks. [`Rejected
    reason] when the queue is full (["overloaded: ..."]) or the pool is
    draining/stopped. The job must not raise; residual exceptions are
    swallowed to protect the worker.

    [expire] is the request's own remaining-budget instant (absolute,
    [Unix.gettimeofday] domain): a budget already lapsed at submit
    returns [`Expired] (counted as a rejection in {!stats}), distinct
    from an overload [`Rejected], so the server can answer "expired"
    rather than "overloaded".

    [cancel] runs (at most once, never together with the job) if the
    pool is stopped while the job is still queued: the submitter's
    chance to answer the peer — e.g. a system-error reply — instead of
    silently discarding an admitted request. It is called outside the
    pool lock and may perform I/O. *)

val depth : t -> int
(** Currently queued (not yet started) jobs. *)

val active : t -> int
(** Jobs currently executing. *)

type stats = { submitted : int; completed : int; rejected : int }

val stats : t -> stats

val drain : t -> deadline:float option -> [ `Drained | `Aborted of int ]
(** Stop admitting (subsequent submits are rejected) and wait until the
    queue and all in-flight jobs are finished. [deadline] is an
    absolute [Unix.gettimeofday] instant; past it, [`Aborted n] reports
    the queued + running jobs abandoned. [~deadline:None] waits
    indefinitely. *)

val stop : t -> int
(** Stop immediately: discard queued jobs — running each one's [cancel]
    callback first, in submission order — and return how many were
    dropped. Running jobs finish; workers then shut down (domain
    workers are joined by a detached reaper so their runtime slots are
    reclaimed). Does not block on the workers — a running job may be
    blocked on I/O the caller is about to unblock (e.g. by closing
    connections). Idempotent. *)
