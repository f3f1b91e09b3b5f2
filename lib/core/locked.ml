(* Named, ranked locks — the ORB's locking policy as an artifact.

   Acquisition order must strictly descend ranks: while holding a lock
   of rank [r], only locks of rank [< r] may be taken. [Rank.all] is
   the single source of truth; [lib/analysis/conc.ml] resolves
   [~rank:Rank.x] annotations against it statically, and the runtime
   checker below enforces the same lattice per thread when enabled.

   The checker costs one atomic load per acquisition when off. When
   on, each thread carries a stack of (rank, name) pairs for the locks
   it holds; pushing a rank that is not strictly below the current top
   raises [Rank_violation] and records the event so a test harness can
   assert zero violations after the fact even if an intervening
   handler swallowed the exception. *)

module Rank = struct
  let communicator = 70
  let pool = 60
  let connection_cache = 50
  let interceptor = 47
  let smart = 46
  let adapter = 45
  let naming_registry = 44
  let naming_resolver = 43
  let mux = 40
  let breaker = 30
  let mem_registry = 28
  let mem_listener = 26
  let tcp_channel = 25
  let pipe = 24
  let fault = 23
  let metrics = 20
  let trace_ids = 15
  let objref_cache = 12
  let obs = 11
  let sinks = 10

  let all =
    [
      ("communicator", communicator);
      ("pool", pool);
      ("connection_cache", connection_cache);
      ("interceptor", interceptor);
      ("smart", smart);
      ("adapter", adapter);
      ("naming_registry", naming_registry);
      ("naming_resolver", naming_resolver);
      ("mux", mux);
      ("breaker", breaker);
      ("mem_registry", mem_registry);
      ("mem_listener", mem_listener);
      ("tcp_channel", tcp_channel);
      ("pipe", pipe);
      ("fault", fault);
      ("metrics", metrics);
      ("trace_ids", trace_ids);
      ("objref_cache", objref_cache);
      ("obs", obs);
      ("sinks", sinks);
    ]
end

type t = {
  l_name : string;
  l_rank : int;
  l_mutex : Mutex.t;
  l_cond : Condition.t;
}

type cond = { c_owner : t; c_cond : Condition.t }

exception Rank_violation of string

let () =
  Printexc.register_printer (function
    | Rank_violation m -> Some (Printf.sprintf "Locked.Rank_violation: %s" m)
    | _ -> None)

(* ---------------- the runtime checker ---------------- *)

let checking_flag =
  Atomic.make
    (match Sys.getenv_opt "ORB_LOCK_CHECK" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_checking b = Atomic.set checking_flag b
let checking () = Atomic.get checking_flag

(* Internal bookkeeping state. These are deliberately raw primitives —
   the checker cannot be built on top of itself — and this module is
   the one place C403/C407 exempts.

   Held-rank stacks are keyed by (domain, thread), not by thread id
   alone: each domain runs its own threads library instance, so a
   worker domain's threads can report ids that collide with the main
   domain's readers. Under a thread-only key two innocent threads on
   different domains would share one stack and the checker would
   report phantom inversions. *)
let reg_mutex = Mutex.create ()
let held : (int * int, (int * string) list) Hashtbl.t = Hashtbl.create 64
let violation_log : string list ref = ref []

let violations () = Mutex.protect reg_mutex (fun () -> !violation_log)
let reset_violations () =
  Mutex.protect reg_mutex (fun () -> violation_log := [])

let domain_id () = (Domain.self () :> int)
let self_id () = (domain_id (), Thread.id (Thread.self ()))

let stack_of id =
  Mutex.protect reg_mutex (fun () ->
      Option.value (Hashtbl.find_opt held id) ~default:[])

let set_stack id st =
  Mutex.protect reg_mutex (fun () ->
      if st = [] then Hashtbl.remove held id else Hashtbl.replace held id st)

let record_violation msg =
  Mutex.protect reg_mutex (fun () ->
      violation_log := msg :: !violation_log);
  raise (Rank_violation msg)

(* Called before blocking on [l.l_mutex]: the would-be acquisition must
   sit strictly below the newest lock this thread already holds. *)
let check_push l =
  let ((d, th) as id) = self_id () in
  let st = stack_of id in
  (match st with
  | (top_rank, top_name) :: _ when l.l_rank >= top_rank ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d acquiring %S (rank %d) while holding %S \
            (rank %d): acquisition order must strictly descend ranks"
           d th l.l_name l.l_rank top_name top_rank)
  | _ -> ());
  set_stack id ((l.l_rank, l.l_name) :: st)

let check_pop l =
  let id = self_id () in
  match stack_of id with
  | (r, n) :: rest when r = l.l_rank && n = l.l_name -> set_stack id rest
  | st ->
      (* Release out of acquisition order (or stack lost to a checking
         toggle mid-hold): drop the first matching entry, quietly. *)
      let rec drop = function
        | [] -> []
        | (r, n) :: rest when r = l.l_rank && n = l.l_name -> rest
        | e :: rest -> e :: drop rest
      in
      set_stack id (drop st)

(* Waiting on a condition releases its lock; the lock must be the
   newest one held (waiting with a *nested* inner lock still held
   would block the whole lattice below us). *)
let check_wait l what =
  let ((d, th) as id) = self_id () in
  match stack_of id with
  | (r, n) :: _ when r = l.l_rank && n = l.l_name -> ()
  | (_, top_name) :: _ ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d waiting on %s of %S while %S is the newest \
            held lock"
           d th what l.l_name top_name)
  | [] ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d waiting on %s of %S without holding it" d th
           what l.l_name)

(* ---------------- the lock itself ---------------- *)

let create ~name ~rank =
  { l_name = name; l_rank = rank; l_mutex = Mutex.create ();
    l_cond = Condition.create () }

let name l = l.l_name
let rank l = l.l_rank

let with_lock l f =
  if Atomic.get checking_flag then begin
    check_push l;
    match
      Mutex.lock l.l_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock l.l_mutex) f
    with
    | v -> check_pop l; v
    | exception e -> check_pop l; raise e
  end
  else begin
    Mutex.lock l.l_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock l.l_mutex) f
  end

(* Waiting releases the lock, so the checker requires it to be the
   newest one held. OCaml's [Condition] has no timed wait, so a wait
   with a deadline polls: the lock is released for one bounded sleep
   and re-taken, and the caller re-checks its predicate. Every deadline
   wait in the runtime goes through here, so this constant is the one
   place the granularity of a timeout is decided. *)
let poll_interval = 0.005

let timed l cond what deadline =
  if Atomic.get checking_flag then check_wait l what;
  match deadline with
  | None ->
      Condition.wait cond l.l_mutex;
      true
  | Some d ->
      let remaining = d -. Unix.gettimeofday () in
      remaining > 0.
      && begin
           Mutex.unlock l.l_mutex;
           Thread.delay (Float.min poll_interval remaining);
           Mutex.lock l.l_mutex;
           true
         end

let wait_until l deadline = timed l l.l_cond "intrinsic condition" deadline
let wait l = ignore (wait_until l None)
let signal l = Condition.signal l.l_cond
let broadcast l = Condition.broadcast l.l_cond

let new_cond l = { c_owner = l; c_cond = Condition.create () }
let wait_until_c c deadline = timed c.c_owner c.c_cond "condition" deadline
let wait_c c = ignore (wait_until_c c None)
let signal_c c = Condition.signal c.c_cond
let broadcast_c c = Condition.broadcast c.c_cond

(* ---------------- threads and domains ---------------- *)

let spawn _name f =
  Thread.create
    (fun () ->
      (try f () with _ -> ());
      if Atomic.get checking_flag then set_stack (self_id ()) [])
    ()

let spawn_domain _name f =
  Domain.spawn (fun () ->
      (try f () with _ -> ());
      (* The checker's stack entry for this (domain, thread) key would
         otherwise outlive the domain; domain ids are recycled, so a
         stale entry could frame an unrelated future domain. *)
      if Atomic.get checking_flag then set_stack (self_id ()) [])

(* ---------------- domain-local storage ---------------- *)

(* The sanctioned Domain.DLS access point (raw Domain.DLS outside this
   module is a C407): per-domain state such as the trace-id RNG lives
   behind these, so the analyzer has one place to trust and callers
   never touch split-orphan DLS keys directly. *)

type 'a domain_local = 'a Domain.DLS.key

let new_domain_local init = Domain.DLS.new_key init
let domain_local_get k = Domain.DLS.get k
