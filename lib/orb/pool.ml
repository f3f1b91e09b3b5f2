(* A bounded worker pool with explicit admission control — the server's
   overload policy, separated from dispatch logic in the spirit of the
   paper's "policy is configuration, not code". Connection reader
   threads decode requests and [submit] them here; a fixed set of
   workers executes them. The queue is bounded, and a submit against a
   full queue is rejected at once: the server sheds load and keeps its
   latency instead of parking the reader.

   Workers come in two shapes. [Systhreads] (the default) runs one
   systhread per worker on the domain that started the pool: workers
   share its runtime lock, so they overlap waiting (I/O, sleeps) but
   not compute. [Domains] runs one OCaml domain per worker, so
   CPU-bound dispatches execute in parallel on separate cores — the
   model bench E13 measures, and the documented override for
   CPU-bound servants. It is not the default because in OCaml 5 every
   minor collection stops every domain: a default ORB with 8 worker
   domains ran 9 domains per process, and each of the ~2 minor GCs of
   a bulk call paid a nine-domain stop-the-world (callbench
   [bulk-hcx-tcp], 10 alternating pairs on a 2-core host: CPU per call
   6009 -> 1971 us and peak RSS 20.6 -> 14.0 MiB from [Domains] to
   [Systhreads], with the same number of collections). The queue
   between reader threads and workers is the same either way: OCaml
   5's [Mutex]/[Condition] (via [Locked]) synchronize threads and
   domains alike, so admission semantics are identical across
   backends.

   The one deadline-bounded wait, [drain], is a plain condition loop
   over [Locked.wait_until_c], the runtime's one timed wait. *)

type backend = Systhreads | Domains

type config = {
  workers : int;
  queue_capacity : int;
  backend : backend;
}

let default_config = { workers = 8; queue_capacity = 64; backend = Systhreads }

(* A queued job and what to do with it if the pool is stopped before a
   worker picks it up. The cancel callback must answer the peer (a
   system-error reply) so a pipelined client is not left waiting out
   its call deadline on a request that silently evaporated. *)
type job = { run : unit -> unit; cancel : unit -> unit }

type t = {
  config : config;
  lock : Locked.t;  (* rank [pool] *)
  nonempty : Locked.cond;  (* workers park here waiting for jobs *)
  change : Locked.cond;  (* job finished: [drain] re-checks *)
  queue : job Queue.t;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable active : int;  (* jobs currently executing *)
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable domains : unit Domain.t list;  (* worker handles; Domains only *)
}

let rec worker_loop t =
  let job =
    Locked.with_lock t.lock (fun () ->
        let rec next () =
          if not (Queue.is_empty t.queue) then begin
            let job = Queue.pop t.queue in
            t.active <- t.active + 1;
            Some job
          end
          else if t.stopping then None
          else begin
            Locked.wait_c t.nonempty;
            next ()
          end
        in
        next ())
  in
  match job with
  | None -> ()  (* stopped and drained: the worker exits *)
  | Some job ->
      (* A job failing must never kill its worker: the job itself is
         responsible for error replies; residual exceptions here mean
         the connection died under it. *)
      (try job.run () with _ -> ());
      Locked.with_lock t.lock (fun () ->
          t.active <- t.active - 1;
          t.completed <- t.completed + 1;
          Locked.broadcast_c t.change);
      worker_loop t

let create config =
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_capacity = max 1 config.queue_capacity;
    }
  in
  let lock = Locked.create ~name:"pool" ~rank:Locked.Rank.pool in
  let t =
    {
      config;
      lock;
      nonempty = Locked.new_cond lock;
      change = Locked.new_cond lock;
      queue = Queue.create ();
      accepting = true;
      stopping = false;
      active = 0;
      submitted = 0;
      completed = 0;
      rejected = 0;
      domains = [];
    }
  in
  (match config.backend with
  | Systhreads ->
      for _ = 1 to config.workers do
        ignore (Locked.spawn "pool.worker" (fun () -> worker_loop t))
      done
  | Domains ->
      t.domains <-
        List.init config.workers (fun _ ->
            Locked.spawn_domain "pool.worker" (fun () -> worker_loop t)));
  t

let submit t ?(cancel = fun () -> ()) ?expire run =
  (* [expire] is the request's own remaining-budget instant: a budget
     already lapsed at admission is reported as [`Expired], distinct
     from an overload rejection. *)
  let lapsed =
    match expire with Some x -> Unix.gettimeofday () >= x | None -> false
  in
  Locked.with_lock t.lock (fun () ->
      let refuse outcome =
        t.rejected <- t.rejected + 1;
        outcome
      in
      if lapsed then refuse `Expired
      else if not t.accepting then
        refuse (`Rejected "draining: not accepting new requests")
      else if Queue.length t.queue >= t.config.queue_capacity then
        refuse (`Rejected "overloaded: request queue is full")
      else begin
        Queue.push { run; cancel } t.queue;
        t.submitted <- t.submitted + 1;
        Locked.signal_c t.nonempty;
        `Accepted
      end)

let depth t = Locked.with_lock t.lock (fun () -> Queue.length t.queue)
let active t = Locked.with_lock t.lock (fun () -> t.active)

type stats = { submitted : int; completed : int; rejected : int }

let stats t =
  Locked.with_lock t.lock (fun () ->
      { submitted = t.submitted; completed = t.completed; rejected = t.rejected })

let drain t ~deadline =
  Locked.with_lock t.lock (fun () ->
      t.accepting <- false;
      let rec wait () =
        if Queue.is_empty t.queue && t.active = 0 then `Drained
        else if Locked.wait_until_c t.change deadline then wait ()
        else `Aborted (Queue.length t.queue + t.active)
      in
      wait ())

let stop t =
  let dropped, handles =
    Locked.with_lock t.lock (fun () ->
        t.accepting <- false;
        t.stopping <- true;
        let dropped = List.rev (Queue.fold (fun acc j -> j :: acc) [] t.queue) in
        Queue.clear t.queue;
        Locked.broadcast_c t.nonempty;
        Locked.broadcast_c t.change;
        let hs = t.domains in
        t.domains <- [];
        (dropped, hs))
  in
  (* Cancel dropped jobs OUTSIDE the pool lock, in submission order: a
     cancel sends an error reply, which takes the connection's write
     lock (rank communicator, above pool) and may block on the
     transport — both forbidden under the pool lock. *)
  List.iter (fun j -> try j.cancel () with _ -> ()) dropped;
  (* Workers are not joined here: one may be executing a job blocked on
     I/O that only the caller's next step (closing the connections)
     unblocks. Idle workers exit immediately; busy ones exit after
     their current job. Domain workers still need a join eventually —
     the runtime caps live domains — so a detached reaper joins the
     handles as the workers wind down. *)
  (match handles with
  | [] -> ()
  | handles ->
      ignore
        (Locked.spawn "pool.reaper" (fun () -> List.iter Domain.join handles)));
  List.length dropped
