(* Seeded C402: a timed wait on a lock other than the innermost held
   one. [Locked.wait_until] releases only the lock it is given for each
   bounded sleep, so here [inner] stays taken for the whole wait. *)

let outer = Locked.create ~name:"fixture.outer" ~rank:Locked.Rank.pool
let inner = Locked.create ~name:"fixture.inner" ~rank:Locked.Rank.metrics

let wrong deadline =
  Locked.with_lock outer (fun () ->
      Locked.with_lock inner (fun () -> Locked.wait_until outer deadline))

(* The sanctioned shape: wait on the innermost held lock. *)
let right deadline =
  Locked.with_lock inner (fun () -> Locked.wait_until inner deadline)
