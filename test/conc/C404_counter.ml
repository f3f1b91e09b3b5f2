(* Seeded C404, the stats-counter shape: a module-level counter bumped
   on a hot path with no lock held, while its reader takes a lock —
   the bump races every other bump and the locked read guards nothing. *)

let lock = Locked.create ~name:"fixture.c404.counter" ~rank:Locked.Rank.metrics
let timeouts = ref 0

let count_timeout () = incr timeouts

let snapshot () = Locked.with_lock lock (fun () -> !timeouts)
