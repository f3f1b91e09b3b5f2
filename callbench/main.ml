(* The ORB call benchmark. One process runs one workload: the server ORB
   and the client ORB live in it, like the E9-E15 experiments, and at
   most two caller threads drive a closed loop (each caller sends its
   next call only after the previous one returned).

   --trace 0: the end-to-end run, tracing off.
   --trace 1: the per-layer run: untraced and traced segments in turn
              (the traced ones feed the cost ledger), then the isolated
              layer probes.

   Every reply is checked against its seeded argument. The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics of the chosen run. *)

let workload_name = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let out_dir = ref ".callbench-out"
let commit = ref "unknown"

let spec =
  [
    ("--workload", Arg.Set_string workload_name, "NAME echo-tcp | bulk-hcx-tcp | deadline-mem");
    ("--seed", Arg.Set_int seed, "N payload seed");
    ("--seconds", Arg.Set_int seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run or per-layer run");
    ("--out", Arg.Set_string out_dir, "DIR where results and spans are written");
    ("--commit", Arg.Set_string commit, "ID source revision to stamp");
  ]

(* Set-ups per end-to-end run; setup_s is their median. With a pause
   of 0.2 s after each, they span about 3 s, so a short burst of outside
   load moves fewer than half of them. *)
let setups = 15

(* ---------------- one ORB pair ---------------- *)

type pair = {
  server : Orb.t;
  client : Orb.t;
  target : Orb.Objref.t;
  skeleton : Orb.Skeleton.t;
  traced : bool Atomic.t;
}

(* From ORB creation to the first verified reply (negotiation included
   when the workload offers codecs). With a ledger both ORBs get an
   Obs, created disabled, with the ledger's sinks attached. *)
let setup ?ledger (w : Workload.t) args =
  let obs sink =
    Option.map
      (fun l ->
        let o = Obs.create ~enabled:false () in
        Obs.add_sink o (sink l);
        o)
      ledger
  in
  let server_obs = obs Ledger.server_sink and client_obs = obs Ledger.client_sink in
  let on_server =
    match ledger with Some l -> Ledger.on_server l | None -> fun _ _ _ _ -> ()
  in
  let t0 = Util.now () in
  let traced = Atomic.make false in
  let server = Workload.create_orb ?obs:server_obs w in
  Orb.start server;
  let skeleton = Workload.skeleton w ~traced ~on_server in
  let target = Orb.export server skeleton in
  let client = Workload.create_orb ?obs:client_obs w in
  let arg = Workload.setup_arg w args in
  let ok =
    match Workload.call client target w arg with
    | r -> r = Some arg
    | exception _ -> false
  in
  ({ server; client; target; skeleton; traced }, ok, Util.now () -. t0)

let teardown p =
  Orb.shutdown p.client;
  Orb.shutdown p.server

(* ---------------- the closed loop ---------------- *)

type loop = {
  attempted : int;
  failed : int;
  samples : Util.Samples.t list;  (** successful calls only *)
  elapsed : float;
  cpu : float;
  marks : (float * float * int) list;
      (** (wall, process CPU, machine steal ticks) at the start, about
          every second, and at the end *)
  steal : int;  (** machine steal ticks during the loop *)
  error : string option;  (** the first failure *)
}

(* [one i] makes call number [i] and returns its output check, which
   runs after the call's clock has stopped. *)
let closed_loop ~callers ~seconds (one : int -> unit -> bool) =
  let stop_at = Util.now () +. seconds in
  let slots = Array.init callers (fun _ -> (Util.Samples.create (), ref 0, ref 0, ref None)) in
  let body c =
    let lat, attempted, failed, error = slots.(c) in
    let fail msg =
      incr failed;
      if !error = None then error := Some msg
    in
    let i = ref c in
    while Util.now () < stop_at do
      let t0 = Util.now () in
      (match one !i with
      | check ->
          let t1 = Util.now () in
          if check () then Util.Samples.add lat ~at:t1 (t1 -. t0)
          else fail "a reply differs from its argument"
      | exception e -> fail (Printexc.to_string e));
      incr attempted;
      i := !i + callers
    done
  in
  let mark () = (Util.now (), Util.cpu_s (), Util.steal_ticks ()) in
  let ((w0, cpu0, _) as m0) = mark () in
  let marks = ref [ m0 ] in
  let ticker () =
    let next = ref (w0 +. 1.) in
    while !next < stop_at do
      Thread.delay (Float.max 0. (!next -. Util.now ()));
      marks := mark () :: !marks;
      next := !next +. 1.
    done
  in
  List.iter Thread.join (Thread.create ticker () :: List.init callers (Thread.create body));
  let ((w1, cpu1, s1) as m1) = mark () in
  let _, _, s0 = m0 in
  let elapsed = w1 -. w0 and cpu = cpu1 -. cpu0 in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 slots in
  {
    attempted = sum (fun (_, a, _, _) -> !a);
    failed = sum (fun (_, _, f, _) -> !f);
    samples = Array.to_list (Array.map (fun (l, _, _, _) -> l) slots);
    elapsed;
    cpu;
    marks = List.rev (m1 :: !marks);
    steal = s1 - s0;
    error = Array.fold_left (fun acc (_, _, _, e) -> match acc with None -> !e | s -> s) None slots;
  }

let untraced p (w : Workload.t) args i =
  let v = args.(i mod Array.length args) in
  let r = Workload.call p.client p.target w v in
  fun () -> r = Some v

let completed l = List.fold_left (fun a s -> a + s.Util.Samples.n) 0 l.samples
let calls_per_s l = float_of_int (completed l) /. l.elapsed
let sorted_latencies l = Util.Samples.sorted_between l.samples ~lo:neg_infinity ~hi:infinity

(* The share of the machine's CPU time the hypervisor took while [l]
   ran, in % (clock ticks are 1/100 s on Linux). *)
let steal_pct l =
  float_of_int l.steal
  /. (100. *. float_of_int (Domain.recommended_domain_count ()) *. l.elapsed)
  *. 100.

(* Short enough to leave the run its time, long enough for the first
   connection, negotiation and lazily built caches to settle. *)
let warmup_s () = Float.min 1.0 (float_of_int !seconds /. 10.)

(* ---------------- output checks ---------------- *)

(* The workload's own invariants over both ORBs' public counters. *)
let workload_checks (w : Workload.t) (c : Orb.stats) (s : Orb.stats) =
  let expired = s.Orb.expired_pre_admission + s.Orb.expired_in_queue in
  (match w.codecs with
  | [] -> []
  | _ ->
      [
        ("one connection", c.Orb.opened = 1);
        ("codec negotiated", c.Orb.codec_negotiations >= 1);
        ("no codec fallback", c.Orb.codec_fallbacks + s.Orb.codec_fallbacks = 0);
      ])
  @
  match w.timeout with
  | None -> []
  | Some _ ->
      [
        ("no call timed out", c.Orb.timeouts = 0);
        ("no call shed", expired + s.Orb.rejected = 0);
      ]

(* ---------------- stamp and output ---------------- *)

let backend_name = function
  | Orb.Pool.Domains -> "Domains"
  | Orb.Pool.Systhreads -> "Systhreads"

let stamp (w : Workload.t) =
  [
    ("workload", Util.json_string w.name);
    ("seed", string_of_int !seed);
    ("seconds", string_of_int !seconds);
    ("trace", string_of_int !trace);
    ("callers", string_of_int w.callers);
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("orb_lock_check", if Locked.checking () then "true" else "false");
    ("ocaml", Util.json_string Sys.ocaml_version);
    ("pool_backend", Util.json_string (backend_name Orb.Pool.default_config.Orb.Pool.backend));
    ("commit", Util.json_string !commit);
  ]

let print_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-34s %16.4f %s\n" name v unit) metrics

let metrics_json metrics =
  Util.json_obj
    (List.map
       (fun (name, unit, v) ->
         (name, Util.json_obj [ ("value", Util.json_num v); ("unit", Util.json_string unit) ]))
       metrics)

(* Writes the full result file and prints the one-line result last. *)
let finish (w : Workload.t) ~checks ~attempted ~failed ~metrics ~extra =
  let correct = List.for_all snd checks in
  List.iter
    (fun (what, ok) -> if not ok then Printf.printf "  CHECK FAILED: %s\n" what)
    checks;
  print_metrics metrics;
  let path =
    Filename.concat !out_dir
      (Printf.sprintf "%s-trace%d-seed%d.json" w.name !trace !seed)
  in
  Util.write_file path
    (Util.json_obj
       (stamp w
       @ [
           ("correct", string_of_bool correct);
           ("checks", Util.json_obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks));
           ("attempted", string_of_int attempted);
           ("failed", string_of_int failed);
           ("metrics", metrics_json metrics);
         ]
       @ extra)
    ^ "\n");
  Printf.printf "  wrote %s\n" path;
  print_endline
    (Util.json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json metrics);
       ]);
  if not correct then exit 1

(* ---------------- --trace 0: end to end ---------------- *)

let end_to_end (w : Workload.t) args =
  (* Set up [setups] times; the last pair carries the timed run. A
     set-up started right after a teardown measures that teardown too
     (shutdown returns before the pool's domains are reaped), so each
     one waits for the previous to settle. *)
  let rec go k acc =
    let p, ok, dt = setup w args in
    let acc = (ok, dt) :: acc in
    if k = 1 then (p, List.rev acc)
    else begin
      teardown p;
      Thread.delay 0.2;
      go (k - 1) acc
    end
  in
  let p, setup_runs = go setups [] in
  let warm = closed_loop ~callers:w.callers ~seconds:(warmup_s ()) (untraced p w args) in
  let l = closed_loop ~callers:w.callers ~seconds:(float_of_int !seconds) (untraced p w args) in
  let cs = Orb.stats p.client and ss = Orb.stats p.server in
  teardown p;
  let rss = Util.rss_peak_mb () in
  let n = completed l in
  let latencies = sorted_latencies l in
  let p50, _ = Util.percentile latencies 50. in
  let p99, beyond_p99 = Util.percentile latencies 99. in
  (* The per-second view, for reading drift and steal off the result
     file: (seconds, calls completed, their p50 in us, process CPU
     seconds, machine steal ticks) per tick of the loop. *)
  let rec per_second = function
    | (lo, c0, s0) :: ((hi, c1, s1) :: _ as rest) ->
        let win = Util.Samples.sorted_between l.samples ~lo ~hi in
        let p50 = if win = [||] then 0. else fst (Util.percentile win 50.) in
        Util.json_list
          [ Util.json_num (hi -. lo); string_of_int (Array.length win); Util.json_num (p50 *. 1e6);
            Util.json_num (c1 -. c0); string_of_int (s1 - s0) ]
        :: per_second rest
    | _ -> []
  in
  let per_second = per_second l.marks in
  let attempted = setups + warm.attempted + l.attempted in
  let failed =
    List.length (List.filter (fun (ok, _) -> not ok) setup_runs) + warm.failed + l.failed
  in
  let metrics =
    [
      ("cpu_us_per_call", "us", l.cpu /. float_of_int n *. 1e6);
      ("setup_s", "s", Util.median (List.map snd setup_runs));
      ("rss_peak_mb", "MiB", rss);
    ]
  in
  (* Wall-clock throughput and latency are printed and kept in the
     result file but not gated: on a VM they follow the hypervisor's
     CPU steal (see README.md), which is printed beside them. *)
  let steal_pct = steal_pct l in
  let failed_share = float_of_int failed /. float_of_int attempted in
  Printf.printf "  failed_share %.6f (%d of %d)\n" failed_share failed attempted;
  Printf.printf "  calls_per_s %.2f 1/s, latency_p50_us %.1f us, machine CPU steal %.1f%%\n"
    (calls_per_s l) (p50 *. 1e6) steal_pct;
  Printf.printf "  latency_p99_us %.1f us over %d calls, %d beyond it\n" (p99 *. 1e6) n
    beyond_p99;
  Option.iter (Printf.printf "  first failure: %s\n") l.error;
  finish w ~attempted ~failed ~metrics
    ~checks:
      ([
         ("every set-up reply verified", List.for_all fst setup_runs);
         ("every reply verified", failed = 0);
         ("at least 10 samples beyond p99", beyond_p99 >= 10);
       ]
      @ workload_checks w cs ss)
    ~extra:
      [
        ("failed_share", Util.json_num failed_share);
        ("latency_samples", string_of_int n);
        ("per_second_s_calls_p50us_cpus_steal", Util.json_list per_second);
        ("calls_per_s", Util.json_num (calls_per_s l));
        ("latency_p50_us", Util.json_num (p50 *. 1e6));
        ("latency_p99_us", Util.json_num (p99 *. 1e6));
        ("machine_steal_pct", Util.json_num steal_pct);
        ("beyond_p99", string_of_int beyond_p99);
        ("setup_s_all", Util.json_list (List.map (fun (_, d) -> Util.json_num d) setup_runs));
        ("client_stats", Orb.stats_to_json cs);
        ("server_stats", Orb.stats_to_json ss);
      ]

(* ---------------- --trace 1: per layer ---------------- *)

(* Wire bytes and I/O operations over the transport's own endpoint
   labels; the per-codec twin labels count the same bytes again. *)
let meter (w : Workload.t) orb =
  let prefix = w.transport ^ ":" in
  List.fold_left
    (fun (bytes, reads, writes) e ->
      if String.starts_with ~prefix e.Obs.Metrics.endpoint then
        ( bytes + e.Obs.Metrics.bytes_in + e.Obs.Metrics.bytes_out,
          reads + e.Obs.Metrics.reads,
          writes + e.Obs.Metrics.writes )
      else (bytes, reads, writes))
    (0, 0, 0)
    (Obs.snapshot (Orb.obs orb)).Obs.metrics.Obs.Metrics.endpoints

(* Segments per phase: untraced and traced segments alternate, so drift
   over the run biases neither side of trace.overhead_pct. *)
let rounds = 4

let per_layer (w : Workload.t) args =
  let ledger = Ledger.create () in
  let p, setup_ok, _ = setup ~ledger w args in
  let s = float_of_int !seconds in
  let segment = 0.7 *. s /. float_of_int (2 * rounds) in
  let warm = closed_loop ~callers:w.callers ~seconds:(warmup_s ()) (untraced p w args) in
  let set_traced b =
    Obs.set_enabled (Orb.obs p.server) b;
    Obs.set_enabled (Orb.obs p.client) b;
    Atomic.set p.traced b
  in
  (* Traced calls. Pool depth is sampled after each call returns,
     outside the call's own spans. *)
  let calls = Mutex.create () and joined = ref [] and unjoined = Atomic.make 0 in
  let depth_max = Atomic.make 0 in
  let traced i =
    let v = args.(i mod Array.length args) in
    let r = Ledger.traced_call ledger p.client p.target w v in
    let d = (Orb.stats p.server).Orb.pool_depth in
    if d > Atomic.get depth_max then Atomic.set depth_max d;
    match r with
    | Ok (Some c) ->
        Mutex.lock calls;
        joined := c :: !joined;
        Mutex.unlock calls;
        fun () -> true
    | Ok None ->
        Atomic.incr unjoined;
        fun () -> true
    | Error () -> fun () -> false
  in
  (* GC counters cover the untraced segments only. *)
  let gc = ref (0., 0., 0, 0) in
  let untraced_segment () =
    let g0 = Util.gc_snapshot () in
    let l = closed_loop ~callers:w.callers ~seconds:segment (untraced p w args) in
    let g1 = Util.gc_snapshot () in
    let mw, jw, mc, jc = !gc in
    gc :=
      ( mw +. g1.Gc.minor_words -. g0.Gc.minor_words,
        jw +. g1.Gc.major_words -. g0.Gc.major_words,
        (* one minor collection is the snapshot's own *)
        mc + g1.Gc.minor_collections - g0.Gc.minor_collections - 1,
        jc + g1.Gc.major_collections - g0.Gc.major_collections );
    l
  in
  let traced_segment () =
    set_traced true;
    let l = closed_loop ~callers:w.callers ~seconds:segment traced in
    set_traced false;
    l
  in
  let segments =
    List.init rounds (fun _ ->
        let u = untraced_segment () in
        (u, traced_segment ()))
  in
  let merge ls =
    {
      attempted = List.fold_left (fun a l -> a + l.attempted) 0 ls;
      failed = List.fold_left (fun a l -> a + l.failed) 0 ls;
      samples = List.concat_map (fun l -> l.samples) ls;
      elapsed = List.fold_left (fun a l -> a +. l.elapsed) 0. ls;
      cpu = List.fold_left (fun a l -> a +. l.cpu) 0. ls;
      marks = [];
      steal = List.fold_left (fun a l -> a + l.steal) 0 ls;
      error = List.find_map (fun l -> l.error) ls;
    }
  in
  let u = merge (List.map fst segments) and t = merge (List.map snd segments) in
  let cs = Orb.stats p.client and ss = Orb.stats p.server in
  let bytes, c_reads, c_writes = meter w p.client in
  let _, s_reads, s_writes = meter w p.server in
  teardown p;
  (* Isolated probes, with the ORB pair gone: 30% of the run, split
     evenly. *)
  let probes, probes_ok =
    Probes.run ~budget:(0.3 *. s /. 9.) w ~client:p.client ~target:p.target
      ~skeleton:p.skeleton args.(0)
  in
  let calls = List.rev !joined in
  let n_traced = float_of_int (completed t) in
  let n_untraced = float_of_int (completed u) in
  let per_call x = float_of_int x /. n_traced in
  let minor_words, major_words, minor_colls, major_colls = !gc in
  let per_1k x = float_of_int x /. n_untraced *. 1000. in
  let cps_u = calls_per_s u and cps_t = calls_per_s t in
  let us_rows = List.map (fun (name, v) -> (name, "us", v)) (Ledger.rows calls) in
  let untraced_latencies = sorted_latencies u in
  let count name v = (name, "count", float_of_int v) in
  let metrics =
    us_rows
    @ [
        ("trace.overhead_pct", "%", (cps_u -. cps_t) /. cps_u *. 100.);
        ("calls_per_s", "1/s", cps_u);
        ("latency_p50_us", "us", fst (Util.percentile untraced_latencies 50.) *. 1e6);
        ("latency_p99_us", "us", fst (Util.percentile untraced_latencies 99.) *. 1e6);
        ("machine_steal_pct", "%", steal_pct u);
        count "trace.joined_calls" (List.length calls);
        ("transport.bytes_per_call", "B", per_call bytes);
        ("transport.writes_per_call", "count", per_call (c_writes + s_writes));
        ("transport.reads_per_call", "count", per_call (c_reads + s_reads));
        count "orb.connections_opened" cs.Orb.opened;
        count "orb.codec_negotiations" (cs.Orb.codec_negotiations + ss.Orb.codec_negotiations);
        count "orb.codec_fallbacks" (cs.Orb.codec_fallbacks + ss.Orb.codec_fallbacks);
        count "orb.retries" (cs.Orb.retries + ss.Orb.retries);
        count "orb.timeouts" (cs.Orb.timeouts + ss.Orb.timeouts);
        count "orb.rejected" (cs.Orb.rejected + ss.Orb.rejected);
        count "orb.expired"
          (ss.Orb.expired_pre_admission + ss.Orb.expired_in_queue
         + cs.Orb.expired_pre_admission + cs.Orb.expired_in_queue);
        count "mux.peak_in_flight" cs.Orb.mux_peak_in_flight;
        count "pool.depth_max" (Atomic.get depth_max);
        ("gc.minor_words_per_call", "words", minor_words /. n_untraced);
        ("gc.major_words_per_call", "words", major_words /. n_untraced);
        ("gc.minor_collections_per_1k", "count", per_1k minor_colls);
        ("gc.major_collections_per_1k", "count", per_1k major_colls);
      ]
    @ probes
  in
  Ledger.write_spans (Filename.concat !out_dir (w.name ^ "-spans.jsonl")) calls;
  let attempted = 1 + warm.attempted + u.attempted + t.attempted in
  let failed = (if setup_ok then 0 else 1) + warm.failed + u.failed + t.failed in
  Option.iter (Printf.printf "  first failure: %s\n")
    (List.find_map (fun l -> l.error) [ warm; u; t ]);
  finish w ~attempted ~failed ~metrics
    ~checks:
      ([
         ("set-up reply verified", setup_ok);
         ("every reply verified", failed = 0);
         ("every traced call joined", Atomic.get unjoined = 0 && calls <> []);
         ("every probe output verified", probes_ok);
       ]
      @ workload_checks w cs ss)
    ~extra:
      [
        ("untraced_calls_per_s", Util.json_num cps_u);
        ("traced_calls_per_s", Util.json_num cps_t);
        ("client_stats", Orb.stats_to_json cs);
        ("server_stats", Orb.stats_to_json ss);
      ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let w =
    match Workload.find !workload_name with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload_name);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let args = Workload.args w ~seed:!seed in
  Printf.printf "callbench %s seed=%d seconds=%d trace=%d callers=%d cores=%d lock_check=%b\n%!"
    w.name !seed !seconds !trace w.callers
    (Domain.recommended_domain_count ())
    (Locked.checking ());
  if !trace = 0 then end_to_end w args else per_layer w args
