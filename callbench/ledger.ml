(* The traced run's cost ledger: one call broken into its layers.

   Both ORBs carry an enabled Obs whose sinks are below. The benchmark
   adds its own spans where only it can see the work: inside the
   marshal callback (client encode), around the reply decode (client
   decode) and inside the servant's skeleton handler (server decode,
   servant body, server encode). The client and server Obs spans of a
   call are joined by trace id; the benchmark's spans are joined to the
   Obs span emitted on the same thread right after them. Nothing here
   reaches inside the library: every timestamp is taken around a call
   into a public function, or read from a public span. *)

(* Thread identity across domains: a worker domain's thread ids can
   collide with the main domain's, so key by both. *)
let key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

type server_side = {
  span : Obs.Trace.span;
  dec0 : float;  (** argument decode start *)
  dec1 : float;  (** argument decode end = servant start *)
  body1 : float;  (** servant end = result encode start *)
  enc1 : float;  (** result encode end *)
}

type call = {
  t0 : float;  (** the caller's call span *)
  t1 : float;
  cenc0 : float;  (** inside the marshal callback *)
  cenc1 : float;
  cdec0 : float;  (** reply decode *)
  cdec1 : float;
  client : Obs.Trace.span;
  server : server_side;
}

type t = {
  lock : Mutex.t;
  pending : (int * int, float * float * float * float) Hashtbl.t;
  servers : (string, server_side) Hashtbl.t;
  clients : (int * int, Obs.Trace.span) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    pending = Hashtbl.create 16;
    servers = Hashtbl.create 64;
    clients = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Called by the skeleton handler, inside the server span. *)
let on_server t a b c d = locked t (fun () -> Hashtbl.replace t.pending (key ()) (a, b, c, d))

(* The server span is emitted on the dispatching thread after the
   handler returned and before the reply is sent, so the pending
   handler spans of this thread belong to it. *)
let server_sink t =
  Obs.Sink.make ~name:"callbench-server" (fun s ->
      if s.Obs.Trace.kind = Obs.Trace.Server then
        locked t (fun () ->
            let k = key () in
            match Hashtbl.find_opt t.pending k with
            | Some (dec0, dec1, body1, enc1) ->
                Hashtbl.remove t.pending k;
                Hashtbl.replace t.servers s.Obs.Trace.trace_id
                  { span = s; dec0; dec1; body1; enc1 }
            | None -> ()))

(* The client span is emitted on the caller's thread before invoke
   returns. *)
let client_sink t =
  Obs.Sink.make ~name:"callbench-client" (fun s ->
      if s.Obs.Trace.kind = Obs.Trace.Client then
        locked t (fun () -> Hashtbl.replace t.clients (key ()) s))

(* One traced call. [Ok (Some call)] when it succeeded and joined,
   [Ok None] when it succeeded but a span is missing, [Error ()] when
   the reply was wrong. Exceptions propagate to the caller loop. *)
let traced_call t client target (w : Workload.t) v =
  let cenc0 = ref nan and cenc1 = ref nan in
  let t0 = Util.now () in
  let reply =
    Orb.invoke client target ~op:Workload.op ?timeout:w.timeout (fun e ->
        cenc0 := Util.now ();
        Workload.put e v;
        cenc1 := Util.now ())
  in
  match reply with
  | None -> Error ()
  | Some d ->
      let cdec0 = Util.now () in
      let r = Workload.get w.kind d in
      let cdec1 = Util.now () in
      let t1 = cdec1 in
      if r <> v then Error ()
      else
        let joined =
          locked t (fun () ->
              match Hashtbl.find_opt t.clients (key ()) with
              | None -> None
              | Some client -> (
                  Hashtbl.remove t.clients (key ());
                  match Hashtbl.find_opt t.servers client.Obs.Trace.trace_id with
                  | None -> None
                  | Some server ->
                      Hashtbl.remove t.servers client.Obs.Trace.trace_id;
                      Some (client, server)))
        in
        Ok
          (match joined with
          | Some (client, server)
            when Float.is_finite client.Obs.Trace.send_s
                 && Float.is_finite client.Obs.Trace.wait_s ->
              Some { t0; t1; cenc0 = !cenc0; cenc1 = !cenc1; cdec0; cdec1; client; server }
          | _ -> None)

(* ---------------- the layer rows ---------------- *)

(* Per-call means in microseconds. The additive rows partition the
   call: client encode + send + hop + server self + server decode +
   servant + server encode + client decode + residual = call, where
   wait = hop + server span and server span = self + decode + servant
   + encode. [orb.client.wait_us] is reported as the parent of the
   server-side rows, not added again. *)
let rows (calls : call list) =
  let us f = Util.mean (List.map f calls) *. 1e6 in
  let server_s c = Obs.Trace.duration c.server.span in
  let call = us (fun c -> c.t1 -. c.t0) in
  let cenc = us (fun c -> c.cenc1 -. c.cenc0) in
  let send = us (fun c -> c.client.Obs.Trace.send_s) in
  let wait = us (fun c -> c.client.Obs.Trace.wait_s) in
  let server = us server_s in
  let sdec = us (fun c -> c.server.dec1 -. c.server.dec0) in
  let body = us (fun c -> c.server.body1 -. c.server.dec1) in
  let senc = us (fun c -> c.server.enc1 -. c.server.body1) in
  let cdec = us (fun c -> c.cdec1 -. c.cdec0) in
  let self = server -. sdec -. body -. senc in
  let hop = wait -. server in
  let residual = call -. (cenc +. send +. hop +. self +. sdec +. body +. senc +. cdec) in
  [
    ("call.mean_us", call);
    ("wire.client_encode_us", cenc);
    ("orb.client.send_us", send);
    ("orb.client.wait_us", wait);
    ("orb.hop_us", hop);
    ("orb.server.self_us", self);
    ("wire.server_decode_us", sdec);
    ("servant.body_us", body);
    ("wire.server_encode_us", senc);
    ("wire.client_decode_us", cdec);
    ("call.residual_us", residual);
  ]

(* The span dump: one line per traced call with every span as
   [start, end] (the benchmark's clock, which is Obs's) plus both Obs
   spans verbatim. The self-test re-derives the rows from this file. *)
let span_line c =
  let iv a b = Util.json_list [ Util.json_num a; Util.json_num b ] in
  let cs = c.client and ss = c.server.span in
  Util.json_obj
    [
      ("trace_id", Util.json_string cs.Obs.Trace.trace_id);
      ("call", iv c.t0 c.t1);
      ("client", iv cs.Obs.Trace.started_at cs.Obs.Trace.finished_at);
      ("client_encode", iv c.cenc0 c.cenc1);
      ("send_s", Util.json_num cs.Obs.Trace.send_s);
      ("wait_s", Util.json_num cs.Obs.Trace.wait_s);
      ("server", iv ss.Obs.Trace.started_at ss.Obs.Trace.finished_at);
      ("server_decode", iv c.server.dec0 c.server.dec1);
      ("servant", iv c.server.dec1 c.server.body1);
      ("server_encode", iv c.server.body1 c.server.enc1);
      ("client_decode", iv c.cdec0 c.cdec1);
      ("obs_client", Obs.Trace.to_json cs);
      ("obs_server", Obs.Trace.to_json ss);
    ]

let write_spans path calls =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun c ->
          output_string oc (span_line c);
          output_char oc '\n')
        calls)
