(* Isolated layer probes: one thread replays the workload's own payload
   and message through each layer's public API, with nothing else
   running. They give each layer's floor, to set beside its share of
   the traced call. *)

(* Median time per operation of [f] over batches, in seconds. The batch
   size is calibrated to ~1/20 of [budget]. After each batch, outside
   the timed region, [check] verifies the batch's last output. *)
let time_op ~budget ~check f =
  let ok = ref true in
  let run n =
    let t0 = Util.now () in
    for _ = 2 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let last = f () in
    let dt = Util.now () -. t0 in
    if not (check last) then ok := false;
    dt
  in
  let rec calibrate n =
    let dt = run n in
    if dt >= budget /. 20. || n >= 1 lsl 24 then n else calibrate (n * 4)
  in
  let n = calibrate 1 in
  let stop = Util.now () +. budget in
  let per = ref [] in
  while Util.now () < stop || List.length !per < 3 do
    per := (run n /. float_of_int n) :: !per
  done;
  (Util.median !per, !ok)

(* The exact bytes the communicator writes for [msg]: a capture channel
   behind the public [Communicator.send]. *)
let frame_of proto msg =
  let b = Buffer.create 256 in
  let unused _ = failwith "capture channel: read" in
  let chan =
    {
      Orb.Transport.write = Buffer.add_string b;
      writev = List.iter (Buffer.add_string b);
      read_line = unused;
      read_exact = unused;
      close = ignore;
      set_deadline = ignore;
      set_recv_limit = ignore;
      peer = "capture";
    }
  in
  Orb.Communicator.send (Orb.Communicator.wrap proto chan) msg;
  Buffer.contents b

(* Read one frame the way the communicator does for this framing. *)
let read_frame proto (ch : Orb.Transport.channel) =
  match proto.Orb.Protocol.framing with
  | Orb.Protocol.Line -> ignore (ch.read_line ())
  | Orb.Protocol.Varint_prefixed _ ->
      ignore (ch.read_exact 1);
      let len = ref 0 and shift = ref 0 and more = ref true in
      while !more do
        let b = Char.code (ch.read_exact 1).[0] in
        len := !len lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        more := b land 0x80 <> 0
      done;
      ignore (ch.read_exact !len)
  | Orb.Protocol.Length_prefixed _ -> invalid_arg "read_frame: no workload uses this framing"

(* The request frame out and the reply frame back over bare transport
   channels: the one-hop floor under [orb.hop_us]. *)
let pingpong ~budget ~transport proto ~request ~reply =
  let host = "127.0.0.1" in
  let l = Orb.Transport.listen ~proto:transport ~host ~port:0 in
  let echo =
    Thread.create
      (fun () ->
        let ch = l.Orb.Transport.accept () in
        (try
           while true do
             read_frame proto ch;
             ch.Orb.Transport.write reply
           done
         with _ -> ());
        ch.Orb.Transport.close ())
      ()
  in
  let ch = Orb.Transport.connect ~proto:transport ~host ~port:l.Orb.Transport.bound_port in
  let r =
    Fun.protect
      ~finally:(fun () ->
        ch.Orb.Transport.close ();
        Thread.join echo;
        l.Orb.Transport.shutdown ())
      (fun () ->
        time_op ~budget ~check:Fun.id (fun () ->
            ch.Orb.Transport.write request;
            read_frame proto ch;
            true))
  in
  r

(* A default-config pool: submit a job and wait for it to run. *)
let pool_handoff ~budget =
  let pool = Orb.Pool.create Orb.Pool.default_config in
  let m = Mutex.create () and c = Condition.create () in
  let ran = ref false in
  let job () =
    Mutex.lock m;
    ran := true;
    Condition.signal c;
    Mutex.unlock m
  in
  Fun.protect
    ~finally:(fun () -> ignore (Orb.Pool.stop pool))
    (fun () ->
      time_op ~budget ~check:Fun.id (fun () ->
          ran := false;
          match Orb.Pool.submit pool job with
          | `Accepted ->
              Mutex.lock m;
              while not !ran do
                Condition.wait c m
              done;
              Mutex.unlock m;
              true
          | `Rejected _ | `Expired -> false))

(* Every probe for workload [w]; [client] is the workload's client ORB
   (its protocol's codec marshals the payload) and [target] the
   workload's object. Returns (name, unit, value) rows and whether every
   probe's output was right. *)
let run ~budget (w : Workload.t) ~client ~target ~skeleton v =
  let codec = (Orb.protocol client).Orb.Protocol.codec in
  (* The envelope protocol on the wire after set-up: the negotiated one
     when the workload offers codecs (the server picks the first). *)
  let proto =
    match w.codecs with p :: _ -> p | [] -> Orb.protocol client
  in
  let encode () =
    let e = codec.Wire.Codec.encoder () in
    Workload.put e v;
    e.Wire.Codec.finish ()
  in
  let payload = encode () in
  let decode p =
    Workload.get w.kind (codec.Wire.Codec.decoder_limited Wire.Codec.default_limits p)
  in
  let request =
    Orb.Protocol.Request
      {
        Orb.Protocol.req_id = 4242;
        target;
        operation = Workload.op;
        oneway = false;
        payload;
        trace_ctx = "";
        budget_us = Option.map (fun s -> int_of_float (s *. 1e6) - 100) w.timeout;
        nego_offer = "";
      }
  in
  let reply =
    Orb.Protocol.Reply
      { Orb.Protocol.rep_id = 4242; status = Orb.Protocol.Status_ok; payload;
        nego_answer = "" }
  in
  let enc_req = proto.Orb.Protocol.encode_message request in
  let enc_rep = proto.Orb.Protocol.encode_message reply in
  let decode_message s = proto.Orb.Protocol.decode_limited Wire.Codec.default_limits s in
  let decodes_to expect m =
    match (m, expect) with
    | Orb.Protocol.Request r, Orb.Protocol.Request e ->
        r.Orb.Protocol.payload = e.Orb.Protocol.payload
        && r.Orb.Protocol.budget_us = e.Orb.Protocol.budget_us
    | Orb.Protocol.Reply r, Orb.Protocol.Reply e ->
        r.Orb.Protocol.payload = e.Orb.Protocol.payload
    | _ -> false
  in
  let encode_message m () = proto.Orb.Protocol.encode_message m in
  let time ~check f () = time_op ~budget ~check f in
  (* Run in list order; seconds are scaled to each row's unit. *)
  let rows =
    List.map
      (fun (name, unit, scale, probe) ->
        let t, ok = probe () in
        ((name, unit, t *. scale), ok))
      [
        ("wire.encode_ns", "ns", 1e9, time ~check:(String.equal payload) encode);
        ("wire.decode_ns", "ns", 1e9, time ~check:(( = ) v) (fun () -> decode payload));
        ( "protocol.encode_request_ns", "ns", 1e9,
          time ~check:(String.equal enc_req) (encode_message request) );
        ( "protocol.decode_request_ns", "ns", 1e9,
          time ~check:(decodes_to request) (fun () -> decode_message enc_req) );
        ( "protocol.encode_reply_ns", "ns", 1e9,
          time ~check:(String.equal enc_rep) (encode_message reply) );
        ( "protocol.decode_reply_ns", "ns", 1e9,
          time ~check:(decodes_to reply) (fun () -> decode_message enc_rep) );
        ( "dispatch.lookup_ns", "ns", 1e9,
          time ~check:Option.is_some (fun () -> Orb.Skeleton.dispatch skeleton Workload.op) );
        ( "transport.pingpong_us", "us", 1e6,
          fun () ->
            pingpong ~budget ~transport:w.transport proto ~request:(frame_of proto request)
              ~reply:(frame_of proto reply) );
        ("pool.handoff_us", "us", 1e6, fun () -> pool_handoff ~budget);
      ]
  in
  (List.map fst rows, List.for_all snd rows)
