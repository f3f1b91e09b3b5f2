(* End-to-end codec negotiation: client and server ORBs converging on a
   compact encoding over a live connection, falling back when the peer
   cannot follow, and judging version skew with the IDL-evolution
   verdict (V301-V304) as the compatibility predicate. *)

module P = Orb.Protocol

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("noreply", fun args _ -> ignore (args.Wire.Codec.get_string ()));
    ]

let invoke_string client target ~op s =
  match Orb.invoke client target ~op (fun e -> e.Wire.Codec.put_string s) with
  | Some d -> d.Wire.Codec.get_string ()
  | None -> Alcotest.fail "expected a reply"

(* A second wire version of the compact codec, as a newer deployment
   would ship it: same implementation, bumped negotiation version. *)
let hcx_v2 =
  P.generic ~name:"hcx" ~version:2
    ~framing:(P.Varint_prefixed { magic = P.hcx_magic })
    Wire.Hcx_codec.codec

let with_pair ?(transport = "mem") ?(host = "local") ~server_codecs
    ?server_compat ~client_codecs ?client_compat f =
  let server =
    Orb.create ~transport ~host ~codecs:server_codecs
      ?codec_compat:server_compat ()
  in
  Orb.start server;
  let client =
    Orb.create ~transport ~host ~codecs:client_codecs
      ?codec_compat:client_compat ()
  in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client)

let check_stats name orb ~nego ~fallback =
  let st = Orb.stats orb in
  Alcotest.(check int) (name ^ " negotiations") nego st.Orb.codec_negotiations;
  Alcotest.(check int) (name ^ " fallbacks") fallback st.Orb.codec_fallbacks

let test_converge_on_hcx () =
  List.iter
    (fun (transport, host) ->
      with_pair ~transport ~host ~server_codecs:[ P.hcx ]
        ~client_codecs:[ P.hcx ] (fun ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          (* The first call carries the offer; every later call rides
             the negotiated encoding on the same connection. *)
          for i = 1 to 20 do
            Alcotest.(check string) (transport ^ " call")
              (Printf.sprintf "echo:%d" i)
              (invoke_string client target ~op:"echo" (string_of_int i))
          done;
          Alcotest.(check int) (transport ^ " one connection") 1
            (Orb.connections_opened client);
          check_stats (transport ^ " client") client ~nego:1 ~fallback:0;
          check_stats (transport ^ " server") server ~nego:1 ~fallback:0))
    [ ("mem", "local"); ("tcp", "127.0.0.1") ]

let test_concurrent_first_calls_negotiate_once () =
  (* Eight threads race the fresh connection: exactly one carries the
     offer, the rest hold behind the gate, and nothing is misframed. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      let results = Array.make 8 "" in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  invoke_string client target ~op:"echo" (string_of_int i))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i got ->
          Alcotest.(check string) "racing call" (Printf.sprintf "echo:%d" i) got)
        results;
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0)

let test_oneway_does_not_offer () =
  (* Oneways cannot carry an offer (there is no reply to answer on);
     the first two-way call negotiates instead. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      (match
         Orb.invoke client target ~op:"noreply" ~oneway:true (fun e ->
             e.Wire.Codec.put_string "fire-and-forget")
       with
      | None -> ()
      | Some _ -> Alcotest.fail "oneway returned a decoder");
      check_stats "client after oneway" client ~nego:0 ~fallback:0;
      Alcotest.(check string) "two-way negotiates" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:1 ~fallback:0;
      ignore server)

let test_server_without_codecs_falls_back () =
  (* A negotiation-aware server with nothing to offer: the reply has no
     answer slot, the client counts a fallback and stays on base. *)
  with_pair ~server_codecs:[] ~client_codecs:[ P.hcx ] (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check string) "later calls too" "echo:y"
        (invoke_string client target ~op:"echo" "y");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:0)

let test_no_common_codec_falls_back () =
  with_pair ~server_codecs:[ Giop.protocol () ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

let test_version_skew_exact_vetoes () =
  (* Default predicate: hcx/1 offered, hcx/2 local — no agreement. *)
  with_pair ~server_codecs:[ hcx_v2 ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

let test_version_skew_compat_converges () =
  (* The same skew under a predicate that vouches for the (1, 2) pair:
     old client and new server converge — the server answers its own
     version, the client vets it with the same predicate and keeps
     speaking its local implementation. *)
  let vouch ~name ~offered ~local =
    name = "hcx" && abs (offered - local) <= 1
  in
  with_pair ~server_codecs:[ hcx_v2 ] ~server_compat:vouch
    ~client_codecs:[ P.hcx ] ~client_compat:vouch (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      for i = 1 to 5 do
        Alcotest.(check string) "skewed call"
          (Printf.sprintf "echo:%d" i)
          (invoke_string client target ~op:"echo" (string_of_int i))
      done;
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0)

let test_deadline_era_server_resend () =
  (* A hand-rolled pre-negotiation server: it rejects the offer's
     forced-empty budget slot exactly as deadline-era peers do —
     recoverably, without dispatching — and the client re-sends the
     same request once without the offer. *)
  let proto = P.text in
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let saw_offer = ref false and saw_resend_clean = ref false in
  let server =
    Thread.create
      (fun () ->
        let chan = listener.Orb.Transport.accept () in
        let comm = Orb.Communicator.wrap proto chan in
        (match Orb.Communicator.recv comm with
        | P.Request r ->
            saw_offer := r.P.nego_offer <> "";
            Orb.Communicator.send comm
              (P.Reply
                 {
                   P.rep_id = r.P.req_id;
                   status =
                     P.Status_system_error
                       "malformed request: malformed deadline slot \"\"";
                   payload = "";
                   nego_answer = "";
                 })
        | _ -> Alcotest.fail "expected the offering request");
        (match Orb.Communicator.recv comm with
        | P.Request r ->
            saw_resend_clean := r.P.nego_offer = "" && r.P.budget_us = None;
            let e = proto.P.codec.Wire.Codec.encoder () in
            e.Wire.Codec.put_string "echo:hi";
            Orb.Communicator.send comm
              (P.Reply
                 {
                   P.rep_id = r.P.req_id;
                   status = P.Status_ok;
                   payload = e.Wire.Codec.finish ();
                   nego_answer = "";
                 })
        | _ -> Alcotest.fail "expected the offer-less re-send");
        Orb.Communicator.close comm)
      ()
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~codecs:[ P.hcx ] () in
  let target =
    Orb.Objref.make ~proto:"mem" ~host:"local" ~port ~oid:"x"
      ~type_id:echo_type
  in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      listener.Orb.Transport.shutdown ())
    (fun () ->
      Alcotest.(check string) "call survives the old peer" "echo:hi"
        (invoke_string client target ~op:"echo" "hi");
      Thread.join server;
      Alcotest.(check bool) "first request offered" true !saw_offer;
      Alcotest.(check bool) "re-send was offer-less and budget-less" true
        !saw_resend_clean;
      check_stats "client" client ~nego:0 ~fallback:1)

(* ---------------- the evolution model as the predicate ---------------- *)

(* Three published versions of the payload schema: v2 adds an operation
   to v1 (benign, W310), v3 removes one (wire-breaking, V301). *)
let snapshot ops =
  let root = Est.Node.create ~name:"root" ~kind:"specification" in
  let iface = Est.Node.create ~name:"Echo" ~kind:"interface" in
  Est.Node.add_prop iface "scopedName" "Echo";
  Est.Node.add_prop iface "repoId" echo_type;
  List.iter
    (fun op ->
      let m = Est.Node.create ~name:op ~kind:"operation" in
      Est.Node.add_prop m "methodName" op;
      Est.Node.add_prop m "returnType" "string";
      Est.Node.add_child iface ~group:"methodList" m)
    ops;
  Est.Node.add_child root ~group:"interfaceList" iface;
  root

let snapshots = function
  | 1 -> Some (snapshot [ "echo" ])
  | 2 -> Some (snapshot [ "echo"; "add" ])
  | 3 -> Some (snapshot [ "add" ])
  | _ -> None

let evolution_compat = Analysis.Evolve.codec_compat ~snapshots

let test_evolution_verdict_as_predicate () =
  (* Additions are compatible in both directions; removals and unknown
     versions veto the pair. *)
  Alcotest.(check bool) "same version" true
    (evolution_compat ~name:"hcx" ~offered:1 ~local:1);
  Alcotest.(check bool) "benign addition (old offered)" true
    (evolution_compat ~name:"hcx" ~offered:1 ~local:2);
  Alcotest.(check bool) "benign addition (new offered)" true
    (evolution_compat ~name:"hcx" ~offered:2 ~local:1);
  Alcotest.(check bool) "removal breaks (2 vs 3)" false
    (evolution_compat ~name:"hcx" ~offered:3 ~local:2);
  Alcotest.(check bool) "removal breaks (1 vs 3)" false
    (evolution_compat ~name:"hcx" ~offered:1 ~local:3);
  Alcotest.(check bool) "unknown version vetoed" false
    (evolution_compat ~name:"hcx" ~offered:9 ~local:1)

let test_evolution_verdict_end_to_end () =
  (* Wire it into live ORBs: a v1 client against a v2 server converges
     on hcx (the diff is a benign addition); against a v3 server the
     V301 verdict vetoes the pair and both fall back. *)
  with_pair ~server_codecs:[ hcx_v2 ] ~server_compat:evolution_compat
    ~client_codecs:[ P.hcx ] ~client_compat:evolution_compat
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "benign skew converges" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0);
  let hcx_v3 =
    P.generic ~name:"hcx" ~version:3
      ~framing:(P.Varint_prefixed { magic = P.hcx_magic })
      Wire.Hcx_codec.codec
  in
  with_pair ~server_codecs:[ hcx_v3 ] ~server_compat:evolution_compat
    ~client_codecs:[ P.hcx ] ~client_compat:evolution_compat
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "breaking skew falls back" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

(* The gate's drain wait honours the caller's deadline. A fresh
   connection has a locate in flight whose request write the fault plan
   delays by 2 s; a first [invoke] with a 0.2 s budget must fail with
   its timeout at 0.2 s, without sending anything. Waiting out the
   locate instead would send the offer past its deadline, and the
   expired wait would then kill the shared connection. *)
let test_busy_gate_honours_deadline () =
  let module F = Orb.Transport.Fault in
  with_pair ~transport:"faulty:mem" ~server_codecs:[ P.hcx ]
    ~client_codecs:[ P.hcx ] (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Fun.protect ~finally:F.clear (fun () ->
          F.set_plan (fun { F.op; nth; peer } ->
              if op = `Write && nth = 0 && Tutil.contains peer "(server)" then
                Some (F.Delay_write 2.0)
              else None);
          let located = ref None in
          let locator =
            Thread.create
              (fun () -> located := Some (Orb.locate client target))
              ()
          in
          let rec until_in_flight n =
            if (Orb.stats client).Orb.mux_in_flight = 0 && n > 0 then begin
              Thread.delay 0.005;
              until_in_flight (n - 1)
            end
          in
          until_in_flight 400;
          Alcotest.(check int) "locate in flight" 1
            (Orb.stats client).Orb.mux_in_flight;
          let t0 = Unix.gettimeofday () in
          (match
             Orb.invoke client target ~op:"echo" ~timeout:0.2 (fun e ->
                 e.Wire.Codec.put_string "late")
           with
          | exception Orb.Transport.Timeout _ -> ()
          | exception e ->
              Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "expected Timeout, got a reply");
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "deadline honoured (elapsed %.3fs)" elapsed)
            true
            (elapsed >= 0.19 && elapsed <= 0.6);
          Thread.join locator;
          Alcotest.(check (option bool)) "locate answered" (Some true)
            !located;
          Alcotest.(check string) "negotiates afterwards" "echo:x"
            (invoke_string client target ~op:"echo" "x");
          Alcotest.(check int) "connection survived" 1
            (Orb.connections_opened client);
          check_stats "client" client ~nego:1 ~fallback:0))

(* The hold-until-answer arm: while the offer is in flight every other
   send is held, bounded by its own deadline. The fault plan delays the
   server's first write — the offer's reply — by 0.4 s; a locate with a
   0.1 s budget must time out behind the negotiation without sending,
   and a plain locate issued next goes out after the switch. *)
let test_offer_holds_other_sends () =
  let module F = Orb.Transport.Fault in
  with_pair ~transport:"faulty:mem" ~server_codecs:[ P.hcx ]
    ~client_codecs:[ P.hcx ] (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Fun.protect ~finally:F.clear (fun () ->
          F.set_plan (fun { F.op; nth; peer } ->
              if op = `Write && nth = 0 && Tutil.contains peer "(server)" then
                Some (F.Delay_write 0.4)
              else None);
          let echoed = ref "" in
          let offerer =
            Thread.create
              (fun () -> echoed := invoke_string client target ~op:"echo" "x")
              ()
          in
          let rec until_in_flight n =
            if (Orb.stats client).Orb.mux_in_flight = 0 && n > 0 then begin
              Thread.delay 0.005;
              until_in_flight (n - 1)
            end
          in
          until_in_flight 400;
          Alcotest.(check int) "offer in flight" 1
            (Orb.stats client).Orb.mux_in_flight;
          (match Orb.locate client ~timeout:0.1 target with
          | exception Orb.Transport.Timeout m ->
              Tutil.check_contains ~what:"held behind the offer" m
                "negotiation"
          | exception e ->
              Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
          | found -> Alcotest.failf "expected Timeout, got %b" found);
          Alcotest.(check bool) "locate after the switch" true
            (Orb.locate client target);
          Thread.join offerer;
          Alcotest.(check string) "offering call answered" "echo:x" !echoed;
          Alcotest.(check int) "one connection" 1
            (Orb.connections_opened client);
          check_stats "client" client ~nego:1 ~fallback:0;
          check_stats "server" server ~nego:1 ~fallback:0))

(* ---------------- the payload rides the connection codec ---------------- *)

let text_codec = Wire.Text_codec.codec
let hcx_codec = Wire.Hcx_codec.codec

let encode_string codec s =
  let e = codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_string s;
  e.Wire.Codec.finish ()

let decode_string codec payload =
  (codec.Wire.Codec.decoder payload).Wire.Codec.get_string ()

(* Bytes no text token survives unescaped: a payload that is not HCX
   cannot pass for it, and the reverse. *)
let blob = String.init 4096 (fun i -> Char.chr (i land 0xff))

(* An echo reply in [codec], optionally answering an offer. *)
let echo_reply comm (r : P.request) codec ~nego_answer =
  Orb.Communicator.send comm
    (P.Reply
       {
         P.rep_id = r.P.req_id;
         status = P.Status_ok;
         payload = encode_string codec ("echo:" ^ decode_string codec r.P.payload);
         nego_answer;
       })

(* Client half: a hand-rolled peer answers the offer, switches, and
   then decodes the next request's arguments with the HCX codec itself
   and answers in HCX; the ORB client must have sent HCX and must decode
   the HCX reply. *)
let test_client_payload_in_hcx () =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let payloads = ref [] in
  let peer =
    Thread.create
      (fun () ->
        let comm = Orb.Communicator.wrap P.text (listener.Orb.Transport.accept ()) in
        Fun.protect
          ~finally:(fun () -> Orb.Communicator.close comm)
          (fun () ->
            (match Orb.Communicator.recv comm with
            | P.Request r ->
                payloads := r.P.payload :: !payloads;
                echo_reply comm r text_codec ~nego_answer:(P.Nego.token P.hcx)
            | _ -> ());
            Orb.Communicator.set_protocol comm P.hcx;
            match Orb.Communicator.recv comm with
            | P.Request r ->
                payloads := r.P.payload :: !payloads;
                echo_reply comm r hcx_codec ~nego_answer:""
            | _ -> ()))
      ()
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~codecs:[ P.hcx ] () in
  let target =
    Orb.Objref.make ~proto:"mem" ~host:"local" ~port ~oid:"x" ~type_id:echo_type
  in
  let call s =
    match
      Orb.invoke client target ~op:"echo" ~timeout:5.0 (fun e ->
          e.Wire.Codec.put_string s)
    with
    | Some d -> d.Wire.Codec.get_string ()
    | None -> Alcotest.fail "expected a reply"
  in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      listener.Orb.Transport.shutdown ())
    (fun () ->
      Alcotest.(check string) "offering call" "echo:x" (call "x");
      Alcotest.(check bool) "negotiated call decodes the HCX reply" true
        (call blob = "echo:" ^ blob);
      Thread.join peer;
      match List.rev !payloads with
      | [ offering; negotiated ] ->
          Alcotest.(check string) "offer carries text arguments" "x"
            (decode_string text_codec offering);
          Alcotest.(check int) "HCX arguments: version + 2-byte length + blob"
            (1 + 2 + 4096) (String.length negotiated);
          Alcotest.(check char) "HCX version byte" '\001' negotiated.[0];
          check_stats "client" client ~nego:1 ~fallback:0
      | l -> Alcotest.failf "peer saw %d requests, want 2" (List.length l))

(* Server half: a hand-rolled client offers, switches, and sends HCX
   arguments; the ORB server must decode them with HCX, answer in HCX,
   refuse a text payload as this request's marshal error, and keep
   serving the connection. *)
let test_server_payload_in_hcx () =
  let server =
    Orb.create ~transport:"mem" ~host:"local" ~codecs:[ P.hcx ] ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let comm =
    Orb.Communicator.wrap P.text
      (Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server))
  in
  let request ~req_id ?(nego_offer = "") payload =
    Orb.Communicator.send comm
      (P.Request
         {
           P.req_id;
           target;
           operation = "echo";
           oneway = false;
           payload;
           trace_ctx = "";
           budget_us = None;
           nego_offer;
         });
    match Orb.Communicator.recv comm with
    | P.Reply r when r.P.rep_id = req_id -> r
    | _ -> Alcotest.fail "expected the reply to this request"
  in
  Fun.protect
    ~finally:(fun () ->
      Orb.Communicator.close comm;
      Orb.shutdown server)
    (fun () ->
      let r =
        request ~req_id:1 ~nego_offer:(P.Nego.offer_of [ P.hcx ])
          (encode_string text_codec "x")
      in
      Alcotest.(check string) "answer" (P.Nego.token P.hcx) r.P.nego_answer;
      Alcotest.(check string) "offer answered in text" "echo:x"
        (decode_string text_codec r.P.payload);
      Orb.Communicator.set_protocol comm P.hcx;
      let r = request ~req_id:2 (encode_string hcx_codec blob) in
      Alcotest.(check bool) "ok" true (r.P.status = P.Status_ok);
      Alcotest.(check char) "reply in HCX" '\001' r.P.payload.[0];
      Alcotest.(check bool) "HCX arguments decoded" true
        (decode_string hcx_codec r.P.payload = "echo:" ^ blob);
      (match (request ~req_id:3 (encode_string text_codec "y")).P.status with
      | P.Status_system_error m ->
          Tutil.check_contains ~what:"text payload after the switch" m
            "marshal error"
      | _ -> Alcotest.fail "a text payload must not decode after the switch");
      Alcotest.(check string) "connection still serves" "echo:z"
        (decode_string hcx_codec
           (request ~req_id:4 (encode_string hcx_codec "z")).P.payload);
      check_stats "server" server ~nego:1 ~fallback:0)

(* A server without codecs never switches: every request's arguments
   reach it as text, offer or no offer. *)
let test_server_without_codecs_gets_text () =
  with_pair ~server_codecs:[] ~client_codecs:[ P.hcx ] (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      let payloads = ref [] in
      Orb.Interceptor.add
        (Orb.server_interceptors server)
        (Orb.Interceptor.make "capture" ~on_request:(fun r ->
             payloads := r.P.payload :: !payloads;
             r));
      List.iter
        (fun s ->
          Alcotest.(check string) "call" ("echo:" ^ s)
            (invoke_string client target ~op:"echo" s))
        [ "x"; "y"; "z" ];
      Alcotest.(check (list string)) "text arguments" [ "x"; "y"; "z" ]
        (List.rev_map (decode_string text_codec) !payloads);
      check_stats "client" client ~nego:0 ~fallback:1)

let oops_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("oops", fun args _ ->
          let detail = args.Wire.Codec.get_string () in
          raise
            (Orb.Skeleton.User_exception
               {
                 repo_id = "IDL:Test/Oops:1.0";
                 encode =
                   (fun e ->
                     e.Wire.Codec.put_string detail;
                     e.Wire.Codec.put_long 42);
               }));
    ]

(* A user exception comes back in its request's codec, and
   [Remote_exception.codec] says which: the base codec on the offering
   request, HCX once the connection has switched. *)
let test_user_exception_codec () =
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (oops_skeleton ()) in
      let raise_oops detail =
        match
          Orb.invoke client target ~op:"oops" (fun e ->
              e.Wire.Codec.put_string detail)
        with
        | exception Orb.Remote_exception { repo_id; payload; codec } ->
            Alcotest.(check string) "repo id" "IDL:Test/Oops:1.0" repo_id;
            let d = codec.Wire.Codec.decoder payload in
            let got = d.Wire.Codec.get_string () in
            Alcotest.(check string) "members" detail got;
            Alcotest.(check int) "code" 42 (d.Wire.Codec.get_long ());
            codec.Wire.Codec.name
        | _ -> Alcotest.fail "expected Remote_exception"
      in
      Alcotest.(check string) "offering request: base codec" "text"
        (raise_oops "first");
      Alcotest.(check string) "after the switch: hcx" "hcx"
        (raise_oops "second");
      check_stats "client" client ~nego:1 ~fallback:0)

(* The arguments are marshalled after admission, so a marshal closure
   that raises does so while its request holds the connection's offer:
   the caller gets its own error, and the offer and the in-flight slot
   go back, so the next call negotiates and completes. *)
let test_marshal_failure_releases_offer () =
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      (match
         Orb.invoke client target ~op:"echo" (fun e ->
             e.Wire.Codec.put_long 0x1_0000_0000)
       with
      | exception Wire.Codec.Type_error _ -> ()
      | exception e ->
          Alcotest.failf "expected Type_error, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Type_error, got a reply");
      Alcotest.(check int) "nothing in flight" 0
        (Orb.stats client).Orb.mux_in_flight;
      (match
         Orb.invoke client target ~op:"echo" ~timeout:2.0 (fun e ->
             e.Wire.Codec.put_string "x")
       with
      | Some d -> Alcotest.(check string) "next call" "echo:x" (d.Wire.Codec.get_string ())
      | None -> Alcotest.fail "expected a reply");
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0)

(* A replica that negotiates HCX and dies on the first request it reads
   in HCX — after the request was sent, on a cached connection, so the
   call may fail over. Records that request's arguments. *)
let start_dying_hcx_replica () =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let hcx_args = ref None in
  let serve chan =
    let comm = Orb.Communicator.wrap P.text chan in
    let rec loop () =
      match Orb.Communicator.recv comm with
      | P.Request r when r.P.nego_offer <> "" ->
          echo_reply comm r text_codec ~nego_answer:(P.Nego.token P.hcx);
          Orb.Communicator.set_protocol comm P.hcx;
          loop ()
      | P.Request r ->
          hcx_args := Some (decode_string hcx_codec r.P.payload);
          listener.Orb.Transport.shutdown ()
      | _ -> ()
    in
    Fun.protect ~finally:(fun () -> Orb.Communicator.close comm) (fun () ->
        try loop () with _ -> ())
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec accept_loop () =
          match listener.Orb.Transport.accept () with
          | chan ->
              ignore (Thread.create serve chan);
              accept_loop ()
          | exception _ -> ()
        in
        accept_loop ())
      ()
  in
  (listener, acceptor, hcx_args)

(* Failover from an HCX connection to a text-only replica re-runs the
   marshal closure in the other codec and succeeds. Which replica a call
   tries first is the client's draw, so calls repeat until one lands on
   the negotiated HCX connection: that call must run its closure twice —
   once for the dying HCX replica, once for the text replica — and
   return the text replica's answer. *)
let test_failover_remarshals () =
  let listener, acceptor, hcx_args = start_dying_hcx_replica () in
  let text_replica = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start text_replica;
  let text_args = ref [] in
  Orb.Interceptor.add
    (Orb.server_interceptors text_replica)
    (Orb.Interceptor.make "capture" ~on_request:(fun r ->
         text_args := r.P.payload :: !text_args;
         r));
  ignore (Orb.export_named text_replica ~oid:"echo" (echo_skeleton ()));
  let target =
    Orb.Objref.make_multi ~oid:"echo" ~type_id:echo_type
      ~endpoints:
        [
          ("mem", "local", listener.Orb.Transport.bound_port);
          ("mem", "local", Orb.port text_replica);
        ]
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~codecs:[ P.hcx ] () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown text_replica;
      listener.Orb.Transport.shutdown ();
      Thread.join acceptor)
    (fun () ->
      let rec until_failover i =
        if i > 64 then Alcotest.fail "no call reached the HCX connection";
        let arg = Printf.sprintf "call-%d" i in
        let runs = ref 0 in
        let reply =
          match
            Orb.invoke client target ~op:"echo" ~timeout:5.0 (fun e ->
                incr runs;
                e.Wire.Codec.put_string arg)
          with
          | Some d -> d.Wire.Codec.get_string ()
          | None -> Alcotest.fail "expected a reply"
        in
        Alcotest.(check string) "answer" ("echo:" ^ arg) reply;
        match !hcx_args with
        | None ->
            Alcotest.(check int) "one codec, one marshal" 1 !runs;
            until_failover (i + 1)
        | Some sent ->
            Alcotest.(check string) "HCX replica got HCX arguments" arg sent;
            Alcotest.(check int) "marshalled once per codec" 2 !runs;
            (match !text_args with
            | last :: _ ->
                Alcotest.(check string) "text replica got text arguments" arg
                  (decode_string text_codec last)
            | [] -> Alcotest.fail "text replica saw no request")
      in
      until_failover 1;
      Alcotest.(check bool) "failed over" true
        ((Orb.stats client).Orb.failovers >= 1))

let () =
  Alcotest.run "nego"
    [
      ( "convergence",
        [
          Alcotest.test_case "both sides speak hcx" `Quick test_converge_on_hcx;
          Alcotest.test_case "concurrent first calls negotiate once" `Quick
            test_concurrent_first_calls_negotiate_once;
          Alcotest.test_case "oneway does not offer" `Quick
            test_oneway_does_not_offer;
          Alcotest.test_case "busy gate honours the deadline" `Quick
            test_busy_gate_honours_deadline;
          Alcotest.test_case "offer holds other sends" `Quick
            test_offer_holds_other_sends;
        ] );
      ( "payload codec",
        [
          Alcotest.test_case "client sends and decodes HCX" `Quick
            test_client_payload_in_hcx;
          Alcotest.test_case "server decodes and answers HCX" `Quick
            test_server_payload_in_hcx;
          Alcotest.test_case "server without codecs gets text" `Quick
            test_server_without_codecs_gets_text;
          Alcotest.test_case "user exception in its request's codec" `Quick
            test_user_exception_codec;
          Alcotest.test_case "failover re-marshals" `Quick
            test_failover_remarshals;
          Alcotest.test_case "marshal failure releases the offer" `Quick
            test_marshal_failure_releases_offer;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "server without codecs" `Quick
            test_server_without_codecs_falls_back;
          Alcotest.test_case "no common codec" `Quick
            test_no_common_codec_falls_back;
          Alcotest.test_case "version skew under exact" `Quick
            test_version_skew_exact_vetoes;
          Alcotest.test_case "deadline-era peer: reject + re-send" `Quick
            test_deadline_era_server_resend;
        ] );
      ( "compatibility",
        [
          Alcotest.test_case "version skew under a vouching predicate" `Quick
            test_version_skew_compat_converges;
          Alcotest.test_case "evolution verdict as predicate" `Quick
            test_evolution_verdict_as_predicate;
          Alcotest.test_case "evolution verdict end to end" `Quick
            test_evolution_verdict_end_to_end;
        ] );
    ]
