(* Smart proxy tests (Section 5: Orbix smart proxies / Visibroker smart
   stubs): client-side caching of object state. *)

let with_pair ?(codecs = []) f =
  let server = Orb.create ~codecs () in
  Orb.start server;
  let client = Orb.create ~codecs () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client)

(* A counter servant that tracks how many remote calls actually land. *)
let counter_skeleton () =
  let value = ref 0 in
  let gets = ref 0 in
  ( Orb.Skeleton.create ~type_id:"IDL:Test/Counter:1.0"
      [
        ("get", fun _ results ->
            incr gets;
            results.Wire.Codec.put_long !value);
        ("add", fun args results ->
            value := !value + args.Wire.Codec.get_long ();
            results.Wire.Codec.put_long !value);
        ("describe", fun args results ->
            incr gets;
            let detail = args.Wire.Codec.get_string () in
            results.Wire.Codec.put_string (Printf.sprintf "counter(%s)=%d" detail !value));
      ],
    gets )

let get proxy =
  let d = Orb.Smart.call proxy ~op:"get" (fun _ -> ()) in
  d.Wire.Codec.get_long ()

let add proxy n =
  let d = Orb.Smart.call proxy ~op:"add" (fun e -> e.Wire.Codec.put_long n) in
  d.Wire.Codec.get_long ()

let test_caching_and_invalidation () =
  with_pair (fun ~server ~client ->
      let skel, gets = counter_skeleton () in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client ~invalidate_on:[ "add" ] target in
      Alcotest.(check int) "first get" 0 (get proxy);
      Alcotest.(check int) "cached get" 0 (get proxy);
      Alcotest.(check int) "cached get again" 0 (get proxy);
      Alcotest.(check int) "only one remote get" 1 !gets;
      (* A mutating call flushes the cache. *)
      Alcotest.(check int) "add" 5 (add proxy 5);
      Alcotest.(check int) "fresh get after write" 5 (get proxy);
      Alcotest.(check int) "cached again" 5 (get proxy);
      Alcotest.(check int) "two remote gets total" 2 !gets;
      Alcotest.(check int) "hits" 3 (Orb.Smart.hits proxy);
      Alcotest.(check int) "misses" 2 (Orb.Smart.misses proxy))

let test_distinct_arguments_miss () =
  with_pair (fun ~server ~client ->
      let skel, gets = counter_skeleton () in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client target in
      let describe detail =
        let d =
          Orb.Smart.call proxy ~op:"describe" (fun e -> e.Wire.Codec.put_string detail)
        in
        d.Wire.Codec.get_string ()
      in
      Alcotest.(check string) "a" "counter(a)=0" (describe "a");
      Alcotest.(check string) "b" "counter(b)=0" (describe "b");
      Alcotest.(check string) "a cached" "counter(a)=0" (describe "a");
      Alcotest.(check int) "two remote calls" 2 !gets)

let test_explicit_invalidate () =
  with_pair (fun ~server ~client ->
      let skel, gets = counter_skeleton () in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client target in
      ignore (get proxy);
      ignore (get proxy);
      Orb.Smart.invalidate proxy;
      ignore (get proxy);
      Alcotest.(check int) "invalidate forces refetch" 2 !gets)

let test_capacity_eviction () =
  with_pair (fun ~server ~client ->
      let skel, gets = counter_skeleton () in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client ~capacity:2 target in
      let describe detail =
        ignore
          (Orb.Smart.call proxy ~op:"describe" (fun e -> e.Wire.Codec.put_string detail))
      in
      describe "a";
      describe "b";
      describe "c" (* evicts "a" *);
      describe "a" (* miss again *);
      Alcotest.(check int) "eviction caused a refetch" 4 !gets)

let test_exceptions_not_cached () =
  with_pair (fun ~server ~client ->
      let fails = ref 0 in
      let skel =
        Orb.Skeleton.create ~type_id:"IDL:Test/Flaky:1.0"
          [
            ("flaky", fun _ results ->
                incr fails;
                if !fails = 1 then failwith "first call breaks"
                else results.Wire.Codec.put_bool true);
          ]
      in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client target in
      (match Orb.Smart.call proxy ~op:"flaky" (fun _ -> ()) with
      | exception Orb.System_exception _ -> ()
      | _ -> Alcotest.fail "expected failure");
      (* The failure was not cached: the retry reaches the servant. *)
      let d = Orb.Smart.call proxy ~op:"flaky" (fun _ -> ()) in
      Alcotest.(check bool) "retry succeeds" true (d.Wire.Codec.get_bool ());
      Alcotest.(check int) "two servant calls" 2 !fails)

(* The same read/write/read script on a text pair and on a pair that
   negotiates HCX: the proxy keys its memo by base-codec arguments and
   decodes every reply with the codec it arrived in, so what it returns
   and how often it goes remote do not depend on the connection's
   codec. *)
let test_negotiated_connection () =
  let script codecs =
    with_pair ~codecs (fun ~server ~client ->
        let skel, gets = counter_skeleton () in
        let target = Orb.export server skel in
        let proxy = Orb.smart_proxy client ~invalidate_on:[ "add" ] target in
        let describe detail =
          let d =
            Orb.Smart.call proxy ~op:"describe" (fun e ->
                e.Wire.Codec.put_string detail)
          in
          d.Wire.Codec.get_string ()
        in
        (* In order: a list literal's elements are evaluated right to
           left. *)
        let replies =
          List.map
            (fun step -> step ())
            [
              (fun () -> string_of_int (get proxy));
              (fun () -> describe "a");
              (fun () -> string_of_int (get proxy));
              (fun () -> describe "a");
              (fun () -> string_of_int (add proxy 7));
              (fun () -> string_of_int (get proxy));
              (fun () -> describe "a");
              (fun () -> describe (String.make 300 'z'));
              (fun () -> describe (String.make 300 'z'));
            ]
        in
        let negotiated = (Orb.stats client).Orb.codec_negotiations in
        (replies, Orb.Smart.hits proxy, Orb.Smart.misses proxy, !gets, negotiated))
  in
  let text_replies, text_hits, text_misses, text_gets, text_nego = script [] in
  let hcx_replies, hcx_hits, hcx_misses, hcx_gets, hcx_nego =
    script [ Orb.Protocol.hcx ]
  in
  Alcotest.(check int) "text pair does not negotiate" 0 text_nego;
  Alcotest.(check int) "hcx pair negotiates" 1 hcx_nego;
  Alcotest.(check (list string)) "same decoded replies" text_replies hcx_replies;
  Alcotest.(check string) "read after the write" "7" (List.nth hcx_replies 5);
  Alcotest.(check int) "same hits" text_hits hcx_hits;
  Alcotest.(check int) "same misses" text_misses hcx_misses;
  Alcotest.(check int) "same remote reads" text_gets hcx_gets;
  (* invalidate_on flushed the memo: the reads after [add] went remote. *)
  Alcotest.(check int) "hits" 3 hcx_hits;
  Alcotest.(check int) "misses" 5 hcx_misses

(* A read that misses, then is overtaken by a write, must not cache its
   pre-write reply. The read's servant takes the value and then blocks
   on a latch; the write runs and returns while the read is parked; the
   latch is released only then, so the read's reply lands after the
   write's invalidation. The next read must go remote and see the
   write. *)
let test_read_overtaken_by_write () =
  with_pair (fun ~server ~client ->
      let value = ref 0 in
      let entered = Atomic.make false and release = Atomic.make false in
      let first_read = Atomic.make true in
      let skel =
        Orb.Skeleton.create ~type_id:"IDL:Test/Counter:1.0"
          [
            ( "get",
              fun _ results ->
                let v = !value in
                if Atomic.exchange first_read false then begin
                  Atomic.set entered true;
                  while not (Atomic.get release) do
                    Thread.delay 0.002
                  done
                end;
                results.Wire.Codec.put_long v );
            ( "add",
              fun args results ->
                value := !value + args.Wire.Codec.get_long ();
                results.Wire.Codec.put_long !value );
          ]
      in
      let target = Orb.export server skel in
      let proxy = Orb.smart_proxy client ~invalidate_on:[ "add" ] target in
      let stale = ref (-1) in
      let reader = Thread.create (fun () -> stale := get proxy) () in
      while not (Atomic.get entered) do
        Thread.delay 0.002
      done;
      Alcotest.(check int) "write" 5 (add proxy 5);
      Atomic.set release true;
      Thread.join reader;
      Alcotest.(check int) "overtaken read saw the old value" 0 !stale;
      Alcotest.(check int) "next read sees the write" 5 (get proxy);
      Alcotest.(check int) "no hit served the old value" 0
        (Orb.Smart.hits proxy))

let () =
  Alcotest.run "smart"
    [
      ( "smart proxies",
        [
          Alcotest.test_case "caching + invalidate_on" `Quick test_caching_and_invalidation;
          Alcotest.test_case "distinct arguments" `Quick test_distinct_arguments_miss;
          Alcotest.test_case "explicit invalidate" `Quick test_explicit_invalidate;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "exceptions not cached" `Quick test_exceptions_not_cached;
          Alcotest.test_case "negotiated connection" `Quick
            test_negotiated_connection;
          Alcotest.test_case "read overtaken by a write" `Quick
            test_read_overtaken_by_write;
        ] );
    ]
