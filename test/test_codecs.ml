(* Wire codec tests: the HeidiRMI text codec and the CDR binary codec.
   Round-trip properties over random value trees, plus format-level
   checks (alignment, byte order, type tagging, error paths). *)

module W = Wire.Wvalue

let text = Wire.Text_codec.codec
let cdr_be = Wire.Cdr_codec.codec Wire.Cdr_codec.Big_endian
let cdr_le = Wire.Cdr_codec.codec Wire.Cdr_codec.Little_endian
let hcx = Wire.Hcx_codec.codec
let all_codecs = [ text; cdr_be; cdr_le; hcx ]

let roundtrip (codec : Wire.Codec.t) v =
  let e = codec.Wire.Codec.encoder () in
  W.encode e v;
  let payload = e.Wire.Codec.finish () in
  let d = codec.Wire.Codec.decoder payload in
  W.decode_like d v

(* ---------------- unit: specific values through every codec -------- *)

let sample_values =
  [
    W.Bool true;
    W.Bool false;
    W.Char 'x';
    W.Char '\000';
    W.Octet 255;
    W.Short (-32768);
    W.Ushort 65535;
    W.Long (-2147483648);
    W.Ulong 4294967295;
    W.Longlong Int64.min_int;
    W.Ulonglong (-1L);
    W.Float 1.5;
    W.Double 3.141592653589793;
    W.String "";
    W.String "hello world";
    W.String "with \"quotes\" and \\slashes\\ and\nnewlines";
    W.Seq [];
    W.Seq [ W.Long 1; W.Long 2; W.Long 3 ];
    W.Group [ W.String "point"; W.Long 3; W.Long 4 ];
    W.Seq [ W.Group [ W.String "a"; W.Bool true ]; W.Group [ W.String "b"; W.Bool false ] ];
  ]

let test_samples () =
  List.iter
    (fun codec ->
      List.iter
        (fun v ->
          let got = roundtrip codec v in
          if not (W.equal v got) then
            Alcotest.failf "codec %s: %s round-tripped to %s"
              codec.Wire.Codec.name
              (Format.asprintf "%a" W.pp v)
              (Format.asprintf "%a" W.pp got))
        sample_values)
    all_codecs

let test_empty_seq_needs_no_witness () =
  (* Decoding Seq [] works even without an element witness as long as the
     wire length is 0. *)
  List.iter
    (fun codec ->
      match roundtrip codec (W.Seq []) with
      | W.Seq [] -> ()
      | _ -> Alcotest.fail "empty seq")
    all_codecs

(* ---------------- text codec specifics ---------------- *)

let test_text_is_single_line () =
  let e = text.Wire.Codec.encoder () in
  W.encode e (W.String "line1\nline2\rline3");
  let payload = e.Wire.Codec.finish () in
  Alcotest.(check bool) "no raw newline" false (String.contains payload '\n');
  Alcotest.(check bool) "no raw CR" false (String.contains payload '\r')

let test_text_human_readable () =
  let e = text.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 42;
  e.Wire.Codec.put_bool true;
  e.Wire.Codec.put_string "hi";
  Alcotest.(check string) "tokens" "l42 bT s\"hi\"" (e.Wire.Codec.finish ())

let test_text_type_checking () =
  (* The text protocol detects type mismatches — a property CDR cannot
     have (it is positional and untyped). *)
  let e = text.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 1;
  let payload = e.Wire.Codec.finish () in
  let d = text.Wire.Codec.decoder payload in
  match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

let test_text_range_checks () =
  let e = text.Wire.Codec.encoder () in
  (match e.Wire.Codec.put_short 40000 with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "short range");
  let e = text.Wire.Codec.encoder () in
  match e.Wire.Codec.put_octet (-1) with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "octet range"

let test_text_truncation () =
  let d = text.Wire.Codec.decoder "l1" in
  ignore (d.Wire.Codec.get_long ());
  Alcotest.(check bool) "at_end" true (d.Wire.Codec.at_end ());
  match d.Wire.Codec.get_long () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected end-of-payload error"

let test_text_escape_roundtrip () =
  let s = "a\\b\"c\nd\re" in
  Alcotest.(check string) "escape" s
    (Wire.Text_codec.unescape (Wire.Text_codec.escape s))

(* ---------------- CDR specifics ---------------- *)

let test_cdr_alignment () =
  (* octet at 0, then long must start at offset 4 (3 padding bytes). *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_long 2;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check int) "length" 8 (String.length p);
  Alcotest.(check char) "pad" '\000' p.[1];
  (* octet then double: 7 padding bytes, total 16. *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_double 1.0;
  Alcotest.(check int) "double align" 16 (String.length (e.Wire.Codec.finish ()))

let test_cdr_byte_order () =
  let enc codec =
    let e = codec.Wire.Codec.encoder () in
    e.Wire.Codec.put_long 1;
    e.Wire.Codec.finish ()
  in
  Alcotest.(check string) "big endian" "\000\000\000\001" (enc cdr_be);
  Alcotest.(check string) "little endian" "\001\000\000\000" (enc cdr_le)

let test_cdr_string_format () =
  (* ulong length (incl NUL), bytes, NUL. *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_string "hi";
  Alcotest.(check string) "layout" "\000\000\000\003hi\000" (e.Wire.Codec.finish ())

let test_cdr_truncation () =
  let d = cdr_be.Wire.Codec.decoder "\000\000" in
  match d.Wire.Codec.get_long () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected truncation error"

let test_cdr_bad_bool_and_string () =
  let d = cdr_be.Wire.Codec.decoder "\007" in
  (match d.Wire.Codec.get_bool () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "bad bool byte");
  (* String with zero length is malformed (must include NUL). *)
  let d = cdr_be.Wire.Codec.decoder "\000\000\000\000" in
  match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "zero-length CDR string"

let test_size_comparison () =
  (* Sanity for bench §E2/§E15: for numeric payloads CDR is denser than
     text and HCX denser still (varints beat fixed 4-byte longs); all
     codecs grow linearly in sequence length. *)
  let seq n = W.Seq (List.init n (fun i -> W.Long (1000000 + i))) in
  let size codec v =
    let e = codec.Wire.Codec.encoder () in
    W.encode e v;
    String.length (e.Wire.Codec.finish ())
  in
  Alcotest.(check bool) "cdr denser for longs" true
    (size cdr_be (seq 64) < size text (seq 64));
  Alcotest.(check bool) "hcx denser than cdr" true
    (size hcx (seq 64) < size cdr_be (seq 64));
  Alcotest.(check bool) "text grows" true (size text (seq 128) > size text (seq 64))

(* ---------------- HCX specifics ---------------- *)

(* Encode one value through HCX and strip the leading version byte, so
   assertions below talk about the field encoding alone. *)
let hcx_field put =
  let e = hcx.Wire.Codec.encoder () in
  put e;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check char) "version byte" '\001' p.[0];
  String.sub p 1 (String.length p - 1)

let test_hcx_version_byte () =
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 7;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check char) "leading byte is the format version" '\001' p.[0];
  (* A frame from a future encoder fails at decoder construction,
     before any field is interpreted. *)
  let bogus = "\002" ^ String.sub p 1 (String.length p - 1) in
  match hcx.Wire.Codec.decoder bogus with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected version rejection"

let test_hcx_varint_layout () =
  (* LEB128, LSB group first, minimal length. *)
  let ulong v = hcx_field (fun e -> e.Wire.Codec.put_ulong v) in
  Alcotest.(check string) "0 is one byte" "\000" (ulong 0);
  Alcotest.(check string) "127 is one byte" "\127" (ulong 127);
  Alcotest.(check string) "128 is two bytes" "\128\001" (ulong 128);
  Alcotest.(check string) "300 = ac 02" "\172\002" (ulong 300);
  Alcotest.(check string) "2^32-1 is five bytes" "\255\255\255\255\015"
    (ulong 4294967295);
  (* Signed values zigzag before the varint. *)
  let long v = hcx_field (fun e -> e.Wire.Codec.put_long v) in
  Alcotest.(check string) "-1 zigzags to 1" "\001" (long (-1));
  Alcotest.(check string) "1 zigzags to 2" "\002" (long 1);
  Alcotest.(check string) "min long is five bytes" "\255\255\255\255\015"
    (long (-2147483648))

let test_hcx_no_padding () =
  (* octet then double: version + 1 + 8 = 10 bytes, no alignment holes
     (the same pair costs 16 payload bytes in CDR). *)
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_double 1.0;
  Alcotest.(check int) "no alignment padding" 10
    (String.length (e.Wire.Codec.finish ()))

let test_hcx_boundary_varints () =
  (* Every LEB128 group boundary, both signs, both integer widths. *)
  List.iter
    (fun v ->
      match roundtrip hcx (W.Long v) with
      | W.Long got -> Alcotest.(check int) (string_of_int v) v got
      | _ -> Alcotest.fail "long shape")
    [ 0; 1; -1; 127; 128; 129; 16383; 16384; 2097151; 2097152;
      2147483647; -2147483648 ];
  List.iter
    (fun v ->
      match roundtrip hcx (W.Ulong v) with
      | W.Ulong got -> Alcotest.(check int) (string_of_int v) v got
      | _ -> Alcotest.fail "ulong shape")
    [ 0; 127; 128; 16384; 4294967295 ];
  List.iter
    (fun v ->
      match roundtrip hcx (W.Longlong v) with
      | W.Longlong got ->
          Alcotest.(check int64) (Int64.to_string v) v got
      | _ -> Alcotest.fail "longlong shape")
    [ 0L; -1L; Int64.min_int; Int64.max_int ];
  match roundtrip hcx (W.Ulonglong (-1L)) with
  | W.Ulonglong got -> Alcotest.(check int64) "2^64-1" (-1L) got
  | _ -> Alcotest.fail "ulonglong shape"

let test_hcx_truncated_varint () =
  (* A continuation bit with no following byte must fail as truncation,
     not read past the frame. *)
  let d = hcx.Wire.Codec.decoder "\001\128" in
  (match d.Wire.Codec.get_ulong () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "truncated varint accepted");
  (* More groups than any encoder emits is rejected by arithmetic. *)
  let d = hcx.Wire.Codec.decoder ("\001" ^ String.make 10 '\255' ^ "\001") in
  match d.Wire.Codec.get_ulong () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "over-long varint accepted"

let test_hcx_hostile_lengths () =
  (* A hostile length prefix fails before allocation: a claimed
     4-billion-byte string on a tiny frame. *)
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_ulong 4294967295;
  let p = e.Wire.Codec.finish () in
  let d = hcx.Wire.Codec.decoder p in
  (match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "hostile string length accepted");
  let d = hcx.Wire.Codec.decoder p in
  match d.Wire.Codec.get_len () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "hostile sequence length accepted"

let test_hcx_decoder_view () =
  (* The zero-copy receive path: decode from a sub-view of a larger
     buffer without taking a String.sub of the frame. *)
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 42;
  e.Wire.Codec.put_string "view";
  let frame = e.Wire.Codec.finish () in
  let padded = "JUNK" ^ frame ^ "TRAILER" in
  let d =
    Wire.Hcx_codec.make_decoder_view Wire.Codec.default_limits padded ~off:4
      ~len:(String.length frame)
  in
  Alcotest.(check int) "long through view" 42 (d.Wire.Codec.get_long ());
  Alcotest.(check string) "string through view" "view" (d.Wire.Codec.get_string ());
  Alcotest.(check bool) "view ends at frame end" true (d.Wire.Codec.at_end ())

let test_hcx_fixed_width_edges () =
  (* Floats and doubles are fixed-width little-endian bit copies: every
     edge pattern — both zeros, both infinities, subnormals, max and
     quiet NaNs with sign and payload bits — must come back bit for
     bit, read at odd offsets of a larger buffer. *)
  let floats =
    [ 0x00000000l; 0x80000000l; 0x7f800000l; 0xff800000l; 0x00000001l;
      0x807fffffl; 0x7f7fffffl; 0xff7fffffl; 0x7fc00000l; 0xffc00001l;
      0x7fffffffl ]
  in
  let doubles =
    [ 0L; Int64.min_int; 0x7ff0000000000000L; 0xfff0000000000000L; 1L;
      0x800fffffffffffffL; 0x7fefffffffffffffL; 0xffefffffffffffffL;
      0x7ff8000000000000L; 0xfff8000000000001L; Int64.max_int ]
  in
  let e = hcx.Wire.Codec.encoder () in
  List.iter (fun b -> e.Wire.Codec.put_float (Int32.float_of_bits b)) floats;
  List.iter (fun b -> e.Wire.Codec.put_double (Int64.float_of_bits b)) doubles;
  let frame = e.Wire.Codec.finish () in
  let d =
    Wire.Hcx_codec.make_decoder_view Wire.Codec.default_limits
      ("JNK" ^ frame ^ "T") ~off:3 ~len:(String.length frame)
  in
  List.iter
    (fun b ->
      Alcotest.(check int32) (Printf.sprintf "float 0x%08lx" b) b
        (Int32.bits_of_float (d.Wire.Codec.get_float ())))
    floats;
  List.iter
    (fun b ->
      Alcotest.(check int64) (Printf.sprintf "double 0x%016Lx" b) b
        (Int64.bits_of_float (d.Wire.Codec.get_double ())))
    doubles;
  Alcotest.(check bool) "view ends at frame end" true (d.Wire.Codec.at_end ());
  (* A short tail is truncation even when the underlying buffer has
     bytes past the view: the bounds check is the view's, not the
     string's. *)
  let truncated what tail get =
    let d =
      Wire.Hcx_codec.make_decoder_view Wire.Codec.default_limits
        ("J\001" ^ tail ^ "TRAILER") ~off:1 ~len:(1 + String.length tail)
    in
    match get d with
    | exception Wire.Codec.Type_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what msg)
          true
          (Tutil.contains msg "truncated HCX payload")
    | _ -> Alcotest.failf "%s accepted" what
  in
  truncated "3-byte float tail" "abc" (fun d -> d.Wire.Codec.get_float ());
  truncated "7-byte double tail" "abcdefg" (fun d -> d.Wire.Codec.get_double ())

(* ---------------- decode limits ---------------- *)

let test_nesting_depth_pinned () =
  (* DESIGN.md and codec.mli both say depth 128; pin the number so the
     docs cannot silently diverge from the code again. *)
  Alcotest.(check int) "default nesting depth is 128" 128
    Wire.Codec.default_limits.Wire.Codec.max_nesting_depth;
  (* 128 nested get_begin are fine, the 129th trips — begin/end are
     byteless in HCX so the decoder's own counter is the only guard. *)
  let d = hcx.Wire.Codec.decoder "\001" in
  for _ = 1 to 128 do
    d.Wire.Codec.get_begin ()
  done;
  (match d.Wire.Codec.get_begin () with
  | exception Wire.Codec.Type_error _ -> ()
  | () -> Alcotest.fail "129th nesting level accepted");
  (* Balanced begin/end at the edge stays under the limit. *)
  let d = hcx.Wire.Codec.decoder "\001" in
  for _ = 1 to 3 do
    for _ = 1 to 128 do
      d.Wire.Codec.get_begin ()
    done;
    for _ = 1 to 128 do
      d.Wire.Codec.get_end ()
    done
  done;
  (* Custom limits apply to every codec's decoder_limited. *)
  let tiny =
    { Wire.Codec.default_limits with Wire.Codec.max_nesting_depth = 2 }
  in
  List.iter
    (fun codec ->
      let deep = W.Group [ W.Group [ W.Group [ W.Long 1 ] ] ] in
      let e = codec.Wire.Codec.encoder () in
      W.encode e deep;
      let p = e.Wire.Codec.finish () in
      match W.decode_like (codec.Wire.Codec.decoder_limited tiny p) deep with
      | exception Wire.Codec.Type_error _ -> ()
      | _ -> Alcotest.failf "%s: depth limit not enforced" codec.Wire.Codec.name)
    all_codecs

(* ---------------- round-trip property ---------------- *)

let gen_wvalue =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun b -> W.Bool b) bool;
          map (fun c -> W.Char c) (map Char.chr (int_bound 255));
          map (fun n -> W.Octet (abs n mod 256)) small_int;
          map (fun n -> W.Short (n mod 32768)) int;
          map (fun n -> W.Ushort (abs n mod 65536)) int;
          map (fun n -> W.Long (n mod 2147483648)) int;
          map (fun n -> W.Ulong (abs n mod 4294967296)) int;
          map (fun n -> W.Longlong (Int64.of_int n)) int;
          map (fun n -> W.Ulonglong (Int64.of_int n)) int;
          map (fun f -> W.Float f) (float_bound_inclusive 1e9);
          map (fun f -> W.Double f) (float_bound_inclusive 1e12);
          map (fun s -> W.String s) (string_size ~gen:printable (int_bound 40));
        ]
    in
    let rec tree depth =
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              (* All sequence elements share the first element's shape so
                 that schema-guided decode applies. *)
              let* elem = tree 0 in
              let* n = int_bound 6 in
              let clone = function
                | W.Long _ -> map (fun v -> W.Long (v mod 2147483648)) int
                | W.String _ -> map (fun s -> W.String s) (string_size ~gen:printable (int_bound 20))
                | v -> return v
              in
              let* items = flatten_l (List.init n (fun _ -> clone elem)) in
              return (W.Seq items) );
            ( 1,
              let* items = list_size (int_bound 4) (tree (depth - 1)) in
              return (W.Group items) );
          ]
    in
    tree 3)

let roundtrip_prop codec =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s round-trips" codec.Wire.Codec.name)
    (QCheck.make ~print:(Format.asprintf "%a" W.pp) gen_wvalue)
    (fun v -> W.equal v (roundtrip codec v))

(* Cross-codec: the same value tree encodes/decodes under every codec to
   the same result (protocol-independence of the Call abstraction). *)
let cross_codec_prop =
  QCheck.Test.make ~count:200 ~name:"codecs agree on decoded values"
    (QCheck.make ~print:(Format.asprintf "%a" W.pp) gen_wvalue)
    (fun v ->
      let results = List.map (fun c -> roundtrip c v) all_codecs in
      List.for_all (fun r -> W.equal r (List.hd results)) results)

let () =
  Alcotest.run "codecs"
    [
      ( "unit",
        [
          Alcotest.test_case "samples through all codecs" `Quick test_samples;
          Alcotest.test_case "empty sequences" `Quick test_empty_seq_needs_no_witness;
        ] );
      ( "text",
        [
          Alcotest.test_case "single line" `Quick test_text_is_single_line;
          Alcotest.test_case "human readable" `Quick test_text_human_readable;
          Alcotest.test_case "type checking" `Quick test_text_type_checking;
          Alcotest.test_case "range checks" `Quick test_text_range_checks;
          Alcotest.test_case "truncation" `Quick test_text_truncation;
          Alcotest.test_case "escapes" `Quick test_text_escape_roundtrip;
        ] );
      ( "cdr",
        [
          Alcotest.test_case "alignment" `Quick test_cdr_alignment;
          Alcotest.test_case "byte order" `Quick test_cdr_byte_order;
          Alcotest.test_case "string layout" `Quick test_cdr_string_format;
          Alcotest.test_case "truncation" `Quick test_cdr_truncation;
          Alcotest.test_case "malformed bytes" `Quick test_cdr_bad_bool_and_string;
          Alcotest.test_case "size comparison" `Quick test_size_comparison;
        ] );
      ( "hcx",
        [
          Alcotest.test_case "version byte" `Quick test_hcx_version_byte;
          Alcotest.test_case "varint layout" `Quick test_hcx_varint_layout;
          Alcotest.test_case "no padding" `Quick test_hcx_no_padding;
          Alcotest.test_case "boundary varints" `Quick test_hcx_boundary_varints;
          Alcotest.test_case "truncated + over-long varints" `Quick
            test_hcx_truncated_varint;
          Alcotest.test_case "hostile lengths" `Quick test_hcx_hostile_lengths;
          Alcotest.test_case "decoder view" `Quick test_hcx_decoder_view;
          Alcotest.test_case "fixed-width edges" `Quick
            test_hcx_fixed_width_edges;
          Alcotest.test_case "nesting depth pinned" `Quick
            test_nesting_depth_pinned;
        ] );
      ( "property",
        QCheck_alcotest.to_alcotest cross_codec_prop
        :: List.map (fun c -> QCheck_alcotest.to_alcotest (roundtrip_prop c)) all_codecs
      );
    ]
