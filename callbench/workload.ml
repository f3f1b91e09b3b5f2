(* The three call workloads. Each is one echo interface called in a
   closed loop; they differ only in the properties that define them
   (transport, codec offer, payload, deadline, caller count). Every
   other ORB setting stays at its default, so a later change to a
   default shows up in the numbers. *)

type kind = Echo16 | Bulk

type t = {
  name : string;
  kind : kind;
  transport : string;
  callers : int;
  codecs : Orb.Protocol.t list;  (** [Orb.create ~codecs] for both ORBs. *)
  timeout : float option;  (** Per-call [~timeout] on every invoke. *)
}

let all =
  [
    (* Smallest message over TCP: hand-offs, syscalls and framing. *)
    { name = "echo-tcp"; kind = Echo16; transport = "tcp"; callers = 2;
      codecs = []; timeout = None };
    (* 1024 records each way with HCX negotiated: codec and copy work. *)
    { name = "bulk-hcx-tcp"; kind = Bulk; transport = "tcp"; callers = 1;
      codecs = [ Orb.Protocol.hcx ]; timeout = None };
    (* The echo-tcp call through the timed waits, on the mem transport.
       One caller: with two, p99 swings too far to compare runs. *)
    { name = "deadline-mem"; kind = Echo16; transport = "mem"; callers = 1;
      codecs = []; timeout = Some 1.0 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---------------- payloads ---------------- *)

(* IDL: struct Rec { long id; double value; string<8> tag; }; *)
type record = { id : int; value : float; tag : string }

type value = Str of string | Recs of record array

let records_per_call = 1024

let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let rand_string st n =
  String.init n (fun _ -> alphabet.[Random.State.int st (String.length alphabet)])

(* The seeded argument pool a run cycles through. Every payload comes
   from [seed]; nothing else in the run is random. *)
let args w ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash w.name |] in
  match w.kind with
  | Echo16 -> Array.init 1024 (fun _ -> Str (rand_string st 16))
  | Bulk ->
      Array.init 8 (fun _ ->
          Recs
            (Array.init records_per_call (fun _ ->
                 let id = Int32.to_int (Random.State.bits32 st) in
                 let value = Random.State.float st 2e6 -. 1e6 in
                 { id; value; tag = rand_string st 8 })))

(* The argument of the set-up call: the smallest value of the workload's
   type (the empty sequence for [Bulk]), so that a set-up measures ORB
   creation, connection and negotiation rather than one workload call. *)
let setup_arg w args = match w.kind with Echo16 -> args.(0) | Bulk -> Recs [||]

(* Marshalling as the generated OCaml mapping does it: a sequence is a
   length then its elements, a struct is begin, members, end. *)
let put (e : Wire.Codec.encoder) = function
  | Str s -> e.put_string s
  | Recs rs ->
      e.put_len (Array.length rs);
      Array.iter
        (fun r ->
          e.put_begin ();
          e.put_long r.id;
          e.put_double r.value;
          e.put_string r.tag;
          e.put_end ())
        rs

let get kind (d : Wire.Codec.decoder) =
  match kind with
  | Echo16 -> Str (d.get_string ())
  | Bulk ->
      let n = d.get_len () in
      Recs
        (Array.init n (fun _ ->
             d.get_begin ();
             let id = d.get_long () in
             let value = d.get_double () in
             let tag = d.get_string () in
             d.get_end ();
             { id; value; tag }))

(* ---------------- server side ---------------- *)

let type_id = "IDL:CallBench/Echo:1.0"
let op = "echo"

(* The servant body: echo its argument. *)
let servant (v : value) = v

(* The skeleton. While [traced] is set it stamps the three server-side
   spans (argument decode, servant body, result encode) and hands them
   to [on_server] on the dispatching thread, inside the ORB's server
   span. *)
let skeleton w ~traced ~on_server =
  let handler args results =
    if Atomic.get traced then begin
      let t0 = Util.now () in
      let v = get w.kind args in
      let t1 = Util.now () in
      let r = servant v in
      let t2 = Util.now () in
      put results r;
      on_server t0 t1 t2 (Util.now ())
    end
    else put results (servant (get w.kind args))
  in
  Orb.Skeleton.create ~type_id [ (op, handler) ]

(* ---------------- ORBs ---------------- *)

let create_orb ?obs w =
  match w.transport with
  | "tcp" -> Orb.create ~codecs:w.codecs ~transport:"tcp" ~host:"127.0.0.1" ?obs ()
  | transport -> Orb.create ~codecs:w.codecs ~transport ?obs ()

(* One untraced call: the decoded reply. *)
let call client target w v =
  Option.map (get w.kind)
    (Orb.invoke client target ~op ?timeout:w.timeout (fun e -> put e v))
