(* Small helpers shared by the benchmark: the clock, a growable sample
   buffer, order statistics, JSON output and process facts. *)

(* One clock for everything the benchmark times. It must be the clock
   Obs stamps its spans with, so that the benchmark's own spans and the
   ORB's spans can be nested and subtracted. *)
let now = Obs.Trace.now

(* A growable buffer of (completion time, latency) pairs, one per
   caller thread (never shared). *)
module Samples = struct
  type t = { mutable at : Float.Array.t; mutable lat : Float.Array.t; mutable n : int }

  let create () = { at = Float.Array.create 4096; lat = Float.Array.create 4096; n = 0 }

  let grow a n =
    let b = Float.Array.create (2 * n) in
    Float.Array.blit a 0 b 0 n;
    b

  let add t ~at lat =
    if t.n = Float.Array.length t.lat then begin
      t.at <- grow t.at t.n;
      t.lat <- grow t.lat t.n
    end;
    Float.Array.set t.at t.n at;
    Float.Array.set t.lat t.n lat;
    t.n <- t.n + 1

  (* Latencies of the calls that completed in [lo, hi), sorted. *)
  let sorted_between ts ~lo ~hi =
    let acc = ref [] in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          let at = Float.Array.get t.at i in
          if at >= lo && at < hi then acc := Float.Array.get t.lat i :: !acc
        done)
      ts;
    let a = Array.of_list !acc in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array, and the number of samples
   strictly beyond its rank: a percentile with fewer than 10 beyond it
   is not reported as measured. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Process CPU time (user + sys, every thread and domain), seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The machine's CPU steal so far, in clock ticks summed over CPUs: time
   the hypervisor gave this VM's runnable CPUs to someone else. 0 where
   /proc/stat has no steal column. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
          int_of_string steal
      | _ -> 0)
  | None -> 0
  | exception Sys_error _ -> 0

(* Peak resident set (VmHWM), MiB. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> loop ()
        | exception End_of_file -> nan
      in
      loop ())

(* Whole-program GC counters. [Gc.quick_stat] folds another domain's
   minor words in only at a minor collection, and OCaml 5 minor
   collections are global, so forcing one first makes the snapshot
   cover the pool's worker domains too. The forced collection itself is
   subtracted by the caller. *)
let gc_snapshot () =
  Gc.minor ();
  Gc.quick_stat ()

(* ---------------- JSON ---------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of the measured value; a non-finite value is a bug in the
   benchmark and must not be printed as a number. *)
let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "json_num: non-finite metric"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
