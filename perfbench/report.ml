(* Metric records, the human table, and the one-line JSON result. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;  (* how many raw samples the value summarises *)
  note : string;  (* what the value is on this workload *)
}

let metric ?(note = "") ~samples name unit_ value = { name; unit_; value; samples; note }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let print_table ~title r =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.4f %-6s n=%-8d %s\n" m.name m.value m.unit_ m.samples m.note)
    r.metrics;
  Printf.printf "  correct=%b attempted=%d failed=%d\n%!" r.correct r.attempted r.failed

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A float as JSON: the shortest decimal that reads back as the same
   float, so no digit is lost.  NaN and infinities are not JSON, and
   never a measurement, so they become null. *)
let json_float x =
  if not (Float.is_finite x) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1

let to_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_float m.value) (json_string m.unit_))
          r.metrics))

(* What a workload's traced probe returns. *)
type probe = {
  metrics : metric list;  (* its per-layer metrics *)
  gc_ops : int;  (* operations the gc deltas cover *)
  gc : Gc.stat * Gc.stat;  (* around one untraced pass *)
  overhead : float;  (* traced over untraced time per operation, minus one *)
  correct : bool;
  attempted : int;
  failed : int;
}

let gc_metrics p =
  let g0, g1 = p.gc in
  let per_op x = x /. float_of_int (max 1 p.gc_ops) in
  [
    metric "gc.minor_words_per_op" "words" ~samples:p.gc_ops
      (per_op (g1.Gc.minor_words -. g0.Gc.minor_words));
    metric "gc.major_words_per_op" "words" ~samples:p.gc_ops
      (per_op (g1.Gc.major_words -. g0.Gc.major_words));
    metric "gc.major_collections_per_kop" "count" ~samples:p.gc_ops
      (1000. *. per_op (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
    metric "trace.overhead_ratio" "ratio" ~samples:p.gc_ops
      ~note:"traced over untraced time per op, minus one" p.overhead;
  ]

(* ------------------------------------------------------------------ *)
(* Rounds.  A run repeats one round — set up from scratch, then execute
   a fixed seeded operation list — until its time is spent.  Every
   round of a run therefore does identical work: a faster program gets
   more rounds, never longer monitor histories. *)

type round = {
  setup_s : float;
  elapsed_s : float;  (* the timed operation list *)
  ops : int;  (* operations that count towards throughput *)
  lat : int array;  (* ns, one per latency sample *)
}

(* What a run keeps of a round: its raw samples are summarised at once,
   so the benchmark's own memory does not grow with the round count. *)
type summary = { s_setup : float; s_rate : float; s_p50_us : float; s_p99_us : float; s_samples : int }

let summarise r =
  let a = Pct.sorted_ints r.lat in
  let us p = float_of_int (Pct.of_sorted ~p a) /. 1e3 in
  {
    s_setup = r.setup_s;
    s_rate = float_of_int r.ops /. r.elapsed_s;
    s_p50_us = us 50.;
    s_p99_us = us 99.;
    s_samples = Array.length a;
  }

let run_rounds ~seconds ~min_rounds f =
  let t0 = Clock.now_ns () in
  let round i =
    (* each round starts after a full major collection, so one round's
       garbage is not the next round's collection work *)
    Gc.compact ();
    f i
  in
  (* a warm-up round, gated like the others but not measured: it grows
     the heap and fills the caches the measured rounds then find *)
  ignore (round (-1));
  let rec go i acc =
    if i >= min_rounds && Clock.seconds_since t0 >= seconds then List.rev acc
    else go (i + 1) (summarise (round i) :: acc)
  in
  go 0 []

(* The end-to-end metrics every workload reports.  A percentile is
   taken by nearest rank over one round's raw samples.  Throughput and
   latency are then the mean of the faster half of the run's rounds
   (Pct.upper_half_mean, Pct.lower_half_mean): every round does the same
   work, so the rounds that ran slower were slowed by the host, and a
   burst of outside load in up to half of them does not move the run's
   value.  Set-up time is the median over rounds.  [rate] and [latency]
   say what throughput and latency are on this workload, under the names
   the workload documentation uses. *)
let end_to_end ~rate ~latency ~rss_mb ~rss_note rounds =
  let n = List.length rounds in
  let samples = List.fold_left (fun a r -> a + r.s_samples) 0 rounds in
  let median f = Pct.median_float (List.map f rounds) in
  let faster_half pick f = pick (List.map f rounds) in
  let note what = what ^ ", mean of the faster half of rounds" in
  [
    metric "setup_s" "s" ~samples:n ~note:"set-up, median over rounds" (median (fun r -> r.s_setup));
    metric "throughput_per_s" "1/s" ~samples:n ~note:(note rate)
      (faster_half Pct.upper_half_mean (fun r -> r.s_rate));
    metric "p50_us" "us" ~samples ~note:(note latency)
      (faster_half Pct.lower_half_mean (fun r -> r.s_p50_us));
    metric "p99_us" "us" ~samples ~note:(note latency)
      (faster_half Pct.lower_half_mean (fun r -> r.s_p99_us));
    metric "peak_rss_mb" "MB" ~samples:n ~note:rss_note rss_mb;
  ]
