(** O(1) streaming statistics over a trace.

    A {!sink} that keeps decision/cache counters and one latency
    histogram per decision stage (rbac, spatial, temporal), fed by
    {!Trace.Stage_end.elapsed_ns} spans.  Histograms use 64 log₂
    buckets, so every update is O(1) and percentile queries are a
    64-bucket walk — percentile estimates are bucket upper bounds
    (factor-2 resolution).

    Under the default null bus clock every span is 0ns; attach the
    stats sink to a bus created with a monotonic clock (as the E14
    bench group does) to measure real per-stage latency. *)

type t

type histogram

val create : unit -> t

val sink : t -> Sink.t
(** The accumulator as a bus subscriber.  Consumes [Stage_end],
    [Cache_probe] (retired; counted for archived traces) and [Decision]
    events; ignores the rest. *)

val of_trace : Trace.event list -> t
(** Fold a captured trace through a fresh accumulator — how per-shard
    statistics are recovered from the chunks a sharded run collected. *)

val add : t -> t -> unit
(** [add acc t] accumulates [t]'s counters and histograms into [acc]
    (bucket-wise for the histograms).  The merge step for per-shard
    statistics: folding every shard's {!of_trace} into one accumulator
    yields exactly the statistics of the sequential run. *)

val decisions : t -> int
val granted : t -> int
val denied : t -> int
val cache_hits : t -> int
val cache_misses : t -> int

val stage_failures : t -> int
(** Stages that reported [ok = false]. *)

val faults : t -> int
(** [Fault_injected] events observed. *)

val retries : t -> int
(** [Retry_scheduled] events observed. *)

val gave_up : t -> int
(** [Gave_up] events observed (retry budgets exhausted). *)

val stage_count : t -> Trace.stage -> int
(** Spans observed for the stage. *)

val stage_histogram : t -> Trace.stage -> histogram

val histogram : unit -> histogram
(** A fresh standalone histogram — for consumers that time something
    other than decision stages (e.g. the [stacc load] per-request
    latency recorder) but want the same accumulation and percentile
    machinery. *)

val observe : histogram -> int64 -> unit
(** Record one sample (nanoseconds; negative values clamp to [0]). *)

val hist_count : histogram -> int
val hist_mean_ns : histogram -> float
val hist_max_ns : histogram -> int64

val hist_percentile_ns : histogram -> float -> float
(** [hist_percentile_ns h 0.99] — upper bound of the bucket holding the
    given quantile ([0] on an empty histogram). *)

val percentile : histogram -> float -> float
(** Like {!hist_percentile_ns} but {e exact} (nearest-rank over the
    retained raw samples) while the histogram holds at most 512
    observations and was never merged past that; beyond the raw-sample
    buffer it falls back to the factor-2 bucket upper bound.  This is
    the estimator reports should quote — p50/p95/p99 of small runs come
    out exact, huge runs degrade gracefully. *)

val pp : Format.formatter -> t -> unit
(** Counter summary plus one histogram line per stage. *)
