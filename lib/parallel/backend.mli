(** Execution backend for shard fan-out.

    Two build-time implementations share this interface (selected by a
    dune rule on the compiler version):

    - [backend_domains.ml5] — OCaml ≥ 5.0: each task runs on its own
      {!Domain}, giving real multicore parallelism;
    - [backend_single.ml414] — OCaml 4.14: tasks run sequentially on
      the calling thread (the single-shard fallback).

    The engine's partition and merge logic sits entirely above this
    module and treats [parallel] as a black box, so shard results —
    verdicts, audit statistics, merged traces — are identical under
    both backends; only wall-clock behaviour differs.

    Its only caller is {!Engine}: the decision service serves its
    connections on the calling domain. *)

val domains : bool
(** [true] iff tasks really run on separate OCaml 5 domains. *)

val recommended : unit -> int
(** A sensible default shard count: the runtime's recommended domain
    count on OCaml 5, [1] under the sequential fallback. *)

val parallel : (unit -> 'a) array -> 'a array
(** Run every task and return their results in task order.  On the
    domains backend, task [i < n-1] runs on a fresh domain and the last
    task runs on the calling domain; every spawned domain is joined
    before the call returns, even when a task raises (the first
    exception, in task order, is then re-raised). *)
