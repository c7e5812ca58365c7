(** Execution proofs and the proof store.

    When a coalition server carries out an access it issues an
    execution proof recording [(o, op, r, s)] and the execution time
    (Section 2).  [Pr_x(a)] is true iff such a proof exists.  The store
    belongs to one mobile object (the [o] component is fixed). *)

type entry = { access : Sral.Access.t; id : int; time : Temporal.Q.t }
(** [id] is the access's {!Sral.Access.Ids} id in the interner of
    whoever recorded the proof, or [-1] if it was recorded without
    one.  Readers that key state on ids fall back to the access itself
    for a negative id. *)

type store

val create : unit -> store

val record : ?id:int -> store -> Sral.Access.t -> time:Temporal.Q.t -> unit
(** Issue a proof for an executed access, carrying its interned [id]
    (default [-1]: none). *)

val holds : store -> Sral.Access.t -> bool
(** [Pr_x(a)]. *)

val holds_before : store -> Sral.Access.t -> Temporal.Q.t -> bool
(** A proof with [time <= t] exists. *)

val times : store -> Sral.Access.t -> Temporal.Q.t list
(** Ascending execution times of all proofs for the access. *)

val count_matching : store -> (Sral.Access.t -> bool) -> int
(** Number of proofs whose access matches the predicate (with
    multiplicity). *)

val entries : store -> entry list
(** All proofs in issue order. *)

val rev_entries : store -> entry list
(** All proofs newest-first, O(1) — the store's native order.  The
    lazy decision path reads only the suffix it has not yet folded
    into its residual cursor, so it must not pay a list reversal per
    decision. *)

val performed_trace : store -> Sral.Trace.t
(** The accesses in execution-time order — the trace the object has
    actually performed so far. *)

val size : store -> int
val copy : store -> store

val always : store
(** A store for which [Pr_x] holds of every access — used by static
    (pre-execution) constraint checking, where Definition 3.6's
    [Pr_c(a)] conjunct is vacuous.  {!record} on it is an error. *)
