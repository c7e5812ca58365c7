(** Per-mobile-object runtime monitor.

    One monitor follows one mobile object through its journey: the
    servers it arrived at (and when), the execution proofs of the
    accesses it performed, and the activation history of each bound
    permission.  It is the state both halves of the coordinated
    decision read: the spatial checker consumes the proof store, the
    temporal checker the activation step functions and arrival times.

    Times must be fed in non-decreasing order (there is one logical
    clock per object — its own execution timeline, Section 4's "time
    line"); violating that raises [Invalid_argument]. *)

type t

val create : ?ids:Sral.Access.Ids.t -> object_id:string -> unit -> t
(** [ids] is the access interner the monitor numbers its proofs with
    (default: a fresh one of its own).  Monitors whose histories are
    read together — an object and its companions — must share one; a
    {!System} passes its own to every monitor it creates. *)

val object_id : t -> string

val ids : t -> Sral.Access.Ids.t
(** The monitor's access interner. *)

val proofs : t -> Srac.Proof.store

val record_arrival : t -> server:string -> time:Temporal.Q.t -> unit
val arrivals : t -> Temporal.Q.t list
(** Ascending arrival times; empty until the first arrival. *)

val arrived : t -> bool
(** [arrivals m <> []], without building the list. *)

val base_time : t -> Temporal.Validity.scheme -> Temporal.Q.t
(** Eq. 4.1's base time for a query at the clock, in O(1): the newest
    arrival under [Per_server], the first under [Whole_journey].
    @raise Invalid_argument before the first arrival. *)

val itinerary : t -> (string * Temporal.Q.t) list
(** Servers visited with arrival times, in order. *)

val current_server : t -> string option

val record_access :
  ?id:int -> t -> Sral.Access.t -> time:Temporal.Q.t -> unit
(** Issues an execution proof, stamped with the access's id in
    {!ids} ([id], when the caller has already interned it there, saves
    the lookup). *)

val performed : t -> Sral.Trace.t
(** The trace performed so far, in time order. *)

val set_active : t -> key:string -> time:Temporal.Q.t -> bool -> unit
(** Record a permission-activation state change (keyed by
    {!Perm_binding.key}).  Idempotent when the state does not change. *)

val activation_fn : t -> key:string -> Temporal.Step_fn.t
(** The permission's [active(perm, ·)] function so far; initially
    constant-false. *)

val activation_cell : t -> key:string -> Residual.cell
(** The key's raw activation-change cell, creating it empty if absent.
    The lazy decision path caches it per binding slot so refreshes and
    current-state reads skip the hashtable probe. *)

val set_active_cell : t -> Residual.cell -> time:Temporal.Q.t -> bool -> unit
(** {!set_active} against an already-resolved cell: same clock
    advancement and change recording, no key lookup. *)

val residuals : t -> Residual.store
(** The monitor's lazy-decision state (binding slots, RBAC verdict
    cache, Team-scope sub-histories).  Owned by the monitor so its lifetime matches the proof
    store the residual cursors index into. *)

val is_active_at : t -> key:string -> Temporal.Q.t -> bool

val memo_spatial :
  t ->
  key:string ->
  program:Sral.Ast.t ->
  (unit -> (unit, string) result) ->
  (unit, string) result
(** Memoize a program-level spatial check per binding key: the object's
    program is fixed for its lifetime and the program-scope check does
    not depend on runtime state, so recomputing the automata on every
    decision is pure waste.  The cache invalidates if a different
    program is presented under the same key. *)

val now : t -> Temporal.Q.t
(** Largest time seen so far (zero initially). *)

val history_epoch : t -> int
(** Number of proofs issued so far ({!record_access} calls).  The lazy
    decision path's residual cursors read it as the length of the
    proof store. *)

val pp : Format.formatter -> t -> unit
