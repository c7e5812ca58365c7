(** Team-closed partitioning of one coalition's objects across shards.

    Objects that ever share a team are coupled: Team-scope bindings
    fold over companions' proof stores, and the lazy path keeps
    per-binding sub-histories inside teammates' monitors.  Splitting
    such objects
    across shards would let a decision read state owned by another
    domain.  The partition therefore distributes whole {e connected
    components} of the "ever shares a team" relation (computed from the
    scenario's [Join] events by union-find), never individual objects.

    All of it is deterministic — same scenario and shard count, same
    assignment — which the byte-level conformance of merged traces
    depends on. *)

val components : Scenario.t -> string list list
(** Connected components of the share-a-team relation, each listed in
    object-declaration order; components ordered by their first
    object's appearance in {!Scenario.t.objects}. *)

type t

val assign : shards:int -> Scenario.t -> t
(** Greedy bin-pack: components sorted by size (descending, stable) are
    assigned to the least-loaded shard, lowest index on ties.
    @raise Invalid_argument if [shards < 1]. *)

val shard_of : t -> string -> int
(** The shard owning an object.
    @raise Invalid_argument on an object the scenario doesn't declare. *)

val shards : t -> int
val loads : t -> int array
(** Objects per shard. *)
