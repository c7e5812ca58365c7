(** Indexed permission-binding store.

    Replaces {!System}'s flat binding list: append is amortized O(1)
    (the old list was rebuilt with [@] on every add), and
    {!applicable} resolves an access by probing at most 8 pattern
    buckets — the concrete-vs-wildcard combinations of the access's
    (operation, resource, server) — instead of running
    {!Perm_binding.applies_to} over every binding in the coalition.

    The result of {!applicable} is provably the same list, in the same
    (insertion) order, as [List.filter (applies_to · access) (to_list t)]
    — property-tested in [test/test_core.ml]. *)

type t

val create : unit -> t
val of_list : Perm_binding.t list -> t

val add : t -> Perm_binding.t -> unit
(** Append; amortized O(1). *)

val length : t -> int

val version : t -> int
(** Monotone store stamp (the store is append-only, so the length
    serves): equal versions ⟹ identical contents.  {!applicable}'s
    per-access memo is stamped with it. *)

val to_list : t -> Perm_binding.t list
(** All bindings in insertion order. *)

val applicable : t -> Sral.Access.t -> Perm_binding.t list
(** Bindings whose permission pattern covers the access, in insertion
    order.  Memoized per access and {!version}: a repeat lookup is one
    hashtable probe and allocates nothing.  The memo is mutable state,
    so an index must not be shared between domains. *)
