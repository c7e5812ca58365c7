(** Indexed permission-binding store.

    Replaces {!System}'s flat binding list: append is amortized O(1)
    (the old list was rebuilt with [@] on every add), and
    {!applicable} resolves an access by probing at most 8 pattern
    buckets — the concrete-vs-wildcard combinations of the access's
    (operation, resource, server) — instead of running
    {!Perm_binding.applies_to} over every binding in the coalition.

    The bindings of {!applicable} are provably the same list, in the
    same (insertion) order, as
    [List.filter (applies_to · access) (to_list t)] — property-tested
    in [test/test_core.ml].

    A binding's {e id} is its insertion position: [0] for the first
    binding added, and so on.  The store is append-only, so an id names
    the same binding for the index's lifetime; the lazy decision path
    keys its per-binding state on it. *)

type t

type entry = int * Perm_binding.t
(** A binding with its id. *)

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
(** All bindings in insertion order, i.e. by id. *)

val applicable : t -> id:int -> Sral.Access.t -> entry list
(** Bindings whose permission pattern covers the access, with their
    ids, in insertion order.  [id] is the access's {!Sral.Access.Ids}
    id; every call on one index must draw it from the same interner.
    Memoized per access id and {!version}: a repeat lookup is two array
    reads and allocates nothing.  A negative [id] resolves without the
    memo.  The memo is mutable state, so an index must not be shared
    between domains. *)
