(** Lazy-derivative constraint machines (RE2-style lazy subset
    construction over Brzozowski residuals).

    The eager pipeline compiles a constraint to a full DFA over a fixed
    alphabet before the first query ({!Compile}); this module instead
    materializes exactly the states and transitions the monitored
    object's trace actually visits.  States are interned simplified
    {!Derivative} residuals, symbols are interned accesses, and both
    live in preallocated geometrically-grown arrays, so the warm path
    — [step_access] on a known symbol, [nullable], a memoized
    [feasible] — performs zero allocation.

    Semantics (all property-tested against the eager oracles):
    - [nullable m q] = [Trace_sat.sat] of the trace that led to [q]
      (with vacuous proofs), because the residual of a satisfied
      constraint is satisfied by the empty extension;
    - [feasible m q] = [Program_sat.prefix_feasible] of that trace over
      the machine's current alphabet (the constraint's accesses plus
      every non-{!inert} access stepped so far); inert accesses are
      self-loops, so leaving them out of the alphabet changes no
      answer. *)

type t

val create : Formula.t -> t
(** Build a machine for the constraint.  Interns the constraint's own
    accesses (pre-simplification, matching the eager feasibility
    oracle's alphabet) and the simplified constraint as state 0.  No
    transitions are materialized. *)

val start : t -> int
(** The initial state (the simplified source constraint). *)

val step_access : t -> int -> Sral.Access.t -> int
(** Step a residual state by a *performed* access, interning the
    access into the alphabet if new.  Warm transitions are two array
    reads; cold ones derive + simplify once and are memoized.  An
    {!inert} access returns the state unchanged and is not interned. *)

val step_id : t -> int -> id:int -> Sral.Access.t -> int
(** {!step_access} for an access carrying its {!Sral.Access.Ids} id:
    once the machine has classified the id, the step is array reads
    with no hashing.  All ids a machine sees must come from one
    interner; a negative id means "none" and hashes the access. *)

val step_entry : t -> int -> Proof.entry -> int
(** [step_id] of the entry's access and id. *)

val inert : t -> Sral.Access.t -> bool
(** The access is outside [Formula.accesses] of the constraint and no
    cardinality selector of it matches: a self-loop on every residual,
    so neither nullability nor feasibility can depend on it.
    Allocation-free. *)

val inert_id : t -> id:int -> Sral.Access.t -> bool
(** {!inert}, answered by array read once the id is classified.
    Classifying never interns: a selector-matched access that is only
    tested here stays out of the alphabet until a {!step_id} performs
    it. *)

val inert_entry : t -> Proof.entry -> bool
(** [inert_id] of the entry's access and id. *)

val nullable : t -> int -> bool
(** Is the state's residual satisfied by the empty extension?  O(1). *)

val nullable_after : t -> int -> id:int -> Sral.Access.t -> bool
(** [nullable] of the state reached by the access (with its id, or
    [-1]) — without interning it: a hypothetical (possibly denied)
    access must not enter the alphabet and skew later feasibility
    answers.  Allocation-free when the access is already interned or
    inert. *)

val feasible : t -> int -> bool
(** Can the state's residual still be satisfied by some extension over
    the machine's current alphabet?  Memoized per state: a [true]
    answer is permanent (alphabets only grow), a [false] answer is
    stamped with the alphabet size and recomputed after growth. *)

val residual : t -> int -> Formula.t
(** The state's residual formula (for tests and diagnostics). *)

val num_states : t -> int
val num_symbols : t -> int

val transitions : t -> int
(** Transitions materialized so far. *)
