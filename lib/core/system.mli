(** Facade: a coordinated spatio-temporal access-control system.

    Wires the RBAC policy, the spatio-temporal bindings, the per-object
    monitors and the audit log into the single object a server (or the
    Naplet emulation's security manager) consults.

    Two decision modes share one observable behavior:

    - [Lazy] (the default, the production path) resolves applicable
      bindings through {!Binding_index}, looks companions up in
      precomputed team rosters, and evaluates history-scope spatial
      constraints incrementally as memoized Brzozowski-derivative
      residuals ({!Decision.decide_lazy} over {!Srac.Lazy_dfa}): no
      per-decision constraint compilation.
    - [Naive] is the seed's linear path — full binding scan, companion
      fold over every object, no caching — kept as the differential
      oracle and the E13 baseline.

    The differential fuzz suite ([test/test_fuzz.ml]) checks that both
    modes produce identical verdicts (including denial reasons),
    identical audit logs and identical trace spans on randomized
    coalitions. *)

type t

type decision_mode = Naive | Lazy

val create :
  ?mode:decision_mode ->
  ?bindings:Perm_binding.t list ->
  ?log_capacity:int ->
  ?bus:Obs.Bus.t ->
  Rbac.Policy.t ->
  t
(** [log_capacity] bounds the audit log (ring mode, for long
    emulations); lifetime counters stay exact either way.  [bus] is the
    observability spine the system publishes on (default: a fresh bus
    with the deterministic null clock); pass a bus built with a
    monotonic clock to give decision spans real durations.  The audit
    log is subscribed to the bus at creation, before any caller
    sinks. *)

val clone : t -> t
(** A pristine replica: same decision mode, same bindings (copied into
    a fresh index), the {e same} policy object, but fresh monitors,
    teams, audit log and bus.  This is the shard-safe entry point the
    parallel engine uses: each OCaml 5 domain decides against its own
    clone, so no mutable decision state (monitors, residual caches,
    the binding memo, rosters, logs) is ever shared between domains.  The shared policy
    must not be mutated while clones are live on other domains —
    concurrent {e reads} of an unmutated policy are safe. *)

val of_policy_text : ?mode:decision_mode -> string -> t
(** Build from {!Policy_lang} text.  @raise Policy_lang.Error *)

val policy : t -> Rbac.Policy.t
val mode : t -> decision_mode

val bindings : t -> Perm_binding.t list
(** In insertion order. *)

val add_binding : t -> Perm_binding.t -> unit
(** Amortized O(1) append (the seed rebuilt the whole list per add). *)

val applicable_bindings : t -> Sral.Access.t -> Perm_binding.t list
(** The bindings {!check} consults for this access, in insertion order
    — resolved through the index.  Exposed for tests and tooling. *)

val log : t -> Audit_log.t

val bus : t -> Obs.Bus.t
(** The system's trace bus.  {!check} emits per-stage span events and
    one {!Obs.Trace.Decision} per decision on it;
    {!arrive} emits {!Obs.Trace.Arrival}.  Subscribe sinks here to
    observe (or record) everything the system does. *)

val monitor : t -> object_id:string -> Monitor.t
(** The monitor for a mobile object, created on first use. *)

val join_team : t -> object_id:string -> team:string -> unit
(** Make the object a member of the named team; bindings with [Team]
    proof scope then consult every member's execution proofs (the
    introduction's "companions").  An object is in at most one team
    (re-joining moves it). *)

val team_of : t -> object_id:string -> string option
val teammates : t -> object_id:string -> string list
(** Other members of the object's team, sorted.  O(|team|) via the
    precomputed roster. *)

val new_session : t -> user:string -> Rbac.Session.t

val check :
  t ->
  session:Rbac.Session.t ->
  object_id:string ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  Decision.verdict
(** Decide, publish the decision on the {!bus} (which the audit log
    records), and — when granted — record the execution proof in the
    object's monitor (the server "carries out" the access and issues
    the proof, Section 2). *)

val check_batch :
  t ->
  session:Rbac.Session.t ->
  object_id:string ->
  program:Sral.Ast.t ->
  (Temporal.Q.t * Sral.Access.t) list ->
  Decision.verdict list
(** Decide a timed queue of accesses for one object, in order, with
    full {!check} semantics (bus events, audit entries, proof
    recording on grants).  The stateful counterpart of
    {!Decision.batch}; the E17 decision-storm benchmark drives each
    shard through this. *)

val arrive :
  t -> object_id:string -> server:string -> time:Temporal.Q.t -> unit
(** Record a migration arrival for the object. *)

val refresh :
  t ->
  session:Rbac.Session.t ->
  object_id:string ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit
(** Recompute every binding's Eq. 3.1 activation state for the object —
    call after arrival/role activation so validity durations accrue
    from the moment permissions become active. *)
