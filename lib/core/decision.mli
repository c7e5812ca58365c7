(** The coordinated access-control decision — Eq. 3.1 ∧ Eq. 4.1.

    A request is granted iff

    + plain RBAC grants it: some role active in the subject's session
      carries a matching permission ([r ∈ AR(s) ∧ perm ∈ RP(r)]);
    + every applicable binding's spatial constraint passes
      [check(P, C)] against the object's program and execution proofs
      (Theorem 3.2's polynomial checker); and
    + every applicable binding's validity duration has not been
      exhausted: [valid(perm, t) = 1] per Eq. 4.1 under the binding's
      base-time scheme.

    The decision also maintains the permission's activation function in
    the monitor: whenever the RBAC∧spatial state differs from the
    recorded one, a state change is logged at the decision time — this
    is the "event will be triggered to set valid to 0" mechanism of
    Section 4, made explicit. *)

type reason = Verdict.reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
      (** the permission is not in the active state at decision time
          (Eq. 3.1's conjunction failed earlier on this timeline) *)
  | Not_arrived  (** no arrival recorded — object not on any server *)
  | Server_unavailable of string
      (** fail-closed denial minted by the Naplet security manager when
          the target server is inside a crash window *)

type verdict = Verdict.t = Granted | Denied of reason

val decide :
  ?obs:Obs.Bus.t ->
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  verdict
(** Decide the access at the given time.  Inspects only bindings whose
    permission pattern covers the access.  [companions] are the
    monitors of the object's teammates, consulted by bindings with
    [Team] proof scope.  With [obs], each pipeline stage (rbac,
    spatial, temporal) is bracketed with
    {!Obs.Trace.Stage_start}/[Stage_end] span events on the bus, in
    evaluation order; without it the decision is span-free and
    allocation-identical to the seed. *)

val decide_naive :
  ?obs:Obs.Bus.t ->
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  Sral.Access.t ->
  verdict
(** The linear-scan reference decision — literally {!decide}.  Kept
    under its own name as the differential oracle {!decide_lazy} is
    fuzz-tested against, and as the baseline the E13 benchmark
    measures. *)

type request = {
  session : Rbac.Session.t;
  monitor : Monitor.t;
  companions : Monitor.t list;
  program : Sral.Ast.t;
  time : Temporal.Q.t;
  access : Sral.Access.t;
}
(** One pre-resolved decision input, as a shard's work queue holds it. *)

val batch :
  ?obs:Obs.Bus.t ->
  bindings:Perm_binding.t list ->
  request list ->
  verdict list
(** Decide a queue of requests against one binding store, in order —
    the per-shard inner loop of the parallel engine.  Pure decisions:
    nothing is recorded in the monitors (use
    {!Coordinated.System.check_batch} for the stateful, proof-issuing
    form).  Each request is decided exactly as {!decide} would. *)

val decide_lazy :
  ?obs:Obs.Bus.t ->
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  applicable:Binding_index.entry list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  access_id:int ->
  Sral.Access.t ->
  verdict
(** The production decision path.  [applicable] is the pre-filtered
    binding list with the bindings' ids (from
    {!Binding_index.applicable}), in binding-store insertion order — the
    caller is trusted to pass exactly the bindings {!decide} would have
    selected, and to give one binding the same id on every call
    against the monitor.  [access_id] is the access's id in
    {!Monitor.ids}[ monitor], which the companions must share.
    Observationally identical to {!decide_naive} on the same inputs —
    verdicts, denial strings, stage spans, monitor clock and activation
    movement — but evaluates history-scope spatial constraints
    incrementally: each binding owns a {!Srac.Lazy_dfa} machine in the
    monitor's {!Residual} store, a cursor folds newly performed
    accesses into the residual state, and the grant / activation
    answers are memoized per-state nullability / feasibility bits.  A
    [Team]-scope binding folds the merge of the members' non-inert
    sub-histories, and only when one of them grew or the team changed.
    A spatial denial's detail comes from the oracle's trace check over
    the binding's non-inert history.  RBAC verdicts and role checks
    are cached per access / binding id, stamped by
    {!Rbac.Session.version}.  With [obs] the three stage spans are
    emitted exactly as the naive path does; without it the decision
    short-circuits at the first failure and the warm path performs
    zero allocation (benchmarked in E22, differentially fuzzed in
    [test/test_fuzz.ml]).
    @raise Invalid_argument if a companion has another interner. *)

val refresh_activation :
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit ->
  unit
(** Recompute Eq. 3.1's [active(perm, ·)] for every binding at the
    given time — call at arrival/role-activation events so validity
    durations start burning when the permission becomes active, not
    when it is first exercised. *)

val refresh_activation_lazy :
  ?companions:Monitor.t list ->
  session:Rbac.Session.t ->
  monitor:Monitor.t ->
  bindings:Perm_binding.t list ->
  program:Sral.Ast.t ->
  time:Temporal.Q.t ->
  unit ->
  unit
(** {!refresh_activation} through the lazy machinery: same activation
    flips, computed from residual feasibility instead of a fresh DFA
    per history-scope binding.  A binding's position in [bindings] is
    its id, as in {!Binding_index}: pass the whole store in insertion
    order. *)

val is_granted : verdict -> bool
val pp_reason : Format.formatter -> reason -> unit
val pp_verdict : Format.formatter -> verdict -> unit

val validity_dc_check :
  monitor:Monitor.t ->
  binding:Perm_binding.t ->
  time:Temporal.Q.t ->
  bool
(** Theorem 4.1, checked through the duration-calculus route: build the
    DC constraint [∫valid ≤ dur] and decide it with
    {!Temporal.Duration_calculus.sat} over [[t_b, t]].  Must agree with
    the step-function route used by {!decide} (property-tested). *)
