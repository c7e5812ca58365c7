(** A coalition as pure data, and its deterministic interpreter.

    A scenario fixes everything a run needs — the RBAC population,
    grants and assignments, the binding store, the mobile objects with
    their SRAL programs, a timed event stream (event [i] executes at
    ℚ time [i+1]) and an optional fault plan — with no hidden state, so
    the same scenario can be interpreted on any shard of any engine and
    always produce the same verdicts, audit entries and trace.

    This is the unit of work of the parallel engine: coalition-level
    sharding distributes whole scenarios across domains; object-level
    sharding replays {e one} scenario on several domains, each owning a
    team-closed subset of the objects (see {!Partition} and
    {!Engine}). *)

type obj = {
  id : string;
  owner : string;
  roles : string list;  (** activated at session creation, best effort *)
  program : Sral.Ast.t;
}

type event =
  | Arrive of string * string  (** object, server *)
  | Check of string * Sral.Access.t
  | Activate of string * string  (** object, role *)
  | Deactivate of string * string
  | Join of string * string  (** object, team *)
  | Refresh of string
  | Add_binding of Coordinated.Perm_binding.t

type t = {
  users : string list;
  roles : string list;
  grants : (string * Rbac.Perm.t) list;  (** role, permission *)
  assignments : (string * string) list;  (** user, role *)
  bindings : Coordinated.Perm_binding.t list;
  objects : obj list;
  events : event list;
  plan : Fault.Plan.t option;
      (** crash windows applied fail-closed: a [Check] against a downed
          server is denied [Server_unavailable] (and audited), an
          [Arrive] at one is dropped with a [Fault_injected] trace
          event — all decided from plan data alone, so faulty runs
          replay identically under any sharding. *)
}

val subject : event -> string option
(** The object the event concerns ([None] for [Add_binding]). *)

val broadcast : event -> bool
(** Must every shard replay this event regardless of ownership?
    [true] for [Add_binding] (shared binding store) and [Join] (team
    rosters, which Team-scope decisions read).
    Broadcast events emit nothing, so replaying them everywhere leaves
    the merged trace untouched. *)

val checks : t -> int
(** Number of [Check] events — the request count throughput is
    measured over. *)

val policy_of : t -> Rbac.Policy.t

val system : ?mode:Coordinated.System.decision_mode -> t -> Coordinated.System.t
(** A fresh system loaded with the scenario's policy and bindings (no
    events replayed yet).  Shards replica this via
    {!Coordinated.System.clone}. *)

type step = {
  index : int;  (** position in {!t.events} *)
  verdict : string option;  (** rendered verdict, for [Check] steps *)
  trace : Obs.Trace.event list;  (** bus events this step emitted *)
}

type slice = {
  steps : step list;  (** owned steps, ascending in [index] *)
  granted : int;  (** this replica's lifetime audit counters *)
  denied : int;
  log : string;  (** this replica's rendered audit log *)
}

val replay :
  control:Coordinated.System.t -> owns:(string -> bool) -> t -> slice
(** Replay the event stream against [control], executing only events
    whose {!subject} the shard [owns] (plus every {!broadcast} event),
    and capture each executed step's bus emissions as a chunk tagged
    with the step index.  With [owns = fun _ -> true] this is exactly
    the sequential run.  Soundness for partial ownership requires the
    ownership predicate to be team-closed — objects that ever share a
    team must have the same owner (see {!Partition.assign}). *)

type outcome = {
  verdicts : string list;  (** rendered, in event order *)
  granted : int;
  denied : int;
  log : string;  (** rendered audit log *)
  trace : Obs.Trace.event list;  (** full bus trace, in emission order *)
}

val run : ?mode:Coordinated.System.decision_mode -> t -> outcome
(** Interpret the whole scenario sequentially on a fresh system — the
    oracle every sharded run is compared against. *)
