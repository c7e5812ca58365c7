(** The Figure-1 coalition under deterministic chaos.

    Reuses the integrity-audit topology (servers [s1]–[s3], the
    11-module audit itinerary) and adds the workloads the fault
    subsystem exercises: courier agents routed around crashed servers
    ({!Naplet.Itinerary.linearize_avoiding}), and a producer/consumer
    pair whose channel traffic is exposed to drop/delay/duplicate
    faults (the consumer survives drops via the receive-timeout
    policy).

    Everything is keyed by [(plan name, seed)]: two runs with the same
    pair produce byte-identical trace exports — [stacc chaos] and the
    CI smoke job assert exactly that. *)

type report = {
  plan : Fault.Plan.t;
  seed : int;
  mode : Coordinated.System.decision_mode;
  metrics : Naplet.Metrics.t;
  trace : Obs.Trace.event list;
  violations : Fault.Invariant.violation list;
      (** fail-closed / retry-resolution violations — expected empty *)
  routes : (string * string list) list;
      (** each courier's rerouted visiting order (couriers whose [Alt]
          branch was down at dispatch take the detour) *)
}

val run :
  ?mode:Coordinated.System.decision_mode ->
  ?plan_name:string ->
  ?seed:int ->
  ?couriers:int ->
  ?messages:int ->
  unit ->
  report
(** Defaults: lazy mode, plan ["moderate"], seed 42, 4 couriers, 4
    messages.  [plan_name] is one of {!Fault.Plan.intensity_names}.
    @raise Invalid_argument on an unknown plan name. *)

val export : report -> string
(** The run's trace as deterministic JSONL ({!Obs.Export.to_string}). *)
