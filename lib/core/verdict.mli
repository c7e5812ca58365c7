(** Decision outcomes, factored out of {!Decision} so lower layers
    can store them without
    depending on the decision procedure itself.  The type now lives in
    {!Obs.Verdict} — the observability layer carries verdicts inside
    {!Obs.Trace.Decision} events, and sits below this library — and is
    re-exported here unchanged.  {!Decision} re-exports these
    constructors under its historical names ([Decision.reason],
    [Decision.verdict]); all three spellings are interchangeable. *)

type reason = Obs.Verdict.reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
      (** the permission is not in the active state at decision time
          (Eq. 3.1's conjunction failed earlier on this timeline) *)
  | Not_arrived  (** no arrival recorded — object not on any server *)
  | Server_unavailable of string
      (** fail-closed denial: the target server is crashed or its
          policy replica is stale (produced by the Naplet layer's
          security manager, never by the core decision procedure) *)

type t = Obs.Verdict.t = Granted | Denied of reason

val is_granted : t -> bool
val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> t -> unit
