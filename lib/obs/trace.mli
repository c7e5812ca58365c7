(** The event taxonomy of the trace bus.

    One variant per observable fact in the system, spanning all layers:

    - {b decision spans}: [Stage_start]/[Stage_end] bracket each stage
      of the coordinated decision pipeline (RBAC, then spatial, then
      temporal — the Eq. 3.1 ∧ Eq. 4.1 conjunction in evaluation
      order); [Cache_probe] is retired (see its constructor);
    - {b decisions}: one [Decision] per {!Coordinated.System.check},
      carrying the access and the full verdict (the audit log's unit of
      record);
    - {b agent lifecycle}: [Spawned], [Migrated], [Completed],
      [Aborted], [Deadlocked], plus [Arrival] (the monitor-level
      arrival record) and [Role_rejected] (role activation refused at
      authentication);
    - {b coordination traffic}: [Message_sent]/[Message_received] on
      channels, [Signal_raised];
    - {b faults and resilience}: [Fault_injected] (a fault-plan event
      fired by {e Fault.Injector} — migration failure, channel
      drop/delay/duplicate, signal loss, receive timeout),
      [Server_down]/[Server_up] (crash-window boundaries),
      [Retry_scheduled] (a failed migration rescheduled with backoff)
      and [Gave_up] (retry budget exhausted; the access is then denied
      fail-closed);
    - {b administration}: [Policy_changed] records an administrative
      mutation of the RBAC policy (assign/deassign, grant/revoke,
      SoD-constraint or binding addition, team join/leave) with the
      rendered op and the {!Rbac.Policy.version} stamp after it;
    - {b run bookkeeping}: [Run_finished] closes a simulation run.

    All events are timestamped with the simulator's exact ℚ clock, so a
    trace is replayable and two identical runs produce identical
    traces.  [Stage_end.elapsed_ns] is the only wall-clock-derived
    field; under the default (null) bus clock it is [0] and traces stay
    deterministic. *)

type stage = Rbac | Spatial | Temporal

type fault =
  | Server_unreachable  (** migration targeted a crashed server *)
  | Migration_failure  (** transient transport failure (retryable) *)
  | Channel_drop
  | Channel_delay
  | Channel_duplicate
  | Signal_loss
  | Recv_timeout  (** a blocked receive abandoned by the timeout policy *)

type event =
  | Stage_start of { time : Temporal.Q.t; object_id : string; stage : stage }
  | Stage_end of {
      time : Temporal.Q.t;
      object_id : string;
      stage : stage;
      ok : bool;  (** did the stage pass for every applicable binding? *)
      elapsed_ns : int64;
          (** host-clock nanoseconds spent in the stage; [0] under the
              null clock *)
    }
  | Cache_probe of { time : Temporal.Q.t; object_id : string; hit : bool }
      (** Retired: a verdict-cache hit or miss of the removed indexed
          decision path.  Nothing in this repository emits it any more.
          The constructor, its {!Stats} counters and its {!Export}
          codec stay so that archived traces holding [cache_probe]
          lines are still read and counted, not rejected, and so that
          consumers matching on it keep compiling. *)
  | Decision of {
      time : Temporal.Q.t;
      object_id : string;
      access : Sral.Access.t;
      verdict : Verdict.t;
    }
  | Arrival of { time : Temporal.Q.t; object_id : string; server : string }
  | Role_rejected of {
      time : Temporal.Q.t;
      object_id : string;
      role : string;
      reason : string;
    }
  | Spawned of { time : Temporal.Q.t; agent : string; home : string }
  | Migrated of {
      time : Temporal.Q.t;
      agent : string;
      from_ : string;
      to_ : string;
    }
  | Message_sent of { time : Temporal.Q.t; agent : string; channel : string }
  | Message_received of {
      time : Temporal.Q.t;
      agent : string;
      channel : string;
    }
  | Signal_raised of { time : Temporal.Q.t; agent : string; signal : string }
  | Completed of { time : Temporal.Q.t; agent : string }
  | Aborted of { time : Temporal.Q.t; agent : string; reason : string }
  | Deadlocked of { time : Temporal.Q.t; agent : string }
  | Fault_injected of {
      time : Temporal.Q.t;
      agent : string;
      fault : fault;
      target : string;
          (** what the fault hit: a server, channel or signal name *)
    }
  | Server_down of { time : Temporal.Q.t; server : string }
  | Server_up of { time : Temporal.Q.t; server : string }
  | Retry_scheduled of {
      time : Temporal.Q.t;
      agent : string;
      attempt : int;  (** 1-based failed-attempt counter *)
      at : Temporal.Q.t;  (** when the retry will run (backoff applied) *)
    }
  | Gave_up of { time : Temporal.Q.t; agent : string; attempts : int }
  | Policy_changed of {
      time : Temporal.Q.t;
      op : string;
          (** rendered admin op, e.g. ["assign u1 doctor"] — the same
              line syntax {e Analysis.Admin.op_of_string} accepts *)
      version : int;  (** {!Rbac.Policy.version} after the mutation *)
    }
  | Run_finished of { time : Temporal.Q.t }

val time : event -> Temporal.Q.t
(** The event's simulated timestamp. *)

val subject : event -> string option
(** The mobile object / agent the event concerns ([None] for
    [Server_down], [Server_up], [Policy_changed] and [Run_finished]). *)

val stage_name : stage -> string
(** ["rbac"], ["spatial"] or ["temporal"]. *)

val stage_of_name : string -> stage option
(** Inverse of {!stage_name}. *)

val fault_name : fault -> string
(** ["server_unreachable"], ["channel_drop"], … *)

val fault_of_name : string -> fault option
(** Inverse of {!fault_name}. *)

val equal : event -> event -> bool

val pp : Format.formatter -> event -> unit
(** One human-readable line per event. *)
