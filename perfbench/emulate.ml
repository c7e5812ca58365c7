(* emulate-coalition: E19's uniform coalition on the Naplet emulation,
   built and run end to end.  Every decision is a cold RBAC-only check
   on a new object, so Naplet.Sim and Naplet.World dominate. *)

let objects = 100_000
let servers = 40

let config objects =
  { Naplet.World.default_config with Naplet.World.max_events = (objects * 64) + 4096 }

let build ?(objects = objects) () =
  Scenarios.Scale_family.Soa.build_big ~config:(config objects) ~objects ~servers ()

(* The coalition's known totals, from its definition in
   Scenarios.Scale_family.build_big: every agent performs two reads
   under a permissive policy and completes, and every 100th agent
   migrates once between them.  The simulator processes three events
   per agent, migrating or not (E19 reports the same 3 x 10^6 events at
   10^6 objects). *)
type totals = { events : int; completed : int; granted : int; migrations : int }

let expected_totals objects =
  let migrations = (objects + 99) / 100 in
  { events = 3 * objects; completed = objects; granted = 2 * objects; migrations }

let observed world (m : Naplet.Metrics.t) =
  {
    events = Naplet.World.processed_events world;
    completed = m.completed_agents;
    granted = m.granted;
    migrations = m.migrations;
  }

let pp_totals t =
  Printf.sprintf "events=%d completed=%d granted=%d migrations=%d" t.events t.completed
    t.granted t.migrations

(* Wall-clock instants of the emulation's access decisions, from which
   [windows] derives the pace a mobile object sees in the emulator. *)
let decision_clock world =
  let buf = Pct.Buf.create (2 * objects) in
  let bus = Coordinated.System.bus (Naplet.Security_manager.control (Naplet.World.manager world)) in
  Obs.Bus.subscribe bus
    (Obs.Sink.make ~name:"bench-decision-clock" (function
      | Obs.Trace.Decision _ -> Pct.Buf.add buf (Clock.now_ns ())
      | _ -> ()));
  buf

(* The latency samples: wall time per decision over each window of
   [window] consecutive decisions.  Single gaps between decisions are
   ill-conditioned at the 99th percentile: about 98% are 3-12 us, half
   a percent are collector pauses of 0.1 ms and more, and the 99th
   percentile falls in the sparse 12-100 us band between them, where a
   small shift in the host's speed moves it by a factor of two.  A
   window spreads each pause over the decisions around it, so the
   windows' distribution is dense at every percentile. *)
let window = 100

let windows buf =
  let a = Pct.Buf.to_array buf in
  let n = (Array.length a - 1) / window in
  Array.init n (fun i -> (a.((i + 1) * window) - a.(i * window)) / window)

let round () =
  let t0 = Clock.now_ns () in
  let world = build () in
  let setup_s = Clock.seconds_since t0 in
  let clock = decision_clock world in
  let t1 = Clock.now_ns () in
  let m = Naplet.World.run world in
  let elapsed_s = Clock.seconds_since t1 in
  let totals = observed world m in
  ( { Report.setup_s; elapsed_s; ops = totals.events; lat = windows clock },
    totals,
    m.aborted_agents + m.deadlocked_agents )

let timed ~seconds =
  let want = expected_totals objects in
  let bad = ref None and aborted = ref 0 in
  let rounds =
    Report.run_rounds ~seconds ~min_rounds:3 (fun _ ->
        let r, totals, ab = round () in
        aborted := !aborted + ab;
        if totals <> want && !bad = None then bad := Some totals;
        r)
  in
  (match !bad with
  | Some t -> Printf.eprintf "emulate-coalition: %s, expected %s\n" (pp_totals t) (pp_totals want)
  | None -> ());
  {
    Report.correct = !bad = None;
    attempted = List.length rounds * objects;
    failed = !aborted;
    metrics =
      Report.end_to_end rounds ~rate:"events_per_s: processed simulator events/s"
        ~latency:"step_p*_us: wall time per access decision, windows of 100 decisions"
        ~rss_mb:(float_of_int (Proc.vm_hwm_kb None) /. 1024.)
        ~rss_note:"VmHWM of the benchmark process";
  }

(* The traced probe: one run timed as a whole, one with the decision
   clock attached (its cost is the timed run's measurement overhead). *)
let traced spans =
  let want = expected_totals objects in
  Gc.compact ();
  let world = Spans.time spans ~name:"world.build" (fun _ -> build ()) in
  let decisions = ref 0 in
  let bus = Coordinated.System.bus (Naplet.Security_manager.control (Naplet.World.manager world)) in
  Obs.Bus.subscribe bus
    (Obs.Sink.make ~name:"bench-decision-count" (function
      | Obs.Trace.Decision _ -> incr decisions
      | _ -> ()));
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let m = Spans.time spans ~name:"world.run" (fun _ -> Naplet.World.run world) in
  let run_s = Clock.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let totals = observed world m in
  let events = totals.events in
  let clocked, _, _ = (Gc.compact (); round ()) in
  {
    Report.metrics =
      [
        Report.metric "world.run_s" "s" ~samples:1 run_s;
        Report.metric "sim.events" "count" ~samples:1 (float_of_int events);
        Report.metric "world.decisions" "count" ~samples:1 (float_of_int !decisions);
        Report.metric "world.events_per_decision" "ratio" ~samples:!decisions
          (float_of_int events /. float_of_int (max 1 !decisions));
      ];
    gc_ops = events;
    gc = (g0, g1);
    overhead = (clocked.Report.elapsed_s /. run_s) -. 1.;
    correct = totals = want;
    attempted = objects;
    failed = m.aborted_agents + m.deadlocked_agents;
  }
