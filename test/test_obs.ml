(* The observability spine: trace determinism, JSONL round-tripping,
   and — the refactor's safety net — sink equivalence: the audit log,
   the event log and the metrics accumulator, now fed exclusively by
   the trace bus, must report entry-for-entry what the seed's hand-wired
   recording reported.  The reference here is a plain fold over the
   captured trace implementing the seed semantics directly. *)

module Q = Temporal.Q

(* ------------------------------------------------------------------ *)
(* Randomized coalition builder (the fuzz suite's generators, with a
   memory capture subscribed before any event can fire)                *)

let resources = [ "r1"; "r2"; "r3" ]

let random_policy rng =
  let policy = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user policy) [ "u1"; "u2" ];
  List.iter (Rbac.Policy.add_role policy) [ "ra"; "rb"; "rc" ];
  let ops = [ "read"; "write"; "execute" ] in
  List.iter
    (fun role ->
      List.iter
        (fun op ->
          if Random.State.bool rng then
            let target =
              match Random.State.int rng 3 with
              | 0 -> "*@*"
              | 1 -> List.nth resources (Random.State.int rng 3) ^ "@*"
              | _ ->
                  List.nth resources (Random.State.int rng 3)
                  ^ "@s"
                  ^ string_of_int (1 + Random.State.int rng 2)
            in
            Rbac.Policy.grant policy role (Rbac.Perm.make ~operation:op ~target))
        ops)
    [ "ra"; "rb"; "rc" ];
  List.iter
    (fun u ->
      List.iter
        (fun r ->
          if Random.State.bool rng then Rbac.Policy.assign_user policy u r)
        [ "ra"; "rb"; "rc" ])
    [ "u1"; "u2" ];
  policy

let random_bindings rng =
  let sel =
    Srac.Selector.Resource (List.nth resources (Random.State.int rng 3))
  in
  List.filteri
    (fun _ _ -> Random.State.bool rng)
    [
      Coordinated.Perm_binding.make
        ~spatial:(Srac.Formula.at_most (1 + Random.State.int rng 4) sel)
        ~spatial_scope:Coordinated.Perm_binding.Performed
        (Rbac.Perm.make ~operation:"*" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~dur:(Q.of_int (2 + Random.State.int rng 10))
        (Rbac.Perm.make ~operation:"read" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~dur:(Q.of_int (1 + Random.State.int rng 5))
        ~scheme:Temporal.Validity.Per_server
        (Rbac.Perm.make ~operation:"write" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~spatial:
          (Srac.Formula.at_most
             (2 + Random.State.int rng 4)
             (Srac.Selector.Op Sral.Access.Execute))
        ~spatial_scope:Coordinated.Perm_binding.Performed
        ~proof_scope:Coordinated.Perm_binding.Team
        (Rbac.Perm.make ~operation:"execute" ~target:"*@*");
    ]

(* Returns the control, the world and the trace capture; the capture
   sink subscribes right after [System.create] so it observes the whole
   run, spawn-time authentication included. *)
let build_world ?(mode = Coordinated.System.Lazy) rng =
  let policy = random_policy rng in
  let bindings = random_bindings rng in
  let control = Coordinated.System.create ~mode ~bindings policy in
  let capture, trace = Obs.Sink.memory () in
  Obs.Bus.subscribe (Coordinated.System.bus control) capture;
  let world = Naplet.World.create control in
  let servers = [ "s1"; "s2" ] in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    servers;
  let agents = 1 + Random.State.int rng 4 in
  for i = 1 to agents do
    let owner = if Random.State.bool rng then "u1" else "u2" in
    let program =
      Sral.Generate.program ~allow_io:false ~resources ~servers
        ~size:(4 + Random.State.int rng 8)
        rng
    in
    let team =
      if Random.State.bool rng then Some "crew"
      else if Random.State.bool rng then Some "other"
      else None
    in
    Naplet.World.spawn ?team world
      ~id:(Printf.sprintf "agent%d" i)
      ~owner
      ~roles:[ "ra"; "rb"; "rc" ]
      ~home:"s1" program
  done;
  (control, world, trace)

let each_seed f =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| 7777; seed |] in
      f seed rng)
    (List.init 40 Fun.id)

(* ------------------------------------------------------------------ *)
(* Trace determinism                                                   *)

let test_trace_deterministic () =
  each_seed (fun seed _ ->
      let export () =
        let rng = Random.State.make [| 7777; seed |] in
        let _, world, trace = build_world rng in
        ignore (Naplet.World.run world);
        Obs.Export.to_string (trace ())
      in
      let x1 = export () and x2 = export () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: byte-identical export" seed)
        x1 x2)

let test_figure1_trace_deterministic () =
  let export () =
    Obs.Export.to_string
      (Scenarios.Integrity_audit.run ()).Scenarios.Integrity_audit.trace
  in
  Alcotest.(check string) "figure-1 export identical" (export ()) (export ())

(* The Figure-1 trace must contain the per-stage decision spans the
   refactor is for — every stage, bracketed, for the same subject. *)
let test_figure1_trace_has_stage_spans () =
  let trace =
    (Scenarios.Integrity_audit.run ()).Scenarios.Integrity_audit.trace
  in
  List.iter
    (fun stage ->
      let starts =
        List.length
          (List.filter
             (function
               | Obs.Trace.Stage_start { stage = s; _ } -> s = stage
               | _ -> false)
             trace)
      and ends =
        List.length
          (List.filter
             (function
               | Obs.Trace.Stage_end { stage = s; _ } -> s = stage
               | _ -> false)
             trace)
      in
      Alcotest.(check bool)
        (Obs.Trace.stage_name stage ^ " spans present")
        true (starts > 0 && starts = ends))
    [ Obs.Trace.Rbac; Obs.Trace.Spatial; Obs.Trace.Temporal ];
  let decisions =
    List.filter
      (function Obs.Trace.Decision _ -> true | _ -> false)
      trace
  in
  Alcotest.(check int) "one decision per module" 11 (List.length decisions)

(* ------------------------------------------------------------------ *)
(* Export round-trip                                                   *)

let test_roundtrip_identity () =
  each_seed (fun seed _ ->
      let rng = Random.State.make [| 7777; seed |] in
      let _, world, trace = build_world rng in
      ignore (Naplet.World.run world);
      let events = trace () in
      let text = Obs.Export.to_string events in
      match Obs.Export.of_string text with
      | Error msg -> Alcotest.failf "seed %d: re-import failed: %s" seed msg
      | Ok events' ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: of_string inverts to_string" seed)
            true
            (List.length events = List.length events'
            && List.for_all2 Obs.Trace.equal events events');
          Alcotest.(check string)
            (Printf.sprintf "seed %d: re-export is a fixed point" seed)
            text
            (Obs.Export.to_string events'))

let test_roundtrip_all_variants () =
  let t = Q.make 3 2 in
  let access = Sral.Access.read "db" ~at:"s1" in
  let events =
    [
      Obs.Trace.Stage_start { time = t; object_id = "o1"; stage = Obs.Trace.Rbac };
      Obs.Trace.Stage_end
        {
          time = t;
          object_id = "o1";
          stage = Obs.Trace.Spatial;
          ok = false;
          elapsed_ns = 123456789L;
        };
      Obs.Trace.Cache_probe { time = t; object_id = "o1"; hit = true };
      Obs.Trace.Decision
        { time = t; object_id = "o1"; access; verdict = Obs.Verdict.Granted };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o\"quoted\\";
          access = Sral.Access.custom "hash" "m" ~at:"s2";
          verdict = Obs.Verdict.Denied (Obs.Verdict.Rbac_denied "no role\nat all");
        };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o1";
          access;
          verdict =
            Obs.Verdict.Denied
              (Obs.Verdict.Temporal_expired { binding = "b1"; spent = Q.make 7 3 });
        };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o1";
          access;
          verdict =
            Obs.Verdict.Denied
              (Obs.Verdict.Spatial_violation { binding = "b2"; detail = "tab\there" });
        };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o1";
          access;
          verdict = Obs.Verdict.Denied (Obs.Verdict.Not_active "b3");
        };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o1";
          access;
          verdict = Obs.Verdict.Denied Obs.Verdict.Not_arrived;
        };
      Obs.Trace.Arrival { time = t; object_id = "o1"; server = "s1" };
      Obs.Trace.Role_rejected
        { time = t; object_id = "o1"; role = "r"; reason = "unicode: é λ" };
      Obs.Trace.Spawned { time = t; agent = "a1"; home = "s1" };
      Obs.Trace.Migrated { time = t; agent = "a1"; from_ = "s1"; to_ = "s2" };
      Obs.Trace.Message_sent { time = t; agent = "a1"; channel = "c" };
      Obs.Trace.Message_received { time = t; agent = "a2"; channel = "c" };
      Obs.Trace.Signal_raised { time = t; agent = "a1"; signal = "x" };
      Obs.Trace.Completed { time = t; agent = "a1" };
      Obs.Trace.Aborted { time = t; agent = "a2"; reason = "why" };
      Obs.Trace.Deadlocked { time = t; agent = "a3" };
      Obs.Trace.Decision
        {
          time = t;
          object_id = "o1";
          access;
          verdict = Obs.Verdict.Denied (Obs.Verdict.Server_unavailable "s1");
        };
      Obs.Trace.Fault_injected
        {
          time = t;
          agent = "a1";
          fault = Obs.Trace.Migration_failure;
          target = "s2";
        };
      Obs.Trace.Fault_injected
        {
          time = t;
          agent = "a2";
          fault = Obs.Trace.Channel_drop;
          target = "c";
        };
      Obs.Trace.Server_down { time = t; server = "s1" };
      Obs.Trace.Server_up { time = t; server = "s1" };
      Obs.Trace.Retry_scheduled
        { time = t; agent = "a1"; attempt = 2; at = Q.make 11 2 };
      Obs.Trace.Gave_up { time = t; agent = "a1"; attempts = 4 };
      Obs.Trace.Policy_changed
        { time = t; op = "assign u1 clerk"; version = 7 };
      Obs.Trace.Run_finished { time = Q.of_int 9 };
    ]
  in
  match Obs.Export.of_string (Obs.Export.to_string events) with
  | Error msg -> Alcotest.failf "re-import failed: %s" msg
  | Ok events' ->
      Alcotest.(check bool)
        "every variant round-trips" true
        (List.length events = List.length events'
        && List.for_all2 Obs.Trace.equal events events')

let test_export_errors () =
  let expect_error what text =
    match Obs.Export.of_string text with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error msg ->
        Alcotest.(check bool)
          (what ^ ": error mentions a line") true
          (String.length msg > 0)
  in
  expect_error "not json" "nonsense\n";
  expect_error "unknown tag" "{\"ev\":\"warp\",\"t\":\"0\"}\n";
  expect_error "missing field" "{\"ev\":\"spawned\",\"t\":\"0\"}\n";
  expect_error "bad rational" "{\"ev\":\"run_finished\",\"t\":\"x\"}\n";
  (* blank lines are fine *)
  match Obs.Export.of_string "\n\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "blank input should parse to no events"
  | Error msg -> Alcotest.failf "blank input rejected: %s" msg

(* [Export.read]: a malformed (here: truncated) line is rejected with
   its line number, not a bare exception. *)
let test_read_truncated_line () =
  let good = Obs.Export.to_line (Obs.Trace.Run_finished { time = Q.of_int 3 }) in
  let truncated = String.sub good 0 (String.length good - 5) in
  let path = Filename.temp_file "stacc_read" ".jsonl" in
  let oc = open_out path in
  output_string oc (good ^ "\n" ^ good ^ "\n" ^ truncated ^ "\n");
  close_out oc;
  let ic = open_in path in
  let result = Obs.Export.read ic in
  close_in ic;
  Sys.remove path;
  (match result with
  | Ok _ -> Alcotest.fail "truncated line should be rejected"
  | Error msg ->
      Alcotest.(check bool)
        "error names the offending line" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 3:"));
  let path = Filename.temp_file "stacc_read" ".jsonl" in
  let oc = open_out path in
  output_string oc (good ^ "\n\n" ^ good ^ "\n");
  close_out oc;
  let ic = open_in path in
  let result = Obs.Export.read ic in
  close_in ic;
  Sys.remove path;
  match result with
  | Ok [ Obs.Trace.Run_finished _; Obs.Trace.Run_finished _ ] -> ()
  | Ok evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)
  | Error msg -> Alcotest.failf "well-formed file rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Sink equivalence: bus-fed stores = reference fold over the trace    *)

let reason_bucket = function
  | Obs.Verdict.Rbac_denied _ -> `Rbac
  | Obs.Verdict.Spatial_violation _ -> `Spatial
  | Obs.Verdict.Temporal_expired _ | Obs.Verdict.Not_active _
  | Obs.Verdict.Not_arrived ->
      `Temporal
  | Obs.Verdict.Server_unavailable _ -> `Unavailable

let test_sink_equivalence () =
  each_seed (fun seed rng ->
      let control, world, trace = build_world rng in
      let metrics = Naplet.World.run world in
      let events = trace () in
      (* audit log = the Decision events, entry for entry *)
      let decisions =
        List.filter_map
          (function
            | Obs.Trace.Decision { time; object_id; access; verdict } ->
                Some { Coordinated.Audit_log.time; object_id; access; verdict }
            | _ -> None)
          events
      in
      let entries = Coordinated.Audit_log.entries (Coordinated.System.log control) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: audit log = trace decisions" seed)
        true
        (List.length decisions = List.length entries
        && List.for_all2 ( = ) decisions entries);
      (* metrics = a counting fold over the trace *)
      let count p = List.length (List.filter p events) in
      let granted =
        count (function
          | Obs.Trace.Decision { verdict = Obs.Verdict.Granted; _ } -> true
          | _ -> false)
      and denied_with bucket =
        count (function
          | Obs.Trace.Decision { verdict = Obs.Verdict.Denied r; _ } ->
              reason_bucket r = bucket
          | _ -> false)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: granted" seed)
        granted metrics.Naplet.Metrics.granted;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: denied rbac" seed)
        (denied_with `Rbac) metrics.Naplet.Metrics.denied_rbac;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: denied spatial" seed)
        (denied_with `Spatial) metrics.Naplet.Metrics.denied_spatial;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: denied temporal" seed)
        (denied_with `Temporal) metrics.Naplet.Metrics.denied_temporal;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: migrations" seed)
        (count (function Obs.Trace.Migrated _ -> true | _ -> false))
        metrics.Naplet.Metrics.migrations;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: messages" seed)
        (count (function Obs.Trace.Message_sent _ -> true | _ -> false))
        metrics.Naplet.Metrics.messages;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: signals" seed)
        (count (function Obs.Trace.Signal_raised _ -> true | _ -> false))
        metrics.Naplet.Metrics.signals;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: completed" seed)
        (count (function Obs.Trace.Completed _ -> true | _ -> false))
        metrics.Naplet.Metrics.completed_agents;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: aborted" seed)
        (count (function Obs.Trace.Aborted _ -> true | _ -> false))
        metrics.Naplet.Metrics.aborted_agents;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: deadlocked" seed)
        (count (function Obs.Trace.Deadlocked _ -> true | _ -> false))
        metrics.Naplet.Metrics.deadlocked_agents;
      (* event log = the agent-lifecycle projection of the trace *)
      let projected =
        List.filter_map
          (function
            | Obs.Trace.Spawned { time; agent; home } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Spawned { home } }
            | Obs.Trace.Migrated { time; agent; from_; to_ } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Migrated { from_; to_ } }
            | Obs.Trace.Decision { time; object_id; access; verdict } ->
                let kind =
                  match verdict with
                  | Obs.Verdict.Granted -> Naplet.Event_log.Access_granted access
                  | Obs.Verdict.Denied reason ->
                      Naplet.Event_log.Access_denied
                        ( access,
                          Format.asprintf "%a" Obs.Verdict.pp_reason reason )
                in
                Some { Naplet.Event_log.time; agent = object_id; kind }
            | Obs.Trace.Message_sent { time; agent; channel } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Message_sent channel }
            | Obs.Trace.Message_received { time; agent; channel } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Message_received channel }
            | Obs.Trace.Signal_raised { time; agent; signal } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Signal_raised signal }
            | Obs.Trace.Completed { time; agent } ->
                Some
                  { Naplet.Event_log.time; agent; kind = Naplet.Event_log.Completed }
            | Obs.Trace.Aborted { time; agent; reason } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Aborted reason }
            | Obs.Trace.Deadlocked { time; agent } ->
                Some
                  { Naplet.Event_log.time; agent;
                    kind = Naplet.Event_log.Deadlocked }
            | _ -> None)
          events
      in
      let logged = Naplet.Event_log.events (Naplet.World.events world) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: event log = trace projection" seed)
        true
        (List.length projected = List.length logged
        && List.for_all2 ( = ) projected logged))

(* Decisions must not depend on the decision mode: the naive and the
   lazy runs of the same coalition publish the same Decision events. *)
let test_decisions_mode_independent () =
  each_seed (fun seed _ ->
      let decisions mode =
        let rng = Random.State.make [| 7777; seed |] in
        let _, world, trace = build_world ~mode rng in
        ignore (Naplet.World.run world);
        List.filter
          (function Obs.Trace.Decision _ -> true | _ -> false)
          (trace ())
      in
      let fast = decisions Coordinated.System.Lazy
      and naive = decisions Coordinated.System.Naive in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: decision events mode-independent" seed)
        true
        (List.length fast = List.length naive
        && List.for_all2 Obs.Trace.equal fast naive))

(* ------------------------------------------------------------------ *)
(* Satellites: event-log accessors, metrics grant rate, stats          *)

let test_event_log_accessors () =
  each_seed (fun seed rng ->
      let _, world, _ = build_world rng in
      ignore (Naplet.World.run world);
      let log = Naplet.World.events world in
      let events = Naplet.Event_log.events log in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: size = length" seed)
        (List.length events)
        (Naplet.Event_log.size log);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: count true = size" seed)
        (Naplet.Event_log.size log)
        (Naplet.Event_log.count log (fun _ -> true));
      List.iter
        (fun (agent : Naplet.Agent.t) ->
          let id = agent.Naplet.Agent.id in
          let expected =
            List.filter
              (fun (e : Naplet.Event_log.event) ->
                String.equal e.Naplet.Event_log.agent id)
              events
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: for_agent %s chronological" seed id)
            true
            (expected = Naplet.Event_log.for_agent log id))
        (Naplet.World.agents world))

let test_grant_rate_option () =
  let m = Naplet.Metrics.create () in
  Alcotest.(check bool)
    "no accesses -> no rate" true
    (Naplet.Metrics.grant_rate m = None);
  let rendered = Format.asprintf "%a" Naplet.Metrics.pp m in
  Alcotest.(check bool)
    "pp prints n/a" true
    (let re = "n/a" in
     let rec contains i =
       i + String.length re <= String.length rendered
       && (String.equal (String.sub rendered i (String.length re)) re
          || contains (i + 1))
     in
     contains 0);
  m.Naplet.Metrics.granted <- 3;
  m.Naplet.Metrics.denied <- 1;
  Alcotest.(check bool)
    "3/4 granted" true
    (Naplet.Metrics.grant_rate m = Some 0.75)

let test_stats_counters () =
  let t = Q.zero in
  let stats = Obs.Stats.create () in
  let feed = Obs.Sink.handle (Obs.Stats.sink stats) in
  let span stage ns ok =
    feed (Obs.Trace.Stage_start { time = t; object_id = "o"; stage });
    feed
      (Obs.Trace.Stage_end
         { time = t; object_id = "o"; stage; ok; elapsed_ns = ns })
  in
  span Obs.Trace.Rbac 100L true;
  span Obs.Trace.Rbac 300L true;
  span Obs.Trace.Spatial 1000L false;
  span Obs.Trace.Temporal 10L true;
  feed (Obs.Trace.Cache_probe { time = t; object_id = "o"; hit = true });
  feed (Obs.Trace.Cache_probe { time = t; object_id = "o"; hit = false });
  feed
    (Obs.Trace.Decision
       {
         time = t;
         object_id = "o";
         access = Sral.Access.read "r" ~at:"s";
         verdict = Obs.Verdict.Granted;
       });
  feed
    (Obs.Trace.Decision
       {
         time = t;
         object_id = "o";
         access = Sral.Access.read "r" ~at:"s";
         verdict = Obs.Verdict.Denied Obs.Verdict.Not_arrived;
       });
  Alcotest.(check int) "decisions" 2 (Obs.Stats.decisions stats);
  Alcotest.(check int) "granted" 1 (Obs.Stats.granted stats);
  Alcotest.(check int) "denied" 1 (Obs.Stats.denied stats);
  Alcotest.(check int) "cache hits" 1 (Obs.Stats.cache_hits stats);
  Alcotest.(check int) "cache misses" 1 (Obs.Stats.cache_misses stats);
  Alcotest.(check int) "stage failures" 1 (Obs.Stats.stage_failures stats);
  Alcotest.(check int) "rbac spans" 2 (Obs.Stats.stage_count stats Obs.Trace.Rbac);
  let h = Obs.Stats.stage_histogram stats Obs.Trace.Rbac in
  Alcotest.(check int) "hist count" 2 (Obs.Stats.hist_count h);
  Alcotest.(check (float 0.001)) "hist mean" 200.0 (Obs.Stats.hist_mean_ns h);
  Alcotest.(check bool) "hist max" true (Obs.Stats.hist_max_ns h = 300L);
  Alcotest.(check bool)
    "p100 upper bound covers max" true
    (Obs.Stats.hist_percentile_ns h 1.0 >= 300.0)

(* --- byte offsets on malformed input (PR 8 satellite) --- *)

(* The error pinpoints the absolute byte offset of the offending input,
   not just its line. *)
let test_read_byte_offset () =
  let good = Obs.Export.to_line (Obs.Trace.Run_finished { time = Q.of_int 3 }) in
  let bad = "{\"a\":}" in
  (* the parse fails on the '}' where a value was expected: offset 5
     within the line, rebased past [good] and its newline *)
  let expected = Printf.sprintf "line 2: byte %d:" (String.length good + 1 + 5) in
  let check_result what = function
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" what
    | Error msg ->
        if
          String.length msg < String.length expected
          || String.sub msg 0 (String.length expected) <> expected
        then
          Alcotest.failf "%s: expected error starting %S, got %S" what expected
            msg
  in
  let doc = good ^ "\n" ^ bad ^ "\n" in
  check_result "of_string" (Obs.Export.of_string doc);
  let path = Filename.temp_file "stacc_offset" ".jsonl" in
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  let ic = open_in path in
  let result = Obs.Export.read ic in
  close_in ic;
  Sys.remove path;
  check_result "read" result

(* A structurally valid JSON value followed by a garbage tail is
   rejected at the tail's offset. *)
let test_garbage_tail_offset () =
  match Obs.Export.of_line "{}xyz" with
  | Ok _ -> Alcotest.fail "garbage tail accepted"
  | Error msg ->
      Alcotest.(check string) "tail offset" "byte 2: trailing input" msg

let test_truncated_frame_offset () =
  let good = Obs.Export.to_line (Obs.Trace.Run_finished { time = Q.of_int 3 }) in
  (* cut inside the line: the unterminated string/object is reported at
     the byte where the parser ran out *)
  let truncated = String.sub good 0 (String.length good - 3) in
  match Obs.Export.of_line truncated with
  | Ok _ -> Alcotest.fail "truncated line accepted"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error carries a byte offset: %S" msg)
        true
        (String.length msg > 5 && String.sub msg 0 5 = "byte ")

(* --- Stats.percentile: exact small-sample fallback (PR 8 satellite) --- *)

let test_percentile_exact_small () =
  let h = Obs.Stats.histogram () in
  List.iter
    (fun v -> Obs.Stats.observe h (Int64.of_int v))
    [ 700; 100; 1000; 300; 500; 900; 200; 800; 400; 600 ];
  Alcotest.(check (float 0.)) "p50 exact" 500.0 (Obs.Stats.percentile h 0.50);
  Alcotest.(check (float 0.)) "p95 exact" 1000.0 (Obs.Stats.percentile h 0.95);
  Alcotest.(check (float 0.)) "p99 exact" 1000.0 (Obs.Stats.percentile h 0.99);
  Alcotest.(check (float 0.)) "p10 exact" 100.0 (Obs.Stats.percentile h 0.10);
  Alcotest.(check (float 0.)) "empty" 0.0
    (Obs.Stats.percentile (Obs.Stats.histogram ()) 0.5)

let test_percentile_bucket_fallback () =
  let h = Obs.Stats.histogram () in
  for _ = 1 to 600 do
    Obs.Stats.observe h 100L
  done;
  (* beyond the raw-sample buffer only the log2 bucket bound remains:
     100 lands in bucket 6, whose upper bound is 2^7 - 1 *)
  Alcotest.(check (float 0.)) "falls back to bucket bound" 127.0
    (Obs.Stats.percentile h 0.50);
  Alcotest.(check (float 0.))
    "matches hist_percentile_ns"
    (Obs.Stats.hist_percentile_ns h 0.50)
    (Obs.Stats.percentile h 0.50)

let test_percentile_merge () =
  (* merge through the public path: two accumulators built from
     Stage_end spans, folded with [Stats.add] *)
  let mk_stats n base =
    Obs.Stats.of_trace
      (List.init n (fun i ->
           Obs.Trace.Stage_end
             {
               time = Q.zero;
               object_id = "o";
               stage = Obs.Trace.Rbac;
               ok = true;
               elapsed_ns = Int64.of_int ((base + i) * 10);
             }))
  in
  let a = mk_stats 200 1 (* 10..2000 *) and b = mk_stats 200 201 (* 2010..4000 *) in
  Obs.Stats.add a b;
  let h = Obs.Stats.stage_histogram a Obs.Trace.Rbac in
  Alcotest.(check (float 0.)) "400 merged samples stay exact" 2000.0
    (Obs.Stats.percentile h 0.50);
  (* merging past the 512-sample buffer degrades to bucket bounds *)
  let c = mk_stats 400 1 and d = mk_stats 400 1 in
  Obs.Stats.add c d;
  let h = Obs.Stats.stage_histogram c Obs.Trace.Rbac in
  Alcotest.(check (float 0.))
    "800 merged samples fall back to the bucket bound"
    (Obs.Stats.hist_percentile_ns h 0.50)
    (Obs.Stats.percentile h 0.50)

let () =
  Alcotest.run "obs"
    [
      ( "determinism",
        [
          Alcotest.test_case "identical runs, identical JSONL" `Quick
            test_trace_deterministic;
          Alcotest.test_case "figure-1 trace deterministic" `Quick
            test_figure1_trace_deterministic;
          Alcotest.test_case "figure-1 trace has stage spans" `Quick
            test_figure1_trace_has_stage_spans;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "export/import fixed point" `Quick
            test_roundtrip_identity;
          Alcotest.test_case "all event variants" `Quick
            test_roundtrip_all_variants;
          Alcotest.test_case "malformed input rejected" `Quick
            test_export_errors;
          Alcotest.test_case "read reports the offending line" `Quick
            test_read_truncated_line;
          Alcotest.test_case "errors carry absolute byte offsets" `Quick
            test_read_byte_offset;
          Alcotest.test_case "garbage tail offset" `Quick
            test_garbage_tail_offset;
          Alcotest.test_case "truncated frame offset" `Quick
            test_truncated_frame_offset;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "exact below the sample cap" `Quick
            test_percentile_exact_small;
          Alcotest.test_case "bucket fallback beyond the cap" `Quick
            test_percentile_bucket_fallback;
          Alcotest.test_case "merged histograms stay exact" `Quick
            test_percentile_merge;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "stores = reference fold over trace" `Quick
            test_sink_equivalence;
          Alcotest.test_case "decisions mode-independent" `Quick
            test_decisions_mode_independent;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "event-log accessors" `Quick
            test_event_log_accessors;
          Alcotest.test_case "grant rate is optional" `Quick
            test_grant_rate_option;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
    ]
