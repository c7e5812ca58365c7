(* Randomized whole-system invariant tests ("failure injection"):
   random policies, random programs, random binding mixes — after every
   run the audit log, the proof stores and the RBAC policy must agree
   with each other.  These are the safety properties of the model
   itself, checked on inputs nobody wrote by hand. *)

module Q = Temporal.Q

let resources = [ "r1"; "r2"; "r3" ]

(* Policies and bindings come from the shared seeded generator
   ([test/gen.ml], backed by [Parallel.Workload]) — one definition of
   "a random coalition" across every randomized suite. *)
let build_world rng =
  let policy = Gen.policy rng in
  let bindings = Gen.bindings rng in
  let control = Coordinated.System.create ~bindings policy in
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
  (control, world)

let each_seed f = Gen.each_seed ~salt:7777 ~count:40 (fun ~seed rng -> f seed rng)

(* 1. Soundness of grants: every granted access was allowed by some
   role the owner is actually authorized for. *)
let test_grants_are_rbac_sound () =
  each_seed (fun seed rng ->
      let control, world = build_world rng in
      ignore (Naplet.World.run world);
      let policy = Coordinated.System.policy control in
      List.iter
        (fun (e : Coordinated.Audit_log.entry) ->
          if Coordinated.Decision.is_granted e.Coordinated.Audit_log.verdict
          then begin
            let owner =
              match
                Naplet.World.agent world e.Coordinated.Audit_log.object_id
              with
              | Some a -> a.Naplet.Agent.owner
              | None -> Alcotest.fail "granted access by unknown agent"
            in
            let a = e.Coordinated.Audit_log.access in
            let allowed =
              List.exists
                (fun perm ->
                  Rbac.Perm.matches perm
                    ~operation:(Sral.Access.operation_name a.Sral.Access.op)
                    ~target:
                      (a.Sral.Access.resource ^ "@" ^ a.Sral.Access.server))
                (Rbac.Policy.user_permissions policy owner)
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: grant is authorized" seed)
              true allowed
          end)
        (Coordinated.Audit_log.entries (Coordinated.System.log control)))

(* 2. Proofs = grants: each object's performed trace is exactly its
   granted audit entries, in order. *)
let test_proofs_match_audit_log () =
  each_seed (fun seed rng ->
      let control, world = build_world rng in
      ignore (Naplet.World.run world);
      let log = Coordinated.System.log control in
      List.iter
        (fun (agent : Naplet.Agent.t) ->
          let id = agent.Naplet.Agent.id in
          let monitor = Coordinated.System.monitor control ~object_id:id in
          let performed = Coordinated.Monitor.performed monitor in
          let granted =
            List.filter_map
              (fun (e : Coordinated.Audit_log.entry) ->
                if
                  String.equal e.Coordinated.Audit_log.object_id id
                  && Coordinated.Decision.is_granted
                       e.Coordinated.Audit_log.verdict
                then Some e.Coordinated.Audit_log.access
                else None)
              (Coordinated.Audit_log.entries log)
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s proofs = grants" seed id)
            true
            (Sral.Trace.equal performed granted))
        (Naplet.World.agents world))

(* 3. Determinism: the same seed yields bit-identical metrics and audit
   logs. *)
let test_deterministic_replay () =
  each_seed (fun seed _ ->
      let run () =
        let rng = Random.State.make [| 7777; seed |] in
        let control, world = build_world rng in
        let metrics = Naplet.World.run world in
        let log_render =
          Format.asprintf "%a" Coordinated.Audit_log.pp
            (Coordinated.System.log control)
        in
        ( metrics.Naplet.Metrics.granted,
          metrics.Naplet.Metrics.denied,
          Q.to_string metrics.Naplet.Metrics.end_time,
          log_render )
      in
      let r1 = run () and r2 = run () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: replay identical" seed)
        true (r1 = r2))

(* 4. Metric consistency: granted + denied = audit entries; agent
   status counts partition the population. *)
let test_metric_consistency () =
  each_seed (fun seed rng ->
      let control, world = build_world rng in
      let metrics = Naplet.World.run world in
      let log = Coordinated.System.log control in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: log size" seed)
        (Coordinated.Audit_log.size log)
        (metrics.Naplet.Metrics.granted + metrics.Naplet.Metrics.denied);
      let agents = Naplet.World.agents world in
      let finished =
        metrics.Naplet.Metrics.completed_agents
        + metrics.Naplet.Metrics.aborted_agents
        + metrics.Naplet.Metrics.deadlocked_agents
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: statuses partition agents" seed)
        (List.length agents) finished)

(* 5. Budget safety: with a per-read duration binding, no object's read
   grants exceed what the budget could possibly allow. *)
let test_duration_budget_never_negative () =
  each_seed (fun seed rng ->
      let control, world = build_world rng in
      ignore (Naplet.World.run world);
      List.iter
        (fun (agent : Naplet.Agent.t) ->
          let monitor =
            Coordinated.System.monitor control
              ~object_id:agent.Naplet.Agent.id
          in
          List.iter
            (fun (binding : Coordinated.Perm_binding.t) ->
              match binding.Coordinated.Perm_binding.dur with
              | None -> ()
              | Some dur -> (
                  match Coordinated.Monitor.arrivals monitor with
                  | [] -> ()
                  | arrivals ->
                      let active =
                        Coordinated.Monitor.activation_fn monitor
                          ~key:(Coordinated.Perm_binding.key binding)
                      in
                      let spent =
                        Temporal.Validity.spent
                          ~scheme:binding.Coordinated.Perm_binding.scheme
                          ~arrivals ~dur:(Some dur) active
                          ~at:(Coordinated.Monitor.now monitor)
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "seed %d: spent <= dur" seed)
                        true (Q.le spent dur)))
            (Coordinated.System.bindings control))
        (Naplet.World.agents world))

(* ------------------------------------------------------------------ *)
(* Differential testing: the production (lazy-derivative) decision
   path vs the seed's linear path.  A coalition is generated once as
   pure data ([Gen.coalition], the shared [Parallel.Workload]
   generator) and interpreted twice by [Parallel.Scenario.run] — once
   in [Lazy] mode, once in [Naive] mode.  Every check's verdict
   (rendered, so denial *reasons* are compared too) and the final audit
   logs must agree entry-for-entry.  This gate and the span gate below
   draw disjoint seed sets. *)

let run_scenario mode sc =
  let o = Parallel.Scenario.run ~mode sc in
  (o.Parallel.Scenario.verdicts, o.Parallel.Scenario.log)

let diff_runs = 500

(* The gate must reach the lazy temporal stage's every outcome, so it
   counts the rendered temporal denials over its seeds. *)
let is_expired v = String.starts_with ~prefix:"denied: validity of " v

let is_not_active v =
  String.starts_with ~prefix:"denied: permission " v
  && String.ends_with ~suffix:" is not active" v

let test_differential_verdicts_and_logs () =
  let expired = ref 0 and not_active = ref 0 in
  Gen.each_seed ~salt:4242 ~count:diff_runs (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let v_lazy, log_lazy = run_scenario Coordinated.System.Lazy sc in
      let v_naive, log_naive = run_scenario Coordinated.System.Naive sc in
      List.iter
        (fun v ->
          if is_expired v then incr expired
          else if is_not_active v then incr not_active)
        v_lazy;
      if v_lazy <> v_naive then begin
        let rec first_diff i = function
          | f :: fs, n :: ns ->
              if String.equal f n then first_diff (i + 1) (fs, ns) else (i, f, n)
          | f :: _, [] -> (i, f, "<missing>")
          | [], n :: _ -> (i, "<missing>", n)
          | [], [] -> (i, "<equal>", "<equal>")
        in
        let i, f, n = first_diff 0 (v_lazy, v_naive) in
        Alcotest.failf
          "seed %d: verdict %d diverges@.  lazy:  %s@.  naive: %s" seed i f
          n
      end;
      if not (String.equal log_lazy log_naive) then
        Alcotest.failf "seed %d: audit logs diverge@.lazy:@.%s@.naive:@.%s"
          seed log_lazy log_naive);
  if !expired = 0 || !not_active = 0 then
    Alcotest.failf
      "temporal stage not exercised: %d Temporal_expired, %d Not_active \
       verdicts over %d coalitions"
      !expired !not_active diff_runs

(* Repeating the identical check must hit the lazy path's caches (RBAC
   verdicts, applicable bindings, residual states) and still agree with
   the naive path — no cache may leak a stale verdict into the
   comparison. *)
let test_differential_repeated_checks () =
  Gen.each_seed ~salt:31337 ~count:100 (fun ~seed rng ->
      let sc = Gen.coalition rng in
      (* duplicate every check event so roughly half the lazy
         decisions run on warm caches *)
      let sc =
        {
          sc with
          Parallel.Scenario.events =
            List.concat_map
              (function
                | Parallel.Scenario.Check _ as e -> [ e; e ] | e -> [ e ])
              sc.Parallel.Scenario.events;
        }
      in
      let v_lazy, log_lazy = run_scenario Coordinated.System.Lazy sc in
      let v_naive, log_naive = run_scenario Coordinated.System.Naive sc in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: repeated-check verdicts agree" seed)
        true
        (v_lazy = v_naive && String.equal log_lazy log_naive))

(* ------------------------------------------------------------------ *)
(* Differential testing: the lazy-derivative decision path vs the
   seed's linear path, on its own seeds.  Stronger than the gate above:
   besides verdicts (with denial reasons) and audit logs, the *entire
   bus trace* — every Stage_start/Stage_end span, every Decision and
   Arrival event — must render byte-identically, because decide_lazy
   promises the naive path's exact observable behavior.  Failing
   coalitions are shrunk to a local minimum before reporting. *)

let render_trace events =
  String.concat "\n" (List.map (Format.asprintf "%a" Obs.Trace.pp) events)

(* a readable rendering of a (shrunk) coalition for failure reports *)
let pp_coalition ppf (sc : Parallel.Scenario.t) =
  let module S = Parallel.Scenario in
  Format.fprintf ppf "@[<v>%d objects, %d bindings, %d grants@,"
    (List.length sc.S.objects)
    (List.length sc.S.bindings)
    (List.length sc.S.grants);
  List.iter
    (fun (o : S.obj) ->
      Format.fprintf ppf "object %s owner=%s roles=%s program=%a@," o.S.id
        o.S.owner
        (String.concat "," o.S.roles)
        Sral.Pretty.pp o.S.program)
    sc.S.objects;
  List.iteri
    (fun i ev ->
      match ev with
      | S.Arrive (o, s) -> Format.fprintf ppf "t%d: %s arrives %s@," (i + 1) o s
      | S.Check (o, a) ->
          Format.fprintf ppf "t%d: %s checks %a@," (i + 1) o Sral.Access.pp a
      | S.Activate (o, r) ->
          Format.fprintf ppf "t%d: %s activates %s@," (i + 1) o r
      | S.Deactivate (o, r) ->
          Format.fprintf ppf "t%d: %s deactivates %s@," (i + 1) o r
      | S.Join (o, team) ->
          Format.fprintf ppf "t%d: %s joins %s@," (i + 1) o team
      | S.Refresh o -> Format.fprintf ppf "t%d: refresh %s@," (i + 1) o
      | S.Add_binding b ->
          Format.fprintf ppf "t%d: add binding %s@," (i + 1)
            (Coordinated.Perm_binding.key b))
    sc.S.events;
  Format.fprintf ppf "@]"

let test_differential_lazy_vs_naive () =
  Gen.each_seed ~salt:4243 ~count:diff_runs (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let diverges sc =
        let o_lazy = Parallel.Scenario.run ~mode:Coordinated.System.Lazy sc in
        let o_naive = Parallel.Scenario.run ~mode:Coordinated.System.Naive sc in
        o_lazy.Parallel.Scenario.verdicts <> o_naive.Parallel.Scenario.verdicts
        || not (String.equal o_lazy.Parallel.Scenario.log o_naive.Parallel.Scenario.log)
        || not
             (String.equal
                (render_trace o_lazy.Parallel.Scenario.trace)
                (render_trace o_naive.Parallel.Scenario.trace))
      in
      if diverges sc then begin
        Gen.report_minimized ~seed ~what:"coalition" pp_coalition
          (Gen.shrink_coalition ~fails:diverges sc);
        Alcotest.failf "seed %d: lazy path diverges from the naive oracle" seed
      end)

(* Binding ids grow mid-run: half of each coalition's bindings arrive
   as [Add_binding] events halfway through its events, after decisions
   have filled the lazy path's id-keyed tables (applicable memos,
   residual slots, team subs).  Verdicts, denial strings, the log and
   the spans must still match the oracle's. *)
let test_differential_late_bindings () =
  let module S = Parallel.Scenario in
  let exercised = ref 0 in
  Gen.each_seed ~salt:4245 ~count:200 (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let rec split k = function
        | x :: rest when k > 0 ->
            let a, b = split (k - 1) rest in
            (x :: a, b)
        | rest -> ([], rest)
      in
      let early, late =
        split ((List.length sc.S.bindings + 1) / 2) sc.S.bindings
      in
      let before, after =
        split (List.length sc.S.events / 2) sc.S.events
      in
      let sc =
        {
          sc with
          S.bindings = early;
          events =
            before @ List.map (fun b -> S.Add_binding b) late @ after;
        }
      in
      if
        List.exists
          (function
            | S.Check (_, a) ->
                List.exists (fun b -> Coordinated.Perm_binding.applies_to b a) late
            | _ -> false)
          after
      then incr exercised;
      let o_lazy = S.run ~mode:Coordinated.System.Lazy sc in
      let o_naive = S.run ~mode:Coordinated.System.Naive sc in
      if
        o_lazy.S.verdicts <> o_naive.S.verdicts
        || (not (String.equal o_lazy.S.log o_naive.S.log))
        || not
             (String.equal (render_trace o_lazy.S.trace)
                (render_trace o_naive.S.trace))
      then
        Alcotest.failf "seed %d: late bindings: lazy diverges from naive@.%a"
          seed pp_coalition sc);
  Alcotest.(check bool) "late bindings decide later checks" true
    (!exercised > 100)

(* Duplicated checks make the second decision of each pair hit the
   warm, fully-memoized lazy path — residual states, RBAC stamps,
   cursors all populated — and it must still be span-identical. *)
let test_differential_lazy_repeated_checks () =
  Gen.each_seed ~salt:31338 ~count:100 (fun ~seed rng ->
      let sc = Gen.coalition rng in
      let sc =
        {
          sc with
          Parallel.Scenario.events =
            List.concat_map
              (function
                | Parallel.Scenario.Check _ as e -> [ e; e ] | e -> [ e ])
              sc.Parallel.Scenario.events;
        }
      in
      let o_lazy = Parallel.Scenario.run ~mode:Coordinated.System.Lazy sc in
      let o_naive = Parallel.Scenario.run ~mode:Coordinated.System.Naive sc in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: warm lazy path stays faithful" seed)
        true
        (o_lazy.Parallel.Scenario.verdicts = o_naive.Parallel.Scenario.verdicts
        && String.equal o_lazy.Parallel.Scenario.log
             o_naive.Parallel.Scenario.log
        && String.equal
             (render_trace o_lazy.Parallel.Scenario.trace)
             (render_trace o_naive.Parallel.Scenario.trace)))

(* The uninstrumented branch ([?obs:None], the zero-allocation one)
   has no bus to compare, so drive Decision.decide_lazy and
   Decision.decide_naive directly against side-by-side monitors fed
   identical histories: verdicts, clock movement, arrivals, proofs and
   every binding's activation function must stay in lockstep through
   arrivals, refreshes, role flips and grants. *)
let test_differential_lazy_direct () =
  let module D = Coordinated.Decision in
  let module M = Coordinated.Monitor in
  Gen.each_seed ~salt:4244 ~count:300 (fun ~seed rng ->
      let policy = Gen.policy rng in
      let bindings = Gen.bindings rng in
      let index = Coordinated.Binding_index.of_list bindings in
      let servers = [ "s1"; "s2" ] in
      let user = if Random.State.bool rng then "u1" else "u2" in
      let session = Rbac.Session.create policy ~user in
      let toggle_role () =
        let r = Gen.pick rng [ "ra"; "rb"; "rc" ] in
        if List.mem r (Rbac.Session.active_roles session) then
          Rbac.Session.deactivate session r
        else try Rbac.Session.activate session r with _ -> ()
      in
      toggle_role ();
      toggle_role ();
      let program =
        Sral.Generate.program ~allow_io:false ~resources ~servers
          ~size:(4 + Random.State.int rng 8)
          rng
      in
      let m_lazy = M.create ~object_id:"obj" () in
      let m_naive = M.create ~object_id:"obj" () in
      let random_access () =
        let r = Gen.pick rng resources and s = Gen.pick rng servers in
        if Random.State.bool rng then Sral.Access.read r ~at:s
        else Sral.Access.write r ~at:s
      in
      let time = ref Q.zero in
      for step = 1 to 25 do
        time := Q.add !time Q.one;
        match Random.State.int rng 6 with
        | 0 ->
            let server = Gen.pick rng servers in
            M.record_arrival m_lazy ~server ~time:!time;
            M.record_arrival m_naive ~server ~time:!time
        | 1 ->
            D.refresh_activation ~session ~monitor:m_naive ~bindings ~program
              ~time:!time ();
            D.refresh_activation_lazy ~session ~monitor:m_lazy ~bindings
              ~program ~time:!time ()
        | 2 -> toggle_role ()
        | _ -> (
            let access = random_access () in
            let v_naive =
              D.decide_naive ~session ~monitor:m_naive ~bindings ~program
                ~time:!time access
            in
            let v_lazy =
              let id = Sral.Access.Ids.intern (M.ids m_lazy) access in
              D.decide_lazy ~session ~monitor:m_lazy
                ~applicable:(Coordinated.Binding_index.applicable index ~id access)
                ~program ~time:!time ~access_id:id access
            in
            if v_naive <> v_lazy then
              Alcotest.failf
                "seed %d step %d: %a (lazy) vs %a (naive) on %a" seed step
                D.pp_verdict v_lazy D.pp_verdict v_naive Sral.Access.pp access;
            match v_naive with
            | D.Granted ->
                M.record_access m_lazy access ~time:!time;
                M.record_access m_naive access ~time:!time
            | D.Denied _ -> ())
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: monitors moved in lockstep" seed)
        true
        (Q.equal (M.now m_lazy) (M.now m_naive)
        && M.itinerary m_lazy = M.itinerary m_naive
        && M.history_epoch m_lazy = M.history_epoch m_naive
        && List.for_all
             (fun b ->
               let key = Coordinated.Perm_binding.key b in
               Temporal.Step_fn.equal
                 (M.activation_fn m_lazy ~key)
                 (M.activation_fn m_naive ~key))
             bindings))

(* 8. The temporal-workflow family as a fuzz workload: the model-level
   safety properties must hold on workflow-shaped runs too.  (a) The
   satisfiable family's planted witness really completes and the
   checker's own witness replays; (b) the unsatisfiable family never
   completes under *any* assignment the checker or brute force can
   find; (c) the checker's verdict is decision-mode independent —
   Lazy vs Naive is an evaluation strategy, not a semantics. *)
let test_workflow_family_invariants () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  Gen.each_seed ~salt:7778 ~count:30 (fun ~seed rng ->
      let wf, planted = W.satisfiable rng in
      let fail_shrunk fails msg =
        Gen.report_minimized ~seed ~what:"workflow" W.pp
          (Gen.shrink_workflow ~fails wf);
        Alcotest.failf "seed %d: %s" seed msg
      in
      if not (W.run wf planted).W.completed then
        fail_shrunk
          (fun wf' ->
            List.length wf'.W.tasks = List.length wf.W.tasks
            && not (W.run wf' planted).W.completed)
          "planted witness does not complete";
      (match Sat.check wf with
      | Sat.Complete w ->
          if not (W.run wf w).W.completed then
            fail_shrunk
              (fun wf' ->
                match Sat.check wf' with
                | Sat.Complete w' -> not (W.run wf' w').W.completed
                | Sat.Impossible _ -> false)
              "checker witness does not replay"
      | Sat.Impossible imp ->
          Alcotest.failf "seed %d: satisfiable family unsat: %s" seed
            (Sat.explain imp));
      let adv = W.generate W.Adversarial rng in
      let verdict mode = Format.asprintf "%a" Sat.pp_verdict (Sat.check ~mode adv) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: lazy = naive on workflows" seed)
        (verdict Coordinated.System.Lazy)
        (verdict Coordinated.System.Naive))

let test_workflow_unsat_never_completes () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  Gen.each_seed ~salt:7779 ~count:30 (fun ~seed rng ->
      let wf = W.unsatisfiable rng in
      (match Sat.check wf with
      | Sat.Impossible _ -> ()
      | Sat.Complete w ->
          Gen.report_minimized ~seed ~what:"workflow" W.pp
            (Gen.shrink_workflow
               ~fails:(fun wf' ->
                 match Sat.check wf' with
                 | Sat.Complete _ -> true
                 | Sat.Impossible _ -> false)
               wf);
          Alcotest.failf "seed %d: unsatisfiable family completed by %s" seed
            (String.concat "," (List.map (fun (t, p) -> t ^ "=" ^ p) w)));
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: brute force agrees" seed)
        true
        (Sat.brute_force wf = None))

(* 9. The admin-safety adversarial family as a fuzz workload: random
   instances over the full administrative op surface, decided twice —
   symbolically (with pruning) and by explicit sequence enumeration.
   Constructors must agree on every instance, determinism must hold
   (same instance, same outcome rendering), and every symbolic Leak
   must replay through the real system to a grant. *)
let test_admin_adversarial_differential () =
  let module Ad = Analysis.Admin in
  let module AF = Scenarios.Admin_family in
  let tag = function
    | Ad.Leak _ -> "leak"
    | Ad.Safe _ -> "safe"
    | Ad.Undetermined _ -> "undetermined"
  in
  Gen.each_seed ~salt:7780 ~count:60 (fun ~seed rng ->
      let inst = AF.adversarial rng in
      let sym = Ad.check inst in
      let brute = Ad.brute_force inst in
      if not (String.equal (tag sym.Ad.verdict) (tag brute.Ad.verdict)) then
        Alcotest.failf "seed %d: symbolic %a but brute force %a" seed
          Ad.pp_verdict sym.Ad.verdict Ad.pp_verdict brute.Ad.verdict;
      let again = Ad.check inst in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: deterministic outcome" seed)
        (Format.asprintf "%a" Ad.pp_outcome sym)
        (Format.asprintf "%a" Ad.pp_outcome again);
      match sym.Ad.verdict with
      | Ad.Leak { ops; witness } ->
          let trace = List.map fst witness.Analysis.Safety.steps in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: leak replays to a grant" seed)
            true
            (Coordinated.Decision.is_granted
               (Ad.replay_witness inst ops ~trace))
      | Ad.Safe _ | Ad.Undetermined _ -> ())

let () =
  Alcotest.run "fuzz"
    [
      ( "invariants",
        [
          Alcotest.test_case "grants are rbac-sound" `Quick
            test_grants_are_rbac_sound;
          Alcotest.test_case "proofs match audit log" `Quick
            test_proofs_match_audit_log;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "metric consistency" `Quick
            test_metric_consistency;
          Alcotest.test_case "duration budget" `Quick
            test_duration_budget_never_negative;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lazy = naive, verdicts and logs" `Quick
            test_differential_verdicts_and_logs;
          Alcotest.test_case "cache hits stay faithful" `Quick
            test_differential_repeated_checks;
          Alcotest.test_case
            (Printf.sprintf "lazy = naive (spans too) over %d coalitions"
               diff_runs)
            `Quick test_differential_lazy_vs_naive;
          Alcotest.test_case "warm lazy path stays faithful" `Quick
            test_differential_lazy_repeated_checks;
          Alcotest.test_case "uninstrumented lazy = naive, direct" `Quick
            test_differential_lazy_direct;
          Alcotest.test_case "bindings added mid-run, lazy = naive" `Quick
            test_differential_late_bindings;
        ] );
      ( "workflows",
        [
          Alcotest.test_case "family invariants" `Quick
            test_workflow_family_invariants;
          Alcotest.test_case "unsat family never completes" `Quick
            test_workflow_unsat_never_completes;
        ] );
      ( "admin",
        [
          Alcotest.test_case "adversarial family: symbolic = brute force"
            `Quick test_admin_adversarial_differential;
        ] );
    ]
