(* Tests for the fault-injection subsystem: PRNG determinism, plan
   generation, backoff arithmetic, injector coins, the trace-level
   invariant checker, and whole chaos runs (fail-closed + determinism)
   fuzzed over many seeded coalitions. *)

module Q = Temporal.Q

let q = Q.of_int

(* --- prng --- *)

let test_prng_stream_deterministic () =
  let a = Fault.Prng.of_seed 42 and b = Fault.Prng.of_seed 42 in
  for i = 1 to 100 do
    let x = Fault.Prng.next a and y = Fault.Prng.next b in
    if not (Int64.equal x y) then
      Alcotest.failf "streams diverge at draw %d" i
  done;
  let c = Fault.Prng.of_seed 43 in
  Alcotest.(check bool) "different seed, different stream" false
    (Int64.equal (Fault.Prng.next (Fault.Prng.of_seed 42)) (Fault.Prng.next c))

let test_prng_ranges () =
  let g = Fault.Prng.of_seed 7 in
  for _ = 1 to 1000 do
    let f = Fault.Prng.float g in
    if not (f >= 0. && f < 1.) then Alcotest.failf "float out of range: %f" f;
    let n = Fault.Prng.int g ~bound:10 in
    if n < 0 || n >= 10 then Alcotest.failf "int out of range: %d" n
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Prng.int: bound <= 0") (fun () ->
      ignore (Fault.Prng.int g ~bound:0))

let test_prng_uniform_order_independent () =
  let keys = List.init 20 (Printf.sprintf "key-%d") in
  let forward = List.map (fun k -> Fault.Prng.uniform ~seed:5 k) keys in
  let backward =
    List.rev (List.map (fun k -> Fault.Prng.uniform ~seed:5 k) (List.rev keys))
  in
  Alcotest.(check (list (float 0.))) "order cannot perturb coins" forward
    backward;
  List.iter
    (fun u ->
      if not (u >= 0. && u < 1.) then Alcotest.failf "uniform out of range: %f" u)
    forward

let test_prng_keyed_substreams_independent () =
  (* the s1 substream is the same whether or not other substreams are
     drawn from *)
  let draw key = Fault.Prng.next (Fault.Prng.of_key ~seed:11 key) in
  let first = draw "s1" in
  ignore (draw "s2");
  ignore (draw "s3");
  Alcotest.(check bool) "s1 substream unmoved" true
    (Int64.equal first (draw "s1"));
  Alcotest.(check bool) "s1 and s2 substreams differ" false
    (Int64.equal (draw "s1") (draw "s2"))

(* --- plans --- *)

let test_plan_of_name_deterministic () =
  let make () =
    Fault.Plan.of_name "moderate" ~seed:42 ~servers:[ "s1"; "s2" ] ~horizon:100
  in
  Alcotest.(check bool) "same quadruple, same plan" true (make () = make ());
  let reseeded =
    Fault.Plan.of_name "moderate" ~seed:43 ~servers:[ "s1"; "s2" ] ~horizon:100
  in
  Alcotest.(check bool) "different seed, different plan" false
    (make () = reseeded)

let test_plan_substreams_stable_under_growth () =
  let windows_of plan s = List.assoc s plan.Fault.Plan.crashes in
  let small =
    Fault.Plan.of_name "heavy" ~seed:9 ~servers:[ "s1" ] ~horizon:100
  in
  let large =
    Fault.Plan.of_name "heavy" ~seed:9 ~servers:[ "s1"; "s2"; "s3" ]
      ~horizon:100
  in
  Alcotest.(check bool) "adding servers never moves s1's windows" true
    (windows_of small "s1" = windows_of large "s1")

let test_plan_windows_well_formed () =
  List.iter
    (fun seed ->
      let plan =
        Fault.Plan.of_name "heavy" ~seed ~servers:[ "s1"; "s2"; "s3" ]
          ~horizon:80
      in
      List.iter
        (fun (server, windows) ->
          let rec walk last = function
            | [] -> ()
            | { Fault.Plan.from_; until } :: rest ->
                if not (Q.lt from_ until) then
                  Alcotest.failf "seed %d %s: empty window" seed server;
                if not (Q.le last from_) then
                  Alcotest.failf "seed %d %s: overlap/unsorted" seed server;
                walk until rest
          in
          walk Q.zero windows)
        plan.Fault.Plan.crashes)
    (List.init 50 Fun.id)

let test_plan_validation () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect_invalid "unknown name" (fun () ->
      Fault.Plan.of_name "apocalyptic" ~seed:1 ~servers:[] ~horizon:10);
  expect_invalid "probability out of range" (fun () ->
      Fault.Plan.make ~migration_failure:1.5 ());
  expect_invalid "fates exceed certainty" (fun () ->
      Fault.Plan.make ~channel_drop:0.5 ~channel_delay:0.4
        ~channel_duplicate:0.2 ());
  expect_invalid "empty window" (fun () ->
      Fault.Plan.make
        ~crashes:[ ("s1", [ { Fault.Plan.from_ = q 5; until = q 5 } ]) ]
        ());
  expect_invalid "overlapping windows" (fun () ->
      Fault.Plan.make
        ~crashes:
          [
            ( "s1",
              [
                { Fault.Plan.from_ = q 1; until = q 5 };
                { Fault.Plan.from_ = q 4; until = q 8 };
              ] );
          ]
        ());
  let none = Fault.Plan.none in
  Alcotest.(check bool) "none has no crashes" true
    (none.Fault.Plan.crashes = []);
  Alcotest.(check (float 0.)) "none injects nothing" 0.
    (none.Fault.Plan.migration_failure +. none.Fault.Plan.channel_drop
    +. none.Fault.Plan.channel_delay
    +. none.Fault.Plan.channel_duplicate
    +. none.Fault.Plan.signal_loss)

let test_plan_window_queries () =
  let plan =
    Fault.Plan.make
      ~crashes:[ ("s1", [ { Fault.Plan.from_ = q 5; until = q 10 } ]) ]
      ()
  in
  let down t = Fault.Plan.server_down plan ~server:"s1" ~time:t in
  Alcotest.(check bool) "before" false (down (q 4));
  Alcotest.(check bool) "inclusive start" true (down (q 5));
  Alcotest.(check bool) "inside" true (down (Q.make 19 2));
  Alcotest.(check bool) "exclusive end" false (down (q 10));
  Alcotest.(check bool) "other server" false
    (Fault.Plan.server_down plan ~server:"s2" ~time:(q 6));
  (match Fault.Plan.recovery plan ~server:"s1" ~time:(q 7) with
  | Some t -> Alcotest.(check string) "recovery time" "10" (Q.to_string t)
  | None -> Alcotest.fail "expected a recovery time");
  Alcotest.(check bool) "no recovery when up" true
    (Fault.Plan.recovery plan ~server:"s1" ~time:(q 3) = None);
  (* exact rational endpoints: windows are half-open [from, until), and
     membership must be decided by exact ℚ comparison, not float
     rounding — 7/2 and 21/4 have no short decimal form *)
  let rational =
    Fault.Plan.make
      ~crashes:
        [ ("s1", [ { Fault.Plan.from_ = Q.make 7 2; until = Q.make 21 4 } ]) ]
      ()
  in
  let down t = Fault.Plan.server_down rational ~server:"s1" ~time:t in
  Alcotest.(check bool) "just below rational start" false
    (down (Q.make 6999 2000));
  Alcotest.(check bool) "exact rational start is down" true (down (Q.make 7 2));
  Alcotest.(check bool) "exact rational end is up" false (down (Q.make 21 4));
  Alcotest.(check bool) "just below rational end" true
    (down (Q.make 20999 4000));
  (match Fault.Plan.recovery rational ~server:"s1" ~time:(Q.make 7 2) with
  | Some t -> Alcotest.(check string) "rational recovery" "21/4" (Q.to_string t)
  | None -> Alcotest.fail "expected recovery at the rational start");
  (* restrict drops other servers' windows and keeps the kept ones
     byte-identical *)
  let restricted = Fault.Plan.restrict plan ~servers:[ "s1" ] in
  Alcotest.(check bool) "restrict keeps s1" true
    (Fault.Plan.server_down restricted ~server:"s1" ~time:(q 5));
  let dropped = Fault.Plan.restrict plan ~servers:[ "s2" ] in
  Alcotest.(check bool) "restrict drops s1" false
    (Fault.Plan.server_down dropped ~server:"s1" ~time:(q 5))

(* --- resilience / backoff --- *)

let test_backoff_values () =
  let injector = Fault.Injector.create ~seed:1 Fault.Plan.none in
  let policy = Fault.Resilience.make ~jitter:false () in
  let backoff attempt =
    Q.to_string (Fault.Injector.backoff injector policy ~agent:"a" ~attempt)
  in
  Alcotest.(check (list string)) "capped exponential"
    [ "2"; "4"; "8"; "16"; "16" ]
    (List.map backoff [ 1; 2; 3; 4; 5 ]);
  let jittered = Fault.Resilience.make () in
  List.iter
    (fun attempt ->
      let plain =
        Fault.Injector.backoff injector policy ~agent:"a" ~attempt
      in
      let b = Fault.Injector.backoff injector jittered ~agent:"a" ~attempt in
      let again =
        Fault.Injector.backoff injector jittered ~agent:"a" ~attempt
      in
      Alcotest.(check string)
        (Printf.sprintf "attempt %d: jitter is deterministic" attempt)
        (Q.to_string b) (Q.to_string again);
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d: jitter within [b, 1.5b]" attempt)
        true
        (Q.ge b plain && Q.le b (Q.add plain (Q.div plain (q 2)))))
    [ 1; 2; 3; 4 ]

let test_resilience_validation () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect_invalid "negative retries" (fun () ->
      Fault.Resilience.make ~max_retries:(-1) ());
  expect_invalid "zero factor" (fun () ->
      Fault.Resilience.make ~backoff_factor:0 ())

(* --- injector coins --- *)

let heavy_plan seed =
  Fault.Plan.of_name "heavy" ~seed ~servers:[ "s1"; "s2"; "s3" ] ~horizon:100

let test_injector_deterministic () =
  let a = Fault.Injector.create ~seed:42 (heavy_plan 42) in
  let b = Fault.Injector.create ~seed:42 (heavy_plan 42) in
  for t = 0 to 50 do
    let time = q t in
    Alcotest.(check bool)
      (Printf.sprintf "migration coin at %d" t)
      (Fault.Injector.migration_fails a ~agent:"m" ~dest:"s2" ~attempt:1 ~time)
      (Fault.Injector.migration_fails b ~agent:"m" ~dest:"s2" ~attempt:1 ~time);
    Alcotest.(check bool)
      (Printf.sprintf "channel coin at %d" t)
      (Fault.Injector.channel_fate a ~agent:"m" ~chan:"c" ~time
      = Fault.Injector.channel_fate b ~agent:"m" ~chan:"c" ~time)
      true;
    Alcotest.(check bool)
      (Printf.sprintf "signal coin at %d" t)
      (Fault.Injector.signal_lost a ~agent:"m" ~signal:"x" ~time)
      (Fault.Injector.signal_lost b ~agent:"m" ~signal:"x" ~time)
  done

let test_injector_seed_matters () =
  let a = Fault.Injector.create ~seed:1 (heavy_plan 1) in
  let b = Fault.Injector.create ~seed:2 (heavy_plan 2) in
  let differs = ref false in
  for t = 0 to 200 do
    let time = q t in
    if
      Fault.Injector.migration_fails a ~agent:"m" ~dest:"s2" ~attempt:1 ~time
      <> Fault.Injector.migration_fails b ~agent:"m" ~dest:"s2" ~attempt:1
           ~time
    then differs := true
  done;
  Alcotest.(check bool) "different seeds produce different schedules" true
    !differs

let test_injector_attempts_independent () =
  (* retries of the same hop are fresh coins: under a heavy plan some
     attempt numbers succeed where others fail *)
  let inj = Fault.Injector.create ~seed:3 (heavy_plan 3) in
  let outcomes =
    List.init 50 (fun attempt ->
        Fault.Injector.migration_fails inj ~agent:"m" ~dest:"s2"
          ~attempt:(attempt + 1) ~time:(q 10))
  in
  Alcotest.(check bool) "not all attempts agree" true
    (List.exists (fun b -> b) outcomes
    && List.exists (fun b -> not b) outcomes)

(* --- invariant checker --- *)

let decision ~t ~server verdict =
  Obs.Trace.Decision
    {
      time = q t;
      object_id = "a1";
      access = Sral.Access.read "db" ~at:server;
      verdict;
    }

let test_invariant_fail_closed () =
  let plan =
    Fault.Plan.make
      ~crashes:[ ("s1", [ { Fault.Plan.from_ = q 5; until = q 10 } ]) ]
      ()
  in
  let ok_events =
    [
      decision ~t:3 ~server:"s1" Obs.Verdict.Granted;
      decision ~t:7 ~server:"s1"
        (Obs.Verdict.Denied (Obs.Verdict.Server_unavailable "s1"));
      decision ~t:7 ~server:"s2" Obs.Verdict.Granted;
      decision ~t:10 ~server:"s1" Obs.Verdict.Granted;
    ]
  in
  Alcotest.(check int) "denials and out-of-window grants pass" 0
    (List.length (Fault.Invariant.fail_closed ~plan ok_events));
  let bad = decision ~t:7 ~server:"s1" Obs.Verdict.Granted in
  match Fault.Invariant.fail_closed ~plan (ok_events @ [ bad ]) with
  | [ v ] ->
      Alcotest.(check string) "names the object" "a1"
        v.Fault.Invariant.subject;
      Alcotest.(check string) "at the granted time" "7"
        (Q.to_string v.Fault.Invariant.time)
  | vs -> Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs)

let test_invariant_retries_resolve () =
  let retry ~t ~agent ~attempt =
    Obs.Trace.Retry_scheduled
      { time = q t; agent; attempt; at = q (t + 2) }
  in
  let resolved =
    [
      retry ~t:1 ~agent:"a1" ~attempt:1;
      Obs.Trace.Migrated
        { time = q 3; agent = "a1"; from_ = "s1"; to_ = "s2" };
      retry ~t:4 ~agent:"a2" ~attempt:1;
      Obs.Trace.Gave_up { time = q 9; agent = "a2"; attempts = 4 };
    ]
  in
  Alcotest.(check int) "migration or give-up resolves" 0
    (List.length (Fault.Invariant.retries_resolve resolved));
  let stranded = [ retry ~t:5 ~agent:"a3" ~attempt:2 ] in
  match Fault.Invariant.retries_resolve stranded with
  | [ v ] ->
      Alcotest.(check string) "names the stranded agent" "a3"
        v.Fault.Invariant.subject
  | vs ->
      Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_invariant_determinism_compare () =
  (match Fault.Invariant.determinism "a\nb\n" "a\nb\n" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "identical inputs rejected: %s" msg);
  match Fault.Invariant.determinism "a\nb\nc\n" "a\nX\nc\n" with
  | Ok () -> Alcotest.fail "differing inputs accepted"
  | Error msg ->
      Alcotest.(check string) "error names line 2"
        "exports differ at line 2" msg

(* --- whole chaos runs --- *)

let test_chaos_runs_deterministic () =
  List.iter
    (fun (plan_name, seed) ->
      let export () =
        Scenarios.Chaos.export (Scenarios.Chaos.run ~plan_name ~seed ())
      in
      match Fault.Invariant.determinism (export ()) (export ()) with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s/%d not reproducible: %s" plan_name seed msg)
    [ ("none", 1); ("light", 2); ("moderate", 42); ("heavy", 7) ]

let test_chaos_modes_agree_on_decisions () =
  (* the decision mode is an evaluation strategy, not a policy: both
     modes must reach identical verdict counts under the same fault
     plan *)
  let counts mode =
    let m =
      (Scenarios.Chaos.run ~mode ~plan_name:"moderate" ~seed:42 ())
        .Scenarios.Chaos.metrics
    in
    (m.Naplet.Metrics.granted, m.Naplet.Metrics.denied,
     m.Naplet.Metrics.denied_unavailable, m.Naplet.Metrics.gave_up)
  in
  Alcotest.(check bool) "naive = lazy" true
    (counts Coordinated.System.Naive = counts Coordinated.System.Lazy)

(* Satellite: the fail-closed property fuzzed over 200 seeded
   coalitions — no Granted decision ever targets a server inside one of
   its crash windows, and every scheduled retry resolves. *)
let test_chaos_fuzz_fail_closed () =
  let plans = [| "light"; "moderate"; "heavy" |] in
  Gen.each_seed ~count:200 (fun ~seed _rng ->
      let plan_name = plans.(seed mod Array.length plans) in
      let couriers = 2 + (seed mod 5) in
      let report = Scenarios.Chaos.run ~plan_name ~seed ~couriers () in
      match report.Scenarios.Chaos.violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "seed %d (%s, %d couriers): %a" seed plan_name
            couriers
            (Format.pp_print_list Fault.Invariant.pp_violation)
            vs)

(* The workflow family under chaos: Fault.Plan over workflow runs.
   (a) Same workflow + same assignment ⇒ byte-identical exported
   traces; (b) the per-slot fail-closed law — a task whose server is
   inside a crash window at its decision slot is denied
   Server_unavailable, and a granted task's server was up. *)
let test_workflow_chaos () =
  let module W = Scenarios.Workflow_family in
  Gen.each_seed ~salt:7790 ~count:40 (fun ~seed rng ->
      let wf = W.adversarial ~faults:true rng in
      let ids = Array.of_list (List.map (fun (p : W.performer) -> p.W.id) wf.W.performers) in
      let asg =
        List.mapi
          (fun k (tk : W.task) -> (tk.W.name, ids.(k mod Array.length ids)))
          wf.W.tasks
      in
      let outcome = W.run wf asg in
      let outcome' = W.run wf asg in
      (match
         Fault.Invariant.determinism
           (Obs.Export.to_string outcome.W.raw.Parallel.Scenario.trace)
           (Obs.Export.to_string outcome'.W.raw.Parallel.Scenario.trace)
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: workflow run not reproducible: %s" seed msg);
      List.iteri
        (fun k (r : W.task_result) ->
          let tk = List.nth wf.W.tasks k in
          let down =
            match wf.W.plan with
            | None -> false
            | Some plan ->
                Fault.Plan.server_down plan
                  ~server:tk.W.access.Sral.Access.server ~time:(W.slot k)
          in
          match (down, r.W.verdict) with
          | true, Coordinated.Decision.Denied (Coordinated.Decision.Server_unavailable _)
            -> ()
          | true, v ->
              Alcotest.failf
                "seed %d task %s: server down at slot %d but verdict %a" seed
                r.W.task k Coordinated.Decision.pp_verdict v
          | false, Coordinated.Decision.Denied (Coordinated.Decision.Server_unavailable s)
            ->
              Alcotest.failf
                "seed %d task %s: server %s up at its slot but denied \
                 unavailable"
                seed r.W.task s
          | false, _ -> ())
        outcome.W.results)

let () =
  Alcotest.run "fault"
    [
      ( "prng",
        [
          Alcotest.test_case "stream deterministic" `Quick
            test_prng_stream_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "uniform order-independent" `Quick
            test_prng_uniform_order_independent;
          Alcotest.test_case "keyed substreams" `Quick
            test_prng_keyed_substreams_independent;
        ] );
      ( "plan",
        [
          Alcotest.test_case "of_name deterministic" `Quick
            test_plan_of_name_deterministic;
          Alcotest.test_case "substreams stable under growth" `Quick
            test_plan_substreams_stable_under_growth;
          Alcotest.test_case "windows well-formed" `Quick
            test_plan_windows_well_formed;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "window queries" `Quick test_plan_window_queries;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "backoff values" `Quick test_backoff_values;
          Alcotest.test_case "validation" `Quick test_resilience_validation;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "seed matters" `Quick test_injector_seed_matters;
          Alcotest.test_case "attempts independent" `Quick
            test_injector_attempts_independent;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "fail-closed" `Quick test_invariant_fail_closed;
          Alcotest.test_case "retries resolve" `Quick
            test_invariant_retries_resolve;
          Alcotest.test_case "determinism compare" `Quick
            test_invariant_determinism_compare;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "same seed, same bytes" `Quick
            test_chaos_runs_deterministic;
          Alcotest.test_case "modes agree on decisions" `Quick
            test_chaos_modes_agree_on_decisions;
          Alcotest.test_case "fail-closed over 200 fuzz coalitions" `Slow
            test_chaos_fuzz_fail_closed;
          Alcotest.test_case "workflows: deterministic and fail-closed" `Quick
            test_workflow_chaos;
        ] );
    ]
