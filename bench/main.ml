(* Benchmark harness: one Bechamel group per experiment of
   EXPERIMENTS.md (the paper has no quantitative tables; these are the
   measurements validating its complexity/decidability claims plus the
   reproduction scenarios — see DESIGN.md's per-experiment index).

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- E2 E7   (a selection) *)

open Bechamel

module Q = Temporal.Q

let rng_of seed = Random.State.make [| 0xC0FFEE; seed |]

(* ------------------------------------------------------------------ *)
(* Workload generators                                                  *)

let resources = [ "r1"; "r2"; "r3"; "r4" ]
let servers = [ "s1"; "s2"; "s3" ]

let random_program ~size seed =
  Sral.Generate.program ~allow_par:false ~allow_io:false ~resources ~servers
    ~size (rng_of seed)

(* A conjunctive SRAC formula with [n] atomic constraints over the
   program's own accesses — the shape access policies actually take. *)
let random_formula ~n program seed =
  let rng = rng_of (seed + 17) in
  let accesses = Array.of_list (Sral.Program.accesses program) in
  let pick () = accesses.(Random.State.int rng (Array.length accesses)) in
  let atom () =
    match Random.State.int rng 3 with
    | 0 -> Srac.Formula.Atom (pick ())
    | 1 -> Srac.Formula.Ordered (pick (), pick ())
    | _ ->
        Srac.Formula.Card
          {
            lo = 0;
            hi = Some (5 + Random.State.int rng 4);
            sel = Srac.Selector.Server (List.nth servers (Random.State.int rng 3));
          }
  in
  let rec conj k = if k <= 1 then atom () else Srac.Formula.And (atom (), conj (k - 1)) in
  conj (max 1 n)

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 3.2: spatial checking across the m × n grid            *)

let e2_tests =
  let cases =
    List.concat_map
      (fun m -> List.map (fun n -> (m, n)) [ 4; 8 ])
      [ 20; 80; 320 ]
  in
  Test.make_grouped ~name:"E2-spatial-check"
    (List.map
       (fun (m, n) ->
         let program = random_program ~size:m (m + n) in
         let formula = random_formula ~n program (m * n) in
         Test.make
           ~name:(Printf.sprintf "m=%03d,n=%02d" m n)
           (Staged.stage (fun () ->
                Srac.Program_sat.check_bool ~modality:Srac.Program_sat.Forall
                  program formula)))
       cases)

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3.1: regex -> SRAL -> language-equivalence roundtrip   *)

let e3_tests =
  let table =
    Automata.Symbol.of_accesses
      (List.concat_map
         (fun r -> List.map (fun s -> Sral.Access.read r ~at:s) servers)
         resources)
  in
  Test.make_grouped ~name:"E3-completeness"
    (List.map
       (fun size ->
         let re =
           Automata.Regex.generate ~symbols:(Automata.Symbol.alphabet table)
             ~size (rng_of size)
         in
         Test.make
           ~name:(Printf.sprintf "regex-size=%02d" size)
           (Staged.stage (fun () ->
                let program = Automata.To_program.program ~table re in
                let nfa = Automata.Of_program.nfa ~table program in
                let dfa =
                  Automata.Dfa.of_nfa
                    ~alphabet:(Automata.Symbol.alphabet table)
                    nfa
                in
                Automata.Dfa.is_empty dfa)))
       [ 8; 16; 32 ])

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 4.1: duration-calculus checking vs interpretation size *)

let e4_tests =
  let interval = Temporal.Interval.of_ints 0 4096 in
  let step_fn k =
    Temporal.Step_fn.of_intervals
      (List.init k (fun i -> Temporal.Interval.of_ints (4 * i) ((4 * i) + 2)))
  in
  Test.make_grouped ~name:"E4-temporal-dc"
    (List.map
       (fun k ->
         let v = step_fn k in
         let interp name = if name = "v" then v else invalid_arg name in
         let formula =
           Temporal.Duration_calculus.Chop
             ( Temporal.Duration_calculus.Dur_cmp
                 (Temporal.State_expr.Var "v", Temporal.Duration_calculus.Le, Q.of_int k),
               Temporal.Duration_calculus.Dur_cmp
                 (Temporal.State_expr.Var "v", Temporal.Duration_calculus.Ge, Q.zero) )
         in
         Test.make
           ~name:(Printf.sprintf "breakpoints=%04d" (2 * k))
           (Staged.stage (fun () ->
                Temporal.Duration_calculus.sat interp interval formula)))
       [ 8; 32; 128; 512 ])

(* ------------------------------------------------------------------ *)
(* E5 — Eq. 4.1: validity functions for long journeys, both schemes    *)

let e5_tests =
  let journey k scheme =
    let arrivals = List.init k (fun i -> Q.of_int (10 * i)) in
    let active = Temporal.Step_fn.of_intervals [ Temporal.Interval.of_ints 0 (10 * k) ] in
    fun () ->
      Temporal.Validity.is_valid_at ~scheme ~arrivals ~dur:(Some (Q.of_int 7))
        active
        (Q.of_int ((10 * k) - 1))
  in
  Test.make_grouped ~name:"E5-validity"
    (List.concat_map
       (fun k ->
         [
           Test.make
             ~name:(Printf.sprintf "journey,servers=%02d" k)
             (Staged.stage (journey k Temporal.Validity.Whole_journey));
           Test.make
             ~name:(Printf.sprintf "per-server,servers=%02d" k)
             (Staged.stage (journey k Temporal.Validity.Per_server));
         ])
       [ 2; 8; 32 ])

(* ------------------------------------------------------------------ *)
(* E6 — ablation: plain RBAC vs coordinated decision                   *)

let e6_tests =
  let policy () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    policy
  in
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let spatial =
    Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access)
  in
  let plain =
    let p = policy () in
    let session = Rbac.Session.create p ~user:"u" in
    Rbac.Session.activate session "r";
    fun () -> Rbac.Engine.decide_access session access
  in
  let coordinated bindings name =
    let control = Coordinated.System.create ~bindings (policy ()) in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    Coordinated.System.arrive control ~object_id:name ~server:"s1" ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:name ~program
        ~time:(Q.of_int !t) access
  in
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  Test.make_grouped ~name:"E6-rbac-overhead"
    [
      Test.make ~name:"plain-rbac" (Staged.stage plain);
      Test.make ~name:"coordinated-nobinding"
        (Staged.stage (coordinated [] "o-none"));
      Test.make ~name:"coordinated-spatial"
        (Staged.stage
           (coordinated
              [ Coordinated.Perm_binding.make ~spatial perm ]
              "o-spatial"));
      Test.make ~name:"coordinated-temporal"
        (Staged.stage
           (coordinated
              [ Coordinated.Perm_binding.make ~dur:(Q.of_int 1_000_000_000) perm ]
              "o-temporal"));
      Test.make ~name:"coordinated-both"
        (Staged.stage
           (coordinated
              [
                Coordinated.Perm_binding.make ~spatial
                  ~dur:(Q.of_int 1_000_000_000) perm;
              ]
              "o-both"));
    ]

(* ------------------------------------------------------------------ *)
(* E7 — baseline crossover: naive enumeration vs the symbolic checker  *)

let e7_tests =
  (* programs whose bounded trace model explodes: k parallel branches *)
  let program k =
    Sral.Ast.par
      (List.init k (fun i ->
           Sral.Ast.Seq
             ( Sral.Ast.Access (Sral.Access.read (Printf.sprintf "a%d" i) ~at:"s1"),
               Sral.Ast.Access (Sral.Access.read (Printf.sprintf "b%d" i) ~at:"s2") )))
  in
  let formula =
    Srac.Formula.at_most 999 (Srac.Selector.Server "s1")
  in
  Test.make_grouped ~name:"E7-naive-vs-dfa"
    (List.concat_map
       (fun k ->
         let p = program k in
         [
           Test.make
             ~name:(Printf.sprintf "naive,par=%d" k)
             (Staged.stage (fun () ->
                  (Srac.Naive.check ~modality:Srac.Program_sat.Forall p formula)
                    .Srac.Program_sat.holds));
           Test.make
             ~name:(Printf.sprintf "symbolic,par=%d" k)
             (Staged.stage (fun () ->
                  Srac.Program_sat.check_bool
                    ~modality:Srac.Program_sat.Forall p formula));
         ])
       [ 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* E8 — Section 5 prototype: end-to-end emulation throughput           *)

let e8_tests =
  let run_world ~agents ~server_count () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
    let control = Coordinated.System.create policy in
    let world = Naplet.World.create control in
    let names = List.init server_count (fun i -> Printf.sprintf "s%d" i) in
    List.iter
      (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
      names;
    let rng = rng_of (agents + server_count) in
    for i = 1 to agents do
      let program =
        Sral.Generate.program ~allow_io:false ~resources
          ~servers:names ~size:10 rng
      in
      Naplet.World.spawn world
        ~id:(Printf.sprintf "a%d" i)
        ~owner:"u" ~roles:[ "r" ] ~home:(List.hd names) program
    done;
    Naplet.World.run world
  in
  Test.make_grouped ~name:"E8-naplet-throughput"
    (List.map
       (fun (agents, server_count) ->
         Test.make
           ~name:(Printf.sprintf "agents=%02d,servers=%02d" agents server_count)
           (Staged.stage (fun () -> run_world ~agents ~server_count ())))
       [ (1, 4); (8, 4); (16, 8) ])

(* ------------------------------------------------------------------ *)
(* E9 — interleaving: shuffle-product growth                           *)

let e9_tests =
  let branch i =
    Sral.Ast.Seq
      ( Sral.Ast.Access (Sral.Access.read (Printf.sprintf "x%d" i) ~at:"s1"),
        Sral.Ast.Access (Sral.Access.write (Printf.sprintf "y%d" i) ~at:"s2") )
  in
  Test.make_grouped ~name:"E9-shuffle"
    (List.map
       (fun k ->
         let program = Sral.Ast.par (List.init k branch) in
         Test.make
           ~name:(Printf.sprintf "par-branches=%d" k)
           (Staged.stage (fun () ->
                let lang = Automata.Language.of_program program in
                Automata.Language.state_count lang)))
       [ 2; 4; 6 ])

(* ------------------------------------------------------------------ *)
(* E11/E12 — periodic-vs-duration and aggregation ablations            *)

let e11_tests =
  let window =
    Temporal.Periodic.daily ~start_hour:(Q.of_int 22) ~length_hours:(Q.of_int 5)
  in
  let arrival = Q.of_int 25 in
  let active = Temporal.Step_fn.of_changes ~init:false [ (arrival, true) ] in
  let probe = Q.of_int 26 in
  let policy () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    policy
  in
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read db @ s1" in
  let with_bindings bindings name =
    let control = Coordinated.System.create ~bindings (policy ()) in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    Coordinated.System.arrive control ~object_id:name ~server:"s1" ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:name ~program
        ~time:(Q.of_int !t) access
  in
  let raw =
    List.init 8 (fun i ->
        Coordinated.Perm_binding.make ~dur:(Q.of_int (1_000_000 + i)) perm)
  in
  Test.make_grouped ~name:"E11-E12-ablations"
    [
      Test.make ~name:"periodic-window-check"
        (Staged.stage (fun () -> Temporal.Periodic.contains window probe));
      Test.make ~name:"duration-validity-check"
        (Staged.stage (fun () ->
             Temporal.Validity.is_valid_at
               ~scheme:Temporal.Validity.Whole_journey ~arrivals:[ arrival ]
               ~dur:(Some (Q.of_int 4)) active probe));
      Test.make ~name:"decision-8-raw-bindings"
        (Staged.stage (with_bindings raw "raw"));
      Test.make ~name:"decision-aggregated-binding"
        (Staged.stage
           (with_bindings (Coordinated.Aggregate.aggregate raw) "agg"));
      (* runtime monitoring routes for a 40-access history *)
      (let c =
         Srac.Formula.And
           ( Srac.Formula.at_most 50 (Srac.Selector.Resource "db"),
             Srac.Formula.Ordered
               (Sral.Access.read "cfg" ~at:"s1", Sral.Access.read "db" ~at:"s1")
           )
       in
       let history =
         Sral.Access.read "cfg" ~at:"s1"
         :: List.init 40 (fun _ -> Sral.Access.read "db" ~at:"s1")
       in
       Test.make ~name:"monitor-trace-recheck"
         (Staged.stage (fun () ->
              Srac.Trace_sat.sat ~proofs:Srac.Proof.always history c)));
      (let c =
         Srac.Formula.And
           ( Srac.Formula.at_most 50 (Srac.Selector.Resource "db"),
             Srac.Formula.Ordered
               (Sral.Access.read "cfg" ~at:"s1", Sral.Access.read "db" ~at:"s1")
           )
       in
       let history =
         Sral.Access.read "cfg" ~at:"s1"
         :: List.init 40 (fun _ -> Sral.Access.read "db" ~at:"s1")
       in
       let residual = Srac.Derivative.after_trace c history in
       Test.make ~name:"monitor-derivative-step"
         (Staged.stage (fun () ->
              Srac.Derivative.satisfied_by_empty
                (Srac.Derivative.after residual
                   (Sral.Access.read "db" ~at:"s1")))));
    ]

(* ------------------------------------------------------------------ *)
(* E13 — decision fast path: check latency vs coalition size.  The
   [Naive] mode is the seed's linear path (binding scan + companion
   fold over every object in the coalition); [Lazy], the production
   path, resolves bindings through Binding_index, companions through
   team rosters and constraints through memoized residuals.  The naive
   curve should grow linearly with the object count, the lazy one
   should stay flat.                                                   *)

let mode_name = function
  | Coordinated.System.Naive -> "naive"
  | Coordinated.System.Lazy -> "lazy"

let modes = [ Coordinated.System.Naive; Coordinated.System.Lazy ]

let e13_tests =
  let policy () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    policy
  in
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let spatial =
    Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access)
  in
  (* one binding that matters plus 15 that never match the probed
     access — the naive path pays applies_to on all 16 every check *)
  let bindings =
    Coordinated.Perm_binding.make ~spatial
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
    :: List.init 15 (fun i ->
           Coordinated.Perm_binding.make
             ~dur:(Q.of_int 1_000_000_000)
             (Rbac.Perm.make ~operation:"read"
                ~target:(Printf.sprintf "aux%d@s9" i)))
  in
  let make ~mode ~objects =
    let control =
      Coordinated.System.create ~mode ~bindings ~log_capacity:1024 (policy ())
    in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    (* the whole coalition is organized in teams of 8; the probed
       object's companions are its 7 teammates either way, but the
       naive path rediscovers them by folding over all [objects] *)
    for i = 0 to objects - 1 do
      Coordinated.System.join_team control
        ~object_id:(Printf.sprintf "o%d" i)
        ~team:(Printf.sprintf "t%d" (i / 8))
    done;
    Coordinated.System.arrive control ~object_id:"o0" ~server:"s1"
      ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:"o0" ~program
        ~time:(Q.of_int !t) access
  in
  Test.make_grouped ~name:"E13-decision-fastpath"
    (List.concat_map
       (fun objects ->
         List.map
           (fun mode ->
             Test.make
               ~name:
                 (Printf.sprintf "%s,objects=%04d" (mode_name mode) objects)
               (Staged.stage (make ~mode ~objects)))
           modes)
       [ 16; 64; 256; 1024 ])

(* ------------------------------------------------------------------ *)
(* E16 — static analyzer cost, phase by phase.  One synthetic policy
   per size [k]: k bindings whose constraints chain k distinct
   resources over two servers, so the closure alphabet grows linearly
   with k.  The phases are measured separately — formula-to-DFA
   compilation, per-binding emptiness, the O(k²) pairwise inclusion
   stage — plus the whole [Analyzer.analyze] pass, and the paper's
   Fig. 1 audit policy as a fixed reference point.                     *)

let e16_tests =
  let synth k =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    let res i = Printf.sprintf "r%d" i in
    let bindings =
      List.init k (fun i ->
          let dep = Sral.Access.read (res ((i + 1) mod k)) ~at:"s2" in
          let own = Sral.Access.read (res i) ~at:"s1" in
          Coordinated.Perm_binding.make
            ~spatial:
              (Srac.Formula.And
                 ( Srac.Formula.Ordered (dep, own),
                   Srac.Formula.at_most 3 (Srac.Selector.Resource (res i)) ))
            ~spatial_scope:Coordinated.Perm_binding.Performed
            (Rbac.Perm.make ~operation:"read" ~target:(res i ^ "@s1")))
    in
    { Coordinated.Policy_lang.policy; bindings }
  in
  let phase_tests k =
    let parsed = synth k in
    let world = Analysis.World.of_policy parsed in
    let formulas =
      List.filter_map
        (fun b -> b.Coordinated.Perm_binding.spatial)
        parsed.Coordinated.Policy_lang.bindings
    in
    let accs =
      List.sort_uniq Sral.Access.compare
        (Srac.Decide.closure_alphabet formulas @ world.Analysis.World.universe)
    in
    let table = Automata.Symbol.of_accesses accs in
    let compile () =
      List.map (Srac.Compile.dfa ~table ~proofs:Srac.Proof.always) formulas
    in
    let dfas = compile () in
    [
      Test.make
        ~name:(Printf.sprintf "k=%02d 1-compile" k)
        (Staged.stage (fun () -> compile ()));
      Test.make
        ~name:(Printf.sprintf "k=%02d 2-emptiness" k)
        (Staged.stage (fun () -> List.map Automata.Dfa.is_empty dfas));
      Test.make
        ~name:(Printf.sprintf "k=%02d 3-inclusion" k)
        (Staged.stage (fun () ->
             List.fold_left
               (fun n d1 ->
                 List.fold_left
                   (fun n d2 ->
                     if d1 != d2 && Automata.Dfa.subset d1 d2 then n + 1
                     else n)
                   n dfas)
               0 dfas));
      Test.make
        ~name:(Printf.sprintf "k=%02d 4-analyze" k)
        (Staged.stage (fun () -> Analysis.Analyzer.analyze ~world parsed));
    ]
  in
  let fig1 = Scenarios.Policy_review.fig1 () in
  let fig1_world = Scenarios.Policy_review.fig1_world () in
  Test.make_grouped ~name:"E16-analyzer"
    (List.concat_map phase_tests [ 4; 8; 16 ]
    @ [
        Test.make ~name:"fig1 4-analyze"
          (Staged.stage (fun () ->
               Analysis.Analyzer.analyze ~world:fig1_world fig1));
      ])

(* ------------------------------------------------------------------ *)
(* E14 — per-stage decision latency through the observability spine.
   The E13 workload (16 bindings, one relevant; coalition in teams of
   8) re-run with a real-clock trace bus and an [Obs.Stats] sink
   subscribed: every check emits rbac/spatial/temporal stage spans, and
   the histograms answer {e where} a decision spends
   its time — not just how long it takes end to end.  Not a Bechamel
   group: the spans themselves are the measurement.                    *)

let e14_report () =
  let policy () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    policy
  in
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let spatial =
    Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access)
  in
  let bindings =
    Coordinated.Perm_binding.make ~spatial
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
    :: List.init 15 (fun i ->
           Coordinated.Perm_binding.make
             ~dur:(Q.of_int 1_000_000_000)
             (Rbac.Perm.make ~operation:"read"
                ~target:(Printf.sprintf "aux%d@s9" i)))
  in
  let measure ~mode ~objects ~checks =
    let bus = Obs.Bus.create ~clock:Monotonic_clock.now () in
    let stats = Obs.Stats.create () in
    Obs.Bus.subscribe bus (Obs.Stats.sink stats);
    let control =
      Coordinated.System.create ~mode ~bindings ~log_capacity:1024 ~bus
        (policy ())
    in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    for i = 0 to objects - 1 do
      Coordinated.System.join_team control
        ~object_id:(Printf.sprintf "o%d" i)
        ~team:(Printf.sprintf "t%d" (i / 8))
    done;
    Coordinated.System.arrive control ~object_id:"o0" ~server:"s1" ~time:Q.zero;
    for t = 1 to checks do
      ignore
        (Coordinated.System.check control ~session ~object_id:"o0" ~program
           ~time:(Q.of_int t) access)
    done;
    stats
  in
  List.iter
    (fun mode ->
      List.iter
        (fun objects ->
          let stats = measure ~mode ~objects ~checks:10_000 in
          Printf.printf "  -- %s, objects=%04d, checks=10000 --\n%!"
            (mode_name mode) objects;
          Format.printf "%a@." Obs.Stats.pp stats)
        [ 16; 1024 ])
    modes

(* ------------------------------------------------------------------ *)
(* E15 — resilience under deterministic chaos.  The Figure-1 coalition
   (audit agent + couriers + channel traffic) re-run under each named
   fault intensity in both decision modes; we report wall-clock
   throughput, fault/retry counts and the retry amplification factor
   (retries per completed migration) so degradation can be read off as
   a function of fault rate.  Not a Bechamel group: each cell is one
   deterministic end-to-end run, and the counters are the measurement. *)

let e15_report () =
  Printf.printf
    "  %-8s %-10s %7s %8s %7s %7s %7s %7s %7s %9s %10s\n%!" "mode" "plan"
    "events" "granted" "unavail" "faults" "retries" "gaveup" "ampl"
    "simtime" "wall";
  List.iter
    (fun mode ->
      List.iter
        (fun plan_name ->
          let t0 = Monotonic_clock.now () in
          let report =
            Scenarios.Chaos.run ~mode ~plan_name ~seed:42 ~couriers:12 ()
          in
          let t1 = Monotonic_clock.now () in
          let wall_ns = Int64.to_float (Int64.sub t1 t0) in
          let m = report.Scenarios.Chaos.metrics in
          let amplification =
            if m.Naplet.Metrics.migrations = 0 then 0.
            else
              float_of_int m.Naplet.Metrics.retries
              /. float_of_int m.Naplet.Metrics.migrations
          in
          (match report.Scenarios.Chaos.violations with
          | [] -> ()
          | vs ->
              Printf.printf "  !! %d invariant violation(s) under %s/%s\n%!"
                (List.length vs) (mode_name mode) plan_name);
          Printf.printf
            "  %-8s %-10s %7d %8d %7d %7d %7d %7d %7.2f %9s %7.2f ms\n%!"
            (mode_name mode) plan_name
            (List.length report.Scenarios.Chaos.trace)
            m.Naplet.Metrics.granted m.Naplet.Metrics.denied_unavailable
            m.Naplet.Metrics.faults_injected m.Naplet.Metrics.retries
            m.Naplet.Metrics.gave_up amplification
            (Q.to_string m.Naplet.Metrics.end_time)
            (wall_ns /. 1e6))
        Fault.Plan.intensity_names)
    modes

(* ------------------------------------------------------------------ *)
(* E17 — sharded parallel decision engine.  A workload of generated
   coalitions interpreted by the sequential engine and by the sharded
   engine at 1/2/4/8 shards; each cell reports wall-clock, requests per
   second over the workload's Check events, and speedup relative to the
   sequential run.  The table closes with the differential conformance
   harness (parallel = sequential on verdicts, audit statistics and
   merged trace bytes) — throughput numbers only count if that gate
   passes.  Real scaling needs real cores: on a single-CPU host (or the
   4.14 single-shard fallback) expect speedup ≈ 1.0 minus domain
   overhead; the backend line states what the run actually had. *)

let e17_report () =
  let coalitions = 96 in
  let scenarios =
    Parallel.Workload.coalitions ~objects:4 ~events:60 ~salt:1717
      ~count:coalitions 0
  in
  let checks =
    Array.fold_left (fun acc sc -> acc + Parallel.Scenario.checks sc) 0 scenarios
  in
  let time f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))
  in
  (* warm the minor heap and code paths before timing *)
  ignore (Parallel.Engine.sequential (Array.sub scenarios 0 8));
  let _, seq_ns = time (fun () -> Parallel.Engine.sequential scenarios) in
  Printf.printf "  backend: %s, recommended shards: %d\n"
    (if Parallel.Backend.domains then "ocaml5-domains" else "single-4.14")
    (Parallel.Backend.recommended ());
  Printf.printf "  workload: %d coalitions, %d checks\n" coalitions checks;
  Printf.printf "  %-12s %7s %10s %12s %8s\n%!" "engine" "shards" "wall"
    "req/s" "speedup";
  let row name shards ns =
    Printf.printf "  %-12s %7s %8.2f ms %12.0f %7.2fx\n%!" name shards
      (ns /. 1e6)
      (float_of_int checks /. (ns /. 1e9))
      (seq_ns /. ns)
  in
  row "sequential" "-" seq_ns;
  List.iter
    (fun shards ->
      let _, ns = time (fun () -> Parallel.Engine.sharded ~shards scenarios) in
      row "sharded" (string_of_int shards) ns)
    [ 1; 2; 4; 8 ];
  let gate = Parallel.Engine.verify ~shards:4 (Array.sub scenarios 0 24) in
  Format.printf "  %a@." Parallel.Engine.pp_report gate;
  if gate.Parallel.Engine.divergences <> [] then exit 1

(* E18 — workflow satisfiability: checker cost vs task count against
   the brute-force assignment enumerator, plus the agreement gate the
   differential suite enforces (zero divergences, every witness
   replays). *)
let e18_report () =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  let time f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))
  in
  (* half satisfiable (the checker must build a witness), half
     adversarial (mostly unsat at larger sizes — the pruning side) *)
  let batch tasks =
    Array.append
      (W.workflows W.Satisfiable ~tasks ~performers:3 ~salt:1818 ~count:12 0)
      (W.workflows W.Adversarial ~tasks ~performers:3 ~salt:1818 ~count:12 0)
  in
  ignore (Array.map Sat.check (batch 2));
  Printf.printf
    "  24 workflows per row (12 satisfiable + 12 adversarial), 3 performers\n";
  Printf.printf "  %-6s %14s %14s %9s %7s\n%!" "tasks" "checker" "brute-force"
    "ratio" "sat";
  List.iter
    (fun tasks ->
      let wfs = batch tasks in
      let verdicts, checker_ns = time (fun () -> Array.map Sat.check wfs) in
      let _, brute_ns = time (fun () -> Array.map Sat.brute_force wfs) in
      let sat =
        Array.fold_left
          (fun n -> function Sat.Complete _ -> n + 1 | Sat.Impossible _ -> n)
          0 verdicts
      in
      Printf.printf "  %-6d %11.2f ms %11.2f ms %8.1fx %5d/24\n%!" tasks
        (checker_ns /. 1e6) (brute_ns /. 1e6)
        (brute_ns /. checker_ns)
        sat)
    [ 2; 3; 4; 5; 6 ];
  (* agreement gate, as in the differential suite *)
  let divergences = ref 0 and total = ref 0 in
  List.iter
    (fun fam ->
      Array.iter
        (fun wf ->
          incr total;
          match Sat.against_brute_force wf with
          | Sat.Agree_sat _ | Sat.Agree_unsat _ -> ()
          | Sat.Divergent d ->
              incr divergences;
              Printf.printf "  divergence: %s\n%!" d)
        (W.workflows fam ~salt:1819 ~count:40 0))
    [ W.Satisfiable; W.Unsatisfiable; W.Adversarial ];
  Printf.printf "  agreement: %d/%d (%d divergence(s))\n%!"
    (!total - !divergences) !total !divergences;
  if !divergences > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* E19 — million-object coalitions on the struct-of-arrays engine.
   Two parts.  First the conformance gate: a span of randomized
   coalitions (teams, channel traffic, fault plans, a mid-run admin
   action) is driven through both the SoA world and the retained
   legacy world by the same functorized harness, and their exported
   traces are compared byte for byte — the scaling numbers only count
   if that gate passes.  Then the scaling table: uniform coalitions of
   10^3..10^6 agents, reporting build time (spawn + arrival), run
   time, processed events, steady-state events per second, and memory
   (live words after a major GC, plus the process peak heap).

   Env knobs for CI: [E19_MAX_OBJECTS] caps the largest scale (default
   1_000_000); [E19_CONFORMANCE_RUNS] sizes the gate (default 25);
   [E19_TRACE_OUT] additionally writes the fixed-seed (salt 1919,
   seed 7) SoA trace to a file so two runs can be [cmp]'d for byte
   determinism. *)

let e19_report () =
  let env_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( try int_of_string s with _ -> default)
    | None -> default
  in
  let max_objects = env_int "E19_MAX_OBJECTS" 1_000_000 in
  let runs = env_int "E19_CONFORMANCE_RUNS" 25 in
  let diverged = Scenarios.Scale_family.divergences ~runs 0 in
  Printf.printf
    "  conformance (SoA vs legacy): %d randomized coalitions, %d \
     divergence(s)%s\n%!"
    runs (List.length diverged)
    (match diverged with
    | [] -> ""
    | seeds ->
        " at seed(s) " ^ String.concat "," (List.map string_of_int seeds));
  if diverged <> [] then exit 1;
  (match Sys.getenv_opt "E19_TRACE_OUT" with
  | None -> ()
  | Some path ->
      let trace = Scenarios.Scale_family.Soa.random_trace ~salt:1919 ~seed:7 () in
      let oc = open_out path in
      output_string oc trace;
      close_out oc;
      Printf.printf "  fixed-seed trace: %d bytes written to %s\n%!"
        (String.length trace) path);
  Printf.printf "  %-9s %7s %10s %10s %10s %11s %9s %9s\n%!" "objects"
    "servers" "build" "run" "events" "events/s" "live" "peak";
  List.iter
    (fun objects ->
      if objects <= max_objects then begin
        let servers = max 4 (objects / 2_500) in
        let config =
          {
            Naplet.World.default_config with
            Naplet.World.max_events = (objects * 64) + 4096;
          }
        in
        let t0 = Monotonic_clock.now () in
        let world =
          Scenarios.Scale_family.Soa.build_big ~config ~objects ~servers ()
        in
        let t1 = Monotonic_clock.now () in
        ignore (Naplet.World.run world);
        let t2 = Monotonic_clock.now () in
        (* stat while the world is still reachable, so live words count
           its state tables, not just the residue after collection *)
        Gc.full_major ();
        let stat = Gc.stat () in
        let events = Naplet.World.processed_events world in
        let run_s = Int64.to_float (Int64.sub t2 t1) /. 1e9 in
        Printf.printf
          "  %-9d %7d %8.2f s %8.2f s %10d %11.0f %7.1fMw %7.1fMw\n%!" objects
          servers
          (Int64.to_float (Int64.sub t1 t0) /. 1e9)
          run_s events
          (float_of_int events /. run_s)
          (float_of_int stat.Gc.live_words /. 1e6)
          (float_of_int stat.Gc.top_heap_words /. 1e6)
      end)
    [ 1_000; 10_000; 100_000; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* E20 — decision service: differential gate + saturation sweep        *)

(* The service story in two acts.  First the gate: the same seeded
   request scripts through the full stack (framing, the deterministic
   transport, the server core) and through an independent per-request
   drive straight on [Coordinated.System] must render byte-identical
   reply streams, and the simulated drive must be bit-reproducible.
   Then the numbers: a closed-loop run fixes this host's per-request
   service rate, and an open-loop sweep at fractions and multiples of
   it shows the saturation knee — achieved rate tracks offered until
   the server sheds, with latency measured from each request's due
   time so queueing under overload is charged to the server, not
   hidden by a stalling client.

   Env knobs for CI: [E20_REQUESTS] sizes each measured run (default
   20_000); [E20_GATE_SEEDS] sizes the differential gate (default 5);
   [E20_RATES] overrides the offered-rate list (comma-separated,
   requests/s; default 1/4x, 1/2x, 1x, 3/2x the closed-loop rate). *)

let e20_report () =
  let env_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( try int_of_string s with _ -> default)
    | None -> default
  in
  let requests = env_int "E20_REQUESTS" 20_000 in
  let gate_seeds = env_int "E20_GATE_SEEDS" 5 in
  let base = Service.Script.base_system () in
  let diverged = ref 0 in
  for seed = 1 to gate_seeds do
    let script = Service.Script.generate ~conns:4 ~requests:200 ~seed () in
    let sim = Service.Script.render (Service.Script.run_sim ~base script) in
    let sim' = Service.Script.render (Service.Script.run_sim ~base script) in
    let direct =
      Service.Script.render (Service.Script.drive_direct ~base script)
    in
    if sim <> direct || sim <> sim' then incr diverged
  done;
  Printf.printf
    "  differential gate (sim vs direct, %d seed(s) x 200 requests): %d \
     divergence(s)\n%!"
    gate_seeds !diverged;
  if !diverged > 0 then exit 1;
  let closed = Service.Load.closed ~base ~requests () in
  let rates =
    match Sys.getenv_opt "E20_RATES" with
    | Some s ->
        List.filter_map
          (fun tok -> float_of_string_opt (String.trim tok))
          (String.split_on_char ',' s)
    | None ->
        let c = closed.Service.Load.achieved in
        List.map (fun f -> Float.round (c *. f)) [ 0.25; 0.5; 1.0; 1.5 ]
  in
  let fmt = Format.std_formatter in
  Format.fprintf fmt "  %a@." Service.Load.pp_header ();
  Format.fprintf fmt "  %a@." Service.Load.pp_row closed;
  List.iter
    (fun r -> Format.fprintf fmt "  %a@." Service.Load.pp_row r)
    (Service.Load.sweep ~base ~requests ~rates ());
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* E1 / E10 — whole-scenario reproductions                             *)

let scenario_tests =
  Test.make_grouped ~name:"E1-E10-scenarios"
    [
      Test.make ~name:"E1-fig1-integrity-audit"
        (Staged.stage (fun () -> Scenarios.Integrity_audit.run ()));
      Test.make ~name:"E1-fig1-audit-with-deadline"
        (Staged.stage (fun () ->
             Scenarios.Integrity_audit.run ~deadline:(Q.of_int 6) ()));
      Test.make ~name:"E10-license-guard"
        (Staged.stage (fun () -> Scenarios.License_guard.run ()));
      Test.make ~name:"E10-newspaper-deadline"
        (Staged.stage (fun () -> Scenarios.Newspaper.run ()));
      Test.make ~name:"E12-teamwork"
        (Staged.stage (fun () -> Scenarios.Teamwork.run ()));
      Test.make ~name:"E12-parallel-audit-3-clones"
        (Staged.stage (fun () ->
             Scenarios.Integrity_audit.run_parallel ~clones:3 ()));
    ]

(* ------------------------------------------------------------------ *)
(* E21 — administrative safety: the symbolic reachability engine vs
   explicit op-sequence enumeration.  Three parts.  First the
   agreement gate the differential suite enforces: on the small-model
   families, verdict constructors must agree exactly and every Leak
   witness must replay to a grant — the numbers only count if the gate
   passes (divergence exits 1).  Then a timing table on the
   adversarial small models.  Then the scale table: SoD-free
   Safe instances (the hard case — a Safe answer requires exhausting
   the reachable deployments) where the symbolic engine's state dedup
   collapses the n!-sequence space to 2^n deployments while the
   enumeration baseline hits its node cap.

   Env knobs for CI: [E21_GATE_COUNT] sizes the gate per family
   (default 40); [E21_BRUTE_CAP] is the enumeration node cap on the
   scale rows (default 500_000). *)
let e21_report () =
  let module Ad = Analysis.Admin in
  let module AF = Scenarios.Admin_family in
  let time f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))
  in
  let env_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some n -> n
    | None -> default
  in
  let gate_count = env_int "E21_GATE_COUNT" 40 in
  let brute_cap = env_int "E21_BRUTE_CAP" 500_000 in
  let tag = function
    | Ad.Leak _ -> "leak"
    | Ad.Safe _ -> "safe"
    | Ad.Undetermined _ -> "undetermined"
  in
  (* 1. agreement gate *)
  let divergences = ref 0 and total = ref 0 and leaks = ref 0 in
  List.iter
    (fun fam ->
      for seed = 0 to gate_count - 1 do
        let rng = Random.State.make [| 2121; seed |] in
        let inst = AF.generate fam rng in
        incr total;
        let sym = Ad.check inst in
        let brute = Ad.brute_force inst in
        if not (String.equal (tag sym.Ad.verdict) (tag brute.Ad.verdict))
        then begin
          incr divergences;
          Printf.printf "  divergence (%s seed %d): symbolic %s, brute %s\n%!"
            (AF.family_name fam) seed (tag sym.Ad.verdict)
            (tag brute.Ad.verdict)
        end;
        match sym.Ad.verdict with
        | Ad.Leak { ops; witness } ->
            incr leaks;
            let trace = List.map fst witness.Analysis.Safety.steps in
            if
              not
                (Coordinated.Decision.is_granted
                   (Ad.replay_witness inst ops ~trace))
            then begin
              incr divergences;
              Printf.printf "  witness replay failed (%s seed %d)\n%!"
                (AF.family_name fam) seed
            end
        | _ -> ()
      done)
    [ AF.Reachable; AF.Sabotaged; AF.Adversarial ];
  Printf.printf
    "  agreement: %d/%d (%d divergence(s)), %d leak witnesses replayed\n%!"
    (!total - !divergences) !total !divergences !leaks;
  if !divergences > 0 then exit 1;
  (* 2. small-model timing *)
  let batch salt count =
    List.init count (fun seed ->
        AF.adversarial (Random.State.make [| salt; seed |]))
  in
  ignore (List.map Ad.check (batch 2122 5));
  Printf.printf "  %-28s %12s %12s %8s\n%!" "small models (60 adversarial)"
    "symbolic" "brute" "ratio";
  let insts = batch 2123 60 in
  let _, sym_ns = time (fun () -> List.map Ad.check insts) in
  let _, brute_ns = time (fun () -> List.map Ad.brute_force insts) in
  Printf.printf "  %-28s %9.2f ms %9.2f ms %7.1fx\n%!" ""
    (sym_ns /. 1e6) (brute_ns /. 1e6) (brute_ns /. sym_ns);
  (* 3. the scale rows: Safe must exhaust the reachable deployments *)
  let safe_instance n =
    let p = Rbac.Policy.create () in
    List.iter (Rbac.Policy.add_user p) [ "u1"; "u2" ];
    let roles = List.init n (fun i -> Printf.sprintf "r%d" i) in
    List.iter (Rbac.Policy.add_role p) ("anchor" :: roles);
    (* the goal permission exists in the universe but is granted only
       to the never-assigned anchor role: provably Safe, and proving
       it requires visiting every reachable deployment *)
    Rbac.Policy.grant p "anchor"
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    let base = { Coordinated.Policy_lang.policy = p; bindings = [] } in
    let world = Analysis.World.of_policy base in
    let pool =
      List.mapi
        (fun i r ->
          if i mod 2 = 0 then Ad.Assign ("u2", r)
          else
            Ad.Grant (r, Rbac.Perm.make ~operation:"read" ~target:"log@s1"))
        roles
    in
    Ad.make ~base ~world
      ~schedule:{ Ad.pool; budget = n; team = "coalition"; joined = true }
      ~user:"u1"
      ~perm:(Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      ~server:"s1"
  in
  Printf.printf "  %-10s %12s %9s %10s %12s %14s\n%!" "pool ops" "symbolic"
    "explored" "leaf miss" "enumeration" "enum nodes";
  List.iter
    (fun n ->
      let inst = safe_instance n in
      let sym, sym_ns = time (fun () -> Ad.check inst) in
      let verdict_str o =
        match o.Ad.verdict with
        | Ad.Safe { explored } -> Printf.sprintf "safe:%d" explored
        | Ad.Leak _ -> "LEAK?!"
        | Ad.Undetermined _ -> "undet(cap)"
      in
      let brute, brute_ns =
        time (fun () -> Ad.brute_force ~max_nodes:brute_cap inst)
      in
      Printf.printf "  %-10d %9.2f ms %9s %10d %9.2f ms %11s\n%!" n
        (sym_ns /. 1e6) (verdict_str sym) sym.Ad.stats.Ad.leaf_calls
        (brute_ns /. 1e6)
        (Printf.sprintf "%s/%d" (verdict_str brute) brute_cap);
      match sym.Ad.verdict with
      | Ad.Safe _ -> ()
      | v ->
          Format.printf "  scale row %d not safe: %a@." n Ad.pp_verdict v;
          exit 1)
    [ 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* E22 — the lazy-derivative decision path, in four acts.

   First the differential gate, in the E18/E21 mould: a span of seeded
   randomized coalitions is interpreted under [Lazy] and [Naive]
   decision modes, and everything observable — the rendered verdicts
   (denial reasons included), the audit log, and the entire bus trace
   with its per-stage spans — must match byte for byte.  Any
   divergence exits 1; the latency rows below only count if the gate
   passes.

   Then three latency rows, both modes side by side:
   - warm hit: the E13 steady state — a Program-scope spatial
     constraint, answered from the slot's cached program check;
   - warm miss: a Performed-scope constraint granted on every check,
     so the history grows on every decision — the naive path re-runs
     trace satisfaction over the whole growing history, the lazy
     machine folds exactly one derivative step per recorded proof;
   - cold: the first decision on a fresh coalition — the naive path
     pays subset construction for activation feasibility, the lazy
     machine interns a couple of residuals and answers from
     nullability.

   Last the allocation gates: bursts of direct, uninstrumented
   steady-state [Decision.decide_lazy] calls must allocate ~0 minor
   words per decision (exits 1 above 1.0 words/decision) — once on a
   Program-scope binding, once on a Performed-scope binding whose
   history grows by a selected or an inert proof before every call.

   Env knobs for CI: [E22_GATE_COUNT] sizes the differential gate
   (default 300); [E22_CHECKS] sizes each latency row (default 4000);
   [E22_TRACE_OUT] writes the fixed-seed (salt 2222, seed 7)
   Lazy-mode rendered trace + log to a file so two runs can be
   [cmp]'d for byte determinism. *)

let e22_report () =
  let env_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some n -> n
    | None -> default
  in
  let gate_count = env_int "E22_GATE_COUNT" 300 in
  let checks = env_int "E22_CHECKS" 4000 in
  let time f =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))
  in
  let render outcome =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" Obs.Trace.pp)
         outcome.Parallel.Scenario.trace)
    ^ "\n--log--\n" ^ outcome.Parallel.Scenario.log
  in
  let run_seed ~mode seed =
    let rng = Random.State.make [| 2222; seed |] in
    Parallel.Scenario.run ~mode (Parallel.Workload.scenario rng)
  in
  (* 1. differential gate: verdicts + log + spans, byte for byte *)
  let divergences = ref 0 in
  for seed = 0 to gate_count - 1 do
    let l = run_seed ~mode:Coordinated.System.Lazy seed in
    let n = run_seed ~mode:Coordinated.System.Naive seed in
    if
      not
        (l.Parallel.Scenario.verdicts = n.Parallel.Scenario.verdicts
        && String.equal (render l) (render n))
    then begin
      incr divergences;
      Printf.printf "  divergence (verdicts/log/spans) at seed %d\n%!" seed
    end
  done;
  Printf.printf
    "  differential (lazy vs naive, verdicts+log+spans): %d/%d (%d \
     divergence(s))\n%!"
    (gate_count - !divergences) gate_count !divergences;
  if !divergences > 0 then exit 1;
  (match Sys.getenv_opt "E22_TRACE_OUT" with
  | None -> ()
  | Some path ->
      let body = render (run_seed ~mode:Coordinated.System.Lazy 7) in
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.printf "  fixed-seed trace: %d bytes written to %s\n%!"
        (String.length body) path);
  (* 2. latency rows *)
  let policy () =
    let policy = Rbac.Policy.create () in
    Rbac.Policy.add_user policy "u";
    Rbac.Policy.add_role policy "r";
    Rbac.Policy.assign_user policy "u" "r";
    Rbac.Policy.grant policy "r"
      (Rbac.Perm.make ~operation:"read" ~target:"*@*");
    policy
  in
  let access = Sral.Access.read "db" ~at:"s1" in
  let program = Sral.Parser.program "read cfg @ s1; read db @ s1" in
  let hit_bindings =
    (* Program-scope constraint: history-independent *)
    [
      Coordinated.Perm_binding.make
        ~spatial:
          (Srac.Formula.Ordered (Sral.Access.read "cfg" ~at:"s1", access))
        (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    ]
  in
  let miss_bindings =
    (* Performed-scope and granted on every check: the history grows
       with every decision *)
    [
      Coordinated.Perm_binding.make
        ~spatial:(Srac.Formula.at_least 1 (Srac.Selector.Resource "db"))
        ~spatial_scope:Coordinated.Perm_binding.Performed
        (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    ]
  in
  let fresh ~mode ~bindings =
    let control =
      Coordinated.System.create ~mode ~bindings ~log_capacity:64 (policy ())
    in
    let session = Coordinated.System.new_session control ~user:"u" in
    Rbac.Session.activate session "r";
    Coordinated.System.join_team control ~object_id:"o0" ~team:"t0";
    Coordinated.System.arrive control ~object_id:"o0" ~server:"s1"
      ~time:Q.zero;
    let t = ref 0 in
    fun () ->
      incr t;
      Coordinated.System.check control ~session ~object_id:"o0" ~program
        ~time:(Q.of_int !t) access
  in
  let per_check ns = ns /. float_of_int checks in
  let row name per_mode =
    match List.map per_mode modes with
    | [ naive; lzy ] ->
        Printf.printf "  %-22s %9.0f ns %9.0f ns %10.2fx\n%!" name naive lzy
          (naive /. lzy)
    | _ -> assert false
  in
  Printf.printf "  %-22s %12s %12s %10s   (%d checks/row)\n%!" "" "naive"
    "lazy" "naive/lazy" checks;
  row "warm hit" (fun mode ->
        let check = fresh ~mode ~bindings:hit_bindings in
        for _ = 1 to 64 do
          ignore (check ())
        done;
        let _, ns =
          time (fun () ->
              for _ = 1 to checks do
                ignore (check ())
              done)
        in
        per_check ns);
  row "warm miss (history)" (fun mode ->
        let check = fresh ~mode ~bindings:miss_bindings in
        ignore (check ());
        let _, ns =
          time (fun () ->
              for _ = 1 to checks do
                ignore (check ())
              done)
        in
        per_check ns);
  let cold_rounds = min checks 400 in
  row "cold (first decision)" (fun mode ->
        (* warm the allocator/caches shared across rounds *)
        ignore (fresh ~mode ~bindings:hit_bindings ());
        let _, ns =
          time (fun () ->
              for _ = 1 to cold_rounds do
                ignore (fresh ~mode ~bindings:hit_bindings ())
              done)
        in
        ns /. float_of_int cold_rounds);
  (* 3. allocation gates: the direct steady-state path, no bus — two
     warm calls settle the residual arena, then the burst must stay out
     of the minor heap *)
  let session = Rbac.Session.create (policy ()) ~user:"u" in
  Rbac.Session.activate session "r";
  let burst = 100_000 in
  let gate name per_decision =
    Printf.printf "  allocation (%s): %.4f minor words/decision over %d calls\n%!"
      name per_decision burst;
    if per_decision > 1.0 then begin
      Printf.printf "  allocation gate FAILED (budget: 1.0 words/decision)\n%!";
      exit 1
    end
  in
  let decider bindings =
    let monitor = Coordinated.Monitor.create ~object_id:"o0" () in
    Coordinated.Monitor.record_arrival monitor ~server:"s1" ~time:Q.zero;
    let applicable = List.mapi (fun id b -> (id, b)) bindings in
    let decide access =
      Coordinated.Decision.decide_lazy ~session ~monitor ~applicable
        ~program ~time:Q.one
        ~access_id:(Sral.Access.Ids.intern (Coordinated.Monitor.ids monitor) access)
        access
    in
    ignore (decide access);
    ignore (decide access);
    (monitor, decide)
  in
  (* (a) Program scope, nothing recorded *)
  let _, decide = decider hit_bindings in
  let w0 = Gc.minor_words () in
  for _ = 1 to burst do
    ignore (decide access)
  done;
  gate "program scope" ((Gc.minor_words () -. w0) /. float_of_int burst);
  (* (b) Performed scope over a history that grows by one proof per
     decision, alternately selected (folded into the residual) and
     inert (skipped); the probed access is inert too.  Recording
     allocates the proof, so only the decision is metered. *)
  let monitor, decide = decider miss_bindings in
  let cfg = Sral.Access.read "cfg" ~at:"s1" in
  (* one proof of each kind first, so the burst starts warm *)
  List.iter
    (fun a ->
      Coordinated.Monitor.record_access monitor a ~time:Q.one;
      ignore (decide cfg))
    [ access; cfg ];
  let calib =
    let w = Gc.minor_words () in
    Gc.minor_words () -. w
  in
  let words = Float.Array.make 1 0. in
  for i = 1 to burst do
    Coordinated.Monitor.record_access monitor
      (if i land 1 = 0 then access else cfg)
      ~time:Q.one;
    let w = Gc.minor_words () in
    ignore (decide cfg);
    Float.Array.set words 0
      (Float.Array.get words 0 +. (Gc.minor_words () -. w -. calib))
  done;
  gate "growing history" (Float.Array.get words 0 /. float_of_int burst)

(* ------------------------------------------------------------------ *)
(* Runner                                                               *)

let all_groups =
  [
    ("E2", e2_tests);
    ("E3", e3_tests);
    ("E4", e4_tests);
    ("E5", e5_tests);
    ("E6", e6_tests);
    ("E7", e7_tests);
    ("E8", e8_tests);
    ("E9", e9_tests);
    ("E11", e11_tests);
    ("E13", e13_tests);
    ("E16", e16_tests);
    ("E1", scenario_tests);
  ]

let run_group test =
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (n1, _) (n2, _) -> String.compare n1 n2) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      let pretty =
        if Float.is_nan estimate then "n/a"
        else if estimate > 1e9 then Printf.sprintf "%8.3f  s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%8.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%8.3f us" (estimate /. 1e3)
        else Printf.sprintf "%8.1f ns" estimate
      in
      Printf.printf "  %-50s %s/run\n%!" name pretty)
    rows

let () =
  let selected =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ ->
        List.map fst all_groups
        @ [ "E14"; "E15"; "E17"; "E18"; "E19"; "E20"; "E21"; "E22" ]
  in
  List.iter
    (fun id ->
      if id = "E14" then begin
        Printf.printf "== E14 ==\n%!";
        e14_report ()
      end
      else if id = "E15" then begin
        Printf.printf "== E15 ==\n%!";
        e15_report ()
      end
      else if id = "E17" then begin
        Printf.printf "== E17 ==\n%!";
        e17_report ()
      end
      else if id = "E18" then begin
        Printf.printf "== E18 ==\n%!";
        e18_report ()
      end
      else if id = "E19" then begin
        Printf.printf "== E19 ==\n%!";
        e19_report ()
      end
      else if id = "E20" then begin
        Printf.printf "== E20 ==\n%!";
        e20_report ()
      end
      else if id = "E21" then begin
        Printf.printf "== E21 ==\n%!";
        e21_report ()
      end
      else if id = "E22" then begin
        Printf.printf "== E22 ==\n%!";
        e22_report ()
      end
      else
        match List.assoc_opt id all_groups with
        | Some test ->
            Printf.printf "== %s ==\n%!" id;
            run_group test
        | None ->
            Printf.printf
              "unknown experiment id %S (known: %s, E14, E15, E17, E18, E19, \
               E20, E21, E22)\n"
              id
              (String.concat ", " (List.map fst all_groups)))
    selected
