(* stacc — the command-line face of the coordinated spatio-temporal
   access-control library.

     stacc parse   <file|->            parse & pretty-print an SRAL program
     stacc traces  <file|-> [-b N]     enumerate (bounded) traces
     stacc check   <file|-> -c CONSTR  decide P |= C (Theorem 3.2)
     stacc audit                       run the Figure 1 integrity audit
     stacc trace [-o FILE] [--stats]   audit + export the JSONL trace
     stacc chaos [--plan P] [--seed N] audit under a deterministic fault plan
     stacc lint    <file|-> [--strict] syntactic & per-binding policy checks
     stacc analyze <file|-> [--strict] semantic whole-policy analysis
     stacc simulate -p POLICY -a PROG  run one agent under a policy file
     stacc serve --socket S | --port P always-on decision service
     stacc load [--rate R]...          drive the service, report latency

   Exit codes, uniformly across subcommands: 0 success; 1 the requested
   analysis or run failed (parse errors in input content, a constraint
   that does not hold, violated invariants, divergence, findings under
   --strict); 2 usage errors (unknown subcommands or flags, malformed
   option values, unreadable input files). *)

open Cmdliner
module World = Analysis.World

let read_input = function
  | "-" ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf stdin 1
         done
       with End_of_file -> ());
      Buffer.contents buf
  | path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

(* Usage errors exit 2 (cmdliner's own convention for flag errors);
   analysis failures exit 1.  An unreadable input file is a usage
   error — the argument was wrong — while unparsable content is an
   analysis failure. *)
let exit_usage = 2

let program_of_input input =
  match Sral.Parser.program (read_input input) with
  | p -> Ok p
  | exception Sral.Parser.Parse_error msg -> Error (1, msg)
  | exception Sys_error msg -> Error (exit_usage, msg)

let input_arg =
  let doc = "SRAL program file ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let q_conv =
  let parse s =
    match Temporal.Q.of_string s with
    | q -> Ok q
    | exception _ ->
        Error
          (`Msg (Printf.sprintf "invalid rational %S (expected e.g. 15 or 15/2)" s))
  in
  Arg.conv (parse, Temporal.Q.pp)

let mode_conv =
  Arg.enum
    [
      ("lazy", Coordinated.System.Lazy);
      ("naive", Coordinated.System.Naive);
    ]

let mode_arg =
  let doc =
    "Decision mode: $(b,lazy) (the production path) or $(b,naive) (the \
     reference oracle)."
  in
  Arg.(
    value
    & opt mode_conv Coordinated.System.Lazy
    & info [ "mode" ] ~docv:"lazy|naive" ~doc)

let exit_status_man lines = `S Manpage.s_exit_status :: List.map (fun p -> `P p) lines

(* --- parse --- *)

let parse_cmd =
  let run input =
    match program_of_input input with
    | Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok p ->
        Format.printf "%a@." Sral.Pretty.pp p;
        Format.printf "# size: %d nodes, %d access occurrences@."
          (Sral.Program.size p) (Sral.Program.access_count p);
        Format.printf "# servers: %s@."
          (String.concat ", " (Sral.Program.servers p));
        Format.printf "# resources: %s@."
          (String.concat ", " (Sral.Program.resources p));
        0
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and pretty-print an SRAL program.")
    Term.(const run $ input_arg)

(* --- traces --- *)

let traces_cmd =
  let bound_arg =
    let doc = "Loop unrolling bound." in
    Arg.(value & opt int 2 & info [ "b"; "bound" ] ~docv:"N" ~doc)
  in
  let limit_arg =
    let doc = "Print at most this many traces." in
    Arg.(value & opt int 50 & info [ "l"; "limit" ] ~docv:"N" ~doc)
  in
  let run input bound limit =
    match program_of_input input with
    | Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok p ->
        let traces =
          Sral.Trace_ops.to_list (Sral.Trace_ops.traces_bounded ~loop_bound:bound p)
        in
        Format.printf "# %d trace(s) with loops unrolled %d time(s)@."
          (List.length traces) bound;
        List.iteri
          (fun i t -> if i < limit then Format.printf "%a@." Sral.Trace.pp t)
          traces;
        if List.length traces > limit then
          Format.printf "... (%d more)@." (List.length traces - limit);
        0
  in
  Cmd.v
    (Cmd.info "traces" ~doc:"Enumerate the (bounded) trace model.")
    Term.(const run $ input_arg $ bound_arg $ limit_arg)

(* --- check --- *)

let check_cmd =
  let constraint_arg =
    let doc = "SRAC constraint, e.g. 'seq(read a @ s1, write b @ s2)'." in
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "constraint" ] ~docv:"CONSTRAINT" ~doc)
  in
  let forall_arg =
    let doc = "Require every trace to satisfy the constraint (default: some)." in
    Arg.(value & flag & info [ "forall" ] ~doc)
  in
  let run input constraint_src forall =
    match program_of_input input with
    | Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok p -> (
        match Srac.Formula.of_string constraint_src with
        | exception Invalid_argument msg ->
            Format.eprintf "constraint error: %s@." msg;
            1
        | c ->
            let modality =
              if forall then Srac.Program_sat.Forall else Srac.Program_sat.Exists
            in
            let outcome = Srac.Program_sat.check ~modality p c in
            Format.printf "%s: %b@."
              (if forall then "every trace satisfies" else "some trace satisfies")
              outcome.Srac.Program_sat.holds;
            (match outcome.Srac.Program_sat.witness with
            | Some t ->
                Format.printf "%s: %a@."
                  (if outcome.Srac.Program_sat.holds then "witness"
                   else "counterexample")
                  Sral.Trace.pp t
            | None -> ());
            if outcome.Srac.Program_sat.holds then 0 else 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Decide whether the program satisfies an SRAC constraint."
       ~man:
         (exit_status_man
            [
              "0 when the constraint holds; 1 when it does not, or the \
               program or constraint fails to parse; 2 on usage errors.";
            ]))
    Term.(const run $ input_arg $ constraint_arg $ forall_arg)

(* --- audit --- *)

let audit_cmd =
  let deadline_arg =
    let doc = "Verification deadline in time units (rational, e.g. 15 or 15/2)." in
    Arg.(value & opt (some q_conv) None & info [ "deadline" ] ~docv:"D" ~doc)
  in
  let tampered_arg =
    let doc = "Hash the modules out of dependency order (must be denied)." in
    Arg.(value & flag & info [ "out-of-order" ] ~doc)
  in
  let run deadline out_of_order =
    let report =
      Scenarios.Integrity_audit.run ?deadline ~respect_order:(not out_of_order)
        ()
    in
    Format.printf "granted: %d, denied: %d@."
      report.Scenarios.Integrity_audit.granted
      report.Scenarios.Integrity_audit.denied;
    Format.printf "all modules verified: %b@."
      report.Scenarios.Integrity_audit.all_verified;
    Format.printf "deadline expired during audit: %b@."
      report.Scenarios.Integrity_audit.deadline_hit;
    List.iter
      (fun (m, h) -> Format.printf "  %s  %s@." m h)
      report.Scenarios.Integrity_audit.hashes;
    if report.Scenarios.Integrity_audit.all_verified then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the Section 6 / Figure 1 integrity audit scenario."
       ~man:
         (exit_status_man
            [
              "0 when every module verifies; 1 when any module is left \
               unverified; 2 on usage errors.";
            ]))
    Term.(const run $ deadline_arg $ tampered_arg)

(* --- trace --- *)

let trace_cmd =
  let deadline_arg =
    let doc = "Verification deadline in time units (rational, e.g. 15 or 15/2)." in
    Arg.(value & opt (some q_conv) None & info [ "deadline" ] ~docv:"D" ~doc)
  in
  let tampered_arg =
    let doc = "Hash the modules out of dependency order (must be denied)." in
    Arg.(value & flag & info [ "out-of-order" ] ~doc)
  in
  let out_arg =
    let doc = "Write the JSONL trace to this file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Replay the trace through Obs.Stats and print per-stage counters to stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run deadline out_of_order out stats =
    let report =
      Scenarios.Integrity_audit.run ?deadline ~respect_order:(not out_of_order)
        ()
    in
    let trace = report.Scenarios.Integrity_audit.trace in
    (match out with
    | "-" ->
        List.iter
          (fun ev ->
            print_string (Obs.Export.to_line ev);
            print_newline ())
          trace
    | path ->
        let oc = open_out path in
        Obs.Export.to_channel oc trace;
        close_out oc);
    Format.eprintf "%d event(s) traced@." (List.length trace);
    if stats then begin
      let s = Obs.Stats.create () in
      List.iter (Obs.Sink.handle (Obs.Stats.sink s)) trace;
      Format.eprintf "%a@." Obs.Stats.pp s
    end;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the Figure 1 integrity audit and export its end-to-end \
          observability trace as JSONL (lifecycle events, per-stage decision \
          spans, cache probes, verdicts).")
    Term.(const run $ deadline_arg $ tampered_arg $ out_arg $ stats_arg)

(* --- chaos --- *)

let chaos_cmd =
  let plan_arg =
    let doc =
      "Fault plan intensity: one of none, light, moderate or heavy."
    in
    let plan_conv =
      let parse s =
        if List.mem s Fault.Plan.intensity_names then Ok s
        else
          Error
            (`Msg
               (Printf.sprintf "unknown plan %S (%s)" s
                  (String.concat "|" Fault.Plan.intensity_names)))
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(value & opt plan_conv "moderate" & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let seed_arg =
    let doc = "Fault-plan seed (same plan + seed replays bit-identically)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let couriers_arg =
    let doc = "Number of courier agents with reroutable itineraries." in
    Arg.(value & opt int 4 & info [ "couriers" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Write the JSONL trace to this file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print the fault plan and world metrics to stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run plan_name seed mode couriers out stats =
    let report = Scenarios.Chaos.run ~mode ~plan_name ~seed ~couriers () in
    (match out with
    | "-" -> print_string (Scenarios.Chaos.export report)
    | path ->
        let oc = open_out path in
        output_string oc (Scenarios.Chaos.export report);
        close_out oc);
    Format.eprintf "%d event(s) traced@."
      (List.length report.Scenarios.Chaos.trace);
    if stats then begin
      Format.eprintf "%a@." Fault.Plan.pp report.Scenarios.Chaos.plan;
      Format.eprintf "%a@." Naplet.Metrics.pp
        report.Scenarios.Chaos.metrics;
      List.iter
        (fun (id, route) ->
          Format.eprintf "%s: %s@." id (String.concat " -> " route))
        report.Scenarios.Chaos.routes
    end;
    match report.Scenarios.Chaos.violations with
    | [] -> 0
    | vs ->
        List.iter
          (fun v ->
            Format.eprintf "violation: %a@." Fault.Invariant.pp_violation v)
          vs;
        1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the Figure 1 coalition under a deterministic fault plan \
          (server crashes, channel faults, signal loss) and export the \
          trace; exits non-zero if a fail-closed or retry invariant is \
          violated."
       ~man:
         (exit_status_man
            [
              "0 when every fail-closed and retry invariant holds; 1 on \
               any violation; 2 on usage errors.";
            ]))
    Term.(
      const run $ plan_arg $ seed_arg $ mode_arg $ couriers_arg $ out_arg
      $ stats_arg)

(* --- workflow --- *)

let workflow_cmd =
  let module W = Scenarios.Workflow_family in
  let module Sat = Scenarios.Workflow_sat in
  let count_arg =
    let doc = "Number of generated workflows per selected family." in
    Arg.(value & opt int 50 & info [ "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Generator seed (same seed replays bit-identically)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let family_arg =
    let doc =
      "Workflow family: satisfiable, unsatisfiable, adversarial or all."
    in
    Arg.(value & opt string "all" & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let out_arg =
    let doc = "Write the JSONL report to this file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print sat/unsat/agreement counts to stderr." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run count seed family out stats =
    let families =
      match family with
      | "all" -> Ok [ W.Satisfiable; W.Unsatisfiable; W.Adversarial ]
      | f -> (
          match W.family_of_name f with
          | Some fam -> Ok [ fam ]
          | None ->
              Error
                (Printf.sprintf
                   "unknown family %S (satisfiable|unsatisfiable|adversarial|all)"
                   f))
    in
    match families with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit_usage
    | Ok families ->
        let buf = Buffer.create 4096 in
        let sat = ref 0 and unsat = ref 0 and divergent = ref 0 in
        let failed_replay = ref 0 and index = ref 0 in
        List.iter
          (fun fam ->
            let salt =
              match fam with
              | W.Satisfiable -> 9001
              | W.Unsatisfiable -> 9002
              | W.Adversarial -> 9003
            in
            Array.iter
              (fun wf ->
                Buffer.add_string buf
                  (Sat.report_line ~index:!index ~family:fam wf);
                Buffer.add_char buf '\n';
                incr index;
                (match Sat.against_brute_force wf with
                | Sat.Agree_sat w ->
                    incr sat;
                    if not (W.run wf w).W.completed then incr failed_replay
                | Sat.Agree_unsat _ -> incr unsat
                | Sat.Divergent d ->
                    incr divergent;
                    Format.eprintf "divergence at workflow %d: %s@."
                      (!index - 1) d))
              (W.workflows fam ~salt ~count seed))
          families;
        (match out with
        | "-" -> print_string (Buffer.contents buf)
        | path ->
            let oc = open_out path in
            output_string oc (Buffer.contents buf);
            close_out oc);
        if stats then
          Format.eprintf
            "%d workflow(s): %d sat, %d unsat, %d divergent, %d witness \
             replay failure(s)@."
            !index !sat !unsat !divergent !failed_replay;
        if !divergent > 0 || !failed_replay > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "workflow"
       ~doc:
         "Generate seeded temporal-workflow scenarios (task DAGs with \
          per-task permissions, validity windows and separation/binding \
          duties over mobile objects), decide each with the satisfiability \
          checker, differentially validate against the brute-force \
          assignment enumerator and emit one deterministic JSONL line per \
          workflow; exits non-zero on any divergence or witness replay \
          failure."
       ~man:
         (exit_status_man
            [
              "0 when checker and brute force agree everywhere; 1 on any \
               divergence or witness replay failure; 2 on usage errors \
               (including an unknown $(b,--family)).";
            ]))
    Term.(const run $ count_arg $ seed_arg $ family_arg $ out_arg $ stats_arg)

(* --- bench-parallel --- *)

let bench_parallel_cmd =
  let coalitions_arg =
    let doc = "Number of generated coalitions in the workload." in
    Arg.(value & opt int 64 & info [ "coalitions" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc = "Shard count to measure (repeatable; default 1 2 4 8)." in
    Arg.(value & opt_all int [] & info [ "shards" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Workload seed (same seed, same coalitions)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let events_arg =
    let doc = "Events per coalition (before the initial arrivals)." in
    Arg.(value & opt int 40 & info [ "events" ] ~docv:"N" ~doc)
  in
  let faults_arg =
    let doc = "Attach random fault plans to the coalitions." in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Run the differential conformance harness (coalition- and \
       object-sharded vs sequential) at each shard count; exit 1 on any \
       divergence."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let big_arg =
    let doc =
      "Instead of many small coalitions, benchmark object-level sharding \
       on ONE big coalition of $(docv) mobile objects in team-closed \
       blocks (Workload.big_coalition); the shard sweep then measures \
       object_sharded against the sequential interpreter."
    in
    Arg.(value & opt int 0 & info [ "big" ] ~docv:"OBJECTS" ~doc)
  in
  let run coalitions big shards seed events faults verify mode =
    match mode with
    | mode when big > 0 ->
        let shards = if shards = [] then [ 1; 2; 4; 8 ] else shards in
        let rng = Random.State.make [| 1717; seed |] in
        let sc = Parallel.Workload.big_coalition ~objects:big rng in
        let checks = Parallel.Scenario.checks sc in
        Printf.printf "backend: %s, recommended shards: %d\n"
          (if Parallel.Backend.domains then "ocaml5-domains" else "single-4.14")
          (Parallel.Backend.recommended ());
        Printf.printf
          "workload: 1 big coalition, %d objects in team-closed blocks, %d \
           checks, seed %d\n%!"
          big checks seed;
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let expected, seq_s = time (fun () -> Parallel.Scenario.run ~mode sc) in
        let row name shards s =
          Printf.printf "%-12s %7s %9.2f ms %12.0f req/s %7.2fx\n%!" name
            shards (s *. 1e3)
            (float_of_int checks /. s)
            (seq_s /. s)
        in
        row "sequential" "-" seq_s;
        List.fold_left
          (fun rc n ->
            let actual, s =
              time (fun () -> Parallel.Engine.object_sharded ~mode ~shards:n sc)
            in
            row "obj-sharded" (string_of_int n) s;
            if not verify then rc
            else
              match Parallel.Engine.diff ~expected ~actual with
              | None ->
                  Printf.printf
                    "  conformance @ %d shard(s): observationally identical\n%!"
                    n;
                  rc
              | Some d ->
                  Printf.printf "  divergence @ %d shard(s): %s\n%!" n d;
                  1)
          0 shards
    | mode ->
        let shards = if shards = [] then [ 1; 2; 4; 8 ] else shards in
        let scenarios =
          Parallel.Workload.coalitions ~events ~faults ~salt:1717
            ~count:coalitions seed
        in
        let checks =
          Array.fold_left
            (fun acc sc -> acc + Parallel.Scenario.checks sc)
            0 scenarios
        in
        Printf.printf "backend: %s, recommended shards: %d\n"
          (if Parallel.Backend.domains then "ocaml5-domains" else "single-4.14")
          (Parallel.Backend.recommended ());
        Printf.printf "workload: %d coalitions, %d checks, seed %d\n%!"
          coalitions checks seed;
        ignore
          (Parallel.Engine.sequential ~mode
             (Array.sub scenarios 0 (min 8 coalitions)));
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let _, seq_s = time (fun () -> Parallel.Engine.sequential ~mode scenarios) in
        let row name shards s =
          Printf.printf "%-12s %7s %9.2f ms %12.0f req/s %7.2fx\n%!" name
            shards (s *. 1e3)
            (float_of_int checks /. s)
            (seq_s /. s)
        in
        row "sequential" "-" seq_s;
        List.iter
          (fun n ->
            let _, s =
              time (fun () -> Parallel.Engine.sharded ~mode ~shards:n scenarios)
            in
            row "sharded" (string_of_int n) s)
          shards;
        if not verify then 0
        else
          List.fold_left
            (fun rc n ->
              let report = Parallel.Engine.verify ~mode ~shards:n scenarios in
              Format.printf "%a@." Parallel.Engine.pp_report report;
              if report.Parallel.Engine.divergences = [] then rc else 1)
            0 shards
  in
  Cmd.v
    (Cmd.info "bench-parallel"
       ~doc:
         "Measure the sharded decision engine on a generated coalition \
          workload: requests per second at each shard count vs the \
          sequential interpreter, with an optional differential conformance \
          gate ($(b,--verify)) that exits non-zero if any sharded run is not \
          observationally identical to the sequential one."
       ~man:
         (exit_status_man
            [
              "0 on success; 1 when, under $(b,--verify), a sharded run \
               diverges from the sequential oracle; 2 on usage errors.";
            ]))
    Term.(
      const run $ coalitions_arg $ big_arg $ shards_arg $ seed_arg
      $ events_arg $ faults_arg $ verify_arg $ mode_arg)

(* --- dot --- *)

let dot_cmd =
  let minimize_arg =
    let doc = "Minimize the DFA before rendering." in
    Arg.(value & flag & info [ "minimize" ] ~doc)
  in
  let run input minimize =
    match program_of_input input with
    | Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok p ->
        let table = Automata.Symbol.of_accesses (Sral.Program.accesses p) in
        let nfa = Automata.Of_program.nfa ~table p in
        let dfa =
          Automata.Dfa.of_nfa ~alphabet:(Automata.Symbol.alphabet table) nfa
        in
        let dfa = if minimize then Automata.Dfa.minimize dfa else dfa in
        print_string (Automata.Dot.dfa ~name:"trace_model" ~table dfa);
        0
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Render the program's trace-model DFA as GraphViz.")
    Term.(const run $ input_arg $ minimize_arg)

(* --- policy --- *)

let policy_cmd =
  let aggregate_arg =
    let doc = "Also print the aggregated (merged) bindings." in
    Cmdliner.Arg.(value & flag & info [ "aggregate" ] ~doc)
  in
  let run input aggregate =
    match Coordinated.Policy_lang.parse (read_input input) with
    | exception Coordinated.Policy_lang.Error (line, msg) ->
        Format.eprintf "%s:%d: %s@." input line msg;
        1
    | exception Sys_error msg ->
        Format.eprintf "error: %s@." msg;
        exit_usage
    | parsed ->
        Format.printf "# parsed OK: %d user(s), %d role(s), %d binding(s)@."
          (List.length (Rbac.Policy.users parsed.Coordinated.Policy_lang.policy))
          (List.length (Rbac.Policy.roles parsed.Coordinated.Policy_lang.policy))
          (List.length parsed.Coordinated.Policy_lang.bindings);
        print_string (Coordinated.Policy_lang.render parsed);
        if aggregate then begin
          let merged =
            Coordinated.Aggregate.aggregate
              parsed.Coordinated.Policy_lang.bindings
          in
          Format.printf "@.# after aggregation: %d binding(s)@."
            (List.length merged);
          List.iter
            (fun b -> Format.printf "# %a@." Coordinated.Perm_binding.pp b)
            merged
        end;
        0
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:"Parse, validate and re-render a policy file; optionally show              the aggregated bindings.")
    Term.(const run $ input_arg $ aggregate_arg)

(* --- lint --- *)

let strict_arg =
  let doc =
    "Exit with status 1 when any finding is reported (default: findings are \
     informational and the exit status is 0)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_cmd =
  let run input strict =
    match Coordinated.Policy_lang.parse (read_input input) with
    | exception Coordinated.Policy_lang.Error (line, msg) ->
        Format.eprintf "%s:%d: %s@." input line msg;
        1
    | exception Sys_error msg ->
        Format.eprintf "error: %s@." msg;
        exit_usage
    | parsed -> (
        match Coordinated.Lint.check parsed with
        | [] ->
            Format.printf "no findings.@.";
            0
        | findings ->
            List.iter
              (fun f -> Format.printf "%a@." Coordinated.Lint.pp_finding f)
              findings;
            if strict then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a policy file for dead or unsatisfiable rules. \
          Reports findings on stdout; exits 0 unless $(b,--strict) is given, \
          in which case any finding exits 1 (parse errors always exit 1)."
       ~man:
         (exit_status_man
            [
              "0 on success (including reported findings without \
               $(b,--strict)); 1 on parse errors, or on findings under \
               $(b,--strict); 2 on usage errors.";
            ]))
    Term.(const run $ input_arg $ strict_arg)

(* --- analyze --- *)

let analyze_cmd =
  let link_arg =
    let doc =
      "Allowed migration link SRC:DST (repeatable). Default: complete \
       topology over the policy's servers."
    in
    Arg.(value & opt_all string [] & info [ "link" ] ~docv:"SRC:DST" ~doc)
  in
  let entry_arg =
    let doc = "Entry server (repeatable). Default: every server." in
    Arg.(value & opt_all string [] & info [ "entry" ] ~docv:"SERVER" ~doc)
  in
  let step_arg =
    let doc = "Time units per action (rational, e.g. 1 or 3/2)." in
    Arg.(value & opt q_conv Temporal.Q.one & info [ "step" ] ~docv:"Q" ~doc)
  in
  let json_arg =
    let doc = "Write the report as JSONL to this file ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let witness_arg =
    let doc =
      "Print, for each exercisable binding, a shortest performable walk \
       that exercises it (a replayable certificate)."
    in
    Arg.(value & flag & info [ "witness" ] ~doc)
  in
  let query_arg =
    let doc =
      "Safety query 'USER OPERATION:RESOURCE@SERVER' (repeatable): can the \
       user ever be granted the permission at the server?  Answered with a \
       replayed witness walk or a proof of impossibility."
    in
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"QUERY" ~doc)
  in
  let admin_query_arg =
    let doc =
      "Administrative safety query 'USER OPERATION:RESOURCE@SERVER' \
       (repeatable): can the user ever acquire the permission at the server \
       under some sequence of administrative ops drawn from the \
       $(b,--admin-ops) pool?  A leak is reported with the admin-op \
       sequence and a replayed witness walk; safety with the explored \
       frontier."
    in
    Arg.(value & opt_all string [] & info [ "admin-query" ] ~docv:"QUERY" ~doc)
  in
  let admin_ops_arg =
    let doc =
      "Admin-op schedule file for $(b,--admin-query): directives \
       $(b,budget N), $(b,team NAME), $(b,joined BOOL), then one op per \
       line (assign/deassign USER ROLE, grant/revoke ROLE PERM, ssd/dsd \
       NAME ROLES... max K, bind PERM CLAUSES..., join, leave)."
    in
    Arg.(
      value & opt (some string) None & info [ "admin-ops" ] ~docv:"FILE" ~doc)
  in
  let admin_budget_arg =
    let doc = "Override the schedule's admin-op budget." in
    Arg.(
      value & opt (some int) None & info [ "admin-budget" ] ~docv:"N" ~doc)
  in
  let admin_states_arg =
    let doc = "State bound for the admin reachability engine." in
    Arg.(value & opt int 200_000 & info [ "admin-states" ] ~docv:"N" ~doc)
  in
  let parse_link s =
    match String.index_opt s ':' with
    | Some i ->
        Ok
          ( String.sub s 0 i,
            String.sub s (i + 1) (String.length s - i - 1) )
    | None -> Error (Printf.sprintf "link %S: expected SRC:DST" s)
  in
  let parse_query s =
    match String.index_opt s ' ' with
    | None -> Error (Printf.sprintf "query %S: expected 'USER OP:RES@SRV'" s)
    | Some i -> (
        let user = String.sub s 0 i in
        let rest =
          String.trim (String.sub s (i + 1) (String.length s - i - 1))
        in
        match Rbac.Perm.of_string rest with
        | exception Invalid_argument msg -> Error msg
        | perm -> (
            match Rbac.Perm.split_target perm.Rbac.Perm.target with
            | _, Some server when server <> "*" -> Ok (user, perm, server)
            | _ ->
                Error
                  (Printf.sprintf "query %S: target needs a concrete @server"
                     s)))
  in
  let run input links entries step json witness strict queries admin_queries
      admin_ops admin_budget admin_states =
    match Coordinated.Policy_lang.parse (read_input input) with
    | exception Coordinated.Policy_lang.Error (line, msg) ->
        Format.eprintf "%s:%d: %s@." input line msg;
        1
    | exception Sys_error msg ->
        Format.eprintf "error: %s@." msg;
        exit_usage
    | parsed -> (
        let links_parsed =
          List.fold_left
            (fun acc s ->
              match (acc, parse_link s) with
              | Error _, _ -> acc
              | _, Error msg -> Error msg
              | Ok ls, Ok l -> Ok (l :: ls))
            (Ok []) links
        in
        match links_parsed with
        | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit_usage
        | Ok links -> (
            let links = if links = [] then None else Some (List.rev links) in
            let entries = if entries = [] then None else Some entries in
            match
              World.of_policy ?links ?entries ~step parsed
            with
            | exception Invalid_argument msg ->
                Format.eprintf "error: %s@." msg;
                exit_usage
            | world -> (
                let report = Analysis.Analyzer.analyze ~world parsed in
                let quiet = json = Some "-" in
                if not quiet then (
                  Format.printf "%a@." World.pp world;
                  Format.printf "%a@." Analysis.Report.pp report);
                let admin_failures = ref 0 in
                let admin_results =
                  match admin_queries with
                  | [] -> []
                  | _ -> (
                      match admin_ops with
                      | None ->
                          incr admin_failures;
                          Format.eprintf
                            "error: --admin-query requires --admin-ops@.";
                          []
                      | Some path -> (
                          match
                            Analysis.Admin.parse_schedule (read_input path)
                          with
                          | exception
                              (Invalid_argument msg | Sys_error msg) ->
                              incr admin_failures;
                              Format.eprintf "error: %s@." msg;
                              []
                          | schedule ->
                              let schedule =
                                match admin_budget with
                                | None -> schedule
                                | Some budget ->
                                    { schedule with Analysis.Admin.budget }
                              in
                              List.filter_map
                                (fun q ->
                                  match parse_query q with
                                  | Error msg ->
                                      incr admin_failures;
                                      Format.eprintf "error: %s@." msg;
                                      None
                                  | Ok (user, perm, server) -> (
                                      match
                                        Analysis.Admin.make ~base:parsed
                                          ~world ~schedule ~user ~perm
                                          ~server
                                      with
                                      | exception Invalid_argument msg ->
                                          incr admin_failures;
                                          Format.eprintf "error: %s@." msg;
                                          None
                                      | inst ->
                                          Some
                                            ( user,
                                              perm,
                                              server,
                                              Analysis.Admin.check
                                                ~max_states:admin_states
                                                inst )))
                                admin_queries))
                in
                let jsonl () =
                  Analysis.Report.to_jsonl report
                  ^ String.concat ""
                      (List.map
                         (fun (user, perm, server, outcome) ->
                           Analysis.Report.admin_to_json ~user ~perm ~server
                             outcome
                           ^ "\n")
                         admin_results)
                in
                (match json with
                | None -> ()
                | Some "-" -> print_string (jsonl ())
                | Some path ->
                    let oc = open_out path in
                    output_string oc (jsonl ());
                    close_out oc);
                if witness && not quiet then
                  List.iter
                    (fun (i, key, walk) ->
                      Format.printf "witness: binding #%d (%s): %a@." i key
                        Sral.Trace.pp walk)
                    (Analysis.Analyzer.witnesses ~world parsed);
                let query_failures = ref 0 in
                List.iter
                  (fun q ->
                    match parse_query q with
                    | Error msg ->
                        incr query_failures;
                        Format.eprintf "error: %s@." msg
                    | Ok (user, perm, server) ->
                        let verdict =
                          Analysis.Safety.can_acquire ~world ~policy:parsed
                            ~user ~perm ~server
                        in
                        if not quiet then
                          Format.printf "query %s %a -> %a@." user
                            Rbac.Perm.pp perm Analysis.Safety.pp_verdict
                            verdict)
                  queries;
                if not quiet then
                  List.iter
                    (fun (user, perm, server, outcome) ->
                      Format.printf "admin-query %s %a @@ %s -> %a@." user
                        Rbac.Perm.pp perm server Analysis.Admin.pp_outcome
                        outcome)
                    admin_results;
                let leak =
                  List.exists
                    (fun (_, _, _, o) ->
                      match o.Analysis.Admin.verdict with
                      | Analysis.Admin.Leak _ -> true
                      | _ -> false)
                    admin_results
                in
                if !query_failures > 0 || !admin_failures > 0 then exit_usage
                else if
                  strict
                  && (report.Analysis.Analyzer.findings <> [] || leak)
                then 1
                else 0)))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Semantically analyse a policy file against its deployment world: \
          DFA-backed satisfiability, vacuity, shadowing, unexercisable \
          bindings, empty temporal overlap, and safety queries with \
          replayable witnesses. All findings are sound for the world's \
          execution model (agents enter at t=0, one action per step, roles \
          held throughout); exits 0 unless $(b,--strict) is given."
       ~man:
         (exit_status_man
            [
              "0 on success (including reported findings without \
               $(b,--strict)); 1 on parse errors, or on findings or \
               $(b,--admin-query) leaks under $(b,--strict); 2 on usage \
               errors (including malformed $(b,--link), $(b,--step), \
               $(b,--query) or $(b,--admin-query) values, and a malformed \
               or missing $(b,--admin-ops) schedule).";
            ]))
    Term.(
      const run $ input_arg $ link_arg $ entry_arg $ step_arg $ json_arg
      $ witness_arg $ strict_arg $ query_arg $ admin_query_arg
      $ admin_ops_arg $ admin_budget_arg $ admin_states_arg)

(* --- simulate --- *)

let simulate_cmd =
  let policy_arg =
    let doc = "Policy file (see Policy_lang for the syntax)." in
    Arg.(required & opt (some string) None & info [ "p"; "policy" ] ~docv:"FILE" ~doc)
  in
  let agent_arg =
    let doc = "SRAL program file for the agent ('-' for stdin)." in
    Arg.(required & opt (some string) None & info [ "a"; "agent" ] ~docv:"FILE" ~doc)
  in
  let owner_arg =
    let doc = "Owner (user) of the agent." in
    Arg.(required & opt (some string) None & info [ "owner" ] ~docv:"USER" ~doc)
  in
  let roles_arg =
    let doc = "Roles to activate (repeatable)." in
    Arg.(value & opt_all string [] & info [ "r"; "role" ] ~docv:"ROLE" ~doc)
  in
  let run policy_file agent_file owner roles =
    match
      ( (try Ok (Coordinated.System.of_policy_text (read_input policy_file))
         with
        | Coordinated.Policy_lang.Error (line, msg) ->
            Error (1, Printf.sprintf "%s:%d: %s" policy_file line msg)
        | Sys_error msg -> Error (exit_usage, msg)),
        program_of_input agent_file )
    with
    | Error (rc, msg), _ | _, Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok control, Ok program ->
        let world = Naplet.World.create control in
        List.iter
          (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
          (Sral.Program.servers program);
        let home =
          match Sral.Program.servers program with
          | s :: _ -> s
          | [] ->
              Naplet.World.add_server world (Naplet.Server.create "home");
              "home"
        in
        Naplet.World.spawn world ~id:"agent-1" ~owner ~roles ~home program;
        let metrics = Naplet.World.run world in
        Format.printf "%a@.@." Naplet.Metrics.pp metrics;
        Format.printf "--- audit log ---@.%a@.@." Coordinated.Audit_log.pp
          (Coordinated.System.log control);
        Format.printf "--- timeline ---@.%s@."
          (Coordinated.Timeline.render ~width:48
             (Coordinated.System.log control));
        0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run one mobile agent under a policy in the Naplet emulation.")
    Term.(const run $ policy_arg $ agent_arg $ owner_arg $ roles_arg)

(* --- serve --- *)

let serve_cmd =
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on TCP 127.0.0.1:$(docv) instead of a Unix socket." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let policy_arg =
    let doc =
      "Serve decisions over this policy file instead of the built-in \
       workload population."
    in
    Arg.(value & opt (some string) None & info [ "p"; "policy" ] ~docv:"FILE" ~doc)
  in
  let queue_arg =
    let doc =
      "Per-connection execution capacity for one read burst; frames beyond \
       it are shed with an auditable reply rather than queued unboundedly."
    in
    let default =
      Service.Server.default_config.Service.Server.queue_capacity
    in
    Arg.(value & opt int default & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_requests_arg =
    let doc =
      "Stop after $(docv) requests have been executed or shed (default: \
       serve forever)."
    in
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N" ~doc)
  in
  let run socket port policy_file mode queue max_requests =
    let addr =
      match (socket, port) with
      | Some path, None -> Ok (Service.Net_unix.Unix_path path)
      | None, Some port -> Ok (Service.Net_unix.Tcp port)
      | None, None ->
          Error "one of --socket PATH or --port PORT is required"
      | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
    in
    let base =
      match policy_file with
      | None -> Ok (Service.Script.base_system ~mode ())
      | Some f -> (
          try Ok (Coordinated.System.of_policy_text ~mode (read_input f)) with
          | Coordinated.Policy_lang.Error (line, msg) ->
              Error (1, Printf.sprintf "%s:%d: %s" f line msg)
          | Sys_error msg -> Error (exit_usage, msg))
    in
    match (addr, base) with
    | Error msg, _ ->
        Format.eprintf "error: %s@." msg;
        exit_usage
    | _, Error (rc, msg) ->
        Format.eprintf "error: %s@." msg;
        rc
    | Ok addr, Ok base ->
        let config =
          { Service.Server.default_config with mode; queue_capacity = queue }
        in
        let server = Service.Server.create ~config ~base () in
        (* a peer that vanishes mid-reply must cost its connection, not
           the process: take EPIPE as an error instead of dying *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let listener = Service.Net_unix.listen addr in
        Format.eprintf "stacc serve: listening on %s@."
          (match addr with
          | Service.Net_unix.Unix_path p -> p
          | Service.Net_unix.Tcp p -> Printf.sprintf "127.0.0.1:%d" p);
        Service.Net_unix.serve listener ~server ?max_requests ();
        Service.Net_unix.shutdown listener;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on decision service: a Unix-socket or TCP listener \
          multiplexing framed client sessions onto per-connection clones of \
          the coalition system.  Malformed frames kill their connection \
          fail-closed; overload is shed with auditable replies; subscribers \
          receive the observability event stream."
       ~man:
         (exit_status_man
            [
              "0 on a clean shutdown (only reachable with \
               $(b,--max-requests)); 1 when the policy file does not parse; \
               2 on usage errors.";
            ]))
    Term.(
      const run $ socket_arg $ port_arg $ policy_arg $ mode_arg $ queue_arg
      $ max_requests_arg)

(* --- load --- *)

let load_cmd =
  let requests_arg =
    let doc =
      "Number of measured requests (script length under $(b,--replay))."
    in
    Arg.(value & opt int 20000 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Offered rate in requests/s for an open-loop run (repeatable: one run \
       per rate — a saturation sweep).  Latency is measured from each \
       request's scheduled arrival time, so queueing under saturation is \
       charged to the server.  Without $(b,--rate) the loop is closed: one \
       request in flight, per-request service latency."
    in
    Arg.(value & opt_all float [] & info [ "rate" ] ~docv:"R" ~doc)
  in
  let conns_arg =
    let doc = "Number of client connections." in
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Request-mix seed (same seed, same requests)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Server per-feed execution capacity (default: the server's)." in
    Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Differential-gate mode: replay the seeded request script through \
       $(b,sim) (framing, the deterministic fault-capable transport, the \
       server core) or $(b,direct) (an independent re-implementation of the \
       per-request semantics straight on the coalition system) and write the \
       rendered reply stream.  The two drives must be byte-identical."
    in
    Arg.(
      value
      & opt (some (enum [ ("sim", `Sim); ("direct", `Direct) ])) None
      & info [ "replay" ] ~docv:"DRIVE" ~doc)
  in
  let out_arg =
    let doc = "Write the replay reply stream to this file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run requests rates conns seed queue mode replay out =
    let base = Service.Script.base_system ~mode () in
    match replay with
    | Some drive ->
        let script = Service.Script.generate ~conns ~requests ~seed () in
        let results =
          match drive with
          | `Sim -> Service.Script.run_sim ~base script
          | `Direct -> Service.Script.drive_direct ~base script
        in
        let rendered = Service.Script.render results in
        (match out with
        | "-" -> print_string rendered
        | path ->
            let oc = open_out path in
            output_string oc rendered;
            close_out oc);
        0
    | None ->
        let rows =
          if rates = [] then
            [ Service.Load.closed ~conns ~seed ~base ~requests () ]
          else Service.Load.sweep ~conns ~seed ?queue ~base ~requests ~rates ()
        in
        Format.printf "%a@." Service.Load.pp_header ();
        List.iter (fun r -> Format.printf "%a@." Service.Load.pp_row r) rows;
        0
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the in-process decision service at a controlled rate and \
          report completed/shed counts with p50/p95/p99 latency, or \
          ($(b,--replay)) re-run the differential-gate script through one of \
          its two drives and dump the reply stream for comparison."
       ~man:
         (exit_status_man
            [ "0 on success; 2 on usage errors." ]))
    Term.(
      const run $ requests_arg $ rate_arg $ conns_arg $ seed_arg $ queue_arg
      $ mode_arg $ replay_arg $ out_arg)

let () =
  let info =
    Cmd.info "stacc" ~version:"1.0.0"
      ~doc:
        "Coordinated spatio-temporal access control for mobile coalitions \
         (Fu & Xu, IPPS 2005)."
      ~man:
        (exit_status_man
           [
             "Every subcommand follows one convention:";
             "0 — success.";
             "1 — the requested analysis or run failed: input content does \
              not parse, a constraint does not hold, an invariant was \
              violated, a differential gate diverged, or findings were \
              reported under $(b,--strict).";
             "2 — usage errors: unknown subcommands or flags, malformed \
              option values, unreadable input files.";
           ])
  in
  let group =
    Cmd.group info
      [
        parse_cmd;
        traces_cmd;
        check_cmd;
        dot_cmd;
        audit_cmd;
        trace_cmd;
        chaos_cmd;
        workflow_cmd;
        bench_parallel_cmd;
        policy_cmd;
        lint_cmd;
        analyze_cmd;
        simulate_cmd;
        serve_cmd;
        load_cmd;
      ]
  in
  (* Cmd.eval' maps cmdliner's own CLI errors to 124; fold everything onto
     the documented 0/1/2 convention instead. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok rc) -> rc
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> 1)
