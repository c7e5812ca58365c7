(* Tests for the SRAC constraint language: Definition 3.6 trace
   satisfaction, the constraint parser, the DFA compilation, the
   Theorem 3.2 symbolic checker (against the naive enumerator), proof
   stores and prefix feasibility. *)

open Srac

let q = Temporal.Q.of_int
let read_ r s = Sral.Access.read r ~at:s
let write_ r s = Sral.Access.write r ~at:s
let a1 = read_ "a" "s1"
let a2 = write_ "b" "s2"
let a3 = read_ "c" "s1"

let sat ?(proofs = Proof.always) t c = Trace_sat.sat ~proofs t c

(* --- selectors --- *)

let test_selector_matches () =
  Alcotest.(check bool) "any" true (Selector.matches Selector.Any a1);
  Alcotest.(check bool) "op" true
    (Selector.matches (Selector.Op Sral.Access.Read) a1);
  Alcotest.(check bool) "op no" false
    (Selector.matches (Selector.Op Sral.Access.Write) a1);
  Alcotest.(check bool) "resource" true
    (Selector.matches (Selector.Resource "a") a1);
  Alcotest.(check bool) "server" true
    (Selector.matches (Selector.Server "s1") a1);
  Alcotest.(check bool) "exactly" true
    (Selector.matches (Selector.Exactly a1) a1);
  Alcotest.(check bool) "and" true
    (Selector.matches
       (Selector.And (Selector.Resource "a", Selector.Server "s1"))
       a1);
  Alcotest.(check bool) "not" false
    (Selector.matches (Selector.Not Selector.Any) a1)

let test_selector_select () =
  let sel = Selector.Server "s1" in
  Alcotest.(check int) "subset" 2 (List.length (Selector.select sel [ a1; a2; a3 ]))

(* --- Definition 3.6 --- *)

let test_sat_true_false () =
  Alcotest.(check bool) "T" true (sat [] Formula.True);
  Alcotest.(check bool) "F" false (sat [] Formula.False)

let test_sat_atom () =
  Alcotest.(check bool) "present" true (sat [ a1; a2 ] (Formula.Atom a1));
  Alcotest.(check bool) "absent" false (sat [ a2 ] (Formula.Atom a1))

let test_sat_atom_needs_proof () =
  let proofs = Proof.create () in
  Alcotest.(check bool) "no proof: unsatisfied" false
    (sat ~proofs [ a1 ] (Formula.Atom a1));
  Proof.record proofs a1 ~time:(q 1);
  Alcotest.(check bool) "with proof" true
    (sat ~proofs [ a1 ] (Formula.Atom a1))

let test_sat_ordered () =
  let c = Formula.Ordered (a1, a2) in
  Alcotest.(check bool) "in order" true (sat [ a1; a3; a2 ] c);
  Alcotest.(check bool) "reversed" false (sat [ a2; a1 ] c);
  Alcotest.(check bool) "missing second" false (sat [ a1 ] c);
  Alcotest.(check bool) "same position both" false (sat [ a2 ] c)

let test_sat_ordered_same_access () =
  (* a ⊗ a requires two occurrences *)
  let c = Formula.Ordered (a1, a1) in
  Alcotest.(check bool) "one occurrence" false (sat [ a1 ] c);
  Alcotest.(check bool) "two occurrences" true (sat [ a1; a1 ] c)

let test_sat_card () =
  let sel = Selector.Server "s1" in
  let c lo hi = Formula.Card { lo; hi; sel } in
  Alcotest.(check bool) "0..2 with 2" true (sat [ a1; a2; a3 ] (c 0 (Some 2)));
  Alcotest.(check bool) "0..1 with 2" false (sat [ a1; a2; a3 ] (c 0 (Some 1)));
  Alcotest.(check bool) "3.. with 2" false (sat [ a1; a2; a3 ] (c 3 None));
  Alcotest.(check bool) "unbounded" true (sat [ a1; a2; a3 ] (c 1 None))

let test_sat_boolean () =
  let c =
    Formula.And
      (Formula.Atom a1, Formula.Or (Formula.Atom a2, Formula.Not (Formula.Atom a3)))
  in
  Alcotest.(check bool) "a1 and not a3" true (sat [ a1 ] c);
  Alcotest.(check bool) "a1, a3, no a2" false (sat [ a1; a3 ] c);
  Alcotest.(check bool) "all three" true (sat [ a1; a2; a3 ] c)

let test_sat_implies () =
  let c = Formula.implies (Formula.Atom a1) (Formula.Atom a2) in
  Alcotest.(check bool) "vacuous" true (sat [] c);
  Alcotest.(check bool) "antecedent only" false (sat [ a1 ] c);
  Alcotest.(check bool) "both" true (sat [ a1; a2 ] c)

let test_explain () =
  let c = Formula.And (Formula.Atom a1, Formula.at_most 0 Selector.Any) in
  (match Trace_sat.explain ~proofs:Proof.always [ a1 ] c with
  | Error msg ->
      Alcotest.(check bool) "mentions the bound" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "should fail");
  match Trace_sat.explain ~proofs:Proof.always [ a1 ] (Formula.Atom a1) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* --- parser --- *)

let test_formula_parser () =
  let cases =
    [
      ("true", Formula.True);
      ("false", Formula.False);
      ("done(read a @ s1)", Formula.Atom a1);
      ("seq(read a @ s1, write b @ s2)", Formula.Ordered (a1, a2));
      ( "count(0, 5, res=rsw)",
        Formula.Card { lo = 0; hi = Some 5; sel = Selector.Resource "rsw" } );
      ( "count(2, inf, any)",
        Formula.Card { lo = 2; hi = None; sel = Selector.Any } );
      ( "done(read a @ s1) && done(write b @ s2)",
        Formula.And (Formula.Atom a1, Formula.Atom a2) );
      ( "done(read a @ s1) or !done(write b @ s2)",
        Formula.Or (Formula.Atom a1, Formula.Not (Formula.Atom a2)) );
      ( "done(read a @ s1) -> done(write b @ s2)",
        Formula.implies (Formula.Atom a1) (Formula.Atom a2) );
      ( "count(0, 3, res=a & srv=s1)",
        Formula.Card
          {
            lo = 0;
            hi = Some 3;
            sel = Selector.And (Selector.Resource "a", Selector.Server "s1");
          } );
      ( "count(0, 3, ~op=read)",
        Formula.Card
          { lo = 0; hi = Some 3; sel = Selector.Not (Selector.Op Sral.Access.Read) }
      );
    ]
  in
  List.iter
    (fun (src, expected) ->
      let actual = Formula.of_string src in
      Alcotest.(check bool) src true (Formula.equal actual expected))
    cases

let test_formula_parser_errors () =
  List.iter
    (fun src ->
      match Formula.of_string src with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" src))
    [ "done()"; "count(1, 2)"; "done(read a @ s1) &&"; "nonsense"; "" ]

let test_formula_pp_roundtrip () =
  List.iter
    (fun src ->
      let c = Formula.of_string src in
      let c2 = Formula.of_string (Formula.to_string c) in
      Alcotest.(check bool) src true (Formula.equal c c2))
    [
      "done(read a @ s1) && (count(0, 5, srv=s1) or !done(write b @ s2))";
      "seq(op(hash) m @ s1, op(hash) n @ s2) -> true";
      "count(1, inf, (res=a | res=b) & ~srv=s3)";
    ]

(* --- compile: DFA semantics match Definition 3.6 (sans proofs) --- *)

(* random constraints come from the shared generator ([test/gen.ml]) —
   the same distribution the lazy-DFA and analysis suites draw from *)
let formula_gen rng = Gen.srac_formula ~accesses:[ a1; a2; a3 ] rng

let compile_matches_def36 =
  QCheck.Test.make
    ~name:"compiled DFA agrees with Definition 3.6 on random traces"
    ~count:200
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let traces =
           List.init 15 (fun _ ->
               List.init (Random.State.int rng 6) (fun _ ->
                   List.nth [ a1; a2; a3 ] (Random.State.int rng 3)))
         in
         (c, traces)))
    (fun (c, traces) ->
      let table = Automata.Symbol.of_accesses [ a1; a2; a3 ] in
      let dfa = Compile.dfa ~table ~proofs:Proof.always c in
      List.for_all
        (fun t ->
          let word = List.map (Automata.Symbol.intern table) t in
          Automata.Dfa.accepts dfa word = sat t c)
        traces)

(* --- Theorem 3.2 checker --- *)

let prog = Sral.Parser.program

let test_exists_basic () =
  let p = prog "read a @ s1; if c then { write b @ s2 } else { read c @ s1 }" in
  Alcotest.(check bool) "can do a1 then a2" true
    (Program_sat.check_bool p (Formula.Ordered (a1, a2)));
  Alcotest.(check bool) "cannot do a2 twice" false
    (Program_sat.check_bool p (Formula.Ordered (a2, a2)))

let test_forall_basic () =
  let p = prog "read a @ s1; if c then { write b @ s2 } else { read c @ s1 }" in
  Alcotest.(check bool) "always reads a" true
    (Program_sat.check_bool ~modality:Program_sat.Forall p (Formula.Atom a1));
  Alcotest.(check bool) "not always writes b" false
    (Program_sat.check_bool ~modality:Program_sat.Forall p (Formula.Atom a2))

let test_forall_witness () =
  let p = prog "if c then { read a @ s1 } else { read c @ s1 }" in
  let outcome =
    Program_sat.check ~modality:Program_sat.Forall p (Formula.Atom a1)
  in
  Alcotest.(check bool) "fails" false outcome.Program_sat.holds;
  match outcome.Program_sat.witness with
  | Some t ->
      Alcotest.(check bool) "witness avoids a1" false (Sral.Trace.mem a1 t)
  | None -> Alcotest.fail "expected a counterexample"

let test_loop_cardinality () =
  (* a loop can exceed any bound, so Forall at_most fails with a
     witness, while Exists succeeds *)
  let p = prog "while c do { read a @ s1 }" in
  let bound = Formula.at_most 2 (Selector.Resource "a") in
  Alcotest.(check bool) "exists within bound" true
    (Program_sat.check_bool p bound);
  let outcome = Program_sat.check ~modality:Program_sat.Forall p bound in
  Alcotest.(check bool) "forall fails" false outcome.Program_sat.holds;
  match outcome.Program_sat.witness with
  | Some t -> Alcotest.(check int) "shortest violator" 3 (Sral.Trace.length t)
  | None -> Alcotest.fail "expected a violating trace"

let test_infinite_model_decided () =
  (* nested loops: the enumerator would explode, the symbolic checker
     answers instantly *)
  let p =
    prog
      "while c1 do { read a @ s1; while c2 do { write b @ s2 }; read c @ s1 }"
  in
  Alcotest.(check bool) "obligation" true
    (Program_sat.check_bool p
       (Formula.And (Formula.Atom a1, Formula.Ordered (a2, a3))))

let test_proofs_gate_atoms () =
  let p = prog "read a @ s1" in
  let proofs = Proof.create () in
  Alcotest.(check bool) "atom blocked without proof" false
    (Program_sat.check_bool ~proofs p (Formula.Atom a1));
  Proof.record proofs a1 ~time:(q 0);
  Alcotest.(check bool) "atom passes with proof" true
    (Program_sat.check_bool ~proofs p (Formula.Atom a1))

let naive_agreement =
  QCheck.Test.make
    ~name:"Theorem 3.2 checker = naive enumeration (loop-free, both modalities)"
    ~count:200
    (QCheck.make (fun rng ->
         let p =
           Sral.Generate.loop_free_program ~resources:[ "a"; "b"; "c" ]
             ~servers:[ "s1"; "s2" ] ~size:6 rng
         in
         (p, formula_gen rng)))
    (fun (p, c) ->
      List.for_all
        (fun modality ->
          Program_sat.check_bool ~modality p c
          = (Naive.check ~modality p c).Program_sat.holds)
        [ Program_sat.Exists; Program_sat.Forall ])

(* --- prefix feasibility --- *)

let test_prefix_feasible_card () =
  let c = Formula.at_most 2 (Selector.Resource "a") in
  Alcotest.(check bool) "empty prefix" true
    (Program_sat.prefix_feasible ~performed:[] c);
  Alcotest.(check bool) "at bound" true
    (Program_sat.prefix_feasible ~performed:[ a1; a1 ] c);
  Alcotest.(check bool) "over bound" false
    (Program_sat.prefix_feasible ~performed:[ a1; a1; a1 ] c)

let test_prefix_feasible_obligation () =
  let c = Formula.Ordered (a1, a2) in
  Alcotest.(check bool) "obligation always feasible" true
    (Program_sat.prefix_feasible ~performed:[] c);
  Alcotest.(check bool) "after first" true
    (Program_sat.prefix_feasible ~performed:[ a1 ] c);
  Alcotest.(check bool) "satisfied" true
    (Program_sat.prefix_feasible ~performed:[ a1; a2 ] c)

let test_prefix_feasible_negation () =
  (* ¬(a1 performed): once a1 happened, infeasible forever *)
  let c = Formula.Not (Formula.Atom a1) in
  Alcotest.(check bool) "before" true
    (Program_sat.prefix_feasible ~performed:[] c);
  Alcotest.(check bool) "after" false
    (Program_sat.prefix_feasible ~performed:[ a1 ] c)

(* --- syntactic derivatives --- *)

let test_derivative_atoms () =
  let c = Formula.Atom a1 in
  Alcotest.(check bool) "discharged" true
    (Formula.equal (Derivative.after c a1) Formula.True);
  Alcotest.(check bool) "other access" true
    (Formula.equal (Derivative.after c a2) c)

let test_derivative_ordered () =
  let c = Formula.Ordered (a1, a2) in
  (* consuming a1 leaves: a2 suffices (or a fresh pair) *)
  let d = Derivative.after c a1 in
  Alcotest.(check bool) "satisfied by a2 next" true
    (Derivative.satisfied_by_empty (Derivative.after d a2));
  (* consuming a2 first leaves the obligation untouched *)
  Alcotest.(check bool) "a2 first no progress" true
    (Formula.equal (Derivative.after c a2) c)

let test_derivative_card () =
  let c = Formula.at_most 1 (Selector.Resource "a") in
  let d1 = Derivative.after c a1 in
  (* one a-access used: zero budget left *)
  (match d1 with
  | Formula.Card { hi = Some 0; _ } -> ()
  | other -> Alcotest.fail (Formula.to_string other));
  Alcotest.(check bool) "second violates" true
    (Formula.equal (Derivative.after d1 a1) Formula.False);
  (* non-matching accesses are free *)
  Alcotest.(check bool) "non-matching free" true
    (Formula.equal (Derivative.after c a2) c)

let derivative_agrees_with_sat =
  QCheck.Test.make
    ~name:"derivative route = Definition 3.6 (random formulas/traces)"
    ~count:300
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let trace =
           List.init (Random.State.int rng 7) (fun _ ->
               List.nth [ a1; a2; a3 ] (Random.State.int rng 3))
         in
         (c, trace)))
    (fun (c, trace) ->
      Derivative.satisfied_by_empty (Derivative.after_trace c trace)
      = sat trace c)

let derivative_feasibility_agrees =
  QCheck.Test.make
    ~name:"syntactic residual feasibility = DFA prefix feasibility"
    ~count:200
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let trace =
           List.init (Random.State.int rng 5) (fun _ ->
               List.nth [ a1; a2; a3 ] (Random.State.int rng 3))
         in
         (c, trace)))
    (fun (c, trace) ->
      let residual = Derivative.after_trace c trace in
      let universe = [ a1; a2; a3 ] in
      (* feasibility of extending [trace], both routes over the same
         three-access universe *)
      let dfa_route =
        Program_sat.prefix_feasible ~universe ~performed:trace c
      in
      let syntactic_route =
        let table =
          Automata.Symbol.of_accesses (Formula.accesses c @ trace @ universe)
        in
        not
          (Automata.Dfa.is_empty
             (Compile.dfa ~table ~proofs:Proof.always residual))
      in
      dfa_route = syntactic_route)

(* --- lazy-derivative machines (the decide_lazy spatial core) --- *)

let pool = [ a1; a2; a3 ]
let trace_gen rng n = List.init (Random.State.int rng n) (fun _ -> Gen.pick rng pool)

let walk m t = List.fold_left (Lazy_dfa.step_access m) (Lazy_dfa.start m) t

(* Per-symbol agreement with the trace-satisfaction oracle, with greedy
   shrinking down to a minimal failing subformula. *)
let test_lazy_nullable_matches_sat () =
  Gen.each_seed ~salt:5150 ~count:300 (fun ~seed rng ->
      let c = formula_gen rng in
      let traces = List.init 10 (fun _ -> trace_gen rng 7) in
      let agrees c =
        let m = Lazy_dfa.create c in
        List.for_all (fun t -> Lazy_dfa.nullable m (walk m t) = sat t c) traces
      in
      if not (agrees c) then begin
        let small =
          Gen.shrink
            ~fails:(fun c -> not (agrees c))
            ~candidates:Gen.formula_subterms c
        in
        Gen.report_minimized ~seed ~what:"constraint" Formula.pp small;
        Alcotest.failf "seed %d: lazy nullability diverges from Definition 3.6"
          seed
      end)

let lazy_feasible_matches_oracle =
  QCheck.Test.make
    ~name:"Lazy_dfa.feasible = DFA prefix feasibility (interleaved, warm)"
    ~count:200
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let trace = trace_gen rng 6 in
         (c, trace)))
    (fun (c, trace) ->
      let m = Lazy_dfa.create c in
      let q = ref (Lazy_dfa.start m) in
      let performed = ref [] in
      let step_ok a =
        q := Lazy_dfa.step_access m !q a;
        performed := a :: !performed;
        (* the machine arena is now exactly the oracle's default
           universe: the constraint's accesses plus the prefix *)
        let want =
          Program_sat.prefix_feasible ~performed:(List.rev !performed) c
        in
        Lazy_dfa.feasible m !q = want
        (* asking again must hit the memo and agree *)
        && Lazy_dfa.feasible m !q = want
      in
      Program_sat.prefix_feasible ~performed:[] c
      = Lazy_dfa.feasible m !q
      && List.for_all step_ok trace)

let test_lazy_cold_warm_identical () =
  Gen.each_seed ~salt:5151 ~count:200 (fun ~seed rng ->
      let c = formula_gen rng in
      let t = trace_gen rng 7 in
      let m = Lazy_dfa.create c in
      let run () =
        let q = walk m t in
        (q, Lazy_dfa.nullable m q, Lazy_dfa.feasible m q)
      in
      let cold = run () in
      let stats () =
        (Lazy_dfa.num_states m, Lazy_dfa.num_symbols m, Lazy_dfa.transitions m)
      in
      let s0 = stats () in
      let warm = run () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: warm replay identical" seed)
        true (cold = warm);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: warm replay materializes nothing" seed)
        true
        (s0 = stats ());
      (* hypothetical (possibly denied) accesses answer the oracle but
         never enter the arena *)
      let foreign = read_ "zz" "s9" in
      let q, _, _ = cold in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: hypothetical access = Definition 3.6" seed)
        (sat (t @ [ foreign ]) c)
        (Lazy_dfa.nullable_after m q ~id:(-1) foreign);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: hypothetical access leaves arena alone" seed)
        true
        (s0 = stats ()))

(* Inert accesses: outside [Formula.accesses c] and matched by no
   cardinality selector of [c].  They are self-loops, so the machine
   must step them to the same state without interning them, and
   histories padded with them must keep nullability and feasibility
   equal to the eager oracles, whose alphabets do include them. *)
let test_lazy_inert_accesses () =
  let rec selectors acc = function
    | Formula.True | Formula.False | Formula.Atom _ | Formula.Ordered _ -> acc
    | Formula.Card { sel; _ } -> sel :: acc
    | Formula.And (c1, c2) | Formula.Or (c1, c2) ->
        selectors (selectors acc c1) c2
    | Formula.Not c1 -> selectors acc c1
  in
  let candidates =
    [
      read_ "a" "s2"; write_ "a" "s1"; read_ "b" "s2"; write_ "c" "s1";
      read_ "zz" "s9"; Sral.Access.execute "a" ~at:"s1";
    ]
  in
  let exercised = ref 0 in
  Gen.each_seed ~salt:5152 ~count:300 (fun ~seed rng ->
      let c = formula_gen rng in
      let sels = selectors [] c in
      let inert =
        List.filter
          (fun a ->
            (not (List.exists (Sral.Access.equal a) (Formula.accesses c)))
            && not (List.exists (fun sel -> Selector.matches sel a) sels))
          candidates
      in
      if inert <> [] then incr exercised;
      let m = Lazy_dfa.create c in
      let q = ref (Lazy_dfa.start m) and padded = ref [] in
      let check what =
        let performed = List.rev !padded in
        if
          Lazy_dfa.nullable m !q <> sat performed c
          || Lazy_dfa.feasible m !q
             <> Program_sat.prefix_feasible ~performed c
        then Alcotest.failf "seed %d: %s diverges from the oracles" seed what
      in
      List.iter
        (fun a ->
          q := Lazy_dfa.step_access m !q a;
          padded := a :: !padded;
          check "a performed access";
          List.iter
            (fun x ->
              if Random.State.bool rng then begin
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: inert access classified" seed)
                  true (Lazy_dfa.inert m x);
                let symbols = Lazy_dfa.num_symbols m in
                let q' = Lazy_dfa.step_access m !q x in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: inert step is a self-loop" seed)
                  true
                  (q' = !q && Lazy_dfa.num_symbols m = symbols);
                padded := x :: !padded;
                check "an inert-padded history"
              end)
            inert)
        (trace_gen rng 7));
  Alcotest.(check bool) "inert accesses exercised" true (!exercised > 100)

(* A spatial denial's detail is built from the binding's non-inert
   history only, so dropping the inert accesses of a trace must change
   neither [sat] nor [explain]'s string.  The same traces also walk a
   machine through the id-keyed entry points ([step_id], [inert_id]),
   which must agree with the hashing ones step for step. *)
let test_explain_ignores_inert () =
  let pool =
    [
      a1; a2; a3; read_ "a" "s2"; write_ "a" "s1"; read_ "b" "s2";
      write_ "c" "s1"; read_ "zz" "s9"; Sral.Access.execute "a" ~at:"s1";
    ]
  in
  let explain t c = Trace_sat.explain ~proofs:Proof.always t c in
  let dropped = ref 0 and denied = ref 0 in
  Gen.each_seed ~salt:5153 ~count:600 (fun ~seed rng ->
      let c = formula_gen rng in
      let t = List.init (Random.State.int rng 10) (fun _ -> Gen.pick rng pool) in
      let by_hash = Lazy_dfa.create c and by_id = Lazy_dfa.create c in
      let ids = Sral.Access.Ids.create () in
      let visible = List.filter (fun a -> not (Lazy_dfa.inert by_hash a)) t in
      if List.compare_lengths visible t < 0 then incr dropped;
      if not (sat t c) then incr denied;
      if sat t c <> sat visible c || explain t c <> explain visible c then
        Alcotest.failf "seed %d: %a over %a: inert accesses changed the answer"
          seed Formula.pp c Sral.Trace.pp t;
      let q_hash = ref (Lazy_dfa.start by_hash)
      and q_id = ref (Lazy_dfa.start by_id) in
      List.iter
        (fun a ->
          let id = Sral.Access.Ids.intern ids a in
          if Lazy_dfa.inert_id by_id ~id a <> Lazy_dfa.inert by_hash a then
            Alcotest.failf "seed %d: inert_id disagrees on %a" seed
              Sral.Access.pp a;
          q_hash := Lazy_dfa.step_access by_hash !q_hash a;
          q_id := Lazy_dfa.step_id by_id !q_id ~id a;
          if
            !q_hash <> !q_id
            || Lazy_dfa.num_symbols by_hash <> Lazy_dfa.num_symbols by_id
          then Alcotest.failf "seed %d: step_id diverges on %a" seed
              Sral.Access.pp a)
        t);
  Alcotest.(check bool) "inert accesses dropped" true (!dropped > 200);
  Alcotest.(check bool) "denials explained" true (!denied > 100)

let lazy_machine_deterministic =
  QCheck.Test.make
    ~name:"two machines over the same trace are bit-identical" ~count:150
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let trace = trace_gen rng 7 in
         (c, trace)))
    (fun (c, trace) ->
      let probe () =
        let m = Lazy_dfa.create c in
        let q = walk m trace in
        ( q,
          Lazy_dfa.nullable m q,
          Lazy_dfa.feasible m q,
          Lazy_dfa.num_states m,
          Lazy_dfa.num_symbols m,
          Lazy_dfa.transitions m )
      in
      probe () = probe ())

(* --- proof store --- *)

let test_proof_store () =
  let proofs = Proof.create () in
  Proof.record proofs a1 ~time:(q 3);
  Proof.record proofs a2 ~time:(q 1);
  Proof.record proofs a1 ~time:(q 5);
  Alcotest.(check bool) "holds" true (Proof.holds proofs a1);
  Alcotest.(check bool) "not held" false (Proof.holds proofs a3);
  Alcotest.(check int) "size" 3 (Proof.size proofs);
  Alcotest.(check int) "times" 2 (List.length (Proof.times proofs a1));
  Alcotest.(check bool) "holds_before" true
    (Proof.holds_before proofs a1 (q 3));
  Alcotest.(check bool) "not before" false
    (Proof.holds_before proofs a1 (q 2));
  Alcotest.(check int) "count matching" 2
    (Proof.count_matching proofs (fun a -> Sral.Access.equal a a1));
  (* performed trace is time-ordered *)
  let t = Proof.performed_trace proofs in
  Alcotest.(check bool) "time order" true
    (Sral.Trace.equal t [ a2; a1; a1 ])

let test_proof_copy_isolated () =
  let proofs = Proof.create () in
  Proof.record proofs a1 ~time:(q 1);
  let snapshot = Proof.copy proofs in
  Proof.record proofs a2 ~time:(q 2);
  Alcotest.(check int) "original grew" 2 (Proof.size proofs);
  Alcotest.(check int) "copy unchanged" 1 (Proof.size snapshot)

let test_proof_always_readonly () =
  Alcotest.(check bool) "always holds" true (Proof.holds Proof.always a1);
  Alcotest.check_raises "record rejected"
    (Invalid_argument "Proof.record: the Always store is read-only") (fun () ->
      Proof.record Proof.always a1 ~time:(q 0))

(* --- simplify --- *)

let test_simplify_cases () =
  let cases =
    [
      ("!!done(read a @ s1)", "done(read a @ s1)");
      ("done(read a @ s1) && true", "done(read a @ s1)");
      ("done(read a @ s1) && false", "false");
      ("done(read a @ s1) or true", "true");
      ("done(read a @ s1) or done(read a @ s1)", "done(read a @ s1)");
      ("done(read a @ s1) && !done(read a @ s1)", "false");
      ("done(read a @ s1) or !done(read a @ s1)", "true");
      ("count(0, inf, any)", "true");
      ("done(read a @ s1) && (done(read a @ s1) or done(write b @ s2))",
       "done(read a @ s1)");
    ]
  in
  List.iter
    (fun (src, expected) ->
      let simplified = Simplify.simplify (Formula.of_string src) in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" src expected)
        true
        (Formula.equal simplified (Formula.of_string expected)))
    cases

let test_nnf () =
  let c = Formula.of_string "!(done(read a @ s1) && !done(write b @ s2))" in
  match Simplify.nnf c with
  | Formula.Or (Formula.Not (Formula.Atom _), Formula.Atom _) -> ()
  | other ->
      Alcotest.fail (Format.asprintf "unexpected nnf: %a" Formula.pp other)

let test_trivial_predicates () =
  Alcotest.(check bool) "trivially true" true
    (Simplify.is_trivially_true (Formula.of_string "count(0, inf, any) or false"));
  Alcotest.(check bool) "trivially false" true
    (Simplify.is_trivially_false
       (Formula.of_string "done(read a @ s1) && false"))

let simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplify and nnf preserve Definition 3.6" ~count:200
    (QCheck.make (fun rng ->
         let c = formula_gen rng in
         let traces =
           List.init 10 (fun _ ->
               List.init (Random.State.int rng 5) (fun _ ->
                   List.nth [ a1; a2; a3 ] (Random.State.int rng 3)))
         in
         (c, traces)))
    (fun (c, traces) ->
      let s = Simplify.simplify c in
      let n = Simplify.nnf c in
      Formula.size s <= Formula.size c
      && List.for_all
           (fun t ->
             let reference = sat t c in
             sat t s = reference && sat t n = reference)
           traces)

(* simplify is a fixed point: one pass reaches the normal form, so the
   lazy machines' state interning (which keys on simplified residuals)
   never sees two spellings of the same canonical formula *)
let simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent (fixed point)" ~count:300
    (QCheck.make formula_gen) (fun c ->
      let s = Simplify.simplify c in
      Formula.equal (Simplify.simplify s) s)

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac1

let () =
  Alcotest.run "srac"
    [
      ( "selector",
        [
          Alcotest.test_case "matches" `Quick test_selector_matches;
          Alcotest.test_case "select" `Quick test_selector_select;
        ] );
      ( "definition-3.6",
        [
          Alcotest.test_case "true/false" `Quick test_sat_true_false;
          Alcotest.test_case "atom" `Quick test_sat_atom;
          Alcotest.test_case "atom needs proof" `Quick test_sat_atom_needs_proof;
          Alcotest.test_case "ordered" `Quick test_sat_ordered;
          Alcotest.test_case "ordered same access" `Quick
            test_sat_ordered_same_access;
          Alcotest.test_case "cardinality" `Quick test_sat_card;
          Alcotest.test_case "boolean" `Quick test_sat_boolean;
          Alcotest.test_case "implies" `Quick test_sat_implies;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "parser",
        [
          Alcotest.test_case "cases" `Quick test_formula_parser;
          Alcotest.test_case "errors" `Quick test_formula_parser_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_formula_pp_roundtrip;
        ] );
      ("compile", [ qcheck compile_matches_def36 ]);
      ( "theorem-3.2",
        [
          Alcotest.test_case "exists" `Quick test_exists_basic;
          Alcotest.test_case "forall" `Quick test_forall_basic;
          Alcotest.test_case "forall witness" `Quick test_forall_witness;
          Alcotest.test_case "loop cardinality" `Quick test_loop_cardinality;
          Alcotest.test_case "infinite model" `Quick test_infinite_model_decided;
          Alcotest.test_case "proofs gate atoms" `Quick test_proofs_gate_atoms;
          qcheck naive_agreement;
        ] );
      ( "prefix-feasible",
        [
          Alcotest.test_case "cardinality" `Quick test_prefix_feasible_card;
          Alcotest.test_case "obligation" `Quick test_prefix_feasible_obligation;
          Alcotest.test_case "negation" `Quick test_prefix_feasible_negation;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "cases" `Quick test_simplify_cases;
          Alcotest.test_case "nnf" `Quick test_nnf;
          Alcotest.test_case "trivial predicates" `Quick
            test_trivial_predicates;
          qcheck simplify_preserves_semantics;
          qcheck simplify_idempotent;
        ] );
      ( "derivative",
        [
          Alcotest.test_case "atoms" `Quick test_derivative_atoms;
          Alcotest.test_case "ordered" `Quick test_derivative_ordered;
          Alcotest.test_case "cardinality" `Quick test_derivative_card;
          qcheck derivative_agrees_with_sat;
          qcheck derivative_feasibility_agrees;
        ] );
      ( "lazy-dfa",
        [
          Alcotest.test_case "nullability = Definition 3.6 (shrinking)" `Quick
            test_lazy_nullable_matches_sat;
          qcheck lazy_feasible_matches_oracle;
          Alcotest.test_case "cold = warm, arena stays clean" `Quick
            test_lazy_cold_warm_identical;
          Alcotest.test_case "inert accesses are self-loops" `Quick
            test_lazy_inert_accesses;
          Alcotest.test_case "explain ignores inert accesses" `Quick
            test_explain_ignores_inert;
          qcheck lazy_machine_deterministic;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "store" `Quick test_proof_store;
          Alcotest.test_case "copy isolated" `Quick test_proof_copy_isolated;
          Alcotest.test_case "always readonly" `Quick test_proof_always_readonly;
        ] );
    ]
