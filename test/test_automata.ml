(* Tests for the automata library: regexes (derivatives), NFAs
   (Thompson + shuffle), DFAs (determinization, minimization, boolean
   algebra) and the Theorem 3.1 constructive translations. *)

let acc r s = Sral.Access.read r ~at:s
let a0 = acc "a" "s1"
let a1 = acc "b" "s1"
let a2 = acc "c" "s2"

let table () = Automata.Symbol.of_accesses [ a0; a1; a2 ]

let sigma tbl = Automata.Symbol.alphabet tbl

open Automata

(* --- symbols --- *)

let test_symbol_interning () =
  let tbl = Symbol.create () in
  let s1 = Symbol.intern tbl a0 in
  let s2 = Symbol.intern tbl a1 in
  let s3 = Symbol.intern tbl a0 in
  Alcotest.(check int) "same access same symbol" s1 s3;
  Alcotest.(check bool) "distinct" true (s1 <> s2);
  Alcotest.(check int) "size" 2 (Symbol.size tbl);
  Alcotest.(check bool) "roundtrip" true
    (Sral.Access.equal (Symbol.access tbl s1) a0)

let test_symbol_growth () =
  let tbl = Symbol.create () in
  for i = 0 to 99 do
    ignore (Symbol.intern tbl (acc (string_of_int i) "s"))
  done;
  Alcotest.(check int) "100 symbols" 100 (Symbol.size tbl);
  Alcotest.(check string) "backing intact" "37"
    (Symbol.access tbl 37).Sral.Access.resource

(* --- regex --- *)

let test_regex_smart_constructors () =
  Alcotest.(check bool) "cat with empty" true
    (Regex.cat Regex.Empty (Regex.sym 0) = Regex.Empty);
  Alcotest.(check bool) "cat with eps" true
    (Regex.cat Regex.Eps (Regex.sym 0) = Regex.Sym 0);
  Alcotest.(check bool) "alt with empty" true
    (Regex.alt Regex.Empty (Regex.sym 0) = Regex.Sym 0);
  Alcotest.(check bool) "star of eps" true (Regex.star Regex.Eps = Regex.Eps);
  Alcotest.(check bool) "star of star" true
    (Regex.star (Regex.star (Regex.sym 0)) = Regex.star (Regex.sym 0))

let test_regex_nullable () =
  Alcotest.(check bool) "eps nullable" true (Regex.nullable Regex.Eps);
  Alcotest.(check bool) "sym not" false (Regex.nullable (Regex.sym 0));
  Alcotest.(check bool) "star nullable" true
    (Regex.nullable (Regex.star (Regex.sym 0)));
  Alcotest.(check bool) "cat" false
    (Regex.nullable (Regex.Cat (Regex.Eps, Regex.Sym 0)))

let test_regex_matches () =
  (* (0 1)* + 2 *)
  let r =
    Regex.alt
      (Regex.star (Regex.cat (Regex.sym 0) (Regex.sym 1)))
      (Regex.sym 2)
  in
  Alcotest.(check bool) "eps" true (Regex.matches r []);
  Alcotest.(check bool) "01" true (Regex.matches r [ 0; 1 ]);
  Alcotest.(check bool) "0101" true (Regex.matches r [ 0; 1; 0; 1 ]);
  Alcotest.(check bool) "2" true (Regex.matches r [ 2 ]);
  Alcotest.(check bool) "0" false (Regex.matches r [ 0 ]);
  Alcotest.(check bool) "010" false (Regex.matches r [ 0; 1; 0 ])

(* Brzozowski derivatives agree with the compiled DFA's transition
   function symbol by symbol: walking a word through [Regex.derivative]
   and through the subset-constructed DFA must give residuals that agree
   on nullability (state finality) and on residual-language emptiness
   (final-state reachability) after *every* step, not just at the end.
   This is the eager half of the lazy-derivative decision path's
   correctness argument.  Failures shrink to a minimal failing
   subregex. *)
let regex_subterms = function
  | Regex.Empty | Regex.Eps | Regex.Sym _ -> []
  | Regex.Alt (a, b) | Regex.Cat (a, b) -> [ a; b ]
  | Regex.Star a -> [ a ]

let test_derivative_matches_dfa_stepwise () =
  let alphabet = [ 0; 1; 2 ] in
  Gen.each_seed ~salt:911 ~count:300 (fun ~seed rng ->
      let re = Regex.generate ~symbols:alphabet ~size:8 rng in
      let words =
        List.init 12 (fun _ ->
            List.init (Random.State.int rng 7) (fun _ -> Random.State.int rng 3))
      in
      let agrees re =
        let d = Dfa.of_nfa ~alphabet (Nfa.of_regex re) in
        let sym_index s =
          let rec find i =
            if i >= Array.length d.Dfa.alphabet then None
            else if d.Dfa.alphabet.(i) = s then Some i
            else find (i + 1)
          in
          find 0
        in
        let step_agrees (r, q) s =
          let r' = Regex.derivative s r in
          match sym_index s with
          | None -> None
          | Some i ->
              let q' = d.Dfa.next.(q).(i) in
              if
                Regex.nullable r' = d.Dfa.finals.(q')
                && Regex.is_empty_lang r' = not (Dfa.final_reachable_from d q')
              then Some (r', q')
              else None
        in
        List.for_all
          (fun w ->
            let rec walk st = function
              | [] -> true
              | s :: rest -> (
                  match step_agrees st s with
                  | None -> false
                  | Some st' -> walk st' rest)
            in
            walk (re, d.Dfa.start) w)
          words
      in
      if not (agrees re) then begin
        let small =
          Gen.shrink
            ~fails:(fun re -> not (agrees re))
            ~candidates:regex_subterms re
        in
        Gen.report_minimized ~seed ~what:"regex" Regex.pp small;
        Alcotest.failf "seed %d: derivative and DFA transition diverge" seed
      end)

(* --- NFA --- *)

let test_nfa_combinators () =
  let n = Nfa.cat (Nfa.sym 0) (Nfa.alt (Nfa.sym 1) (Nfa.sym 2)) in
  Alcotest.(check bool) "01" true (Nfa.accepts n [ 0; 1 ]);
  Alcotest.(check bool) "02" true (Nfa.accepts n [ 0; 2 ]);
  Alcotest.(check bool) "0" false (Nfa.accepts n [ 0 ]);
  Alcotest.(check bool) "12" false (Nfa.accepts n [ 1; 2 ])

let test_nfa_star () =
  let n = Nfa.star (Nfa.sym 0) in
  Alcotest.(check bool) "eps" true (Nfa.accepts n []);
  Alcotest.(check bool) "000" true (Nfa.accepts n [ 0; 0; 0 ]);
  Alcotest.(check bool) "01" false (Nfa.accepts n [ 0; 1 ])

let test_nfa_shuffle () =
  let n = Nfa.shuffle (Nfa.cat (Nfa.sym 0) (Nfa.sym 1)) (Nfa.sym 2) in
  List.iter
    (fun w -> Alcotest.(check bool) "interleaving" true (Nfa.accepts n w))
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 2; 0; 1 ] ];
  List.iter
    (fun w -> Alcotest.(check bool) "non-interleaving" false (Nfa.accepts n w))
    [ [ 1; 0; 2 ]; [ 0; 1 ]; [ 2 ]; [ 0; 1; 2; 2 ] ]

let nfa_matches_regex =
  QCheck.Test.make ~name:"Thompson NFA agrees with derivatives" ~count:200
    (QCheck.make (fun rng ->
         let re = Regex.generate ~symbols:[ 0; 1; 2 ] ~size:8 rng in
         let words =
           List.init 20 (fun _ ->
               List.init (Random.State.int rng 6) (fun _ ->
                   Random.State.int rng 3))
         in
         (re, words)))
    (fun (re, words) ->
      let nfa = Nfa.of_regex re in
      List.for_all
        (fun w -> Nfa.accepts nfa w = Regex.matches re w)
        words)

(* --- DFA --- *)

let dfa_of_regex ?(alphabet = [ 0; 1; 2 ]) re =
  Dfa.of_nfa ~alphabet (Nfa.of_regex re)

let test_dfa_subset_construction () =
  let re = Regex.cat (Regex.star (Regex.sym 0)) (Regex.sym 1) in
  let d = dfa_of_regex re in
  Alcotest.(check bool) "001" true (Dfa.accepts d [ 0; 0; 1 ]);
  Alcotest.(check bool) "1" true (Dfa.accepts d [ 1 ]);
  Alcotest.(check bool) "10" false (Dfa.accepts d [ 1; 0 ]);
  Alcotest.(check bool) "unknown symbol rejected" false (Dfa.accepts d [ 9 ])

let test_dfa_minimize_size () =
  (* (0+1)* 0 (0+1) has a 4-state minimal DFA over {0,1} *)
  let any = Regex.alt (Regex.sym 0) (Regex.sym 1) in
  let re = Regex.cat_list [ Regex.star any; Regex.sym 0; any ] in
  let d = Dfa.minimize (dfa_of_regex ~alphabet:[ 0; 1 ] re) in
  Alcotest.(check int) "minimal state count" 4 (Dfa.num_states d)

let minimize_preserves_language =
  QCheck.Test.make ~name:"minimize preserves the language" ~count:150
    (QCheck.make (fun rng ->
         let re = Regex.generate ~symbols:[ 0; 1 ] ~size:8 rng in
         let words =
           List.init 25 (fun _ ->
               List.init (Random.State.int rng 7) (fun _ ->
                   Random.State.int rng 2))
         in
         (re, words)))
    (fun (re, words) ->
      let d = dfa_of_regex ~alphabet:[ 0; 1 ] re in
      let m = Dfa.minimize d in
      List.for_all (fun w -> Dfa.accepts d w = Dfa.accepts m w) words
      && Dfa.num_states m <= Dfa.num_states d)

let test_dfa_boolean_algebra () =
  let any = Regex.alt (Regex.alt (Regex.sym 0) (Regex.sym 1)) (Regex.sym 2) in
  let d0 = dfa_of_regex (Regex.cat (Regex.sym 0) (Regex.star any)) in
  let d1 = dfa_of_regex (Regex.cat (Regex.star any) (Regex.sym 1)) in
  let both = Dfa.inter d0 d1 in
  Alcotest.(check bool) "starts 0 ends 1" true (Dfa.accepts both [ 0; 2; 1 ]);
  Alcotest.(check bool) "starts 1" false (Dfa.accepts both [ 1; 1 ]);
  let either = Dfa.union d0 d1 in
  Alcotest.(check bool) "ends 1 only" true (Dfa.accepts either [ 1 ]);
  let neither = Dfa.complement either in
  Alcotest.(check bool) "complement" true (Dfa.accepts neither [ 2 ]);
  Alcotest.(check bool) "complement 2" false (Dfa.accepts neither [ 0 ])

let test_dfa_emptiness_witness () =
  let d = dfa_of_regex (Regex.cat (Regex.sym 0) (Regex.sym 1)) in
  Alcotest.(check bool) "non-empty" false (Dfa.is_empty d);
  Alcotest.(check (option (list int))) "witness" (Some [ 0; 1 ])
    (Dfa.shortest_witness d);
  let empty = Dfa.inter d (Dfa.complement d) in
  Alcotest.(check bool) "L ∩ ¬L empty" true (Dfa.is_empty empty);
  Alcotest.(check (option (list int))) "no witness" None
    (Dfa.shortest_witness empty)

let test_dfa_equiv_subset () =
  let star01 = Regex.star (Regex.alt (Regex.sym 0) (Regex.sym 1)) in
  let d_all = dfa_of_regex ~alphabet:[ 0; 1 ] star01 in
  let d_univ = Dfa.universal_lang ~alphabet:[ 0; 1 ] in
  Alcotest.(check bool) "(0+1)* = universal" true (Dfa.equiv d_all d_univ);
  let d_0star = dfa_of_regex ~alphabet:[ 0; 1 ] (Regex.star (Regex.sym 0)) in
  Alcotest.(check bool) "0* subset (0+1)*" true (Dfa.subset d_0star d_all);
  Alcotest.(check bool) "(0+1)* not subset 0*" false (Dfa.subset d_all d_0star)

let test_dfa_run_residual () =
  let re = Regex.cat (Regex.sym 0) (Regex.cat (Regex.sym 1) (Regex.sym 2)) in
  let d = dfa_of_regex re in
  (match Dfa.run d [ 0; 1 ] with
  | Some q ->
      Alcotest.(check bool) "residual non-empty" true
        (Dfa.final_reachable_from d q)
  | None -> Alcotest.fail "run failed");
  (match Dfa.run d [ 1 ] with
  | Some q ->
      Alcotest.(check bool) "dead after wrong start" false
        (Dfa.final_reachable_from d q)
  | None -> Alcotest.fail "run failed");
  Alcotest.(check (option int)) "unknown symbol" None (Dfa.run d [ 42 ])

let test_dfa_of_tables_validation () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Dfa.of_tables: inconsistent tables") (fun () ->
      ignore
        (Dfa.of_tables ~alphabet:[ 0 ] ~start:0 ~finals:[| true |]
           ~next:[| [| 5 |] |]))

(* --- program <-> automata (Theorem 3.1 machinery) --- *)

let lang_of_program p = Language.of_program p

let test_of_program_if_union () =
  let p = Sral.Parser.program "if c then { read a @ s1 } else { read b @ s1 }" in
  let l = lang_of_program p in
  Alcotest.(check bool) "branch 1" true (Language.contains l [ a0 ]);
  Alcotest.(check bool) "branch 2" true (Language.contains l [ a1 ]);
  Alcotest.(check bool) "not both" false (Language.contains l [ a0; a1 ])

let test_of_program_loop () =
  let p = Sral.Parser.program "while c do { read a @ s1 }" in
  let l = lang_of_program p in
  Alcotest.(check bool) "zero" true (Language.contains l []);
  Alcotest.(check bool) "five" true
    (Language.contains l [ a0; a0; a0; a0; a0 ])

let test_of_program_par () =
  let p = Sral.Parser.program "{ read a @ s1 || read b @ s1 }" in
  let l = lang_of_program p in
  Alcotest.(check bool) "ab" true (Language.contains l [ a0; a1 ]);
  Alcotest.(check bool) "ba" true (Language.contains l [ a1; a0 ]);
  Alcotest.(check bool) "a alone" false (Language.contains l [ a0 ])

let agreement_with_enumeration =
  QCheck.Test.make
    ~name:"symbolic trace model contains every enumerated trace (loop-free)"
    ~count:150
    (QCheck.make (fun rng ->
         Sral.Generate.loop_free_program ~resources:[ "a"; "b" ]
           ~servers:[ "s1"; "s2" ] ~size:7 rng))
    (fun p ->
      let l = lang_of_program p in
      let enumerated =
        Sral.Trace_ops.to_list (Sral.Trace_ops.traces_bounded ~loop_bound:1 p)
      in
      List.for_all (fun t -> Language.contains l t) enumerated)

let thm31_roundtrip =
  QCheck.Test.make
    ~name:"Theorem 3.1: regex -> program -> same language" ~count:200
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let tbl = table () in
      let re = Regex.generate ~symbols:(sigma tbl) ~size:10 rng in
      let program = To_program.program ~table:tbl re in
      let l_re = Language.of_regex ~table:tbl re in
      let nfa = Of_program.nfa ~table:tbl program in
      let d = Dfa.minimize (Dfa.of_nfa ~alphabet:(sigma tbl) nfa) in
      Dfa.equiv l_re.Language.dfa d)

let test_to_program_empty_rejected () =
  let tbl = table () in
  Alcotest.check_raises "empty model" To_program.Empty_model (fun () ->
      ignore (To_program.program ~table:tbl Regex.Empty))

let test_to_program_drops_empty_alternative () =
  let tbl = table () in
  let re = Regex.Alt (Regex.Empty, Regex.Sym 0) in
  let p = To_program.program ~table:tbl re in
  Alcotest.(check bool) "just the symbol" true
    (Sral.Ast.equal p (Sral.Ast.Access a0))

let state_elim_roundtrip =
  QCheck.Test.make ~name:"state elimination: NFA -> regex -> same language"
    ~count:100
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let re = Regex.generate ~symbols:[ 0; 1 ] ~size:6 rng in
      let nfa = Nfa.of_regex re in
      let re2 = State_elim.regex nfa in
      let d1 = dfa_of_regex ~alphabet:[ 0; 1 ] re in
      let d2 = dfa_of_regex ~alphabet:[ 0; 1 ] re2 in
      Dfa.equiv d1 d2)

let test_language_witness () =
  let p = Sral.Parser.program "read a @ s1; read b @ s1" in
  let l = lang_of_program p in
  match Language.witness l with
  | Some t -> Alcotest.(check int) "witness length" 2 (Sral.Trace.length t)
  | None -> Alcotest.fail "expected a witness"

let test_language_to_regex () =
  let p = Sral.Parser.program "while c do { read a @ s1 }" in
  let l = lang_of_program p in
  let re = Language.to_regex l in
  Alcotest.(check bool) "eps in regex" true (Regex.matches re []);
  Alcotest.(check bool) "aa in regex" true (Regex.matches re [ 0; 0 ])

let test_language_table_sharing_enforced () =
  let l1 = Language.of_program (Sral.Ast.Access a0) in
  let l2 = Language.of_program (Sral.Ast.Access a0) in
  Alcotest.check_raises "different tables rejected"
    (Invalid_argument "Language: operands must share their symbol table")
    (fun () -> ignore (Language.equiv l1 l2))

let shuffle_commutes =
  QCheck.Test.make ~name:"shuffle is commutative (as a language)" ~count:80
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let r1 = Regex.generate ~symbols:[ 0; 1 ] ~size:4 rng in
      let r2 = Regex.generate ~symbols:[ 0; 1 ] ~size:4 rng in
      let n1 = Nfa.shuffle (Nfa.of_regex r1) (Nfa.of_regex r2) in
      let n2 = Nfa.shuffle (Nfa.of_regex r2) (Nfa.of_regex r1) in
      Dfa.equiv
        (Dfa.of_nfa ~alphabet:[ 0; 1 ] n1)
        (Dfa.of_nfa ~alphabet:[ 0; 1 ] n2))

let test_language_set_ops () =
  let table = Symbol.of_accesses [ a0; a1 ] in
  let l_a = Language.of_regex ~table (Regex.sym 0) in
  let l_b = Language.of_regex ~table (Regex.sym 1) in
  let l_union = Language.union l_a l_b in
  Alcotest.(check bool) "a in union" true (Language.contains l_union [ a0 ]);
  Alcotest.(check bool) "b in union" true (Language.contains l_union [ a1 ]);
  Alcotest.(check bool) "inter empty" true
    (Language.is_empty (Language.inter l_a l_b));
  let l_diff = Language.diff l_union l_b in
  Alcotest.(check bool) "diff keeps a" true (Language.contains l_diff [ a0 ]);
  Alcotest.(check bool) "diff drops b" false (Language.contains l_diff [ a1 ])

let complement_involution =
  QCheck.Test.make ~name:"complement is an involution" ~count:100
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let re = Regex.generate ~symbols:[ 0; 1 ] ~size:6 rng in
      let d = dfa_of_regex ~alphabet:[ 0; 1 ] re in
      Dfa.equiv d (Dfa.complement (Dfa.complement d)))

let de_morgan_on_languages =
  QCheck.Test.make ~name:"De Morgan: ¬(L1 ∪ L2) = ¬L1 ∩ ¬L2" ~count:100
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let r1 = Regex.generate ~symbols:[ 0; 1 ] ~size:5 rng in
      let r2 = Regex.generate ~symbols:[ 0; 1 ] ~size:5 rng in
      let d1 = dfa_of_regex ~alphabet:[ 0; 1 ] r1 in
      let d2 = dfa_of_regex ~alphabet:[ 0; 1 ] r2 in
      Dfa.equiv
        (Dfa.complement (Dfa.union d1 d2))
        (Dfa.inter (Dfa.complement d1) (Dfa.complement d2)))

(* --- dot rendering --- *)

let contains hay needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1))
  in
  scan 0

let test_dot_nfa () =
  let n = Nfa.cat (Nfa.sym 0) (Nfa.sym 1) in
  let dot = Dot.nfa n in
  Alcotest.(check bool) "header" true (contains dot "digraph nfa");
  Alcotest.(check bool) "symbol edge" true (contains dot "[label=\"s0\"]");
  Alcotest.(check bool) "eps edge" true (contains dot "style=dashed")

let test_dot_dfa_hides_sink () =
  let d = dfa_of_regex ~alphabet:[ 0; 1 ] (Regex.cat (Regex.sym 0) (Regex.sym 1)) in
  let dot = Dot.dfa d in
  Alcotest.(check bool) "header" true (contains dot "digraph dfa");
  (* the sink exists in the DFA but not in the rendering *)
  Alcotest.(check bool) "has final state" true (contains dot "doublecircle")

let test_dot_with_table () =
  let table = Automata.Symbol.of_accesses [ a0 ] in
  let nfa = Of_program.nfa ~table (Sral.Ast.Access a0) in
  let dot = Dot.nfa ~table nfa in
  Alcotest.(check bool) "access label" true (contains dot "read a @ s1")

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac4

let () =
  Alcotest.run "automata"
    [
      ( "symbol",
        [
          Alcotest.test_case "interning" `Quick test_symbol_interning;
          Alcotest.test_case "growth" `Quick test_symbol_growth;
        ] );
      ( "regex",
        [
          Alcotest.test_case "smart constructors" `Quick
            test_regex_smart_constructors;
          Alcotest.test_case "nullable" `Quick test_regex_nullable;
          Alcotest.test_case "matches" `Quick test_regex_matches;
          Alcotest.test_case "derivative = DFA stepwise (shrinking)" `Quick
            test_derivative_matches_dfa_stepwise;
        ] );
      ( "nfa",
        [
          Alcotest.test_case "combinators" `Quick test_nfa_combinators;
          Alcotest.test_case "star" `Quick test_nfa_star;
          Alcotest.test_case "shuffle" `Quick test_nfa_shuffle;
          qcheck nfa_matches_regex;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "subset construction" `Quick
            test_dfa_subset_construction;
          Alcotest.test_case "minimize size" `Quick test_dfa_minimize_size;
          qcheck minimize_preserves_language;
          Alcotest.test_case "boolean algebra" `Quick test_dfa_boolean_algebra;
          Alcotest.test_case "emptiness/witness" `Quick
            test_dfa_emptiness_witness;
          Alcotest.test_case "equiv/subset" `Quick test_dfa_equiv_subset;
          Alcotest.test_case "run/residual" `Quick test_dfa_run_residual;
          Alcotest.test_case "of_tables validation" `Quick
            test_dfa_of_tables_validation;
        ] );
      ( "program",
        [
          Alcotest.test_case "if = union" `Quick test_of_program_if_union;
          Alcotest.test_case "while = star" `Quick test_of_program_loop;
          Alcotest.test_case "par = shuffle" `Quick test_of_program_par;
          qcheck agreement_with_enumeration;
        ] );
      ( "theorem-3.1",
        [
          qcheck thm31_roundtrip;
          Alcotest.test_case "empty rejected" `Quick
            test_to_program_empty_rejected;
          Alcotest.test_case "empty alternative dropped" `Quick
            test_to_program_drops_empty_alternative;
          qcheck state_elim_roundtrip;
          qcheck shuffle_commutes;
        ] );
      ( "dot",
        [
          Alcotest.test_case "nfa" `Quick test_dot_nfa;
          Alcotest.test_case "dfa hides sink" `Quick test_dot_dfa_hides_sink;
          Alcotest.test_case "with table" `Quick test_dot_with_table;
        ] );
      ( "language",
        [
          Alcotest.test_case "witness" `Quick test_language_witness;
          Alcotest.test_case "to_regex" `Quick test_language_to_regex;
          Alcotest.test_case "table sharing" `Quick
            test_language_table_sharing_enforced;
          Alcotest.test_case "set ops" `Quick test_language_set_ops;
          qcheck complement_involution;
          qcheck de_morgan_on_languages;
        ] );
    ]
