(* Tests for the SRAL language: lexer, parser, printer, expressions,
   program analyses and the extensional trace-model operators. *)

open Sral

let parse = Parser.program

let check_trace_set msg expected set =
  let actual =
    List.sort String.compare
      (List.map Trace.to_string (Trace_ops.to_list set))
  in
  let expected =
    List.sort String.compare (List.map Trace.to_string expected)
  in
  Alcotest.(check (list string)) msg expected actual

let acc op r s = Access.make ~op ~resource:r ~server:s
let read_ r s = acc Access.Read r s
let write_ r s = acc Access.Write r s

(* --- lexer --- *)

let test_lexer_basic () =
  let tokens = Lexer.tokenize "read db @ s1 ; x := 1 + 2" in
  Alcotest.(check int) "token count" 11 (List.length tokens);
  Alcotest.(check bool) "ends with EOF" true
    (List.nth tokens 10 = Lexer.EOF)

let test_lexer_comment () =
  let tokens = Lexer.tokenize "skip # a comment\n; skip" in
  Alcotest.(check int) "comment stripped" 4 (List.length tokens)

let test_lexer_operators () =
  let tokens = Lexer.tokenize "<= >= == != && || := ? !" in
  Alcotest.(check int) "all operators plus EOF" 10 (List.length tokens)

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Lex_error ("unexpected character '$'", 0))
    (fun () -> ignore (Lexer.tokenize "$"))

(* --- parser --- *)

let test_parse_access () =
  match parse "read db @ s1" with
  | Ast.Access a ->
      Alcotest.(check string) "resource" "db" a.Access.resource;
      Alcotest.(check string) "server" "s1" a.Access.server
  | _ -> Alcotest.fail "expected a single access"

let test_parse_custom_op () =
  match parse "op(hash) m1 @ s2" with
  | Ast.Access a ->
      Alcotest.(check string) "op" "hash" (Access.operation_name a.Access.op)
  | _ -> Alcotest.fail "expected a custom access"

let test_parse_custom_op_bare () =
  (* a bare identifier is also accepted as a custom operation *)
  match parse "hash m1 @ s2" with
  | Ast.Access a ->
      Alcotest.(check string) "op" "hash" (Access.operation_name a.Access.op)
  | _ -> Alcotest.fail "expected a custom access"

let test_parse_seq_right_assoc () =
  match parse "skip; skip; skip" with
  | Ast.Seq (Ast.Skip, Ast.Seq (Ast.Skip, Ast.Skip)) -> ()
  | _ -> Alcotest.fail "seq should be right-nested"

let test_parse_par_vs_seq () =
  (* '||' binds tighter than ';' *)
  match parse "read a @ s; skip || skip" with
  | Ast.Seq (Ast.Access _, Ast.Par (Ast.Skip, Ast.Skip)) -> ()
  | _ -> Alcotest.fail "expected seq of access and par"

let test_parse_if_while () =
  match parse "if x > 0 then { skip } else { skip }; while y < 3 do { skip }" with
  | Ast.Seq (Ast.If _, Ast.While _) -> ()
  | _ -> Alcotest.fail "expected if then while"

let test_parse_channels () =
  match parse "ch ? x; ch ! x + 1; signal(done_); wait(done_)" with
  | Ast.Seq (Ast.Recv ("ch", "x"), Ast.Seq (Ast.Send ("ch", _), Ast.Seq (Ast.Signal "done_", Ast.Wait "done_"))) ->
      ()
  | _ -> Alcotest.fail "expected channel program"

let test_parse_errors () =
  List.iter
    (fun src ->
      match parse src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" src))
    [
      "read db";          (* missing @ server *)
      "if x then { skip }";  (* missing else *)
      "while do { skip }";   (* missing condition *)
      "skip skip";           (* missing separator *)
      "ch !";                (* missing payload *)
      "{ skip";              (* unclosed brace *)
      "";                    (* empty input *)
    ]

let test_parse_expr () =
  let e = Parser.expr "1 + 2 * 3 == 7 && !false" in
  Alcotest.(check bool) "evaluates true" true (Expr.eval_bool Env.empty e)

let test_expr_precedence () =
  let e = Parser.expr "2 + 3 * 4" in
  Alcotest.(check bool) "mul binds tighter" true
    (Value.equal (Expr.eval Env.empty e) (Value.Int 14))

let test_expr_or_keyword () =
  let e = Parser.expr "false or true" in
  Alcotest.(check bool) "or keyword" true (Expr.eval_bool Env.empty e)

(* --- pretty / roundtrip --- *)

let test_roundtrip_cases () =
  List.iter
    (fun src ->
      let p = parse src in
      let p2 = parse (Pretty.to_string p) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %S" src) true
        (Ast.equal p p2))
    [
      "read db @ s1";
      "read a @ s1; write b @ s2";
      "if x > 0 then { read a @ s1 } else { write b @ s2 }";
      "i := 0; while i < 3 do { read a @ s1; i := i + 1 }";
      "{ read a @ s1 || write b @ s2 }; execute c @ s3";
      "ch ? x; ch ! x * 2; signal(sync); wait(sync)";
      "op(hash) m @ s1; { skip || { skip || skip } }";
      "x := 1 + 2 * 3; if x == 7 or x > 10 then { skip } else { skip }";
    ]

let roundtrip_prop =
  QCheck.Test.make ~name:"pretty/parse roundtrip (random programs)"
    ~count:200
    (QCheck.make (fun rng ->
         Generate.program ~allow_io:true ~resources:[ "r1"; "r2" ]
           ~servers:[ "s1"; "s2" ] ~size:12 rng))
    (fun p ->
      let printed = Pretty.to_string p in
      match parse printed with
      | p2 -> Ast.equal p p2
      | exception Parser.Parse_error msg ->
          QCheck.Test.fail_reportf "failed to reparse %S: %s" printed msg)

(* --- expressions --- *)

let test_expr_eval_errors () =
  let check_err name e =
    match Expr.eval Env.empty e with
    | exception Expr.Eval_error _ -> ()
    | _ -> Alcotest.fail (name ^ " should raise")
  in
  check_err "unbound var" (Expr.Var "nope");
  check_err "div by zero" (Expr.Binop (Expr.Div, Expr.Int 1, Expr.Int 0));
  check_err "mod by zero" (Expr.Binop (Expr.Mod, Expr.Int 1, Expr.Int 0));
  check_err "neg of bool" (Expr.Neg (Expr.Bool true));
  check_err "plus on bool" (Expr.Binop (Expr.Add, Expr.Bool true, Expr.Int 1))

let test_expr_short_circuit () =
  (* the right operand would raise, but must not be evaluated *)
  let div0 = Expr.Binop (Expr.Div, Expr.Int 1, Expr.Int 0) in
  let e1 = Expr.Binop (Expr.And, Expr.Bool false, div0) in
  let e2 = Expr.Binop (Expr.Or, Expr.Bool true, div0) in
  Alcotest.(check bool) "false && _" false (Expr.eval_bool Env.empty e1);
  Alcotest.(check bool) "true or _" true (Expr.eval_bool Env.empty e2)

let test_expr_free_vars () =
  let e = Parser.expr "x + y * x - z" in
  Alcotest.(check (list string)) "free vars" [ "x"; "y"; "z" ]
    (Expr.free_vars e)

(* --- program analyses --- *)

let prog1 =
  parse
    "read a @ s1; if x > 0 then { write b @ s2 } else { read a @ s1 }; ch ? y; signal(ev)"

let test_program_size () =
  Alcotest.(check bool) "size positive" true (Program.size prog1 > 5)

let test_program_accesses () =
  Alcotest.(check int) "distinct accesses" 2
    (List.length (Program.accesses prog1));
  Alcotest.(check int) "occurrences" 3 (Program.access_count prog1)

let test_program_servers_resources () =
  Alcotest.(check (list string)) "servers" [ "s1"; "s2" ]
    (Program.servers prog1);
  Alcotest.(check (list string)) "resources" [ "a"; "b" ]
    (Program.resources prog1)

let test_program_channels_signals () =
  Alcotest.(check (list string)) "channels" [ "ch" ] (Program.channels prog1);
  Alcotest.(check (list string)) "signals" [ "ev" ] (Program.signals prog1)

let test_program_flags () =
  Alcotest.(check bool) "no par" false (Program.has_par prog1);
  Alcotest.(check bool) "no loop" false (Program.has_loop prog1);
  let p = parse "while c do { skip || skip }" in
  Alcotest.(check bool) "has par" true (Program.has_par p);
  Alcotest.(check bool) "has loop" true (Program.has_loop p)

let test_normalize () =
  let p = Ast.Seq (Ast.Skip, Ast.Seq (Ast.Access (read_ "a" "s1"), Ast.Skip)) in
  Alcotest.(check bool) "skips removed" true
    (Ast.equal (Program.normalize p) (Ast.Access (read_ "a" "s1")))

let normalize_preserves_traces =
  QCheck.Test.make ~name:"normalize preserves the trace model" ~count:100
    (QCheck.make (fun rng ->
         Generate.program ~resources:[ "r" ] ~servers:[ "s" ] ~size:8 rng))
    (fun p ->
      let t1 = Trace_ops.traces_bounded ~loop_bound:2 p in
      let t2 = Trace_ops.traces_bounded ~loop_bound:2 (Program.normalize p) in
      Trace_ops.Trace_set.equal t1 t2)

(* --- trace operators --- *)

let a1 = read_ "a" "s1"
let a2 = write_ "b" "s2"
let a3 = read_ "c" "s3"

let test_trace_basic () =
  let t = [ a1; a2; a1 ] in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check bool) "mem" true (Trace.mem a2 t);
  Alcotest.(check bool) "not mem" false (Trace.mem a3 t);
  Alcotest.(check (list int)) "positions" [ 0; 2 ] (Trace.positions a1 t);
  Alcotest.(check int) "count" 2
    (Trace.count (fun a -> Access.equal a a1) t)

let test_concat () =
  let m1 = Trace_ops.of_list [ [ a1 ] ] in
  let m2 = Trace_ops.of_list [ [ a2 ]; [ a3 ] ] in
  check_trace_set "pointwise concat" [ [ a1; a2 ]; [ a1; a3 ] ]
    (Trace_ops.concat m1 m2)

let test_interleave_counts () =
  (* |interleave t v| = C(|t|+|v|, |t|) for traces with distinct symbols *)
  let t = [ a1; a2 ] in
  let v = [ a3 ] in
  Alcotest.(check int) "C(3,1)" 3
    (List.length (Trace_ops.to_list (Trace_ops.interleave_traces t v)));
  let v2 = [ a3; read_ "d" "s4" ] in
  Alcotest.(check int) "C(4,2)" 6
    (List.length (Trace_ops.to_list (Trace_ops.interleave_traces t v2)))

let test_interleave_preserves_order () =
  let results = Trace_ops.to_list (Trace_ops.interleave_traces [ a1; a2 ] [ a3 ]) in
  List.iter
    (fun t ->
      let p1 = List.hd (Trace.positions a1 t) in
      let p2 = List.hd (Trace.positions a2 t) in
      Alcotest.(check bool) "a1 before a2" true (p1 < p2))
    results

let test_interleave_empty () =
  check_trace_set "eps # t = {t}" [ [ a1 ] ]
    (Trace_ops.interleave_traces [] [ a1 ])

let test_kleene () =
  let m = Trace_ops.of_list [ [ a1 ] ] in
  let closure = Trace_ops.kleene ~bound:3 m in
  check_trace_set "a* up to 3"
    [ []; [ a1 ]; [ a1; a1 ]; [ a1; a1; a1 ] ]
    closure

let test_kleene_fixpoint () =
  (* kleene of {eps} converges immediately *)
  let m = Trace_ops.of_list [ [] ] in
  check_trace_set "eps* = {eps}" [ [] ] (Trace_ops.kleene ~bound:10 m)

let test_traces_bounded_if () =
  let p = parse "if c then { read a @ s1 } else { write b @ s2 }" in
  check_trace_set "union of branches" [ [ a1 ]; [ a2 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_traces_bounded_par () =
  let p = parse "{ read a @ s1 || write b @ s2 }" in
  check_trace_set "interleavings" [ [ a1; a2 ]; [ a2; a1 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_traces_bounded_io_invisible () =
  let p = parse "ch ? x; signal(e); read a @ s1" in
  check_trace_set "io is trace-invisible" [ [ a1 ] ]
    (Trace_ops.traces_bounded ~loop_bound:2 p)

let test_server_flow () =
  let p = parse "read a @ s1; read b @ s2; read c @ s2" in
  Alcotest.(check (list (pair string string))) "linear" [ ("s1", "s2") ]
    (Program.server_flow p);
  let p2 = parse "read a @ s1; if c then { read b @ s2 } else { read c @ s3 }" in
  Alcotest.(check (list (pair string string))) "branching"
    [ ("s1", "s2"); ("s1", "s3") ]
    (Program.server_flow p2);
  (* the loop closes the cycle s1 -> s2 -> s1 *)
  let p3 = parse "while c do { read a @ s1; read b @ s2 }" in
  Alcotest.(check (list (pair string string))) "loop back edge"
    [ ("s1", "s2"); ("s2", "s1") ]
    (Program.server_flow p3);
  (* interleaving crosses branches both ways *)
  let p4 = parse "{ read a @ s1 || read b @ s2 }" in
  Alcotest.(check (list (pair string string))) "par"
    [ ("s1", "s2"); ("s2", "s1") ]
    (Program.server_flow p4);
  Alcotest.(check (list (pair string string))) "single server" []
    (Program.server_flow (parse "read a @ s1; read b @ s1"))

(* --- big-step evaluator --- *)

let test_eval_sequence () =
  match Eval.run (parse "read a @ s1; x := 2; if x > 1 then { write b @ s2 } else { skip }") with
  | Ok { trace; env } ->
      Alcotest.(check int) "two accesses" 2 (Trace.length trace);
      Alcotest.(check bool) "env updated" true
        (Env.find env "x" = Some (Value.Int 2))
  | Error e -> Alcotest.fail (Format.asprintf "%a" Eval.pp_error e)

let test_eval_loop () =
  match Eval.run (parse "i := 0; while i < 5 do { read a @ s1; i := i + 1 }") with
  | Ok { trace; _ } -> Alcotest.(check int) "five accesses" 5 (Trace.length trace)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Eval.pp_error e)

let test_eval_errors () =
  (match Eval.run (parse "ch ? x") with
  | Error (Eval.Unsupported _) -> ()
  | _ -> Alcotest.fail "recv should be unsupported");
  (match Eval.run (parse "while true do { skip }") with
  | Error Eval.Out_of_fuel -> ()
  | _ -> Alcotest.fail "divergence should exhaust fuel");
  match Eval.run (parse "if zz > 0 then { skip } else { skip }") with
  | Error (Eval.Eval_error _) -> ()
  | _ -> Alcotest.fail "unbound variable should fail"

let eval_trace_in_trace_model =
  QCheck.Test.make
    ~name:"big-step trace is in the symbolic trace model (par-free)"
    ~count:150
    (QCheck.make (fun rng ->
         Generate.program ~allow_par:false ~resources:[ "a"; "b" ]
           ~servers:[ "s1"; "s2" ] ~size:8 rng))
    (fun p ->
      match Eval.trace_of p with
      | None -> QCheck.assume_fail ()
      | Some trace ->
          (* membership in the program's regular trace model — checked
             on the DFA, so nested loops cost nothing *)
          Automata.Language.contains (Automata.Language.of_program p) trace)

(* --- access --- *)

let test_access_compare_total () =
  let all = [ a1; a2; a3; acc (Access.Custom "hash") "a" "s1" ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let c1 = Access.compare x y and c2 = Access.compare y x in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        all)
    all

let test_access_operation_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "name roundtrip" true
        (Access.operation_of_name (Access.operation_name op) = op))
    [ Access.Read; Access.Write; Access.Execute; Access.Custom "hash" ]

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac5

let () =
  Alcotest.run "sral"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comment" `Quick test_lexer_comment;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "error" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "access" `Quick test_parse_access;
          Alcotest.test_case "custom op" `Quick test_parse_custom_op;
          Alcotest.test_case "bare custom op" `Quick test_parse_custom_op_bare;
          Alcotest.test_case "seq right assoc" `Quick test_parse_seq_right_assoc;
          Alcotest.test_case "par vs seq" `Quick test_parse_par_vs_seq;
          Alcotest.test_case "if/while" `Quick test_parse_if_while;
          Alcotest.test_case "channels" `Quick test_parse_channels;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "expr" `Quick test_parse_expr;
          Alcotest.test_case "expr precedence" `Quick test_expr_precedence;
          Alcotest.test_case "or keyword" `Quick test_expr_or_keyword;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip cases" `Quick test_roundtrip_cases;
          qcheck roundtrip_prop;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval errors" `Quick test_expr_eval_errors;
          Alcotest.test_case "short circuit" `Quick test_expr_short_circuit;
          Alcotest.test_case "free vars" `Quick test_expr_free_vars;
        ] );
      ( "program",
        [
          Alcotest.test_case "size" `Quick test_program_size;
          Alcotest.test_case "accesses" `Quick test_program_accesses;
          Alcotest.test_case "servers/resources" `Quick
            test_program_servers_resources;
          Alcotest.test_case "channels/signals" `Quick
            test_program_channels_signals;
          Alcotest.test_case "flags" `Quick test_program_flags;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "server flow" `Quick test_server_flow;
          qcheck normalize_preserves_traces;
        ] );
      ( "traces",
        [
          Alcotest.test_case "basics" `Quick test_trace_basic;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "interleave counts" `Quick test_interleave_counts;
          Alcotest.test_case "interleave order" `Quick
            test_interleave_preserves_order;
          Alcotest.test_case "interleave empty" `Quick test_interleave_empty;
          Alcotest.test_case "kleene" `Quick test_kleene;
          Alcotest.test_case "kleene fixpoint" `Quick test_kleene_fixpoint;
          Alcotest.test_case "traces of if" `Quick test_traces_bounded_if;
          Alcotest.test_case "traces of par" `Quick test_traces_bounded_par;
          Alcotest.test_case "io invisible" `Quick
            test_traces_bounded_io_invisible;
        ] );
      ( "eval",
        [
          Alcotest.test_case "sequence" `Quick test_eval_sequence;
          Alcotest.test_case "loop" `Quick test_eval_loop;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          qcheck eval_trace_in_trace_model;
        ] );
      ( "access",
        [
          Alcotest.test_case "compare total" `Quick test_access_compare_total;
          Alcotest.test_case "operation roundtrip" `Quick
            test_access_operation_roundtrip;
        ] );
    ]
