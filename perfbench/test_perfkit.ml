(* Tests for the benchmark's own pieces: exact percentiles, seeded
   inputs, and the correctness gates rejecting corrupted outputs. *)

open Perfkit

let range a b = Array.init (b - a + 1) (fun i -> a + i)

let test_percentiles () =
  let check msg want got = Alcotest.(check int) msg want got in
  let a = range 1 100 in
  check "p50 of 1..100" 50 (Pct.nearest_rank ~p:50. a);
  check "p99 of 1..100" 99 (Pct.nearest_rank ~p:99. a);
  check "p100 of 1..100" 100 (Pct.nearest_rank ~p:100. a);
  check "p1 of 1..100" 1 (Pct.nearest_rank ~p:1. a);
  check "p50 of 1..10" 5 (Pct.nearest_rank ~p:50. (range 1 10));
  check "p99 of 1..10" 10 (Pct.nearest_rank ~p:99. (range 1 10));
  check "single sample" 7 (Pct.nearest_rank ~p:99. [| 7 |]);
  check "unsorted input" 3 (Pct.nearest_rank ~p:50. [| 5; 1; 4; 2; 3 |]);
  (* above 512 samples the answer is still a sample, not a bucket edge *)
  let big = Array.init 10_000 (fun i -> (i * 7919) mod 10_007) in
  let sorted = Pct.sorted_ints big in
  check "p99 of 10k samples" sorted.(9_899) (Pct.nearest_rank ~p:99. big);
  Alcotest.(check (float 1e-9)) "median of an even count" 2.5 (Pct.median_float [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "lower half of an even count" 1.5
    (Pct.lower_half_mean [ 100.; 2.; 4.; 1. ]);
  Alcotest.(check (float 1e-9)) "lower half of an odd count keeps the middle" 2.
    (Pct.lower_half_mean [ 3.; 9.; 1.; 2.; 7. ]);
  Alcotest.(check (float 1e-9)) "upper half of an even count" 52.
    (Pct.upper_half_mean [ 100.; 2.; 4.; 1. ]);
  Alcotest.(check (float 1e-9)) "one value" 5. (Pct.lower_half_mean [ 5. ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct.rank: no samples") (fun () ->
      ignore (Pct.nearest_rank ~p:50. [||]))

let test_seeded_bytes () =
  let bytes seed = Array.map Svc.stream_bytes (Svc.streams ~seed ~requests:300) in
  Alcotest.(check (array string)) "same seed, same bytes" (bytes 3) (bytes 3);
  Alcotest.(check bool) "another seed, other bytes" false (bytes 3 = bytes 4);
  (* a longer run extends a connection's stream, it does not reshuffle it *)
  let short = Svc.streams ~seed:3 ~requests:100 and long = Svc.streams ~seed:3 ~requests:300 in
  Array.iteri
    (fun c s ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d: prefix" c)
        true
        (List.filteri (fun i _ -> i < 99) s.Svc.main
        = List.filteri (fun i _ -> i < 99) long.(c).Svc.main))
    short;
  let decide seed = Decide.generate ~seed ~ops:500 in
  Alcotest.(check bool) "decide-history: same seed, same ops" true ((decide 3).ops = (decide 3).ops);
  Alcotest.(check bool) "analyze-queries: same seed, same specs" true
    (Analyze.specs ~seed:3 = Analyze.specs ~seed:3)

(* Sessions stay valid at any length: the oracle never rejects a
   request for naming an object that departed. *)
let test_sessions_stay_valid () =
  let streams = Svc.streams ~seed:5 ~requests:2000 in
  let base = Service.Script.base_system () in
  List.iter
    (fun (_, replies) ->
      List.iter
        (function
          | Service.Protocol.Rejected { reason; _ } ->
              if String.length reason >= 14 && String.sub reason 0 14 = "unknown object" then
                Alcotest.failf "request rejected: %s" reason
          | _ -> ())
        replies)
    (Service.Script.drive_direct ~base (Svc.script_of streams))

let corrupt_reply : Service.Protocol.reply -> Service.Protocol.reply = function
  | Verdict { seq; verdict = Granted } -> Verdict { seq; verdict = Denied Not_arrived }
  | Verdict { seq; _ } -> Verdict { seq; verdict = Granted }
  | Ack { seq } -> Ack { seq = seq + 1 }
  | r -> r

let test_svc_gate () =
  let streams = Svc.streams ~seed:2 ~requests:200 in
  let expected = Svc.expected_render streams in
  (* the full stack without sockets: framing, the deterministic
     transport and the server core *)
  let replies =
    Array.of_list
      (List.map snd
         (Service.Script.run_sim ~base:(Service.Script.base_system ()) (Svc.script_of streams)))
  in
  Alcotest.(check bool) "server replies pass" true (Svc.gate ~expected replies);
  let corrupted = Array.copy replies in
  corrupted.(1) <- List.mapi (fun i r -> if i = 40 then corrupt_reply r else r) corrupted.(1);
  Alcotest.(check bool) "one corrupted reply trips the gate" false (Svc.gate ~expected corrupted);
  let dropped = Array.copy replies in
  dropped.(0) <- List.filteri (fun i _ -> i <> 3) dropped.(0);
  Alcotest.(check bool) "one lost event or reply trips the gate" false (Svc.gate ~expected dropped)

let test_decide_gate () =
  let input = Decide.generate ~seed:2 ~ops:800 in
  let expected = Decide.oracle input in
  let verdicts = Decide.execute (Decide.build input) input in
  Alcotest.(check (option int)) "Indexed agrees with Naive" None (Decide.gate ~expected verdicts);
  let i = Array.length verdicts / 2 in
  verdicts.(i) <-
    (match verdicts.(i) with
    | Granted -> Coordinated.Decision.Denied Not_arrived
    | Denied _ -> Granted);
  Alcotest.(check (option int)) "a flipped verdict trips the gate" (Some i)
    (Decide.gate ~expected verdicts);
  (* a denial with another reason is a mismatch too *)
  let verdicts = Decide.execute (Decide.build input) input in
  let j = ref 0 in
  while Coordinated.Decision.is_granted verdicts.(!j) do
    incr j
  done;
  verdicts.(!j) <- Denied (Rbac_denied "corrupted");
  Alcotest.(check (option int)) "another denial reason trips the gate" (Some !j)
    (Decide.gate ~expected verdicts)

let test_emulate_totals () =
  let objects = 1_234 in
  let world = Emulate.build ~objects () in
  let m = Naplet.World.run world in
  let got = Emulate.observed world m in
  Alcotest.(check string) "known totals" (Emulate.pp_totals (Emulate.expected_totals objects))
    (Emulate.pp_totals got);
  Alcotest.(check bool) "one lost event trips the gate" false
    (Emulate.expected_totals objects = { got with events = got.events - 1 })

let test_analyze_gate () =
  let specs =
    List.filter (function Analyze.Scale n -> n < 12 | _ -> true) (Analyze.specs ~seed:2)
  in
  let queries = Analyze.build specs in
  let brute = Analyze.brute_force_tags queries in
  let outcomes = Array.map Analyze.run_query queries in
  Alcotest.(check (list string)) "known answers hold" [] (Analyze.gate ~brute queries outcomes);
  let find p =
    let rec go i = if p queries.(i) then i else go (i + 1) in
    go 0
  in
  let defective = find (fun q -> q.Analyze.label = "analyze:defective") in
  let fig1 = find (fun q -> q.Analyze.label = "analyze:fig1") in
  let corrupted = Array.copy outcomes in
  corrupted.(defective) <- outcomes.(fig1);
  Alcotest.(check int) "missing findings trip the gate" 1
    (List.length (Analyze.gate ~brute queries corrupted));
  let adversarial = find (fun q -> q.Analyze.expect = Analyze.Agrees_with_brute_force) in
  let brute' = Array.copy brute in
  brute'.(adversarial) <-
    (match brute.(adversarial) with Some "leak" -> Some "safe" | _ -> Some "leak");
  Alcotest.(check int) "a brute-force disagreement trips the gate" 1
    (List.length (Analyze.gate ~brute:brute' queries outcomes))

let () =
  Alcotest.run "perfkit"
    [
      ("pct", [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles ]);
      ( "inputs",
        [
          Alcotest.test_case "seeded request bytes" `Quick test_seeded_bytes;
          Alcotest.test_case "svc sessions stay valid" `Quick test_sessions_stay_valid;
        ] );
      ( "gates",
        [
          Alcotest.test_case "svc-mixed" `Quick test_svc_gate;
          Alcotest.test_case "decide-history" `Quick test_decide_gate;
          Alcotest.test_case "emulate-coalition" `Quick test_emulate_totals;
          Alcotest.test_case "analyze-queries" `Quick test_analyze_gate;
        ] );
    ]
