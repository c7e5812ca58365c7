(* analyze-queries: a seeded mix of analyzer queries — administrative
   safety (Analysis.Admin), whole-policy analysis (Analysis.Analyzer)
   and safety queries (Analysis.Safety).  The only workload that reaches
   the analysis and automata layers. *)

module Ad = Analysis.Admin
module AF = Scenarios.Admin_family
module PR = Scenarios.Policy_review
module Sf = Analysis.Safety

(* E21's SoD-free Safe scale instance: proving Safe means visiting all
   2^n reachable deployments of the n-op pool. *)
let safe_instance n =
  let p = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user p) [ "u1"; "u2" ];
  let roles = List.init n (Printf.sprintf "r%d") in
  List.iter (Rbac.Policy.add_role p) ("anchor" :: roles);
  Rbac.Policy.grant p "anchor" (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
  let base = { Coordinated.Policy_lang.policy = p; bindings = [] } in
  let pool =
    List.mapi
      (fun i r ->
        if i mod 2 = 0 then Ad.Assign ("u2", r)
        else Ad.Grant (r, Rbac.Perm.make ~operation:"read" ~target:"log@s1"))
      roles
  in
  Ad.make ~base ~world:(Analysis.World.of_policy base)
    ~schedule:{ Ad.pool; budget = n; team = "coalition"; joined = true }
    ~user:"u1"
    ~perm:(Rbac.Perm.make ~operation:"read" ~target:"db@s1")
    ~server:"s1"

(* E16's synthetic k-binding policy: binding i guards read r_i@s1 with
   "read r_(i+1)@s2 before it, and r_i read at most three times". *)
let k_binding_policy k =
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

(* The world the k-binding policy is healthy in: s2 deployed beside
   s1, so every binding's prerequisite read is performable.  (The world
   [World.of_policy] derives has only s1, where every binding is
   rightly unexercisable.) *)
let k_binding_world k =
  let universe =
    List.concat
      (List.init k (fun i ->
           let r = Printf.sprintf "r%d" i in
           [ Sral.Access.read r ~at:"s1"; Sral.Access.read r ~at:"s2" ]))
  in
  Analysis.World.make ~servers:[ "s1"; "s2" ] ~universe ()

(* What a query must answer, fixed before it runs. *)
type expect =
  | Leak_replays  (* Reachable family: Leak, and the witness replays to Granted *)
  | Safe  (* Sabotaged family and scale instances *)
  | Agrees_with_brute_force  (* Adversarial family *)
  | Findings of Analysis.Analyzer.finding list
  | Acquirable_replays  (* witness exists and replays to Granted *)
  | Impossible_unreachable of string  (* the named binding blocks it *)

type kind =
  | Admin of Ad.instance
  | Analyze of Coordinated.Policy_lang.t * Analysis.World.t
  | Acquire of {
      policy : Coordinated.Policy_lang.t;
      world : Analysis.World.t;
      user : string;
      perm : Rbac.Perm.t;
      server : string;
    }

type query = { label : string; kind : kind; expect : expect }

type outcome =
  | Admin_out of Ad.outcome
  | Analyze_out of Analysis.Analyzer.report
  | Acquire_out of Sf.verdict

(* The query specs a seed selects; instances are built from them in
   the set-up phase of every round. *)
type spec =
  | Family of AF.family * int  (* family, instance seed *)
  | Scale of int
  | Fig1
  | Defective
  | K_bindings of int
  | Fig1_acquire of string  (* module *)
  | Defective_acquire of string * string * expect  (* resource, server *)
  | K_acquire of int * int  (* k, binding index *)

let specs ~seed =
  let rng = Random.State.make [| 0xa7a1; seed |] in
  (* Sabotaged and Adversarial small models answer in tens of µs,
     Reachable ones in hundreds, everything else in milliseconds.  With
     as many fast models as millisecond queries (22), the median query
     is the middle of the 60 Reachable ones: a property of that family,
     not of which instances a seed drew. *)
  let fams =
    List.concat_map
      (fun (fam, n) -> List.init n (fun _ -> Family (fam, Random.State.bits rng)))
      [ (AF.Reachable, 60); (AF.Sabotaged, 11); (AF.Adversarial, 11) ]
  in
  let ks = List.init 2 (fun _ -> 4 + Random.State.int rng 9) in
  let modules = List.map fst Scenarios.Integrity_audit.placement in
  let specs =
    fams
    @ [ Scale 8; Scale 10; Scale 12; Fig1; Defective ]
    @ List.map (fun k -> K_bindings k) ks
    @ List.map (fun m -> Fig1_acquire m) modules
    @ [
        Defective_acquire ("cfg", "s1", Acquirable_replays);
        Defective_acquire ("db", "s1", Impossible_unreachable "read:db@s1");
      ]
    @ List.map (fun k -> K_acquire (k, Random.State.int rng k)) ks
  in
  (* a seeded order, so the mix interleaves kinds *)
  let a = Array.of_list specs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let build_query = function
  | Family (fam, s) ->
      let inst = AF.generate fam (Random.State.make [| 0xa7a2; s |]) in
      let expect =
        match fam with
        | AF.Reachable -> Leak_replays
        | AF.Sabotaged -> Safe
        | AF.Adversarial -> Agrees_with_brute_force
      in
      { label = Printf.sprintf "admin:%s:%d" (AF.family_name fam) s; kind = Admin inst; expect }
  | Scale n -> { label = Printf.sprintf "admin:scale:%d" n; kind = Admin (safe_instance n); expect = Safe }
  | Fig1 ->
      { label = "analyze:fig1"; kind = Analyze (PR.fig1 (), PR.fig1_world ()); expect = Findings [] }
  | Defective ->
      {
        label = "analyze:defective";
        kind = Analyze (PR.defective (), PR.defective_world ());
        expect = Findings (PR.defective_expected ());
      }
  | K_bindings k ->
      let p = k_binding_policy k in
      {
        label = Printf.sprintf "analyze:k%d" k;
        kind = Analyze (p, k_binding_world k);
        expect = Findings [];
      }
  | Fig1_acquire m ->
      let server = List.assoc m Scenarios.Integrity_audit.placement in
      {
        label = "acquire:fig1:" ^ m;
        kind =
          Acquire
            {
              policy = PR.fig1 ();
              world = PR.fig1_world ();
              user = "auditor";
              perm = Rbac.Perm.make ~operation:"hash" ~target:(m ^ "@" ^ server);
              server;
            };
        expect = Acquirable_replays;
      }
  | Defective_acquire (r, server, expect) ->
      {
        label = Printf.sprintf "acquire:defective:%s" r;
        kind =
          Acquire
            {
              policy = PR.defective ();
              world = PR.defective_world ();
              user = "carol";
              perm = Rbac.Perm.make ~operation:"read" ~target:(r ^ "@" ^ server);
              server;
            };
        expect;
      }
  | K_acquire (k, i) ->
      let policy = k_binding_policy k in
      {
        label = Printf.sprintf "acquire:k%d:r%d" k i;
        kind =
          Acquire
            {
              policy;
              world = k_binding_world k;
              user = "u";
              perm = Rbac.Perm.make ~operation:"read" ~target:(Printf.sprintf "r%d@s1" i);
              server = "s1";
            };
        expect = Acquirable_replays;
      }

let build specs = Array.of_list (List.map build_query specs)

let run_query q =
  match q.kind with
  | Admin inst -> Admin_out (Ad.check inst)
  | Analyze (p, world) -> Analyze_out (Analysis.Analyzer.analyze ~world p)
  | Acquire { policy; world; user; perm; server } ->
      Acquire_out (Sf.can_acquire ~world ~policy ~user ~perm ~server)

(* A query with no outcome: the engine gave up. *)
let undetermined = function
  | Admin_out { Ad.verdict = Ad.Undetermined _; _ } -> true
  | Acquire_out (Sf.Undetermined _) -> true
  | Analyze_out r -> r.Analysis.Analyzer.truncated
  | _ -> false

let verdict_tag = function
  | Ad.Leak _ -> "leak"
  | Ad.Safe _ -> "safe"
  | Ad.Undetermined _ -> "undetermined"

(* The brute-force verdicts for the Adversarial instances, computed
   once per run outside the timed region. *)
let brute_force_tags queries =
  Array.map
    (fun q ->
      match (q.kind, q.expect) with
      | Admin inst, Agrees_with_brute_force -> Some (verdict_tag (Ad.brute_force inst).Ad.verdict)
      | _ -> None)
    queries

let granted v = Coordinated.Decision.is_granted v

(* [None] when the outcome is the known answer, else why not. *)
let check_outcome q ~brute out =
  let fail fmt = Printf.ksprintf (fun s -> Some (q.label ^ ": " ^ s)) fmt in
  match (q.expect, q.kind, out) with
  | Leak_replays, Admin inst, Admin_out { Ad.verdict = Ad.Leak { ops; witness }; _ } ->
      let trace = List.map fst witness.Sf.steps in
      if granted (Ad.replay_witness inst ops ~trace) then None
      else fail "leak witness does not replay to a grant"
  | Safe, _, Admin_out { Ad.verdict = Ad.Safe _; _ } -> None
  | Agrees_with_brute_force, _, Admin_out o -> (
      match brute with
      | Some tag when String.equal tag (verdict_tag o.Ad.verdict) -> None
      | Some tag -> fail "symbolic %s, brute force %s" (verdict_tag o.Ad.verdict) tag
      | None -> fail "no brute-force verdict")
  | Findings want, _, Analyze_out r ->
      if r.Analysis.Analyzer.findings = want then None
      else fail "%d findings, expected %d" (List.length r.findings) (List.length want)
  | Acquirable_replays, Acquire { policy; world; user; _ }, Acquire_out (Sf.Acquirable w) ->
      let trace = List.map fst w.Sf.steps in
      if granted (Sf.replay ~world ~policy ~user ~trace ()) then None
      else fail "witness does not replay to a grant"
  | ( Impossible_unreachable b,
      _,
      Acquire_out (Sf.Impossible (Sf.Unreachable { binding = Some b' })) )
    when String.equal b b' ->
      None
  | _, _, Admin_out o -> fail "unexpected admin verdict %s" (verdict_tag o.Ad.verdict)
  | _, _, Acquire_out v -> fail "unexpected %s" (Format.asprintf "%a" Sf.pp_verdict v)
  | _, _, Analyze_out _ -> fail "unexpected analyzer outcome"

let round specs =
  let t0 = Clock.now_ns () in
  let queries = build specs in
  let setup_s = Clock.seconds_since t0 in
  let lat = Array.make (Array.length queries) 0 in
  let t1 = Clock.now_ns () in
  let outcomes =
    Array.mapi
      (fun i q ->
        let s = Clock.now_ns () in
        let o = run_query q in
        lat.(i) <- Clock.now_ns () - s;
        o)
      queries
  in
  ( { Report.setup_s; elapsed_s = Clock.seconds_since t1; ops = Array.length queries; lat },
    queries,
    outcomes )

(* Every mismatch against the known answers and the brute-force tags. *)
let gate ~brute queries outcomes =
  List.filter_map Fun.id
    (Array.to_list (Array.mapi (fun i q -> check_outcome q ~brute:brute.(i) outcomes.(i)) queries))

let count_undetermined outcomes =
  Array.fold_left (fun a o -> if undetermined o then a + 1 else a) 0 outcomes

let timed ~seconds ~seed =
  let specs = specs ~seed in
  let brute = brute_force_tags (build specs) in
  let errors = ref [] and failed = ref 0 in
  let rounds =
    Report.run_rounds ~seconds ~min_rounds:3 (fun _ ->
        let r, queries, outcomes = round specs in
        failed := !failed + count_undetermined outcomes;
        if !errors = [] then errors := gate ~brute queries outcomes;
        r)
  in
  List.iter (Printf.eprintf "analyze-queries: %s\n") !errors;
  {
    Report.correct = !errors = [];
    attempted = List.length rounds * List.length specs;
    failed = !failed;
    metrics =
      Report.end_to_end rounds ~rate:"queries/s"
        ~latency:"query_p*: time to verdict of one query (us here, not ms)"
        ~rss_mb:(float_of_int (Proc.vm_hwm_kb None) /. 1024.)
        ~rss_note:"VmHWM of the benchmark process";
  }

(* The traced probe: one span per query, plus the admin engine's own
   exploration counters. *)
let traced ~seed spans =
  let specs = specs ~seed in
  let queries = build specs in
  let brute = brute_force_tags queries in
  let outcomes =
    Array.mapi
      (fun i q ->
        let kind =
          match q.kind with Admin _ -> "admin" | Analyze _ -> "analyzer" | Acquire _ -> "safety"
        in
        Spans.time spans ~name:("analyze." ^ kind) ~req:i (fun _ -> run_query q))
      queries
  in
  let tot = Spans.totals spans in
  let expanded = ref 0 and leaf_calls = ref 0 in
  Array.iter
    (function
      | Admin_out o ->
          expanded := !expanded + o.Ad.stats.Ad.expanded;
          leaf_calls := !leaf_calls + o.Ad.stats.Ad.leaf_calls
      | _ -> ())
    outcomes;
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let plain, _, _ = round specs in
  let g1 = Gc.quick_stat () in
  let traced_s = float_of_int (List.fold_left (fun a n -> a + Spans.total tot n) 0
    [ "analyze.admin"; "analyze.analyzer"; "analyze.safety" ]) /. 1e9 in
  {
    Report.metrics =
      [
        Report.metric "admin.states_explored" "count" ~samples:(Spans.count tot "analyze.admin")
          ~note:"states expanded over the admin queries of one round" (float_of_int !expanded);
        Report.metric "admin.leaf_calls" "count" ~samples:(Spans.count tot "analyze.admin")
          ~note:"leaf-oracle materialisations" (float_of_int !leaf_calls);
        Report.metric "admin.us_per_state" "us" ~samples:!expanded
          (float_of_int (Spans.total tot "analyze.admin") /. 1e3 /. float_of_int (max 1 !expanded));
        Report.metric "analyzer.analyze_ms" "ms" ~samples:(Spans.count tot "analyze.analyzer")
          ~note:"mean Analyzer.analyze" (Spans.mean_ns tot "analyze.analyzer" /. 1e6);
        Report.metric "safety.can_acquire_us" "us" ~samples:(Spans.count tot "analyze.safety")
          ~note:"mean Safety.can_acquire" (Spans.mean_ns tot "analyze.safety" /. 1e3);
      ];
    gc_ops = Array.length queries;
    gc = (g0, g1);
    overhead = (traced_s /. plain.Report.elapsed_s) -. 1.;
    correct = gate ~brute queries outcomes = [];
    attempted = Array.length queries;
    failed = count_undetermined outcomes;
  }
