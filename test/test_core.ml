(* Tests for the coordinated model: permission bindings, the monitor,
   the Eq. 3.1 + Eq. 4.1 decision, the audit log, the policy language
   and the facade. *)

open Coordinated
module Q = Temporal.Q

let q = Q.of_int
let read_ r s = Sral.Access.read r ~at:s
let a_db = read_ "db" "s1"
let a_cfg = read_ "cfg" "s1"
let prog = Sral.Parser.program

let base_policy () =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "u";
  Rbac.Policy.add_role policy "r";
  Rbac.Policy.assign_user policy "u" "r";
  Rbac.Policy.grant policy "r" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
  policy

let session_of control =
  let s = System.new_session control ~user:"u" in
  Rbac.Session.activate s "r";
  s

(* --- perm bindings --- *)

let test_binding_applies () =
  let b = Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"db@s1") in
  Alcotest.(check bool) "exact" true (Perm_binding.applies_to b a_db);
  Alcotest.(check bool) "other resource" false
    (Perm_binding.applies_to b a_cfg);
  let wild = Perm_binding.make (Rbac.Perm.make ~operation:"*" ~target:"*@s1") in
  Alcotest.(check bool) "wildcard" true (Perm_binding.applies_to wild a_cfg)

let test_binding_negative_dur () =
  let perm = Rbac.Perm.make ~operation:"read" ~target:"db@s1" in
  Alcotest.check_raises "negative dur"
    (Invalid_argument "Perm_binding.make: negative duration") (fun () ->
      ignore (Perm_binding.make ~dur:(Q.make (-1) 2) perm));
  (* a zero budget is legal: the permission is never valid *)
  let b = Perm_binding.make ~dur:Q.zero perm in
  Alcotest.(check (option string)) "zero dur kept" (Some "0")
    (Option.map Q.to_string b.Perm_binding.dur)

(* --- monitor --- *)

let test_monitor_arrivals_and_proofs () =
  let m = Monitor.create ~object_id:"o" () in
  Alcotest.(check (option string)) "nowhere yet" None (Monitor.current_server m);
  Monitor.record_arrival m ~server:"s1" ~time:Q.zero;
  Monitor.record_arrival m ~server:"s2" ~time:(q 5);
  Alcotest.(check (option string)) "current" (Some "s2")
    (Monitor.current_server m);
  Alcotest.(check int) "arrival count" 2 (List.length (Monitor.arrivals m));
  Monitor.record_access m a_db ~time:(q 6);
  Alcotest.(check bool) "proof issued" true
    (Srac.Proof.holds (Monitor.proofs m) a_db);
  Alcotest.(check int) "performed" 1 (Sral.Trace.length (Monitor.performed m))

let test_monitor_clock_monotone () =
  let m = Monitor.create ~object_id:"o" () in
  Monitor.record_arrival m ~server:"s1" ~time:(q 5);
  Alcotest.check_raises "backwards time"
    (Invalid_argument "Monitor: time went backwards (3 < 5)") (fun () ->
      Monitor.record_access m a_db ~time:(q 3))

let test_monitor_activation_fn () =
  let m = Monitor.create ~object_id:"o" () in
  Monitor.set_active m ~key:"k" ~time:(q 1) true;
  Monitor.set_active m ~key:"k" ~time:(q 3) true (* no-op *);
  Monitor.set_active m ~key:"k" ~time:(q 5) false;
  let f = Monitor.activation_fn m ~key:"k" in
  Alcotest.(check bool) "before" false (Temporal.Step_fn.value_at f Q.zero);
  Alcotest.(check bool) "during" true (Temporal.Step_fn.value_at f (q 2));
  Alcotest.(check bool) "after" false (Temporal.Step_fn.value_at f (q 7));
  Alcotest.(check bool) "unknown key inactive" false
    (Monitor.is_active_at m ~key:"zz" (q 2))

(* --- decisions --- *)

let setup ?mode ?(bindings = []) () =
  let control = System.create ?mode ~bindings (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
  (control, session)

let test_decide_plain_rbac () =
  let control, session = setup () in
  let v =
    System.check control ~session ~object_id:"o" ~program:(prog "read db @ s1")
      ~time:(q 1) a_db
  in
  Alcotest.(check bool) "granted" true (Decision.is_granted v);
  (* unauthorized operation *)
  let v2 =
    System.check control ~session ~object_id:"o" ~program:(prog "write db @ s1")
      ~time:(q 2)
      (Sral.Access.write "db" ~at:"s1")
  in
  (match v2 with
  | Decision.Denied (Decision.Rbac_denied _) -> ()
  | _ -> Alcotest.fail "expected rbac denial")

let test_decide_spatial_program_scope () =
  (* reading db requires that cfg is read first on some execution *)
  let c = Srac.Formula.Ordered (a_cfg, a_db) in
  let binding =
    Perm_binding.make ~spatial:c
      ~spatial_modality:Srac.Program_sat.Exists
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let good = prog "read cfg @ s1; read db @ s1" in
  let bad = prog "read db @ s1" in
  Alcotest.(check bool) "feasible program" true
    (Decision.is_granted
       (System.check control ~session ~object_id:"o" ~program:good ~time:(q 1)
          a_db));
  match
    System.check control ~session ~object_id:"o" ~program:bad ~time:(q 2) a_db
  with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected spatial denial, got %a" Decision.pp_verdict v)

let test_decide_spatial_performed_scope () =
  (* at most 2 db reads, judged on history *)
  let c = Srac.Formula.at_most 2 (Srac.Selector.Resource "db") in
  let binding =
    Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1; read db @ s1; read db @ s1" in
  let decide t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "1st" true (Decision.is_granted (decide 1));
  Alcotest.(check bool) "2nd" true (Decision.is_granted (decide 2));
  (match decide 3 with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "3rd should violate history: %a" Decision.pp_verdict v));
  (* and it stays denied *)
  Alcotest.(check bool) "4th still denied" false
    (Decision.is_granted (decide 4))

let test_decide_temporal_expiry () =
  let binding =
    Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Whole_journey
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1" in
  (* activation starts at the first decision (t=0 arrival refresh is
     not automatic here; the first check activates) *)
  let decide t =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
  in
  Alcotest.(check bool) "fresh" true (Decision.is_granted (decide 0));
  Alcotest.(check bool) "within budget" true (Decision.is_granted (decide 4));
  match decide 6 with
  | Decision.Denied (Decision.Temporal_expired { spent; _ }) ->
      Alcotest.(check string) "spent equals dur" "5" (Q.to_string spent)
  | v ->
      Alcotest.fail
        (Format.asprintf "expected expiry, got %a" Decision.pp_verdict v)

let test_decide_per_server_scheme () =
  let binding =
    Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server
      (Rbac.Perm.make ~operation:"read" ~target:"*@*")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1; read db @ s2" in
  let decide t a =
    System.check control ~session ~object_id:"o" ~program ~time:(q t) a
  in
  Alcotest.(check bool) "t=0 s1" true (Decision.is_granted (decide 0 a_db));
  Alcotest.(check bool) "t=6 s1 expired" false
    (Decision.is_granted (decide 6 a_db));
  (* migrate: the per-server budget resets *)
  System.arrive control ~object_id:"o" ~server:"s2" ~time:(q 7);
  let a_db2 = read_ "db" "s2" in
  Alcotest.(check bool) "t=8 s2 fresh" true
    (Decision.is_granted (decide 8 a_db2))

let test_decide_not_arrived () =
  let binding =
    Perm_binding.make ~dur:(q 5)
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  (* no System.arrive *)
  match
    System.check control ~session ~object_id:"ghost"
      ~program:(prog "read db @ s1") ~time:(q 1) a_db
  with
  | Decision.Denied Decision.Not_arrived -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected Not_arrived, got %a" Decision.pp_verdict v)

let test_granted_records_proof () =
  let control, session = setup () in
  ignore
    (System.check control ~session ~object_id:"o"
       ~program:(prog "read db @ s1") ~time:(q 1) a_db);
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "proof recorded" true
    (Srac.Proof.holds (Monitor.proofs m) a_db);
  Alcotest.(check int) "log size" 1 (Audit_log.size (System.log control))

let test_denied_no_proof () =
  let c = Srac.Formula.at_most 0 (Srac.Selector.Resource "db") in
  let binding =
    Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  ignore
    (System.check control ~session ~object_id:"o"
       ~program:(prog "read db @ s1") ~time:(q 1) a_db);
  let m = System.monitor control ~object_id:"o" in
  Alcotest.(check bool) "no proof for denied access" false
    (Srac.Proof.holds (Monitor.proofs m) a_db)

let test_dc_cross_validation () =
  (* the DC route of Theorem 4.1 agrees with the step-function route *)
  let binding =
    Perm_binding.make ~dur:(q 5)
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control, session = setup ~bindings:[ binding ] () in
  let program = prog "read db @ s1" in
  List.iter
    (fun t ->
      let verdict =
        System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
      in
      let m = System.monitor control ~object_id:"o" in
      let dc = Decision.validity_dc_check ~monitor:m ~binding ~time:(q t) in
      (* Granted implies DC-valid; Temporal_expired implies not *)
      match verdict with
      | Decision.Granted ->
          Alcotest.(check bool)
            (Printf.sprintf "dc agrees at %d (granted)" t)
            true dc
      | Decision.Denied (Decision.Temporal_expired _) ->
          Alcotest.(check bool)
            (Printf.sprintf "dc agrees at %d (expired)" t)
            false dc
      | Decision.Denied _ -> ())
    [ 0; 1; 3; 4; 6; 8 ]

(* --- aggregation (the paper's future work) --- *)

let perm_db = Rbac.Perm.make ~operation:"read" ~target:"db@s1"
let perm_cfg = Rbac.Perm.make ~operation:"read" ~target:"cfg@s1"

let test_classify () =
  let bindings =
    [
      Perm_binding.make perm_db;
      Perm_binding.make perm_cfg;
      Perm_binding.make ~dur:(q 5) perm_db;
    ]
  in
  let groups = Aggregate.classify bindings in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let db_group =
    List.find (fun g -> Rbac.Perm.equal g.Aggregate.perm perm_db) groups
  in
  Alcotest.(check int) "db group size" 2 (List.length db_group.Aggregate.members)

let test_aggregate_min_dur () =
  let bindings =
    [
      Perm_binding.make ~dur:(q 10) perm_db;
      Perm_binding.make ~dur:(q 4) perm_db;
      Perm_binding.make perm_db (* infinite *);
    ]
  in
  match Aggregate.aggregate bindings with
  | [ merged ] ->
      Alcotest.(check (option string)) "min duration" (Some "4")
        (Option.map Q.to_string merged.Perm_binding.dur)
  | other -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length other))

let test_aggregate_conjoins_history_constraints () =
  let c1 = Srac.Formula.at_most 5 (Srac.Selector.Resource "db") in
  let c2 = Srac.Formula.Atom a_cfg in
  let bindings =
    [
      Perm_binding.make ~spatial:c1 ~spatial_scope:Perm_binding.Performed perm_db;
      Perm_binding.make ~spatial:c2 ~spatial_scope:Perm_binding.Performed perm_db;
    ]
  in
  match Aggregate.aggregate bindings with
  | [ merged ] -> (
      match merged.Perm_binding.spatial with
      | Some (Srac.Formula.And _) -> ()
      | Some other ->
          Alcotest.fail
            (Format.asprintf "expected conjunction, got %a" Srac.Formula.pp
               other)
      | None -> Alcotest.fail "spatial lost")
  | other -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length other))

let test_aggregate_refuses_exists_program () =
  (* ∃-modality program-scope constraints must not merge *)
  let c1 = Srac.Formula.Atom a_db in
  let c2 = Srac.Formula.Atom a_cfg in
  let bindings =
    [
      Perm_binding.make ~spatial:c1 ~spatial_modality:Srac.Program_sat.Exists
        perm_db;
      Perm_binding.make ~spatial:c2 ~spatial_modality:Srac.Program_sat.Exists
        perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let test_aggregate_refuses_mixed_proof_scopes () =
  let c = Srac.Formula.at_most 2 (Srac.Selector.Resource "db") in
  let bindings =
    [
      Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
        ~proof_scope:Perm_binding.Own perm_db;
      Perm_binding.make ~spatial:c ~spatial_scope:Perm_binding.Performed
        ~proof_scope:Perm_binding.Team perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let test_aggregate_refuses_mixed_schemes () =
  let bindings =
    [
      Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Whole_journey
        perm_db;
      Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server perm_db;
    ]
  in
  Alcotest.(check int) "kept apart" 2
    (List.length (Aggregate.aggregate bindings))

let aggregate_preserves_decisions =
  QCheck.Test.make
    ~name:"aggregated bindings decide like the originals" ~count:60
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* random bindings on perm_db: Forall program constraints,
         history counts, durations with one scheme *)
      let mk_binding () =
        match Random.State.int rng 3 with
        | 0 ->
            Perm_binding.make
              ~spatial:(Srac.Formula.Atom a_cfg)
              ~spatial_modality:Srac.Program_sat.Forall perm_db
        | 1 ->
            Perm_binding.make
              ~spatial:
                (Srac.Formula.at_most
                   (1 + Random.State.int rng 3)
                   (Srac.Selector.Resource "db"))
              ~spatial_scope:Perm_binding.Performed perm_db
        | _ -> Perm_binding.make ~dur:(q (2 + Random.State.int rng 6)) perm_db
      in
      let bindings = List.init (2 + Random.State.int rng 3) (fun _ -> mk_binding ()) in
      let aggregated = Aggregate.aggregate bindings in
      let run bindings =
        let control = System.create ~bindings (base_policy ()) in
        let session = session_of control in
        System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
        let program = prog "read cfg @ s1; read db @ s1; read db @ s1; read db @ s1" in
        List.map
          (fun t ->
            Decision.is_granted
              (System.check control ~session ~object_id:"o" ~program
                 ~time:(q t) a_db))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      run bindings = run aggregated)

(* --- team proof scope --- *)

let test_team_history () =
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_cfg, a_db))
      ~spatial_scope:Perm_binding.Performed
      ~proof_scope:Perm_binding.Team
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
  System.arrive control ~object_id:"scout" ~server:"s1" ~time:Q.zero;
  System.join_team control ~object_id:"worker" ~team:"t1";
  System.join_team control ~object_id:"scout" ~team:"t1";
  Alcotest.(check (list string)) "teammates" [ "scout" ]
    (System.teammates control ~object_id:"worker");
  (* the scout reads cfg; the worker's db read then passes via the
     teammate's proof *)
  let scout_session = session_of control in
  ignore
    (System.check control ~session:scout_session ~object_id:"scout"
       ~program:(prog "read cfg @ s1") ~time:(q 1) a_cfg);
  let verdict =
    System.check control ~session ~object_id:"worker"
      ~program:(prog "read db @ s1") ~time:(q 2) a_db
  in
  Alcotest.(check bool) "worker granted via teammate" true
    (Decision.is_granted verdict)

let test_own_scope_ignores_teammates () =
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.Ordered (a_cfg, a_db))
      ~spatial_scope:Perm_binding.Performed
      ~proof_scope:Perm_binding.Own
      (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
  in
  let control = System.create ~bindings:[ binding ] (base_policy ()) in
  let session = session_of control in
  System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
  System.arrive control ~object_id:"scout" ~server:"s1" ~time:Q.zero;
  System.join_team control ~object_id:"worker" ~team:"t1";
  System.join_team control ~object_id:"scout" ~team:"t1";
  let scout_session = session_of control in
  ignore
    (System.check control ~session:scout_session ~object_id:"scout"
       ~program:(prog "read cfg @ s1") ~time:(q 1) a_cfg);
  match
    System.check control ~session ~object_id:"worker"
      ~program:(prog "read db @ s1") ~time:(q 2) a_db
  with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "own scope should deny: %a" Decision.pp_verdict v)

(* --- cache invalidation: the lazy path's caches (RBAC verdicts,
   applicable bindings, residual cursors, team folds) must never serve
   a stale grant.  Each case runs in Lazy and in Naive mode, checks the
   expected outcome in both, and requires the two to agree verdict for
   verdict, denial strings included. --- *)

let lazy_vs_naive run =
  let render = List.map (Format.asprintf "%a" Decision.pp_verdict) in
  Alcotest.(check (list string))
    "lazy = naive" (render (run System.Naive)) (render (run System.Lazy))

(* --- dense ids: invalidation of the id-keyed caches --- *)

(* The lazy path caches each object's companion list against a roster
   version; a join must invalidate it before the very next check, in
   both directions (a teammate arriving and one leaving). *)
let test_join_then_team_check () =
  let binding =
    Perm_binding.make ~spatial:(Srac.Formula.Atom a_cfg)
      ~spatial_scope:Perm_binding.Performed ~proof_scope:Perm_binding.Team
      perm_db
  in
  lazy_vs_naive (fun mode ->
      let control = System.create ~mode ~bindings:[ binding ] (base_policy ()) in
      let program = prog "read cfg @ s1; read db @ s1" in
      let sessions =
        List.map
          (fun o ->
            System.arrive control ~object_id:o ~server:"s1" ~time:Q.zero;
            (o, session_of control))
          [ "a"; "b"; "c" ]
      in
      let check o t access =
        System.check control ~session:(List.assoc o sessions) ~object_id:o
          ~program ~time:(q t) access
      in
      System.join_team control ~object_id:"a" ~team:"t1";
      System.join_team control ~object_id:"c" ~team:"t1";
      System.join_team control ~object_id:"b" ~team:"t2";
      let v_cfg = check "b" 1 a_cfg in
      let v_alone = check "a" 2 a_db in
      System.join_team control ~object_id:"b" ~team:"t1";
      let v_joined = check "a" 3 a_db in
      System.join_team control ~object_id:"b" ~team:"t3";
      let v_left = check "a" 4 a_db in
      let verdicts = [ v_cfg; v_alone; v_joined; v_left ] in
      Alcotest.(check (list bool))
        "b's cfg read counts exactly while b is a's teammate"
        [ true; false; true; false ]
        (List.map Decision.is_granted verdicts);
      verdicts)

(* Every system numbers accesses with an interner of its own: clones
   fed different access sets, interleaved, each count only their own
   accesses and still decide as the oracle does. *)
let test_clones_keep_own_interners () =
  let binding =
    Perm_binding.make
      ~spatial:(Srac.Formula.at_most 1 (Srac.Selector.Resource "db"))
      ~spatial_scope:Perm_binding.Performed perm_db
  in
  let base = System.create ~bindings:[ binding ] (base_policy ()) in
  let c1 = System.clone base and c2 = System.clone base in
  let feeds =
    [
      (c1, [ a_db; a_cfg; a_db; read_ "log" "s2" ]);
      (c2, [ read_ "map" "s3"; a_db; a_db ]);
    ]
  in
  let sessions =
    List.map
      (fun (c, _) ->
        System.arrive c ~object_id:"o" ~server:"s1" ~time:Q.zero;
        session_of c)
      feeds
  in
  let run c session accesses =
    List.mapi
      (fun i a ->
        System.check c ~session ~object_id:"o" ~program:(prog "read db @ s1")
          ~time:(q (i + 1)) a)
      accesses
  in
  (* interleave: c1's check i, then c2's check i *)
  let verdicts = Array.make 2 [] in
  for i = 0 to 3 do
    List.iteri
      (fun k ((c, accesses), session) ->
        match List.nth_opt accesses i with
        | Some a ->
            verdicts.(k) <-
              System.check c ~session ~object_id:"o"
                ~program:(prog "read db @ s1") ~time:(q (i + 1)) a
              :: verdicts.(k)
        | None -> ())
      (List.combine feeds sessions)
  done;
  let ids c = Coordinated.Monitor.ids (System.monitor c ~object_id:"o") in
  Alcotest.(check bool) "distinct interners" true (ids c1 != ids c2);
  Alcotest.(check (list int)) "each counts its own accesses" [ 3; 2 ]
    [ Sral.Access.Ids.count (ids c1); Sral.Access.Ids.count (ids c2) ];
  List.iteri
    (fun k (_, accesses) ->
      let oracle, session = setup ~mode:System.Naive ~bindings:[ binding ] () in
      Alcotest.(check (list string))
        (Printf.sprintf "clone %d = naive" (k + 1))
        (List.map (Format.asprintf "%a" Decision.pp_verdict)
           (run oracle session accesses))
        (List.map (Format.asprintf "%a" Decision.pp_verdict)
           (List.rev verdicts.(k))))
    feeds

let test_cache_invalidated_by_arrival () =
  (* a Granted must flip once record_arrival moves the object off the
     server whose per-server budget the grant was living on *)
  lazy_vs_naive (fun mode ->
      let binding =
        Perm_binding.make ~dur:(q 5) ~scheme:Temporal.Validity.Per_server
          (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      in
      let control, session = setup ~mode ~bindings:[ binding ] () in
      let program = prog "read db @ s1; read db @ s1" in
      let check t =
        System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
      in
      let first = check 1 in
      Alcotest.(check bool) "granted on s1" true (Decision.is_granted first);
      System.arrive control ~object_id:"o" ~server:"s2" ~time:(q 2);
      (* budget rebased at t=2; by t=8 it is exhausted — a stale cache
         would keep granting *)
      let after = check 8 in
      (match after with
      | Decision.Denied (Decision.Temporal_expired _) -> ()
      | v ->
          Alcotest.fail
            (Format.asprintf "expected expiry after migration, got %a"
               Decision.pp_verdict v));
      [ first; after ])

let test_cache_invalidated_by_companion_history () =
  (* Team proof scope, at most 2 db reads for the whole team: the
     worker's second check is identical to its first (same access, same
     program) but a companion's grant in between changes the
     coordinated outcome *)
  lazy_vs_naive (fun mode ->
      let binding =
        Perm_binding.make
          ~spatial:(Srac.Formula.at_most 2 (Srac.Selector.Resource "db"))
          ~spatial_scope:Perm_binding.Performed ~proof_scope:Perm_binding.Team
          (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      in
      let control =
        System.create ~mode ~bindings:[ binding ] (base_policy ())
      in
      let worker_session = session_of control in
      let helper_session = session_of control in
      System.arrive control ~object_id:"worker" ~server:"s1" ~time:Q.zero;
      System.arrive control ~object_id:"helper" ~server:"s1" ~time:Q.zero;
      System.join_team control ~object_id:"worker" ~team:"t1";
      System.join_team control ~object_id:"helper" ~team:"t1";
      let program = prog "read db @ s1; read db @ s1" in
      let check session object_id t =
        System.check control ~session ~object_id ~program ~time:(q t) a_db
      in
      let first = check worker_session "worker" 1 in
      Alcotest.(check bool) "worker 1st" true (Decision.is_granted first);
      let helper = check helper_session "helper" 2 in
      Alcotest.(check bool) "helper consumes the team budget" true
        (Decision.is_granted helper);
      (* team history now holds 2 db reads; the worker's identical
         recheck would make 3 — must be denied, not served stale *)
      let recheck = check worker_session "worker" 3 in
      (match recheck with
      | Decision.Denied (Decision.Spatial_violation _) -> ()
      | v ->
          Alcotest.fail
            (Format.asprintf "expected team-budget denial, got %a"
               Decision.pp_verdict v));
      [ first; helper; recheck ])

let test_cache_invalidated_by_session_change () =
  (* deactivating the role between two identical checks must flip the
     Granted to an RBAC denial *)
  lazy_vs_naive (fun mode ->
      let binding =
        Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"db@s1")
      in
      let control, session = setup ~mode ~bindings:[ binding ] () in
      let program = prog "read db @ s1" in
      let check t =
        System.check control ~session ~object_id:"o" ~program ~time:(q t) a_db
      in
      let v1 = check 1 in
      let v2 = check 2 in
      Alcotest.(check bool) "granted while active" true (Decision.is_granted v1);
      Alcotest.(check bool) "still granted (warm)" true (Decision.is_granted v2);
      Rbac.Session.deactivate session "r";
      let v3 = check 3 in
      (match v3 with
      | Decision.Denied (Decision.Rbac_denied _) -> ()
      | v ->
          Alcotest.fail
            (Format.asprintf "expected rbac denial after deactivation, got %a"
               Decision.pp_verdict v));
      (* and reactivation restores the grant *)
      Rbac.Session.activate session "r";
      let v4 = check 4 in
      Alcotest.(check bool) "granted again" true (Decision.is_granted v4);
      [ v1; v2; v3; v4 ])

(* Team scope merges the members' proofs by time, ties to the earlier
   member (the requester first, then companions in name order).  The
   lazy path folds that merge from per-member sub-histories; this case
   drives the corners: equal timestamps across members, a companion
   whose newest proof is older than the requester's, a join swap
   between checks, and a selected access that only a former companion
   performed. *)
let test_team_merge_corners () =
  let read_s1 r = read_ r "s1" in
  let team_binding ?(perm = "vault@s1") spatial =
    Perm_binding.make ~spatial ~spatial_scope:Perm_binding.Performed
      ~proof_scope:Perm_binding.Team
      (Rbac.Perm.make ~operation:"read" ~target:perm)
  in
  let bindings =
    [
      (* a key read must precede a map read somewhere in the team *)
      team_binding (Srac.Formula.Ordered (read_s1 "key", read_s1 "map"));
      (* at most 2 db reads for the whole team *)
      team_binding ~perm:"db@s1"
        (Srac.Formula.at_most 2 (Srac.Selector.Resource "db"));
      (* a log read anywhere: feasible only while the team's history
         holds some log access *)
      team_binding ~perm:"log@s1"
        (Srac.Formula.at_least 1 (Srac.Selector.Resource "log"));
    ]
  in
  lazy_vs_naive (fun mode ->
      let control = System.create ~mode ~bindings (base_policy ()) in
      let sessions = Hashtbl.create 4 in
      let program = prog "read key @ s1; read map @ s1; read vault @ s1" in
      List.iter
        (fun o ->
          Hashtbl.replace sessions o (session_of control);
          System.arrive control ~object_id:o ~server:"s1" ~time:Q.zero)
        [ "a"; "b"; "c"; "d" ];
      System.join_team control ~object_id:"a" ~team:"t1";
      System.join_team control ~object_id:"b" ~team:"t1";
      System.join_team control ~object_id:"c" ~team:"t2";
      System.join_team control ~object_id:"d" ~team:"t2";
      let verdicts = ref [] in
      let check o t access =
        verdicts :=
          System.check control ~session:(Hashtbl.find sessions o)
            ~object_id:o ~program ~time:(q t) access
          :: !verdicts
      in
      let refresh o t =
        System.refresh control ~session:(Hashtbl.find sessions o)
          ~object_id:o ~program ~time:(q t)
      in
      (* c's only proofs sit at t=1, older than anything a does *)
      check "c" 1 (read_s1 "map");
      check "c" 1 (read_ "log" "s2");
      (* equal timestamps: b's map and a's key both at t=3 *)
      check "b" 3 (read_s1 "map");
      check "a" 3 (read_s1 "key");
      (* a merges [key(a); map(b)]: ordered; b merges [map(b); key(a)]:
         not *)
      check "a" 4 (read_s1 "vault");
      check "b" 4 (read_s1 "vault");
      check "a" 5 a_db;
      check "b" 5 a_db;
      check "a" 6 a_db;
      (* swap a and d: a's team becomes {a, c} *)
      System.join_team control ~object_id:"a" ~team:"t2";
      System.join_team control ~object_id:"d" ~team:"t1";
      (* c's map at t=1 precedes a's key at t=3 *)
      check "a" 7 (read_s1 "vault");
      (* the team budget counts c's db reads, none: a's one plus this
         one fill it *)
      check "a" 7 a_db;
      (* a's log binding folds c's log@s2 into its machine *)
      refresh "a" 8;
      check "b" 8 (read_s1 "vault");
      (* swap back: t1 = {a, b} again, whose history holds no log, so
         a log read is not feasible and the permission is inactive *)
      System.join_team control ~object_id:"a" ~team:"t1";
      System.join_team control ~object_id:"d" ~team:"t2";
      check "a" 9 (read_s1 "vault");
      check "a" 10 (read_s1 "log");
      check "c" 10 (read_s1 "log");
      check "d" 11 (read_s1 "log");
      let verdicts = List.rev !verdicts in
      Alcotest.(check (list bool))
        "grant pattern"
        [ true; true; true; true; true; false; true; true; false;
          false; true; false; true; false; true; true ]
        (List.map Decision.is_granted verdicts);
      verdicts)

(* --- binding index --- *)

let index_agrees_with_linear_scan =
  QCheck.Test.make ~name:"Binding_index.applicable = linear filter" ~count:200
    (QCheck.make (fun rng -> Random.State.int rng 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
      let operation () = pick [ "read"; "write"; "execute"; "*" ] in
      let target () =
        match Random.State.int rng 5 with
        | 0 -> "*"
        | 1 -> pick [ "db"; "cfg" ]  (* unstructured: matches nothing *)
        | _ ->
            pick [ "db"; "cfg"; "*" ] ^ "@" ^ pick [ "s1"; "s2"; "*" ]
      in
      let bindings =
        List.init
          (Random.State.int rng 12)
          (fun _ ->
            Perm_binding.make
              (Rbac.Perm.make ~operation:(operation ()) ~target:(target ())))
      in
      let index = Binding_index.of_list bindings in
      let accesses =
        List.init 6 (fun _ ->
            Sral.Generate.access ~resources:[ "db"; "cfg"; "log" ]
              ~servers:[ "s1"; "s2"; "s3" ] rng)
      in
      let ids = Sral.Access.Ids.create () in
      List.for_all
        (fun a ->
          let id = Sral.Access.Ids.intern ids a in
          let via_index = Binding_index.applicable index ~id a in
          let via_scan =
            List.filter (fun b -> Perm_binding.applies_to b a) bindings
          in
          List.map snd via_index = via_scan
          (* ids are insertion positions *)
          && List.for_all (fun (i, b) -> List.nth bindings i == b) via_index
          (* the memoized and unmemoized answers agree *)
          && Binding_index.applicable index ~id a == via_index
          && Binding_index.applicable index ~id:(-1) a = via_index)
        accesses)

let test_index_append_and_order () =
  let b1 = Perm_binding.make (Rbac.Perm.make ~operation:"read" ~target:"*@*") in
  let b2 = Perm_binding.make ~dur:(q 5) perm_db in
  let b3 = Perm_binding.make (Rbac.Perm.make ~operation:"*" ~target:"db@s1") in
  let index = Binding_index.of_list [ b1; b2 ] in
  Alcotest.(check int) "version counts" 2 (Binding_index.version index);
  Alcotest.(check bool) "memo before the append" true
    (Binding_index.applicable index ~id:0 a_db = [ (0, b1); (1, b2) ]);
  Binding_index.add index b3;
  Alcotest.(check int) "version bumps" 3 (Binding_index.version index);
  Alcotest.(check bool) "insertion order preserved" true
    (Binding_index.to_list index == [ b1; b2; b3 ]
    || Binding_index.to_list index = [ b1; b2; b3 ]);
  Alcotest.(check bool) "applicable in insertion order" true
    (Binding_index.applicable index ~id:0 a_db
    = [ (0, b1); (1, b2); (2, b3) ])

(* --- audit log --- *)

let test_audit_log () =
  let log = Audit_log.create () in
  Audit_log.record log
    { Audit_log.time = q 1; object_id = "o1"; access = a_db; verdict = Decision.Granted };
  Audit_log.record log
    {
      Audit_log.time = q 2;
      object_id = "o2";
      access = a_cfg;
      verdict = Decision.Denied (Decision.Rbac_denied "no");
    };
  Alcotest.(check int) "size" 2 (Audit_log.size log);
  Alcotest.(check int) "granted" 1 (List.length (Audit_log.granted log));
  Alcotest.(check int) "denied" 1 (List.length (Audit_log.denied log));
  Alcotest.(check (float 0.01)) "rate" 0.5 (Audit_log.grant_rate log);
  Alcotest.(check int) "by object" 1
    (List.length (Audit_log.by_object log "o1"));
  Alcotest.(check int) "by server" 2
    (List.length (Audit_log.by_server log "s1"))

let random_entry rng t =
  let object_id = Printf.sprintf "o%d" (Random.State.int rng 7) in
  let access =
    Sral.Generate.access ~resources:[ "db"; "cfg" ]
      ~servers:[ "s1"; "s2"; "s3" ] rng
  in
  let verdict =
    if Random.State.bool rng then Decision.Granted
    else Decision.Denied (Decision.Rbac_denied "no")
  in
  { Audit_log.time = q t; object_id; access; verdict }

let test_audit_counters_agree_with_entries () =
  (* 10k mixed records: every O(1) counter equals the O(n)
     recomputation from the retained entries *)
  let rng = Random.State.make [| 2025; 8 |] in
  let log = Audit_log.create () in
  for t = 1 to 10_000 do
    Audit_log.record log (random_entry rng t)
  done;
  let entries = Audit_log.entries log in
  Alcotest.(check int) "size" (List.length entries) (Audit_log.size log);
  Alcotest.(check int) "retained" (List.length entries)
    (Audit_log.retained log);
  Alcotest.(check int) "granted"
    (List.length
       (List.filter
          (fun (e : Audit_log.entry) -> Decision.is_granted e.verdict)
          entries))
    (Audit_log.granted_count log);
  Alcotest.(check int) "denied"
    (List.length
       (List.filter
          (fun (e : Audit_log.entry) -> not (Decision.is_granted e.verdict))
          entries))
    (Audit_log.denied_count log);
  Alcotest.(check (float 1e-9)) "grant rate"
    (float_of_int (Audit_log.granted_count log)
    /. float_of_int (Audit_log.size log))
    (Audit_log.grant_rate log);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "count_by_object %s" id)
        (List.length (Audit_log.by_object log id))
        (Audit_log.count_by_object log id))
    (List.init 7 (Printf.sprintf "o%d"));
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "count_by_server %s" s)
        (List.length (Audit_log.by_server log s))
        (Audit_log.count_by_server log s))
    [ "s1"; "s2"; "s3" ]

let test_audit_ring_mode () =
  (* capacity 100, 250 records: the ring retains the newest 100 while
     lifetime counters keep counting the evicted ones *)
  let rng = Random.State.make [| 2025; 9 |] in
  let log = Audit_log.create ~capacity:100 () in
  let granted_lifetime = ref 0 in
  for t = 1 to 250 do
    let e = random_entry rng t in
    if Decision.is_granted e.Audit_log.verdict then incr granted_lifetime;
    Audit_log.record log e
  done;
  Alcotest.(check int) "lifetime size" 250 (Audit_log.size log);
  Alcotest.(check int) "retained capped" 100 (Audit_log.retained log);
  let entries = Audit_log.entries log in
  Alcotest.(check int) "entries = retained" 100 (List.length entries);
  (* oldest retained entry is record #151, newest is #250, in order *)
  Alcotest.(check string) "oldest survivor" "151"
    (Q.to_string (List.hd entries).Audit_log.time);
  Alcotest.(check string) "newest survivor" "250"
    (Q.to_string (List.nth entries 99).Audit_log.time);
  Alcotest.(check bool) "retained in record order" true
    (List.for_all2
       (fun (e : Audit_log.entry) t -> Q.equal e.time (q t))
       entries
       (List.init 100 (fun i -> 151 + i)));
  Alcotest.(check int) "lifetime granted exact" !granted_lifetime
    (Audit_log.granted_count log);
  Alcotest.(check int) "lifetime denied exact" (250 - !granted_lifetime)
    (Audit_log.denied_count log);
  Alcotest.(check (float 1e-9)) "lifetime grant rate"
    (float_of_int !granted_lifetime /. 250.)
    (Audit_log.grant_rate log)

let test_audit_ring_boundary () =
  (* the eviction boundary exactly: at capacity the ring is full but
     nothing has been evicted; one more record evicts exactly the
     oldest entry *)
  let capacity = 5 in
  let rng = Random.State.make [| 2025; 11 |] in
  let log = Audit_log.create ~capacity () in
  for t = 1 to capacity do
    Audit_log.record log (random_entry rng t)
  done;
  Alcotest.(check int) "at capacity: size" capacity (Audit_log.size log);
  Alcotest.(check int) "at capacity: retained" capacity (Audit_log.retained log);
  Alcotest.(check (list string)) "at capacity: nothing evicted"
    (List.init capacity (fun i -> string_of_int (i + 1)))
    (List.map
       (fun (e : Audit_log.entry) -> Q.to_string e.time)
       (Audit_log.entries log));
  Audit_log.record log (random_entry rng (capacity + 1));
  Alcotest.(check int) "capacity+1: lifetime size" (capacity + 1)
    (Audit_log.size log);
  Alcotest.(check int) "capacity+1: retained stays capped" capacity
    (Audit_log.retained log);
  Alcotest.(check (list string)) "capacity+1: exactly the oldest evicted"
    (List.init capacity (fun i -> string_of_int (i + 2)))
    (List.map
       (fun (e : Audit_log.entry) -> Q.to_string e.time)
       (Audit_log.entries log))

let test_audit_empty_log_conventions () =
  let log = Audit_log.create () in
  Alcotest.(check (float 0.0)) "empty rate is 1.0" 1.0
    (Audit_log.grant_rate log);
  Alcotest.(check int) "empty size" 0 (Audit_log.size log);
  Alcotest.(check int) "unknown object count" 0
    (Audit_log.count_by_object log "ghost");
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Audit_log.create: capacity 0 < 1") (fun () ->
      ignore (Audit_log.create ~capacity:0 ()))

(* --- export --- *)

let test_export_csv () =
  let log = Audit_log.create () in
  Audit_log.record log
    { Audit_log.time = q 1; object_id = "o,1"; access = a_db;
      verdict = Decision.Granted };
  Audit_log.record log
    { Audit_log.time = Q.make 3 2; object_id = "o2"; access = a_cfg;
      verdict = Decision.Denied (Decision.Rbac_denied "no \"role\"") };
  let csv = Export.audit_csv log in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header"
    "time,object,operation,resource,server,verdict,reason" (List.hd lines);
  Alcotest.(check bool) "comma field quoted" true
    (String.length (List.nth lines 1) > 0
    && String.sub (List.nth lines 1) 0 4 = "1,\"o");
  Alcotest.(check bool) "rational time" true
    (String.sub (List.nth lines 2) 0 3 = "3/2")

let test_export_json_escaping () =
  Alcotest.(check string) "quotes" "a\\\"b" (Export.json_escape "a\"b");
  Alcotest.(check string) "backslash" "a\\\\b" (Export.json_escape "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (Export.json_escape "a\nb");
  Alcotest.(check string) "csv quoting" "\"a\"\"b\"" (Export.csv_field "a\"b");
  Alcotest.(check string) "csv plain" "plain" (Export.csv_field "plain")

let test_export_bindings_json () =
  let bindings =
    [
      Perm_binding.make
        ~spatial:(Srac.Formula.Atom a_cfg)
        ~spatial_scope:Perm_binding.Performed
        ~proof_scope:Perm_binding.Team ~dur:(q 5)
        (Rbac.Perm.make ~operation:"read" ~target:"db@s1");
    ]
  in
  let json = Export.bindings_json bindings in
  let contains needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length json
      && (String.sub json i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "permission" true (contains "\"permission\":\"read:db@s1\"");
  Alcotest.(check bool) "team" true (contains "\"proofs\":\"team\"");
  Alcotest.(check bool) "dur" true (contains "\"dur\":\"5\"")

(* --- lint --- *)

let lint_policy text = Lint.check (Policy_lang.parse text)

let test_lint_clean_policy () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 dur 5
|}
  in
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_lint_unsatisfiable () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 spatial "done(read x @ s1) && false"
|}
  in
  Alcotest.(check bool) "unsatisfiable reported" true
    (List.exists
       (function Lint.Unsatisfiable_spatial _ -> true | _ -> false)
       findings)

let test_lint_dead_binding () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind write:other@s9 dur 5
|}
  in
  Alcotest.(check bool) "dead binding" true
    (List.exists (function Lint.Dead_binding _ -> true | _ -> false) findings)

let test_lint_wildcard_grant_not_dead () =
  (* a wildcard grant covers concrete binding patterns *)
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker *:*@*
bind write:other@s9 dur 5
|}
  in
  Alcotest.(check bool) "not dead under wildcard" false
    (List.exists (function Lint.Dead_binding _ -> true | _ -> false) findings)

let test_lint_role_findings () =
  let findings = lint_policy {|
user a
role lonely
|} in
  Alcotest.(check bool) "no perms" true
    (List.exists
       (function Lint.Role_without_permissions "lonely" -> true | _ -> false)
       findings);
  Alcotest.(check bool) "unassigned" true
    (List.exists
       (function Lint.Role_unassigned "lonely" -> true | _ -> false)
       findings)

let test_lint_zero_duration () =
  let findings =
    lint_policy
      {|
user a
role worker
assign a worker
grant worker read:db@s1
bind read:db@s1 dur 0
|}
  in
  Alcotest.(check bool) "zero duration" true
    (List.exists (function Lint.Zero_duration _ -> true | _ -> false) findings)

(* --- timeline --- *)

let test_timeline_render () =
  let log = Audit_log.create () in
  Audit_log.record log
    { Audit_log.time = Q.zero; object_id = "a"; access = a_db; verdict = Decision.Granted };
  Audit_log.record log
    { Audit_log.time = q 10; object_id = "a"; access = a_db;
      verdict = Decision.Denied (Decision.Rbac_denied "no") };
  Audit_log.record log
    { Audit_log.time = q 5; object_id = "bb"; access = a_cfg; verdict = Decision.Granted };
  let out = Timeline.render ~width:21 log in
  let lines = String.split_on_char '
' (String.trim out) in
  Alcotest.(check int) "header + two lanes" 3 (List.length lines);
  let lane_a = List.nth lines 1 in
  Alcotest.(check bool) "grant at left edge" true (String.contains lane_a 'G');
  Alcotest.(check bool) "denial at right edge" true (String.contains lane_a 'x');
  let lane_b = List.nth lines 2 in
  Alcotest.(check bool) "b has one grant" true (String.contains lane_b 'G');
  Alcotest.(check bool) "b has no denial" false (String.contains lane_b 'x')

let test_timeline_empty () =
  Alcotest.(check string) "empty" "(no events)"
    (Timeline.render (Audit_log.create ()))

(* --- policy language --- *)

let policy_text =
  {|
# the audit coalition
user alice
role chief
role auditor
inherit chief auditor
assign alice chief
grant auditor read:db@s1
grant chief write:report@s1
ssd conflict chief external max 1
bind read:db@s1 spatial "done(read cfg @ s1) -> seq(read cfg @ s1, read db @ s1)" modality forall scope program dur 10 scheme journey
bind write:report@s1 dur 5/2 scheme server
|}

let policy_text_fixed =
  (* "ssd" above references an undeclared role: fine for Sod itself;
     also declare it to exercise parsing *)
  String.concat "\n"
    (List.filter
       (fun l -> not (String.length l >= 3 && String.sub l 0 3 = "ssd"))
       (String.split_on_char '\n' policy_text))

let test_policy_lang_parse () =
  let parsed = Policy_lang.parse policy_text_fixed in
  Alcotest.(check (list string)) "users" [ "alice" ]
    (Rbac.Policy.users parsed.Policy_lang.policy);
  Alcotest.(check (list string)) "roles" [ "auditor"; "chief" ]
    (Rbac.Policy.roles parsed.Policy_lang.policy);
  Alcotest.(check int) "bindings" 2 (List.length parsed.Policy_lang.bindings);
  let b = List.hd parsed.Policy_lang.bindings in
  Alcotest.(check bool) "spatial present" true
    (b.Perm_binding.spatial <> None);
  Alcotest.(check bool) "forall" true
    (b.Perm_binding.spatial_modality = Srac.Program_sat.Forall);
  Alcotest.(check (option string)) "dur" (Some "10")
    (Option.map Q.to_string b.Perm_binding.dur);
  let b2 = List.nth parsed.Policy_lang.bindings 1 in
  Alcotest.(check (option string)) "fractional dur" (Some "5/2")
    (Option.map Q.to_string b2.Perm_binding.dur);
  Alcotest.(check bool) "per-server" true
    (b2.Perm_binding.scheme = Temporal.Validity.Per_server)

let test_policy_lang_roundtrip () =
  let parsed = Policy_lang.parse policy_text_fixed in
  let reparsed = Policy_lang.parse (Policy_lang.render parsed) in
  Alcotest.(check int) "bindings preserved"
    (List.length parsed.Policy_lang.bindings)
    (List.length reparsed.Policy_lang.bindings);
  Alcotest.(check (list string)) "roles preserved"
    (Rbac.Policy.roles parsed.Policy_lang.policy)
    (Rbac.Policy.roles reparsed.Policy_lang.policy)

(* The render/parse fixed point, as a seeded property over full random
   deployments (hierarchy edges, SSD/DSD constraints, binding mixes):
   rendering is canonical, so one render/parse cycle must reach a
   fixed point — [render (parse (render t))] is byte-identical to
   [render t].  A failing deployment is shrunk by dropping bindings
   before being reported. *)
let test_policy_lang_render_fixed_point () =
  Gen.each_seed ~salt:5150 ~count:200 (fun ~seed rng ->
      let t = Gen.policy_lang rng in
      let rendered = Policy_lang.render t in
      let again = Policy_lang.render (Policy_lang.parse rendered) in
      if not (String.equal rendered again) then begin
        let fails bindings =
          let t = { t with Policy_lang.bindings } in
          let r = Policy_lang.render t in
          not (String.equal r (Policy_lang.render (Policy_lang.parse r)))
        in
        let small =
          if fails t.Policy_lang.bindings then
            { t with
              Policy_lang.bindings =
                Gen.shrink_list ~fails t.Policy_lang.bindings }
          else t
        in
        let r = Policy_lang.render small in
        Alcotest.failf
          "seed %d: render is not a parse fixed point@.rendered:@.%s@.@.\
           reparsed-rendered:@.%s"
          seed r
          (Policy_lang.render (Policy_lang.parse r))
      end)

(* Single bindings round-trip through the line-level entry points the
   admin-op syntax reuses. *)
let test_policy_lang_binding_roundtrip () =
  Gen.each_seed ~salt:5151 ~count:200 (fun ~seed rng ->
      let u = Gen.universe rng in
      let b = Gen.analysis_binding rng u in
      let line = Policy_lang.render_binding b in
      let b' = Policy_lang.parse_binding line in
      if not (String.equal line (Policy_lang.render_binding b')) then
        Alcotest.failf "seed %d: binding line %S does not round-trip" seed
          line)

let test_policy_lang_errors () =
  let check_error src expected_line =
    match Policy_lang.parse src with
    | exception Policy_lang.Error (line, _) ->
        Alcotest.(check int) "line number" expected_line line
    | _ -> Alcotest.fail (Printf.sprintf "%S should fail" src)
  in
  check_error "frobnicate x" 1;
  check_error "user a\nassign a ghost" 2;
  check_error "bind read:x@y dur notanumber" 1;
  check_error "bind read:x@y spatial \"%%%\"" 1;
  check_error "bind read:x@y modality maybe" 1

(* A negative budget is a load-time error with its line number, never
   an exception out of a later check; a zero budget loads and denies. *)
let test_policy_lang_negative_dur () =
  let text dur =
    Printf.sprintf
      "user u\nrole r\nassign u r\ngrant r read:*@*\nbind read:db@s1 dur %s \
       scheme server"
      dur
  in
  (match System.of_policy_text (text "-5") with
  | exception Policy_lang.Error (line, msg) ->
      Alcotest.(check int) "line number" 5 line;
      Alcotest.(check string) "message" "negative duration -5" msg
  | _ -> Alcotest.fail "a negative dur must not load");
  (match Policy_lang.parse_binding "read:db@s1 dur -1/3" with
  | exception Policy_lang.Error (1, _) -> ()
  | _ -> Alcotest.fail "a negative binding line must not parse");
  List.iter
    (fun mode ->
      let control = System.of_policy_text ~mode (text "0") in
      let session = session_of control in
      System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
      List.iter
        (fun t ->
          match
            System.check control ~session ~object_id:"o"
              ~program:(prog "read db @ s1") ~time:(q t) a_db
          with
          | Decision.Denied (Decision.Temporal_expired { spent; _ }) ->
              Alcotest.(check string) "nothing spent" "0" (Q.to_string spent)
          | v ->
              Alcotest.failf "zero budget at %d: %a" t Decision.pp_verdict v)
        [ 0; 1; 2 ])
    [ System.Lazy; System.Naive ]

let test_of_policy_text_end_to_end () =
  let control = System.of_policy_text policy_text_fixed in
  let session = System.new_session control ~user:"alice" in
  Rbac.Session.activate session "chief";
  System.arrive control ~object_id:"o" ~server:"s1" ~time:Q.zero;
  (* program violates the forall constraint: reads cfg after db *)
  let bad = prog "read db @ s1; read cfg @ s1" in
  (match
     System.check control ~session ~object_id:"o" ~program:bad ~time:(q 1) a_db
   with
  | Decision.Denied (Decision.Spatial_violation _) -> ()
  | v ->
      Alcotest.fail
        (Format.asprintf "expected spatial denial: %a" Decision.pp_verdict v));
  let good = prog "read cfg @ s1; read db @ s1" in
  Alcotest.(check bool) "compliant program granted" true
    (Decision.is_granted
       (System.check control ~session ~object_id:"o" ~program:good ~time:(q 2)
          a_db))

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac3

let () =
  Alcotest.run "coordinated"
    [
      ( "binding",
        [
          Alcotest.test_case "applies_to" `Quick test_binding_applies;
          Alcotest.test_case "negative dur rejected" `Quick
            test_binding_negative_dur;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "arrivals/proofs" `Quick
            test_monitor_arrivals_and_proofs;
          Alcotest.test_case "clock monotone" `Quick test_monitor_clock_monotone;
          Alcotest.test_case "activation fn" `Quick test_monitor_activation_fn;
        ] );
      ( "decision",
        [
          Alcotest.test_case "plain rbac" `Quick test_decide_plain_rbac;
          Alcotest.test_case "spatial program scope" `Quick
            test_decide_spatial_program_scope;
          Alcotest.test_case "spatial performed scope" `Quick
            test_decide_spatial_performed_scope;
          Alcotest.test_case "temporal expiry" `Quick test_decide_temporal_expiry;
          Alcotest.test_case "per-server scheme" `Quick
            test_decide_per_server_scheme;
          Alcotest.test_case "not arrived" `Quick test_decide_not_arrived;
          Alcotest.test_case "grant records proof" `Quick
            test_granted_records_proof;
          Alcotest.test_case "denial records no proof" `Quick
            test_denied_no_proof;
          Alcotest.test_case "dc cross validation" `Quick
            test_dc_cross_validation;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "min duration" `Quick test_aggregate_min_dur;
          Alcotest.test_case "conjoins history constraints" `Quick
            test_aggregate_conjoins_history_constraints;
          Alcotest.test_case "refuses exists-program" `Quick
            test_aggregate_refuses_exists_program;
          Alcotest.test_case "refuses mixed schemes" `Quick
            test_aggregate_refuses_mixed_schemes;
          Alcotest.test_case "refuses mixed proof scopes" `Quick
            test_aggregate_refuses_mixed_proof_scopes;
          qcheck aggregate_preserves_decisions;
        ] );
      ( "team",
        [
          Alcotest.test_case "team history" `Quick test_team_history;
          Alcotest.test_case "own scope" `Quick test_own_scope_ignores_teammates;
          Alcotest.test_case "merge corners, lazy = naive" `Quick
            test_team_merge_corners;
        ] );
      ( "dense-ids",
        [
          Alcotest.test_case "join, then a team check" `Quick
            test_join_then_team_check;
          Alcotest.test_case "clones keep their own interners" `Quick
            test_clones_keep_own_interners;
        ] );
      ( "verdict-cache",
        [
          Alcotest.test_case "invalidated by arrival" `Quick
            test_cache_invalidated_by_arrival;
          Alcotest.test_case "invalidated by companion history" `Quick
            test_cache_invalidated_by_companion_history;
          Alcotest.test_case "invalidated by session change" `Quick
            test_cache_invalidated_by_session_change;
        ] );
      ( "binding-index",
        [
          qcheck index_agrees_with_linear_scan;
          Alcotest.test_case "append and order" `Quick
            test_index_append_and_order;
        ] );
      ( "audit",
        [
          Alcotest.test_case "log" `Quick test_audit_log;
          Alcotest.test_case "counters agree with entries" `Quick
            test_audit_counters_agree_with_entries;
          Alcotest.test_case "ring mode" `Quick test_audit_ring_mode;
          Alcotest.test_case "ring eviction boundary" `Quick
            test_audit_ring_boundary;
          Alcotest.test_case "empty-log conventions" `Quick
            test_audit_empty_log_conventions;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean policy" `Quick test_lint_clean_policy;
          Alcotest.test_case "unsatisfiable" `Quick test_lint_unsatisfiable;
          Alcotest.test_case "dead binding" `Quick test_lint_dead_binding;
          Alcotest.test_case "wildcard grant" `Quick
            test_lint_wildcard_grant_not_dead;
          Alcotest.test_case "role findings" `Quick test_lint_role_findings;
          Alcotest.test_case "zero duration" `Quick test_lint_zero_duration;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "render" `Quick test_timeline_render;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "json escaping" `Quick test_export_json_escaping;
          Alcotest.test_case "bindings json" `Quick test_export_bindings_json;
        ] );
      ( "policy-lang",
        [
          Alcotest.test_case "parse" `Quick test_policy_lang_parse;
          Alcotest.test_case "roundtrip" `Quick test_policy_lang_roundtrip;
          Alcotest.test_case "render fixed point (seeded property)" `Quick
            test_policy_lang_render_fixed_point;
          Alcotest.test_case "binding line roundtrip" `Quick
            test_policy_lang_binding_roundtrip;
          Alcotest.test_case "errors" `Quick test_policy_lang_errors;
          Alcotest.test_case "negative dur rejected at load" `Quick
            test_policy_lang_negative_dur;
          Alcotest.test_case "end to end" `Quick test_of_policy_text_end_to_end;
        ] );
    ]
