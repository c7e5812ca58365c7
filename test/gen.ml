(* Shared seeded generators for the randomized suites.

   Every randomized test draws its cases through this module so that
   (a) "a random coalition" means the same thing in the fuzz,
   fault-chaos, analysis-oracle and parallel-conformance suites, and
   (b) the whole seed space can be shifted from the environment:

     STACC_TEST_SEED=<n>  offsets every effective seed by <n>.

   [each_seed] and [qcheck] print the effective seed (and the command
   to replay it) whenever a case fails, so any failure from a shifted
   run is reproducible with one environment variable. *)

let offset =
  match Sys.getenv_opt "STACC_TEST_SEED" with
  | None | Some "" -> 0
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          failwith (Printf.sprintf "STACC_TEST_SEED must be an integer: %S" s))

(* The environment prefix that replays the current run exactly.  Any
   seed-space shift *and* any shard-count override must both appear in
   printed repro commands: a parallel-conformance failure under
   STACC_SHARDS=8 does not necessarily reproduce under the default
   "2,4". *)
let repro_env seed =
  let shards =
    match Sys.getenv_opt "STACC_SHARDS" with
    | None | Some "" -> ""
    | Some s -> Printf.sprintf " STACC_SHARDS=%s" s
  in
  Printf.sprintf "STACC_TEST_SEED=%d%s" seed shards

let each_seed ?(salt = 0) ~count f =
  for i = 0 to count - 1 do
    let seed = i + offset in
    try f ~seed (Random.State.make [| salt; seed |])
    with e ->
      Printf.eprintf
        "\n\
         [gen] randomized case failed at effective seed %d (salt %d)\n\
         [gen] reproduce with: %s dune runtest\n\
         %!"
        seed salt (repro_env seed);
      raise e
  done

(* A QCheck property as an Alcotest case whose draws are fixed by
   [salt] (one per suite) and the STACC_TEST_SEED offset, instead of
   QCheck's fresh self-initialized seed, so a failing run replays. *)
let qcheck ~salt test =
  let seed = offset in
  let rand = Random.State.make [| salt; seed |] in
  let name, speed, run = QCheck_alcotest.to_alcotest ~rand test in
  let run () =
    try run ()
    with e ->
      Printf.eprintf
        "\n\
         [gen] property %S failed at effective seed %d (salt %d)\n\
         [gen] reproduce with: %s dune runtest\n\
         %!"
        name seed salt (repro_env seed);
      raise e
  in
  (name, speed, run)

(* ------------------------------------------------------------------ *)
(* Greedy counterexample shrinking                                     *)
(*                                                                     *)
(* [shrink ~fails ~candidates x] walks to a local minimum: as long as  *)
(* some one-step-smaller candidate still fails, descend into it.       *)
(* [fails] must be total — wrap raising properties with [reproduces].  *)
(* Everything is deterministic, so the minimized counterexample is as  *)
(* reproducible as the seed that found the original.                   *)
(* ------------------------------------------------------------------ *)

let reproduces f x =
  match f x with () -> false | exception _ -> true

let rec shrink ~fails ~candidates x =
  match List.find_opt fails (candidates x) with
  | None -> x
  | Some smaller -> shrink ~fails ~candidates smaller

let drop_one xs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs

let shrink_list ~fails xs = shrink ~fails ~candidates:drop_one xs

(* Coalition shrinking: drop whole objects (with their events), then
   single events, then bindings, then grants — each pass a greedy
   fixpoint, re-checking the failing property on the shrunk scenario. *)
let shrink_coalition ~fails (sc : Parallel.Scenario.t) =
  let module S = Parallel.Scenario in
  let without_object sc =
    List.map
      (fun (o : S.obj) ->
        {
          sc with
          S.objects = List.filter (fun (o' : S.obj) -> o' != o) sc.S.objects;
          S.events =
            List.filter
              (fun ev ->
                match S.subject ev with
                | Some id -> not (String.equal id o.S.id)
                | None -> true)
              sc.S.events;
        })
      sc.S.objects
  in
  let field get set sc =
    List.map (fun smaller -> set sc smaller) (drop_one (get sc))
  in
  let passes =
    [
      without_object;
      field (fun sc -> sc.S.events) (fun sc evs -> { sc with S.events = evs });
      field (fun sc -> sc.S.bindings) (fun sc bs -> { sc with S.bindings = bs });
      field (fun sc -> sc.S.grants) (fun sc gs -> { sc with S.grants = gs });
    ]
  in
  List.fold_left
    (fun sc candidates -> shrink ~fails ~candidates sc)
    sc passes

(* Workflow shrinking: drop duties, tasks (fixing up DAG edges and duty
   memberships), performers, bindings, grants.  Each candidate is
   re-validated through [Workflow_family.make]; candidates that no
   longer form a well-formed workflow are simply not offered. *)
let shrink_workflow ~fails (wf : Scenarios.Workflow_family.t) =
  let module W = Scenarios.Workflow_family in
  let rebuild ?grants ?assignments ?duties ?performers ?tasks (wf : W.t) =
    let d v = function Some x -> x | None -> v in
    match
      W.make ~users:wf.W.users ~roles:wf.W.roles
        ~grants:(d wf.W.grants grants)
        ~assignments:(d wf.W.assignments assignments)
        ~bindings:wf.W.bindings
        ~duties:(d wf.W.duties duties)
        ?plan:wf.W.plan
        ~performers:(d wf.W.performers performers)
        ~tasks:(d wf.W.tasks tasks)
        ()
    with
    | wf -> Some wf
    | exception Invalid_argument _ -> None
  in
  let without_task (wf : W.t) =
    List.filter_map
      (fun (victim : W.task) ->
        let tasks =
          List.filter_map
            (fun (tk : W.task) ->
              if String.equal tk.W.name victim.W.name then None
              else
                Some
                  {
                    tk with
                    W.after =
                      List.filter
                        (fun a -> not (String.equal a victim.W.name))
                        tk.W.after;
                  })
            wf.W.tasks
        in
        let duties =
          List.filter_map
            (fun duty ->
              let keep ns =
                List.filter (fun n -> not (String.equal n victim.W.name)) ns
              in
              match duty with
              | W.Separation ns ->
                  let ns = keep ns in
                  if List.length ns >= 2 then Some (W.Separation ns) else None
              | W.Binding ns ->
                  let ns = keep ns in
                  if List.length ns >= 2 then Some (W.Binding ns) else None)
            wf.W.duties
        in
        rebuild ~tasks ~duties wf)
      wf.W.tasks
  in
  let on_list get put (wf : W.t) =
    List.filter_map (fun smaller -> put wf smaller) (drop_one (get wf))
  in
  let passes =
    [
      on_list (fun wf -> wf.W.duties) (fun wf ds -> rebuild ~duties:ds wf);
      without_task;
      on_list
        (fun wf -> wf.W.performers)
        (fun wf ps -> rebuild ~performers:ps wf);
      on_list (fun wf -> wf.W.grants) (fun wf gs -> rebuild ~grants:gs wf);
      on_list
        (fun wf -> wf.W.assignments)
        (fun wf asgs -> rebuild ~assignments:asgs wf);
    ]
  in
  List.fold_left
    (fun wf candidates -> shrink ~fails ~candidates wf)
    wf passes

(* Standard failure protocol for randomized suites: print seed + repro
   command (each_seed already does), then a *minimized* counterexample
   so the defect is readable without replaying hundreds of cases. *)
let report_minimized ~seed ~what pp x =
  Printf.eprintf
    "[gen] minimized %s (effective seed %d, %s):\n%s\n%!" what seed
    (repro_env seed)
    (Format.asprintf "%a" pp x)

(* ------------------------------------------------------------------ *)
(* Coalitions — one generator, shared with the engine and the bench    *)
(* ------------------------------------------------------------------ *)

let pick = Parallel.Workload.pick
let coalition = Parallel.Workload.scenario
let coalitions = Parallel.Workload.coalitions
let bindings rng = Parallel.Workload.bindings ~resources:[ "r1"; "r2"; "r3" ] rng

(* The temporal-workflow scenario family, same seeding discipline as
   [coalitions]: workflow [i] of a batch depends only on (salt, seed,
   i). *)
let workflow = Scenarios.Workflow_family.generate
let workflows = Scenarios.Workflow_family.workflows

(* The fuzz suites' random RBAC policy, materialized from the same
   grant/assignment distributions the coalition generator uses. *)
let policy ?(resources = [ "r1"; "r2"; "r3" ]) ?(servers = [ "s1"; "s2" ]) rng =
  let p = Rbac.Policy.create () in
  List.iter (Rbac.Policy.add_user p) Parallel.Workload.users;
  List.iter (Rbac.Policy.add_role p) Parallel.Workload.roles;
  List.iter
    (fun (role, perm) -> Rbac.Policy.grant p role perm)
    (Parallel.Workload.grants ~resources ~servers rng);
  List.iter
    (fun (u, r) -> Rbac.Policy.assign_user p u r)
    (Parallel.Workload.assignments rng);
  p

(* ------------------------------------------------------------------ *)
(* Analysis-oracle universe — worlds, formulas and bindings            *)
(* ------------------------------------------------------------------ *)

module A = Sral.Access
module F = Srac.Formula
module PB = Coordinated.Perm_binding

let oracle_servers = [ "s1"; "s2"; "s3" ]

let oracle_pool =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun r ->
          [
            A.make ~op:A.Read ~resource:r ~server:s;
            A.make ~op:A.Write ~resource:r ~server:s;
          ])
        [ "r1"; "r2" ])
    oracle_servers

(* an access no world of ours can perform — feeds the unexercisable
   findings *)
let foreign = A.read "vault" ~at:"s9"

let universe rng =
  let n = 3 + Random.State.int rng 2 in
  let tagged = List.map (fun a -> (Random.State.bits rng, a)) oracle_pool in
  let shuffled = List.sort compare tagged |> List.map snd in
  List.sort_uniq A.compare (List.filteri (fun i _ -> i < n) shuffled)

let world rng universe =
  let links =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if (not (String.equal a b)) && Random.State.bool rng then Some (a, b)
            else None)
          oracle_servers)
      oracle_servers
  in
  let entries = List.filter (fun _ -> Random.State.bool rng) oracle_servers in
  let entries = if entries = [] then [ pick rng oracle_servers ] else entries in
  Analysis.World.make ~links ~entries ~servers:oracle_servers ~universe ()

let oracle_access rng universe =
  if Random.State.int rng 8 = 0 then foreign else pick rng universe

let selector rng universe =
  match Random.State.int rng 5 with
  | 0 -> Srac.Selector.Any
  | 1 -> Srac.Selector.Op (if Random.State.bool rng then A.Read else A.Write)
  | 2 -> Srac.Selector.Resource (pick rng [ "r1"; "r2" ])
  | 3 -> Srac.Selector.Server (pick rng ("s9" :: oracle_servers))
  | _ -> Srac.Selector.Exactly (oracle_access rng universe)

(* One depth-bounded boolean skeleton over caller-supplied leaves — the
   shared shape of every random SRAC constraint in the suites (the
   analysis-oracle worlds, the simplify/derivative properties and the
   lazy-DFA fuzz all draw through it, so "a random constraint" means
   the same thing everywhere). *)
let rec formula_over ~leaf rng depth =
  if depth = 0 || Random.State.int rng 3 = 0 then leaf rng
  else
    match Random.State.int rng 3 with
    | 0 ->
        F.And
          (formula_over ~leaf rng (depth - 1), formula_over ~leaf rng (depth - 1))
    | 1 ->
        F.Or
          (formula_over ~leaf rng (depth - 1), formula_over ~leaf rng (depth - 1))
    | _ -> F.Not (formula_over ~leaf rng (depth - 1))

let formula rng universe depth =
  let leaf rng =
    match Random.State.int rng 3 with
    | 0 -> F.Atom (oracle_access rng universe)
    | 1 -> F.Ordered (oracle_access rng universe, oracle_access rng universe)
    | _ ->
        let lo = Random.State.int rng 3 in
        let hi =
          if Random.State.bool rng then None else Some (Random.State.int rng 3)
        in
        F.Card { lo; hi; sel = selector rng universe }
  in
  formula_over ~leaf rng depth

(* Random constraint over a concrete access pool (the srac suites'
   universe): atoms, orderings and cardinalities whose selectors are
   derived from the pool itself, plus the constants.  Replaces the
   ad-hoc generators the srac and lazy-DFA suites each used to carry. *)
let srac_selector rng accesses =
  match Random.State.int rng 5 with
  | 0 -> Srac.Selector.Any
  | 1 -> Srac.Selector.Op (if Random.State.bool rng then A.Read else A.Write)
  | 2 -> Srac.Selector.Resource (pick rng accesses).A.resource
  | 3 -> Srac.Selector.Server (pick rng accesses).A.server
  | _ -> Srac.Selector.Exactly (pick rng accesses)

let srac_formula ?(depth = 2) ~accesses rng =
  let leaf rng =
    match Random.State.int rng 4 with
    | 0 -> F.Atom (pick rng accesses)
    | 1 -> F.Ordered (pick rng accesses, pick rng accesses)
    | 2 ->
        let lo = Random.State.int rng 2 in
        F.Card
          {
            lo;
            hi =
              (if Random.State.bool rng then Some (lo + Random.State.int rng 3)
               else None);
            sel = srac_selector rng accesses;
          }
    | _ -> (if Random.State.bool rng then F.True else F.False)
  in
  formula_over ~leaf rng depth

(* Immediate-subterm candidates: with {!shrink} this walks a failing
   formula down to a minimal failing subformula. *)
let formula_subterms = function
  | F.And (a, b) | F.Or (a, b) -> [ a; b ]
  | F.Not a -> [ a ]
  | F.True | F.False | F.Atom _ | F.Ordered _ | F.Card _ -> []

let analysis_binding rng universe =
  let concrete () =
    let a = pick rng universe in
    (A.operation_name a.A.op, a.A.resource ^ "@" ^ a.A.server)
  in
  let operation, target =
    match Random.State.int rng 4 with
    | 0 -> ("*", "*@*")
    | 1 -> concrete ()
    | 2 -> ((if Random.State.bool rng then "read" else "write"), "*@*")
    | _ ->
        let a = pick rng universe in
        (A.operation_name a.A.op, "*@" ^ a.A.server)
  in
  let spatial =
    if Random.State.int rng 6 = 0 then None else Some (formula rng universe 2)
  in
  let spatial_scope =
    match Random.State.int rng 4 with
    | 0 | 1 -> PB.Performed
    | 2 -> PB.Both
    | _ -> PB.Program
  in
  let spatial_modality =
    if Random.State.int rng 4 = 0 then Srac.Program_sat.Forall
    else Srac.Program_sat.Exists
  in
  let dur =
    match Random.State.int rng 3 with
    | 0 -> None
    | 1 -> Some (Temporal.Q.of_int (1 + Random.State.int rng 3))
    | _ -> Some (Temporal.Q.make 3 2)
  in
  let scheme =
    if Random.State.int rng 4 = 0 then Temporal.Validity.Per_server
    else Temporal.Validity.Whole_journey
  in
  PB.make ?spatial ~spatial_modality ~spatial_scope ?dur ~scheme
    (Rbac.Perm.make ~operation ~target)

(* A full random Policy_lang.t — RBAC policy plus hierarchy, SoD
   constraints and bindings — for the render/parse fixed-point
   property.  SSD constraints that an already-generated assignment
   would violate retroactively are simply skipped (the real admin API
   rejects them too). *)
let policy_lang rng =
  let u = universe rng in
  let p = policy rng in
  let roles = Parallel.Workload.roles in
  List.iteri
    (fun i senior ->
      List.iteri
        (fun j junior ->
          if i < j && Random.State.int rng 5 = 0 then
            match Rbac.Policy.add_inheritance p ~senior ~junior with
            | () -> ()
            | exception Rbac.Hierarchy.Cycle _ -> ())
        roles)
    roles;
  for i = 0 to Random.State.int rng 3 - 1 do
    let r1 = pick rng roles and r2 = pick rng roles in
    if not (String.equal r1 r2) then begin
      let c =
        Rbac.Sod.make
          ~name:(Printf.sprintf "c%d" i)
          ~roles:[ r1; r2 ] ~max_roles:1
      in
      if Random.State.bool rng then (
        try Rbac.Policy.add_ssd p c with Invalid_argument _ -> ())
      else Rbac.Policy.add_dsd p c
    end
  done;
  let bindings =
    List.init (Random.State.int rng 4) (fun _ -> analysis_binding rng u)
  in
  { Coordinated.Policy_lang.policy = p; bindings }
