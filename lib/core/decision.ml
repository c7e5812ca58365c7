module Q = Temporal.Q

type reason = Verdict.reason =
  | Rbac_denied of string
  | Spatial_violation of { binding : string; detail : string }
  | Temporal_expired of { binding : string; spent : Temporal.Q.t }
  | Not_active of string
  | Not_arrived
  | Server_unavailable of string

type verdict = Verdict.t = Granted | Denied of reason

let is_granted = Verdict.is_granted
let pp_reason = Verdict.pp_reason
let pp_verdict = Verdict.pp

(* Feasibility semantics: can the program (still) satisfy the
   constraint?  Future accesses *will* carry execution proofs once
   performed, so Definition 3.6's Pr_x conjunct is vacuously true here;
   proofs bite in the history-based scope below. *)
let program_scope_ok ~monitor ~program (binding : Perm_binding.t) c =
  (* the check depends only on (program, constraint), both fixed for the
     object's lifetime — memoized per binding in the monitor *)
  Monitor.memo_spatial monitor ~key:(Perm_binding.key binding) ~program
    (fun () ->
      let outcome =
        Srac.Program_sat.check ~proofs:Srac.Proof.always
          ~modality:binding.spatial_modality program c
      in
      if outcome.holds then Ok ()
      else
        let detail =
          match (binding.spatial_modality, outcome.witness) with
          | Srac.Program_sat.Forall, Some t ->
              Format.asprintf "violating trace %a" Sral.Trace.pp t
          | _ ->
              Format.asprintf "no execution can satisfy %a" Srac.Formula.pp c
        in
        Error detail)

(* The history a binding consults: the object's own proofs, or —
   for Team proof scope — the time-merged proofs of the whole team
   ("the previous access actions of the device and even of its
   companions"). *)
let history ~monitor ~companions (b : Perm_binding.t) =
  match b.Perm_binding.proof_scope with
  | Perm_binding.Own -> Monitor.performed monitor
  | Perm_binding.Team ->
      let entries =
        List.concat_map
          (fun m -> Srac.Proof.entries (Monitor.proofs m))
          (monitor :: companions)
      in
      let by_time =
        List.stable_sort
          (fun (e1 : Srac.Proof.entry) e2 ->
            Temporal.Q.compare e1.Srac.Proof.time e2.Srac.Proof.time)
          entries
      in
      List.map (fun (e : Srac.Proof.entry) -> e.Srac.Proof.access) by_time

(* History-based half: the performed trace extended with the requested
   access must satisfy the constraint.  Every access in that trace
   either has a proof already or is about to get one, so Definition
   3.6's Pr_x conjunct is vacuous here. *)
let history_check ~history ~access c =
  let hypothetical = history @ [ access ] in
  if Srac.Trace_sat.sat ~proofs:Srac.Proof.always hypothetical c then Ok ()
  else
    match Srac.Trace_sat.explain ~proofs:Srac.Proof.always hypothetical c with
    | Ok () -> Ok ()
    | Error detail -> Error ("history: " ^ detail)

let performed_scope_ok ~monitor ~companions ~access b c =
  history_check ~history:(history ~monitor ~companions b) ~access c

let spatial_ok ~monitor ~companions ~program ~access
    (binding : Perm_binding.t) =
  match binding.spatial with
  | None -> Ok ()
  | Some c -> (
      let program_side () = program_scope_ok ~monitor ~program binding c in
      let performed_side () =
        performed_scope_ok ~monitor ~companions ~access binding c
      in
      match binding.spatial_scope with
      | Perm_binding.Program -> program_side ()
      | Perm_binding.Performed -> performed_side ()
      | Perm_binding.Both -> (
          match program_side () with
          | Ok () -> performed_side ()
          | Error _ as failure -> failure))

let temporal_state ~monitor ~time (binding : Perm_binding.t) =
  let key = Perm_binding.key binding in
  let active = Monitor.activation_fn monitor ~key in
  match Monitor.arrivals monitor with
  | [] -> `Not_arrived
  | arrivals ->
      let valid_now =
        Temporal.Validity.is_valid_at ~scheme:binding.scheme ~arrivals
          ~dur:binding.dur active time
      in
      let spent =
        Temporal.Validity.spent ~scheme:binding.scheme ~arrivals
          ~dur:binding.dur active ~at:time
      in
      if valid_now then `Valid
      else if Temporal.Step_fn.value_at active time then `Expired spent
      else `Inactive

(* Eq. 3.1: active(perm) = role-held ∧ check(P, C).  The activation
   state is always computed with the *program-level* check — the
   permission is active while the program can (still) satisfy the
   constraint — so validity time accrues from the start of the journey,
   not from the first request.  The grant decision may additionally use
   the history-based scope. *)
let refresh_one ~session ~monitor ~companions ~program ~time
    (b : Perm_binding.t) =
  let rbac_ok =
    Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
      ~target:b.perm.Rbac.Perm.target
  in
  let spatial_active =
    match b.spatial with
    | None -> true
    | Some c -> (
        match b.spatial_scope with
        | Perm_binding.Program | Perm_binding.Both ->
            Result.is_ok (program_scope_ok ~monitor ~program b c)
        | Perm_binding.Performed ->
            (* history scope: active while what actually happened can
               still be extended into a satisfying trace — prohibitions
               deactivate once violated, obligations stay active *)
            Srac.Program_sat.prefix_feasible
              ~performed:(history ~monitor ~companions b) c)
  in
  Monitor.set_active monitor ~key:(Perm_binding.key b) ~time
    (rbac_ok && spatial_active)

let refresh_activation ?(companions = []) ~session ~monitor ~bindings
    ~program ~time () =
  List.iter (refresh_one ~session ~monitor ~companions ~program ~time) bindings

(* The temporal tail of the decision, in binding order. *)
let first_temporal_failure ~monitor ~time applicable =
  List.find_map
    (fun b ->
      match temporal_state ~monitor ~time b with
      | `Valid -> None
      | `Inactive -> Some (Not_active (Perm_binding.key b))
      | `Not_arrived -> Some Not_arrived
      | `Expired spent ->
          Some (Temporal_expired { binding = Perm_binding.key b; spent }))
    applicable

(* Bracket [f]'s evaluation with Stage_start/Stage_end span events on
   the bus, measuring host-clock nanoseconds through the bus clock
   (zero under the default null clock, keeping traces deterministic).
   With no bus the stage runs untouched — the un-instrumented fast
   path is byte-for-byte the seed's. *)
let span ~obs ~monitor ~time stage ok_of f =
  match obs with
  | None -> f ()
  | Some bus ->
      let object_id = Monitor.object_id monitor in
      Obs.Bus.emit bus (Obs.Trace.Stage_start { time; object_id; stage });
      let t0 = Obs.Bus.now_ns bus in
      let result = f () in
      let elapsed_ns = Int64.sub (Obs.Bus.now_ns bus) t0 in
      Obs.Bus.emit bus
        (Obs.Trace.Stage_end
           { time; object_id; stage; ok = ok_of result; elapsed_ns });
      result

(* Full recomputation over an already-filtered applicable-binding list. *)
let decide_applicable ?obs ~companions ~session ~monitor ~applicable ~program
    ~time access =
  let rbac =
    span ~obs ~monitor ~time Obs.Trace.Rbac
      (function Rbac.Engine.Granted -> true | Rbac.Engine.Denied _ -> false)
      (fun () -> Rbac.Engine.decide_access session access)
  in
  let spatial_results =
    span ~obs ~monitor ~time Obs.Trace.Spatial
      (List.for_all (fun (_, r) -> Result.is_ok r))
      (fun () ->
        List.iter
          (refresh_one ~session ~monitor ~companions ~program ~time)
          applicable;
        List.map
          (fun b -> (b, spatial_ok ~monitor ~companions ~program ~access b))
          applicable)
  in
  match rbac with
  | Rbac.Engine.Denied why -> Denied (Rbac_denied why)
  | Rbac.Engine.Granted -> (
      let spatial_failure =
        List.find_map
          (fun (b, spatial) ->
            match spatial with
            | Ok () -> None
            | Error detail ->
                Some
                  (Spatial_violation
                     { binding = Perm_binding.key b; detail }))
          spatial_results
      in
      match spatial_failure with
      | Some reason -> Denied reason
      | None -> (
          match
            span ~obs ~monitor ~time Obs.Trace.Temporal Option.is_none
              (fun () -> first_temporal_failure ~monitor ~time applicable)
          with
          | Some reason -> Denied reason
          | None -> Granted))

let decide ?obs ?(companions = []) ~session ~monitor ~bindings ~program ~time
    access =
  let applicable =
    List.filter (fun b -> Perm_binding.applies_to b access) bindings
  in
  decide_applicable ?obs ~companions ~session ~monitor ~applicable ~program
    ~time access

let decide_naive = decide

type request = {
  session : Rbac.Session.t;
  monitor : Monitor.t;
  companions : Monitor.t list;
  program : Sral.Ast.t;
  time : Temporal.Q.t;
  access : Sral.Access.t;
}

let batch ?obs ~bindings requests =
  List.map
    (fun r ->
      decide ?obs ~companions:r.companions ~session:r.session
        ~monitor:r.monitor ~bindings ~program:r.program ~time:r.time r.access)
    requests

(* ------------------------------------------------------------------ *)
(* Lazy-derivative decision path.

   [decide_lazy] mirrors [decide_naive]'s observable behavior —
   verdicts, denial strings, Obs trace spans, monitor clock and
   activation movement — while replacing the per-decision spatial
   recomputation with incremental Brzozowski-derivative residuals
   ({!Srac.Lazy_dfa}) and version-stamped RBAC caches, so a warm
   decision allocates nothing.  Per binding, the monitor keeps a
   {!Residual.slot} holding the binding's lazy machine and a cursor into
   the object's performed history; each decision folds only the
   not-yet-seen proof entries into the residual state, then answers
   grant (residual nullability after the access) and activation
   (residual feasibility) from memoized per-state bits.  A denial
   builds its detail with the oracle's check over the binding's
   non-inert history, so messages stay byte-identical.

   Everything per binding is found by the binding's id (its
   {!Binding_index} position) and everything per access by the
   access's {!Sral.Access.Ids} id, which the proof entries carry: the
   warm path reads arrays and hashes nothing. *)

let get_slot ~session ~monitor id (b : Perm_binding.t) =
  let store = Monitor.residuals monitor in
  match Residual.find store.Residual.slots id with
  | Some slot when slot.Residual.binding == b -> slot
  | _ ->
      let machine =
        match (b.spatial, b.spatial_scope) with
        | Some c, (Perm_binding.Performed | Perm_binding.Both) ->
            Some (Srac.Lazy_dfa.create c)
        | _ -> None
      in
      let slot =
        {
          Residual.binding = b;
          machine;
          cell = Monitor.activation_cell monitor ~key:(Perm_binding.key b);
          own_state = 0;
          own_consumed = 0;
          team_state = 0;
          team_subs = [];
          team_len = 0;
          may_session = session;
          may_version = Rbac.Session.version session;
          may_ok =
            Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
              ~target:b.perm.Rbac.Perm.target;
          prog_program = None;
          prog_result = Ok ();
        }
      in
      store.Residual.slots <- Residual.ensure store.Residual.slots id;
      store.Residual.slots.(id) <- Some slot;
      slot

let machine_of slot =
  match slot.Residual.machine with Some m -> m | None -> assert false

(* [Session.may] rebuilds the active permission set on every call; its
   result is fully determined by the session object and its version
   (which bumps on every role activation change and policy edit), so
   one cached bit per (binding, session, version) suffices. *)
let slot_may_ok ~session slot (b : Perm_binding.t) =
  let v = Rbac.Session.version session in
  if slot.Residual.may_session == session && slot.Residual.may_version = v then
    slot.Residual.may_ok
  else begin
    let ok =
      Rbac.Session.may session ~operation:b.perm.Rbac.Perm.operation
        ~target:b.perm.Rbac.Perm.target
    in
    slot.Residual.may_session <- session;
    slot.Residual.may_version <- v;
    slot.Residual.may_ok <- ok;
    ok
  end

(* The Program-scope outcome is fixed by (program, constraint,
   modality).  [program_scope_ok]'s monitor memo already exploits
   that, but its key is a formatted permission string rebuilt on every
   probe; the slot re-caches the result against the program's physical
   identity so the warm path touches no allocator.  A
   structurally-equal-but-distinct program falls through to the memo,
   which compares with [Ast.equal] — slower, never wrong. *)
let program_ok_cached ~monitor ~program slot (b : Perm_binding.t) c =
  match slot.Residual.prog_program with
  | Some p when p == program -> slot.Residual.prog_result
  | _ ->
      let r = program_scope_ok ~monitor ~program b c in
      slot.Residual.prog_program <- Some program;
      slot.Residual.prog_result <- r;
      r

(* Same caching argument for the full per-access RBAC verdict, kept
   per access id. *)
let rbac_cached ~session ~monitor ~access_id access =
  let store = Monitor.residuals monitor in
  let v = Rbac.Session.version session in
  match Residual.find store.Residual.rbac access_id with
  | Some e when e.Residual.r_session == session && e.Residual.r_version = v ->
      e.Residual.r_verdict
  | Some e ->
      let verdict = Rbac.Engine.decide_access session access in
      e.Residual.r_session <- session;
      e.Residual.r_version <- v;
      e.Residual.r_verdict <- verdict;
      verdict
  | None ->
      let verdict = Rbac.Engine.decide_access session access in
      store.Residual.rbac <- Residual.ensure store.Residual.rbac access_id;
      store.Residual.rbac.(access_id) <-
        Some { Residual.r_session = session; r_version = v; r_verdict = verdict };
      verdict

(* Fold the [k] newest proof entries (given newest-first) into the
   slot's own-residual cursor, oldest first.  [k] is 1 in steady state
   — the access granted by the previous decision. *)
let rec fold_newest machine slot k (entries : Srac.Proof.entry list) =
  if k > 0 then
    match entries with
    | [] -> ()
    | e :: older ->
        fold_newest machine slot (k - 1) older;
        slot.Residual.own_state <-
          Srac.Lazy_dfa.step_entry machine slot.Residual.own_state e

(* The monitor clock forces non-decreasing proof times, so insertion
   order is execution-time order and the cursor fold visits entries
   exactly as [Monitor.performed] would list them; [history_epoch]
   counts proofs, so it doubles as the entry count. *)
let own_state ~monitor slot =
  let total = Monitor.history_epoch monitor in
  if slot.Residual.own_consumed < total then begin
    fold_newest (machine_of slot) slot
      (total - slot.Residual.own_consumed)
      (Srac.Proof.rev_entries (Monitor.proofs monitor));
    slot.Residual.own_consumed <- total
  end;
  slot.Residual.own_state

(* Team scope reads the time-merged proofs of the requester and its
   companions ([history]).  An inert access is a self-loop, so only
   the entries the constraint can see matter: each member monitor
   keeps, per Team-scope binding, the sub-history of its non-inert
   entries, extended through a cursor on its history epoch.  The team
   residual is a fold over the merge of those short lists, redone only
   when one of them grew or the team changed. *)

(* Append the non-inert ones of the [k] newest entries, oldest first. *)
let rec scan_newest machine sub k (entries : Srac.Proof.entry list) =
  if k > 0 then
    match entries with
    | [] -> ()
    | e :: older ->
        scan_newest machine sub (k - 1) older;
        if not (Srac.Lazy_dfa.inert_entry machine e) then Residual.push sub e

let member_sub machine id b m =
  let store = Monitor.residuals m in
  let sub =
    match Residual.find store.Residual.subs id with
    | Some ({ Residual.owner = Some o; _ } as sub) when o == b -> sub
    | _ ->
        let sub = Residual.new_sub b in
        store.Residual.subs <- Residual.ensure store.Residual.subs id;
        store.Residual.subs.(id) <- Some sub;
        sub
  in
  let total = Monitor.history_epoch m in
  if sub.Residual.scanned < total then begin
    scan_newest machine sub
      (total - sub.Residual.scanned)
      (Srac.Proof.rev_entries (Monitor.proofs m));
    sub.Residual.scanned <- total
  end;
  sub

(* The merge's next entry: the earliest head, ties to the earlier
   member — the order [history]'s stable sort produces. *)
let rec earliest (best : Residual.sub) = function
  | [] -> best
  | (s : Residual.sub) :: rest ->
      let best =
        if
          s.pos < s.len
          && (best.pos >= best.len
             || Q.compare s.entries.(s.pos).Srac.Proof.time
                  best.entries.(best.pos).Srac.Proof.time
                < 0)
        then s
        else best
      in
      earliest best rest

let fold_merge f acc subs =
  List.iter (fun (s : Residual.sub) -> s.pos <- 0) subs;
  let rec go acc =
    let s = earliest Residual.exhausted subs in
    if s == Residual.exhausted then acc
    else begin
      let e = s.entries.(s.pos) in
      s.pos <- s.pos + 1;
      go (f acc e)
    end
  in
  go acc

let fold_team machine subs =
  fold_merge (Srac.Lazy_dfa.step_entry machine) (Srac.Lazy_dfa.start machine)
    subs

(* Same members, physically, and none of their lists grew since the
   last fold?  Lists only grow, so equal summed lengths mean equal
   lists. *)
let rec team_unchanged machine id b slot total prev members =
  match (prev, members) with
  | [], [] -> total = slot.Residual.team_len
  | s :: prev, m :: members ->
      let s' = member_sub machine id b m in
      s' == s
      && team_unchanged machine id b slot (total + s'.Residual.len) prev
           members
  | _ -> false

let same_members prev subs =
  List.compare_lengths prev subs = 0 && List.for_all2 ( == ) prev subs

(* A machine's alphabet only grows, and feasibility is answered over
   it.  Within one team that matches the eager oracle, whose alphabet
   is the constraint's accesses plus the team's history; but a team
   change can drop every proof that brought a selected access in, so
   a widened machine is replaced by a fresh one, which the refold then
   widens by exactly the new team's selected accesses. *)
let renew_if_widened slot (b : Perm_binding.t) machine =
  match b.spatial with
  | Some c
    when Srac.Lazy_dfa.num_symbols machine
         > List.length (Srac.Formula.accesses c) ->
      let fresh = Srac.Lazy_dfa.create c in
      slot.Residual.machine <- Some fresh;
      fresh
  | _ -> machine

(* The entries' ids index the machine's id table, so every member must
   number its proofs with the requester's interner. *)
let same_interner ~monitor companions =
  let ids = Monitor.ids monitor in
  List.iter
    (fun c ->
      if Monitor.ids c != ids then
        invalid_arg
          "Decision.decide_lazy: companions must share the monitor's access \
           interner")
    companions

let team_state ~monitor ~companions slot id b =
  let machine = machine_of slot in
  let own = member_sub machine id b monitor in
  match slot.Residual.team_subs with
  | s :: prev
    when s == own
         && team_unchanged machine id b slot own.Residual.len prev companions
    ->
      slot.Residual.team_state
  | previous ->
      same_interner ~monitor companions;
      let subs = own :: List.map (member_sub machine id b) companions in
      let machine =
        match previous with
        | _ :: _ when not (same_members previous subs) ->
            renew_if_widened slot b machine
        | _ -> machine
      in
      let q = fold_team machine subs in
      slot.Residual.team_state <- q;
      slot.Residual.team_subs <- subs;
      slot.Residual.team_len <-
        List.fold_left (fun n (s : Residual.sub) -> n + s.len) 0 subs;
      q

let scope_state ~monitor ~companions slot id (b : Perm_binding.t) =
  match b.proof_scope with
  | Perm_binding.Own -> own_state ~monitor slot
  | Perm_binding.Team -> team_state ~monitor ~companions slot id b

(* The binding's history without its inert entries, in time order,
   read off state [scope_state] has just brought up to date: the own
   proofs filtered by the machine, or the merge of the team's subs
   (which hold only non-inert entries).  An inert access changes no
   Atom, Ordered or Card answer, so [history_check] over this trace
   gives the oracle's verdict and detail string over the full history
   (property-tested in test_srac). *)
let visible_history ~monitor slot (b : Perm_binding.t) =
  match b.proof_scope with
  | Perm_binding.Own ->
      let machine = machine_of slot in
      List.fold_left
        (fun acc (e : Srac.Proof.entry) ->
          if Srac.Lazy_dfa.inert_entry machine e then acc else e.access :: acc)
        []
        (Srac.Proof.rev_entries (Monitor.proofs monitor))
  | Perm_binding.Team ->
      List.rev
        (fold_merge
           (fun acc (e : Srac.Proof.entry) -> e.access :: acc)
           [] slot.Residual.team_subs)

let refresh_one_lazy ~session ~monitor ~companions ~program ~time id
    (b : Perm_binding.t) =
  let slot = get_slot ~session ~monitor id b in
  let rbac_ok = slot_may_ok ~session slot b in
  let spatial_active =
    match b.spatial with
    | None -> true
    | Some c -> (
        match b.spatial_scope with
        | Perm_binding.Program | Perm_binding.Both ->
            Result.is_ok (program_ok_cached ~monitor ~program slot b c)
        | Perm_binding.Performed ->
            let q = scope_state ~monitor ~companions slot id b in
            Srac.Lazy_dfa.feasible (machine_of slot) q)
  in
  Monitor.set_active_cell monitor slot.Residual.cell ~time
    (rbac_ok && spatial_active)

let rec refresh_all_lazy ~session ~monitor ~companions ~program ~time =
  function
  | [] -> ()
  | (id, b) :: rest ->
      refresh_one_lazy ~session ~monitor ~companions ~program ~time id b;
      refresh_all_lazy ~session ~monitor ~companions ~program ~time rest

let performed_ok_lazy ~monitor ~companions ~access_id ~access slot id
    (b : Perm_binding.t) c =
  let q = scope_state ~monitor ~companions slot id b in
  if Srac.Lazy_dfa.nullable_after (machine_of slot) q ~id:access_id access then
    Ok ()
  else
    (* deny: the oracle's check over the non-inert history builds the
       byte-identical detail (and its [sat] means a residual
       false-negative can never deny a granting oracle) *)
    history_check ~history:(visible_history ~monitor slot b) ~access c

let spatial_ok_lazy ~session ~monitor ~companions ~program ~access_id ~access
    id (b : Perm_binding.t) =
  match b.spatial with
  | None -> Ok ()
  | Some c -> (
      let slot = get_slot ~session ~monitor id b in
      match b.spatial_scope with
      | Perm_binding.Program -> program_ok_cached ~monitor ~program slot b c
      | Perm_binding.Performed ->
          performed_ok_lazy ~monitor ~companions ~access_id ~access slot id b c
      | Perm_binding.Both -> (
          match program_ok_cached ~monitor ~program slot b c with
          | Ok () ->
              performed_ok_lazy ~monitor ~companions ~access_id ~access slot id
                b c
          | Error _ as failure -> failure))

let rec first_spatial_failure_lazy ~session ~monitor ~companions ~program
    ~access_id ~access = function
  | [] -> None
  | (id, b) :: rest -> (
      match
        spatial_ok_lazy ~session ~monitor ~companions ~program ~access_id
          ~access id b
      with
      | Ok () ->
          first_spatial_failure_lazy ~session ~monitor ~companions ~program
            ~access_id ~access rest
      | Error detail ->
          Some (Spatial_violation { binding = Perm_binding.key b; detail }))

(* Eq. 4.1 at the clock, straight from the slot's activation cell: the
   clock has passed every arrival and activation change, so one walk
   over the changes since the base time decides it
   ({!Temporal.Validity.current}).  [temporal_state] is the oracle. *)
let temporal_state_lazy ~monitor ~time slot (b : Perm_binding.t) =
  if not (Monitor.arrived monitor) then `Not_arrived
  else
    Temporal.Validity.current
      ~base:(Monitor.base_time monitor b.scheme)
      ~dur:b.dur !(slot.Residual.cell) ~at:time

let rec first_temporal_failure_lazy ~session ~monitor ~time = function
  | [] -> None
  | (id, b) :: rest -> (
      let slot = get_slot ~session ~monitor id b in
      match temporal_state_lazy ~monitor ~time slot b with
      | `Valid -> first_temporal_failure_lazy ~session ~monitor ~time rest
      | `Inactive -> Some (Not_active (Perm_binding.key b))
      | `Not_arrived -> Some Not_arrived
      | `Expired spent ->
          Some (Temporal_expired { binding = Perm_binding.key b; spent }))

let decide_lazy ?obs ?(companions = []) ~session ~monitor ~applicable ~program
    ~time ~access_id access =
  match obs with
  | None -> (
      (* uninstrumented fast path: no span closures, short-circuits at
         the first spatial failure (the skipped evaluations have no
         observable effect — they only warm caches that later
         decisions recompute identically) *)
      let rbac = rbac_cached ~session ~monitor ~access_id access in
      refresh_all_lazy ~session ~monitor ~companions ~program ~time applicable;
      match rbac with
      | Rbac.Engine.Denied why -> Denied (Rbac_denied why)
      | Rbac.Engine.Granted -> (
          match
            first_spatial_failure_lazy ~session ~monitor ~companions ~program
              ~access_id ~access applicable
          with
          | Some reason -> Denied reason
          | None -> (
              match
                first_temporal_failure_lazy ~session ~monitor ~time applicable
              with
              | Some reason -> Denied reason
              | None -> Granted)))
  | Some _ -> (
      (* instrumented: identical stage bracketing to decide_naive so
         traces are byte-comparable *)
      let rbac =
        span ~obs ~monitor ~time Obs.Trace.Rbac
          (function
            | Rbac.Engine.Granted -> true
            | Rbac.Engine.Denied _ -> false)
          (fun () -> rbac_cached ~session ~monitor ~access_id access)
      in
      let spatial_results =
        span ~obs ~monitor ~time Obs.Trace.Spatial
          (List.for_all (fun (_, r) -> Result.is_ok r))
          (fun () ->
            refresh_all_lazy ~session ~monitor ~companions ~program ~time
              applicable;
            List.map
              (fun (id, b) ->
                ( b,
                  spatial_ok_lazy ~session ~monitor ~companions ~program
                    ~access_id ~access id b ))
              applicable)
      in
      match rbac with
      | Rbac.Engine.Denied why -> Denied (Rbac_denied why)
      | Rbac.Engine.Granted -> (
          let spatial_failure =
            List.find_map
              (fun (b, spatial) ->
                match spatial with
                | Ok () -> None
                | Error detail ->
                    Some
                      (Spatial_violation
                         { binding = Perm_binding.key b; detail }))
              spatial_results
          in
          match spatial_failure with
          | Some reason -> Denied reason
          | None -> (
              match
                span ~obs ~monitor ~time Obs.Trace.Temporal Option.is_none
                  (fun () ->
                    first_temporal_failure_lazy ~session ~monitor ~time
                      applicable)
              with
              | Some reason -> Denied reason
              | None -> Granted)))

let refresh_activation_lazy ?(companions = []) ~session ~monitor ~bindings
    ~program ~time () =
  List.iteri
    (refresh_one_lazy ~session ~monitor ~companions ~program ~time)
    bindings

let validity_dc_check ~monitor ~(binding : Perm_binding.t) ~time =
  match binding.dur with
  | None -> true
  | Some dur -> (
      match Monitor.arrivals monitor with
      | [] -> false
      | arrivals ->
          let key = Perm_binding.key binding in
          let active = Monitor.activation_fn monitor ~key in
          let valid =
            Temporal.Validity.valid_fn ~scheme:binding.scheme ~arrivals
              ~dur:binding.dur active
          in
          let base =
            match binding.scheme with
            | Temporal.Validity.Whole_journey -> List.hd arrivals
            | Temporal.Validity.Per_server ->
                List.fold_left
                  (fun acc t -> if Q.le t time then Q.max acc t else acc)
                  (List.hd arrivals) arrivals
          in
          if Q.lt time base then false
          else
            let interp name =
              if String.equal name "valid" then valid
              else invalid_arg ("unknown state variable " ^ name)
            in
            (* Eq. 4.1 with [<=] is satisfied at the single boundary
               instant where the accumulated time equals [dur]; the
               step-function solution already switched off there (the
               budget is spent), so the agreeing DC reading is the
               strict "budget remains" form. *)
            let formula =
              Temporal.Duration_calculus.Dur_cmp
                (Temporal.State_expr.Var "valid", Temporal.Duration_calculus.Lt,
                 dur)
            in
            Temporal.Duration_calculus.sat interp
              (Temporal.Interval.make base time)
              formula
            && Temporal.Step_fn.value_at active time)
