module String_set = Set.Make (String)

type decision_mode = Naive | Lazy

type t = {
  policy : Rbac.Policy.t;
  mode : decision_mode;
  index : Binding_index.t;
  monitors : (string, Monitor.t) Hashtbl.t;
  teams : (string, string) Hashtbl.t;  (* object_id -> team name *)
  rosters : (string, String_set.t) Hashtbl.t;  (* team name -> members *)
  log : Audit_log.t;
  bus : Obs.Bus.t;
}

let create ?(mode = Lazy) ?(bindings = []) ?log_capacity ?bus policy =
  let bus = match bus with Some b -> b | None -> Obs.Bus.create () in
  let log = Audit_log.create ?capacity:log_capacity () in
  (* the audit log no longer records on its own: it is the bus's first
     subscriber, fed one Decision event per check *)
  Obs.Bus.subscribe bus (Audit_log.sink log);
  {
    policy;
    mode;
    index = Binding_index.of_list bindings;
    monitors = Hashtbl.create 8;
    teams = Hashtbl.create 8;
    rosters = Hashtbl.create 8;
    log;
    bus;
  }

let clone t =
  create ~mode:t.mode ~bindings:(Binding_index.to_list t.index) t.policy

let of_policy_text ?mode text =
  let parsed = Policy_lang.parse text in
  create ?mode ~bindings:parsed.Policy_lang.bindings parsed.Policy_lang.policy

let policy t = t.policy
let mode t = t.mode
let bindings t = Binding_index.to_list t.index
let add_binding t b = Binding_index.add t.index b
let applicable_bindings t access = Binding_index.applicable t.index access
let log t = t.log
let bus t = t.bus

let monitor t ~object_id =
  match Hashtbl.find_opt t.monitors object_id with
  | Some m -> m
  | None ->
      let m = Monitor.create ~object_id in
      Hashtbl.add t.monitors object_id m;
      m

let new_session t ~user = Rbac.Session.create t.policy ~user

let roster t team =
  Option.value ~default:String_set.empty (Hashtbl.find_opt t.rosters team)

let join_team t ~object_id ~team =
  (match Hashtbl.find_opt t.teams object_id with
  | Some old ->
      Hashtbl.replace t.rosters old (String_set.remove object_id (roster t old))
  | None -> ());
  Hashtbl.replace t.teams object_id team;
  Hashtbl.replace t.rosters team (String_set.add object_id (roster t team))

let team_of t ~object_id = Hashtbl.find_opt t.teams object_id

let teammates t ~object_id =
  match Hashtbl.find_opt t.teams object_id with
  | None -> []
  | Some team -> String_set.elements (String_set.remove object_id (roster t team))

(* The seed's fold over every object in the coalition — kept verbatim
   as the [Naive] mode's companion lookup, both so E13 can measure the
   O(coalition) cost it had and so the differential fuzz suite runs the
   genuinely old path. *)
let teammates_scan t ~object_id =
  match Hashtbl.find_opt t.teams object_id with
  | None -> []
  | Some team ->
      Hashtbl.fold
        (fun other their_team acc ->
          if String.equal their_team team && not (String.equal other object_id)
          then other :: acc
          else acc)
        t.teams []
      |> List.sort String.compare

let companions t ~object_id =
  List.map (fun id -> monitor t ~object_id:id) (teammates t ~object_id)

let companions_scan t ~object_id =
  List.map (fun id -> monitor t ~object_id:id) (teammates_scan t ~object_id)

let check t ~session ~object_id ~program ~time access =
  let m = monitor t ~object_id in
  let verdict =
    match t.mode with
    | Naive ->
        Decision.decide_naive ~obs:t.bus
          ~companions:(companions_scan t ~object_id)
          ~session ~monitor:m
          ~bindings:(Binding_index.to_list t.index)
          ~program ~time access
    | Lazy ->
        Decision.decide_lazy ~obs:t.bus ~companions:(companions t ~object_id)
          ~session ~monitor:m
          ~applicable:(Binding_index.applicable t.index access)
          ~program ~time access
  in
  Obs.Bus.emit t.bus (Obs.Trace.Decision { time; object_id; access; verdict });
  (match verdict with
  | Decision.Granted -> Monitor.record_access m access ~time
  | Decision.Denied _ -> ());
  verdict

let check_batch t ~session ~object_id ~program accesses =
  List.map
    (fun (time, access) -> check t ~session ~object_id ~program ~time access)
    accesses

let arrive t ~object_id ~server ~time =
  Monitor.record_arrival (monitor t ~object_id) ~server ~time;
  Obs.Bus.emit t.bus (Obs.Trace.Arrival { time; object_id; server })

let refresh t ~session ~object_id ~program ~time =
  match t.mode with
  | Naive ->
      Decision.refresh_activation
        ~companions:(companions_scan t ~object_id)
        ~session
        ~monitor:(monitor t ~object_id)
        ~bindings:(Binding_index.to_list t.index)
        ~program ~time ()
  | Lazy ->
      Decision.refresh_activation_lazy
        ~companions:(companions t ~object_id)
        ~session
        ~monitor:(monitor t ~object_id)
        ~bindings:(Binding_index.to_list t.index)
        ~program ~time ()
