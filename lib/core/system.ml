module String_set = Set.Make (String)

type decision_mode = Naive | Lazy

(* A team's members.  [stamp] changes on every join or leave, and no
   two rosters ever hold the same stamp. *)
type roster = { mutable names : String_set.t; mutable stamp : int }

(* One object's monitor and team, with its companions as of the team
   roster's stamp [mates_at]. *)
type member = {
  mon : Monitor.t;
  mutable team : roster option;
  mutable mates_at : int;
  mutable mates : Monitor.t list;
}

type t = {
  policy : Rbac.Policy.t;
  mode : decision_mode;
  index : Binding_index.t;
  ids : Sral.Access.Ids.t;
      (* numbers every access this system decides or records; its
         monitors share it, and a clone gets its own *)
  members : (string, member) Hashtbl.t;
  teams : (string, string) Hashtbl.t;  (* object_id -> team name *)
  rosters : (string, roster) Hashtbl.t;  (* team name -> members *)
  mutable stamps : int;  (* roster stamps issued so far *)
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
    ids = Sral.Access.Ids.create ();
    members = Hashtbl.create 8;
    teams = Hashtbl.create 8;
    rosters = Hashtbl.create 8;
    stamps = 0;
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

let applicable_bindings t access =
  List.map snd
    (Binding_index.applicable t.index
       ~id:(Sral.Access.Ids.intern t.ids access)
       access)

let log t = t.log
let bus t = t.bus

let member t ~object_id =
  match Hashtbl.find t.members object_id with
  | m -> m
  | exception Not_found ->
      let m =
        {
          mon = Monitor.create ~ids:t.ids ~object_id ();
          team = None;
          mates_at = -1;
          mates = [];
        }
      in
      Hashtbl.add t.members object_id m;
      m

let monitor t ~object_id = (member t ~object_id).mon

let new_session t ~user = Rbac.Session.create t.policy ~user

let roster t team =
  match Hashtbl.find_opt t.rosters team with
  | Some r -> r
  | None ->
      let r = { names = String_set.empty; stamp = 0 } in
      Hashtbl.add t.rosters team r;
      r

let restamp t r names =
  t.stamps <- t.stamps + 1;
  r.names <- names;
  r.stamp <- t.stamps

let join_team t ~object_id ~team =
  (match Hashtbl.find_opt t.teams object_id with
  | Some old ->
      let r = roster t old in
      restamp t r (String_set.remove object_id r.names)
  | None -> ());
  Hashtbl.replace t.teams object_id team;
  let r = roster t team in
  restamp t r (String_set.add object_id r.names);
  (member t ~object_id).team <- Some r

let team_of t ~object_id = Hashtbl.find_opt t.teams object_id

let teammates t ~object_id =
  match Hashtbl.find_opt t.teams object_id with
  | None -> []
  | Some team ->
      String_set.elements (String_set.remove object_id (roster t team).names)

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

(* Rebuilt only after the object's team changed: a warm check reuses
   the list. *)
let member_companions t m ~object_id =
  match m.team with
  | None -> []
  | Some r when r.stamp = m.mates_at -> m.mates
  | Some r ->
      m.mates <-
        List.map (fun id -> monitor t ~object_id:id) (teammates t ~object_id);
      m.mates_at <- r.stamp;
      m.mates

let companions t ~object_id =
  member_companions t (member t ~object_id) ~object_id

let companions_scan t ~object_id =
  List.map (fun id -> monitor t ~object_id:id) (teammates_scan t ~object_id)

let check t ~session ~object_id ~program ~time access =
  let mem = member t ~object_id in
  let id = Sral.Access.Ids.intern t.ids access in
  let verdict =
    match t.mode with
    | Naive ->
        Decision.decide_naive ~obs:t.bus
          ~companions:(companions_scan t ~object_id)
          ~session ~monitor:mem.mon
          ~bindings:(Binding_index.to_list t.index)
          ~program ~time access
    | Lazy ->
        Decision.decide_lazy ~obs:t.bus
          ~companions:(member_companions t mem ~object_id)
          ~session ~monitor:mem.mon
          ~applicable:(Binding_index.applicable t.index ~id access)
          ~program ~time ~access_id:id access
  in
  Obs.Bus.emit t.bus (Obs.Trace.Decision { time; object_id; access; verdict });
  (match verdict with
  | Decision.Granted -> Monitor.record_access ~id mem.mon access ~time
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
