module Q = Temporal.Q

type t = {
  object_id : string;
  ids : Sral.Access.Ids.t;
  proofs : Srac.Proof.store;
  mutable visits : (string * Q.t) list;  (* reverse order *)
  mutable first_arrival : Q.t;  (* meaningful once [visits <> []] *)
  activations : (string, (Q.t * bool) list ref) Hashtbl.t;
      (* per key, reverse-order change list *)
  spatial_memo : (string, Sral.Ast.t * (unit, string) result) Hashtbl.t;
  residuals : Residual.store;
  mutable clock : Q.t;
  mutable history_epoch : int;  (* proofs issued so far *)
}

let create ?(ids = Sral.Access.Ids.create ()) ~object_id () =
  {
    object_id;
    ids;
    proofs = Srac.Proof.create ();
    visits = [];
    first_arrival = Q.zero;
    activations = Hashtbl.create 8;
    spatial_memo = Hashtbl.create 8;
    residuals = Residual.create ();
    clock = Q.zero;
    history_epoch = 0;
  }

let object_id m = m.object_id
let ids m = m.ids
let proofs m = m.proofs
let history_epoch m = m.history_epoch

let advance m time =
  if Q.lt time m.clock then
    invalid_arg
      (Format.asprintf "Monitor: time went backwards (%a < %a)" Q.pp time Q.pp
         m.clock)
  else m.clock <- time

let record_arrival m ~server ~time =
  advance m time;
  if m.visits = [] then m.first_arrival <- time;
  m.visits <- (server, time) :: m.visits

let arrivals m = List.rev_map snd m.visits
let arrived m = m.visits <> []

let base_time m (scheme : Temporal.Validity.scheme) =
  match (m.visits, scheme) with
  | [], _ -> invalid_arg "Monitor.base_time: no arrival yet"
  | (_, latest) :: _, Per_server -> latest
  | _ :: _, Whole_journey -> m.first_arrival

let itinerary m = List.rev m.visits
let current_server m = match m.visits with [] -> None | (s, _) :: _ -> Some s

let record_access ?id m a ~time =
  advance m time;
  let id = match id with Some id -> id | None -> Sral.Access.Ids.intern m.ids a in
  m.history_epoch <- m.history_epoch + 1;
  Srac.Proof.record ~id m.proofs a ~time

let performed m = Srac.Proof.performed_trace m.proofs

let changes_ref m key =
  match Hashtbl.find_opt m.activations key with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add m.activations key r;
      r

let set_active_cell m (r : Residual.cell) ~time state =
  advance m time;
  let current = match !r with [] -> false | (_, v) :: _ -> v in
  if not (Bool.equal current state) then r := (time, state) :: !r

let set_active m ~key ~time state = set_active_cell m (changes_ref m key) ~time state

let activation_cell m ~key = changes_ref m key
let residuals m = m.residuals

let activation_fn m ~key =
  match Hashtbl.find_opt m.activations key with
  | None -> Temporal.Step_fn.const false
  | Some r -> Temporal.Step_fn.of_changes ~init:false (List.rev !r)

let is_active_at m ~key t = Temporal.Step_fn.value_at (activation_fn m ~key) t

let memo_spatial m ~key ~program compute =
  match Hashtbl.find_opt m.spatial_memo key with
  | Some (cached_program, value) when Sral.Ast.equal cached_program program ->
      value
  | _ ->
      let value = compute () in
      Hashtbl.replace m.spatial_memo key (program, value);
      value

let now m = m.clock

let pp ppf m =
  Format.fprintf ppf "@[<v>monitor %s (clock %a)@," m.object_id Q.pp m.clock;
  List.iter
    (fun (s, t) -> Format.fprintf ppf "  arrived %s at %a@," s Q.pp t)
    (itinerary m);
  Format.fprintf ppf "  performed %a@," Sral.Trace.pp (performed m);
  Format.fprintf ppf "@]"
