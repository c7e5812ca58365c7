(* Team-closed partitioning of one coalition's objects.

   Two objects may be decided on different shards only if no decision
   about one can ever read the other's state.  The only cross-object
   coupling in the model is team membership (Team-scope bindings read
   companions' proof stores and keep sub-histories in their monitors),
   so the sound unit of distribution is the connected
   component of the "ever shares a team" relation over the event
   stream.  Everything here is deterministic: component identity comes
   from union-find over the scenario data, component order from first
   object appearance, and shard assignment from a greedy
   size-descending bin pack with lowest-index tie-breaks. *)

let find parent x =
  let rec go x =
    match Hashtbl.find_opt parent x with
    | None -> x
    | Some p ->
        let root = go p in
        if not (String.equal root p) then Hashtbl.replace parent x root;
        root
  in
  go x

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if not (String.equal ra rb) then Hashtbl.replace parent ra rb

(* team nodes live in a namespace no object id can collide with *)
let team_node team = "\x00team:" ^ team

let components (sc : Scenario.t) =
  let parent = Hashtbl.create 16 in
  List.iter
    (function
      | Scenario.Join (id, team) -> union parent id (team_node team)
      | _ -> ())
    sc.events;
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (o : Scenario.obj) ->
      let root = find parent o.id in
      (match Hashtbl.find_opt groups root with
      | None ->
          order := root :: !order;
          Hashtbl.replace groups root [ o.id ]
      | Some members -> Hashtbl.replace groups root (o.id :: members)))
    sc.objects;
  List.rev_map (fun root -> List.rev (Hashtbl.find groups root)) !order

type t = { shard_of : (string, int) Hashtbl.t; shards : int; loads : int array }

let shards t = t.shards
let loads t = Array.copy t.loads

let shard_of t id =
  match Hashtbl.find_opt t.shard_of id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Partition.shard_of: unknown object %S" id)

let assign ~shards sc =
  if shards < 1 then invalid_arg "Partition.assign: shards must be >= 1";
  let comps = components sc in
  (* largest first; stable sort keeps first-appearance order on ties *)
  let sized = List.stable_sort
      (fun a b -> compare (List.length b) (List.length a))
      comps
  in
  let loads = Array.make shards 0 in
  let shard_of = Hashtbl.create 16 in
  List.iter
    (fun members ->
      let target = ref 0 in
      Array.iteri (fun s load -> if load < loads.(!target) then target := s) loads;
      let s = !target in
      loads.(s) <- loads.(s) + List.length members;
      List.iter (fun id -> Hashtbl.replace shard_of id s) members)
    sized;
  { shard_of; shards; loads }
