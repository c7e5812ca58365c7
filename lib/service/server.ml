module Q = Temporal.Q
module System = Coordinated.System

type config = {
  mode : System.decision_mode;
  queue_capacity : int;
  max_frame : int;
}

let default_config =
  {
    mode = System.Lazy;
    queue_capacity = 256;
    max_frame = Frame.max_frame_default;
  }

type obj_state = { session : Rbac.Session.t; program : Sral.Ast.t }

type conn = {
  id : int;
  system : System.t;
  decoder : Frame.Decoder.t;
  objects : (string, obj_state) Hashtbl.t;
  events : Obs.Trace.event Queue.t;
  mutable subscribed : bool;
  mutable seq : int;  (* requests consumed; request i executes at time i *)
  mutable dead : bool;
  mutable executed : int;
  mutable shed : int;
  mutable malformed : int;
}

type t = {
  config : config;
  base : System.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable closed_executed : int;  (* counters of closed connections *)
  mutable closed_shed : int;
  mutable closed_malformed : int;
}

let create ?(config = default_config) ~base () =
  {
    config;
    base;
    conns = Hashtbl.create 16;
    next_conn = 0;
    closed_executed = 0;
    closed_shed = 0;
    closed_malformed = 0;
  }

let open_conn t =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let system = System.clone t.base in
  let c =
    {
      id;
      system;
      decoder = Frame.Decoder.create ~max_frame:t.config.max_frame ();
      objects = Hashtbl.create 8;
      events = Queue.create ();
      subscribed = false;
      seq = 0;
      dead = false;
      executed = 0;
      shed = 0;
      malformed = 0;
    }
  in
  (* capture from the start; events only accumulate once subscribed so
     an uninterested connection costs nothing *)
  Obs.Bus.subscribe (System.bus system)
    (Obs.Sink.make ~name:(Printf.sprintf "conn-%d-capture" id) (fun ev ->
         if c.subscribed then Queue.add ev c.events));
  Hashtbl.replace t.conns id c;
  id

let retire t c =
  t.closed_executed <- t.closed_executed + c.executed;
  t.closed_shed <- t.closed_shed + c.shed;
  t.closed_malformed <- t.closed_malformed + c.malformed;
  Hashtbl.remove t.conns c.id

let close_conn t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> ()
  | Some c -> retire t c

let conn_alive t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | None -> false
  | Some c -> not c.dead

let sum t per =
  Hashtbl.fold (fun _ c acc -> acc + per c) t.conns 0

let executed t = t.closed_executed + sum t (fun c -> c.executed)
let shed t = t.closed_shed + sum t (fun c -> c.shed)
let malformed t = t.closed_malformed + sum t (fun c -> c.malformed)

let agent_of c = Printf.sprintf "conn-%d" c.id

(* Execute one decoded request at the connection's next logical time. *)
let exec c (req : Protocol.request) : Protocol.reply =
  c.seq <- c.seq + 1;
  c.executed <- c.executed + 1;
  let seq = c.seq in
  let time = Q.of_int seq in
  let reject reason : Protocol.reply = Rejected { seq; reason } in
  let unknown_object id = reject (Printf.sprintf "unknown object %S" id) in
  let with_obj id f =
    match Hashtbl.find_opt c.objects id with
    | None -> unknown_object id
    | Some o -> f o
  in
  match req with
  | Ping -> Ack { seq }
  | Subscribe ->
      c.subscribed <- true;
      Ack { seq }
  | Register { object_id; owner; roles; program } -> (
      if Hashtbl.mem c.objects object_id then
        reject (Printf.sprintf "object %S already registered" object_id)
      else
        match System.new_session c.system ~user:owner with
        | exception Rbac.Policy.Unknown (what, who) ->
            reject (Printf.sprintf "unknown %s %S" what who)
        | session ->
            (* best-effort activation, the scenario interpreter's rule *)
            List.iter
              (fun r ->
                try Rbac.Session.activate session r with
                | Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _
                ->
                  ())
              roles;
            Hashtbl.replace c.objects object_id { session; program };
            Ack { seq })
  | Arrive { object_id; server } ->
      with_obj object_id (fun _ ->
          System.arrive c.system ~object_id ~server ~time;
          Ack { seq })
  | Depart { object_id } ->
      with_obj object_id (fun o ->
          Rbac.Session.drop o.session;
          Hashtbl.remove c.objects object_id;
          Ack { seq })
  | Check { object_id; access } ->
      with_obj object_id (fun o ->
          let verdict =
            System.check c.system ~session:o.session ~object_id
              ~program:o.program ~time access
          in
          Verdict { seq; verdict })
  | Activate { object_id; role } ->
      with_obj object_id (fun o ->
          match Rbac.Session.activate o.session role with
          | () -> Ack { seq }
          | exception Rbac.Session.Not_authorized (u, r) ->
              reject (Printf.sprintf "user %S may not activate %S" u r)
          | exception Rbac.Session.Dsd_violation (_, u, r) ->
              reject (Printf.sprintf "DSD forbids %S activating %S" u r))
  | Join { object_id; team } ->
      with_obj object_id (fun _ ->
          System.join_team c.system ~object_id ~team;
          Ack { seq })

let abort_event c reason =
  Obs.Bus.emit (System.bus c.system)
    (Obs.Trace.Aborted { time = Q.of_int c.seq; agent = agent_of c; reason })

(* Events stream before the reply of the request that produced them,
   so a subscriber always sees cause before effect. *)
let flush_events c out =
  Queue.iter
    (fun ev ->
      Buffer.add_string out (Frame.encode (Protocol.encode_reply (Event ev))))
    c.events;
  Queue.clear c.events

let add_reply c out (reply : Protocol.reply) =
  flush_events c out;
  Buffer.add_string out (Frame.encode (Protocol.encode_reply reply))

let feed_conn t c bytes =
  if c.dead then ""
  else begin
    let out = Buffer.create 256 in
    Frame.Decoder.feed c.decoder bytes;
    (* drain complete frames first so the shed boundary is a property
       of the batch, not of TCP segmentation *)
    let payloads = ref [] in
    let rec drain () =
      match Frame.Decoder.next c.decoder with
      | Ok (Some payload) ->
          payloads := payload :: !payloads;
          drain ()
      | Ok None -> Ok ()
      | Error e -> Error e
    in
    let framing = drain () in
    let payloads = List.rev !payloads in
    let budget = t.config.queue_capacity in
    List.iteri
      (fun i payload ->
        if not c.dead then
          if i >= budget then begin
            c.seq <- c.seq + 1;
            c.shed <- c.shed + 1;
            abort_event c "overload-shed";
            add_reply c out (Shed { seq = c.seq })
          end
          else
            match Protocol.decode_request payload with
            | Ok req ->
                let reply = exec c req in
                add_reply c out reply
            | Error err ->
                c.seq <- c.seq + 1;
                c.malformed <- c.malformed + 1;
                abort_event c "malformed-frame";
                add_reply c out
                  (Rejected { seq = c.seq; reason = Protocol.describe err });
                c.dead <- true)
      payloads;
    (match framing with
    | Ok () -> ()
    | Error e ->
        if not c.dead then begin
          c.seq <- c.seq + 1;
          c.malformed <- c.malformed + 1;
          abort_event c "malformed-frame";
          add_reply c out (Rejected { seq = c.seq; reason = e });
          c.dead <- true
        end);
    Buffer.contents out
  end

let feed t ~conn bytes =
  match Hashtbl.find_opt t.conns conn with
  | None -> ""
  | Some c -> feed_conn t c bytes

let feed_batch t items =
  (* group chunks by connection, preserving chunk order within each
     connection and first-appearance order across connections *)
  let order = ref [] in
  let groups : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (conn, bytes) ->
      match Hashtbl.find_opt groups conn with
      | Some chunks -> chunks := bytes :: !chunks
      | None ->
          Hashtbl.replace groups conn (ref [ bytes ]);
          order := conn :: !order)
    items;
  List.map
    (fun conn ->
      let bytes = String.concat "" (List.rev !(Hashtbl.find groups conn)) in
      (conn, feed t ~conn bytes))
    (List.rev !order)
