module Q = Temporal.Q

let version = 2

type request =
  | Ping
  | Register of {
      object_id : string;
      owner : string;
      roles : string list;
      program : Sral.Ast.t;
    }
  | Arrive of { object_id : string; server : string }
  | Depart of { object_id : string }
  | Check of { object_id : string; access : Sral.Access.t }
  | Activate of { object_id : string; role : string }
  | Join of { object_id : string; team : string }
  | Subscribe

type reply =
  | Ack of { seq : int }
  | Verdict of { seq : int; verdict : Obs.Verdict.t }
  | Rejected of { seq : int; reason : string }
  | Shed of { seq : int }
  | Event of Obs.Trace.event

type error =
  | Truncated
  | Bad_version of int
  | Bad_tag of int
  | Malformed of string

let describe = function
  | Truncated -> "truncated payload"
  | Bad_version v -> Printf.sprintf "unsupported wire version %d" v
  | Bad_tag t -> Printf.sprintf "unknown message tag %d" t
  | Malformed msg -> Printf.sprintf "malformed payload: %s" msg

(* ------------------------------------------------------------------ *)
(* Writer *)

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let w_u32 buf v =
  w_u8 buf (v lsr 24);
  w_u8 buf (v lsr 16);
  w_u8 buf (v lsr 8);
  w_u8 buf v

let w_i64 buf v = Buffer.add_int64_be buf v
let w_int buf v = w_i64 buf (Int64.of_int v)
let w_bool buf b = w_u8 buf (if b then 1 else 0)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_list buf w xs =
  w_u32 buf (List.length xs);
  List.iter (w buf) xs

(* a normalized rational is its two integers, numerator first *)
let w_q buf (q : Q.t) =
  w_int buf q.num;
  w_int buf q.den

let w_access buf (a : Sral.Access.t) =
  w_str buf (Sral.Access.operation_name a.op);
  w_str buf a.resource;
  w_str buf a.server

let w_verdict buf (v : Obs.Verdict.t) =
  match v with
  | Granted -> w_u8 buf 0
  | Denied (Rbac_denied why) ->
      w_u8 buf 1;
      w_str buf why
  | Denied (Spatial_violation { binding; detail }) ->
      w_u8 buf 2;
      w_str buf binding;
      w_str buf detail
  | Denied (Temporal_expired { binding; spent }) ->
      w_u8 buf 3;
      w_str buf binding;
      w_q buf spent
  | Denied (Not_active why) ->
      w_u8 buf 4;
      w_str buf why
  | Denied Not_arrived -> w_u8 buf 5
  | Denied (Server_unavailable s) ->
      w_u8 buf 6;
      w_str buf s

let w_stage buf (s : Obs.Trace.stage) =
  w_u8 buf (match s with Rbac -> 0 | Spatial -> 1 | Temporal -> 2)

let w_fault buf (f : Obs.Trace.fault) =
  w_u8 buf
    (match f with
    | Server_unreachable -> 0
    | Migration_failure -> 1
    | Channel_drop -> 2
    | Channel_delay -> 3
    | Channel_duplicate -> 4
    | Signal_loss -> 5
    | Recv_timeout -> 6)

(* One kind byte, the event time, then the constructor's fields in
   declaration order.  Exhaustive on purpose: a new constructor does
   not compile until it has a layout here; test_service's codec fuzz
   then holds [r_event] to it. *)
let w_event buf (ev : Obs.Trace.event) =
  let head kind time =
    w_u8 buf kind;
    w_q buf time
  in
  match ev with
  | Stage_start { time; object_id; stage } ->
      head 0 time;
      w_str buf object_id;
      w_stage buf stage
  | Stage_end { time; object_id; stage; ok; elapsed_ns } ->
      head 1 time;
      w_str buf object_id;
      w_stage buf stage;
      w_bool buf ok;
      w_i64 buf elapsed_ns
  | Cache_probe { time; object_id; hit } ->
      head 2 time;
      w_str buf object_id;
      w_bool buf hit
  | Decision { time; object_id; access; verdict } ->
      head 3 time;
      w_str buf object_id;
      w_access buf access;
      w_verdict buf verdict
  | Arrival { time; object_id; server } ->
      head 4 time;
      w_str buf object_id;
      w_str buf server
  | Role_rejected { time; object_id; role; reason } ->
      head 5 time;
      w_str buf object_id;
      w_str buf role;
      w_str buf reason
  | Spawned { time; agent; home } ->
      head 6 time;
      w_str buf agent;
      w_str buf home
  | Migrated { time; agent; from_; to_ } ->
      head 7 time;
      w_str buf agent;
      w_str buf from_;
      w_str buf to_
  | Message_sent { time; agent; channel } ->
      head 8 time;
      w_str buf agent;
      w_str buf channel
  | Message_received { time; agent; channel } ->
      head 9 time;
      w_str buf agent;
      w_str buf channel
  | Signal_raised { time; agent; signal } ->
      head 10 time;
      w_str buf agent;
      w_str buf signal
  | Completed { time; agent } ->
      head 11 time;
      w_str buf agent
  | Aborted { time; agent; reason } ->
      head 12 time;
      w_str buf agent;
      w_str buf reason
  | Deadlocked { time; agent } ->
      head 13 time;
      w_str buf agent
  | Fault_injected { time; agent; fault; target } ->
      head 14 time;
      w_str buf agent;
      w_fault buf fault;
      w_str buf target
  | Server_down { time; server } ->
      head 15 time;
      w_str buf server
  | Server_up { time; server } ->
      head 16 time;
      w_str buf server
  | Retry_scheduled { time; agent; attempt; at } ->
      head 17 time;
      w_str buf agent;
      w_int buf attempt;
      w_q buf at
  | Gave_up { time; agent; attempts } ->
      head 18 time;
      w_str buf agent;
      w_int buf attempts
  | Policy_changed { time; op; version } ->
      head 19 time;
      w_str buf op;
      w_int buf version
  | Run_finished { time } -> head 20 time

let encode_request req =
  let buf = Buffer.create 64 in
  w_u8 buf version;
  (match req with
  | Ping -> w_u8 buf 0
  | Register { object_id; owner; roles; program } ->
      w_u8 buf 1;
      w_str buf object_id;
      w_str buf owner;
      w_list buf w_str roles;
      w_str buf (Sral.Pretty.to_string program)
  | Arrive { object_id; server } ->
      w_u8 buf 2;
      w_str buf object_id;
      w_str buf server
  | Depart { object_id } ->
      w_u8 buf 3;
      w_str buf object_id
  | Check { object_id; access } ->
      w_u8 buf 4;
      w_str buf object_id;
      w_access buf access
  | Activate { object_id; role } ->
      w_u8 buf 5;
      w_str buf object_id;
      w_str buf role
  | Join { object_id; team } ->
      w_u8 buf 6;
      w_str buf object_id;
      w_str buf team
  | Subscribe -> w_u8 buf 7);
  Buffer.contents buf

let encode_reply reply =
  let buf = Buffer.create 64 in
  w_u8 buf version;
  (match reply with
  | Ack { seq } ->
      w_u8 buf 0;
      w_u32 buf seq
  | Verdict { seq; verdict } ->
      w_u8 buf 1;
      w_u32 buf seq;
      w_verdict buf verdict
  | Rejected { seq; reason } ->
      w_u8 buf 2;
      w_u32 buf seq;
      w_str buf reason
  | Shed { seq } ->
      w_u8 buf 3;
      w_u32 buf seq
  | Event ev ->
      w_u8 buf 4;
      w_event buf ev);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader.  Decoding is total: local exception, caught at the border. *)

exception Fail of error

let malformed fmt = Printf.ksprintf (fun msg -> raise (Fail (Malformed msg))) fmt

type cursor = { s : string; mutable pos : int }

(* claim the next [k] bytes, returning where they start *)
let take c k =
  if k > String.length c.s - c.pos then raise (Fail Truncated);
  let at = c.pos in
  c.pos <- at + k;
  at

let r_u8 c = Char.code c.s.[take c 1]
let r_u32 c = Int32.to_int (String.get_int32_be c.s (take c 4)) land 0xffff_ffff
let r_i64 c = String.get_int64_be c.s (take c 8)

let r_int c =
  let v = r_i64 c in
  let i = Int64.to_int v in
  if Int64.equal (Int64.of_int i) v then i
  else malformed "integer %Ld out of native range" v

let r_bool c =
  match r_u8 c with
  | 0 -> false
  | 1 -> true
  | b -> malformed "bad bool byte %d" b

let r_str c =
  let len = r_u32 c in
  String.sub c.s (take c len) len

let r_list c r =
  let count = r_u32 c in
  (* an honest list of k elements needs at least k payload bytes;
     reject absurd counts before allocating *)
  if count > String.length c.s - c.pos then raise (Fail Truncated)
  else List.init count (fun _ -> r c)

(* Only the normalized pair is accepted, so every rational keeps one
   encoding: [den > 0], and [Q.make] must return the pair unchanged.
   That also turns away a [min_int] numerator over an odd denominator,
   which [Q.make] cannot normalize. *)
let r_q c =
  let num = r_int c in
  let den = r_int c in
  let q = if den > 0 then Q.make num den else Q.zero in
  if den > 0 && q.num = num && q.den = den then q
  else malformed "non-canonical rational %d/%d" num den

let r_access c =
  let op = Sral.Access.operation_of_name (r_str c) in
  let resource = r_str c in
  let server = r_str c in
  Sral.Access.make ~op ~resource ~server

let r_verdict c : Obs.Verdict.t =
  match r_u8 c with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (r_str c))
  | 2 ->
      let binding = r_str c in
      let detail = r_str c in
      Denied (Spatial_violation { binding; detail })
  | 3 ->
      let binding = r_str c in
      let spent = r_q c in
      Denied (Temporal_expired { binding; spent })
  | 4 -> Denied (Not_active (r_str c))
  | 5 -> Denied Not_arrived
  | 6 -> Denied (Server_unavailable (r_str c))
  | t -> malformed "unknown verdict tag %d" t

let r_stage c : Obs.Trace.stage =
  match r_u8 c with
  | 0 -> Rbac
  | 1 -> Spatial
  | 2 -> Temporal
  | b -> malformed "unknown stage code %d" b

let r_fault c : Obs.Trace.fault =
  match r_u8 c with
  | 0 -> Server_unreachable
  | 1 -> Migration_failure
  | 2 -> Channel_drop
  | 3 -> Channel_delay
  | 4 -> Channel_duplicate
  | 5 -> Signal_loss
  | 6 -> Recv_timeout
  | b -> malformed "unknown fault code %d" b

let r_event c : Obs.Trace.event =
  let kind = r_u8 c in
  let time = r_q c in
  match kind with
  | 0 ->
      let object_id = r_str c in
      let stage = r_stage c in
      Stage_start { time; object_id; stage }
  | 1 ->
      let object_id = r_str c in
      let stage = r_stage c in
      let ok = r_bool c in
      let elapsed_ns = r_i64 c in
      Stage_end { time; object_id; stage; ok; elapsed_ns }
  | 2 ->
      let object_id = r_str c in
      let hit = r_bool c in
      Cache_probe { time; object_id; hit }
  | 3 ->
      let object_id = r_str c in
      let access = r_access c in
      let verdict = r_verdict c in
      Decision { time; object_id; access; verdict }
  | 4 ->
      let object_id = r_str c in
      let server = r_str c in
      Arrival { time; object_id; server }
  | 5 ->
      let object_id = r_str c in
      let role = r_str c in
      let reason = r_str c in
      Role_rejected { time; object_id; role; reason }
  | 6 ->
      let agent = r_str c in
      let home = r_str c in
      Spawned { time; agent; home }
  | 7 ->
      let agent = r_str c in
      let from_ = r_str c in
      let to_ = r_str c in
      Migrated { time; agent; from_; to_ }
  | 8 ->
      let agent = r_str c in
      let channel = r_str c in
      Message_sent { time; agent; channel }
  | 9 ->
      let agent = r_str c in
      let channel = r_str c in
      Message_received { time; agent; channel }
  | 10 ->
      let agent = r_str c in
      let signal = r_str c in
      Signal_raised { time; agent; signal }
  | 11 -> Completed { time; agent = r_str c }
  | 12 ->
      let agent = r_str c in
      let reason = r_str c in
      Aborted { time; agent; reason }
  | 13 -> Deadlocked { time; agent = r_str c }
  | 14 ->
      let agent = r_str c in
      let fault = r_fault c in
      let target = r_str c in
      Fault_injected { time; agent; fault; target }
  | 15 -> Server_down { time; server = r_str c }
  | 16 -> Server_up { time; server = r_str c }
  | 17 ->
      let agent = r_str c in
      let attempt = r_int c in
      let at = r_q c in
      Retry_scheduled { time; agent; attempt; at }
  | 18 ->
      let agent = r_str c in
      let attempts = r_int c in
      Gave_up { time; agent; attempts }
  | 19 ->
      let op = r_str c in
      let version = r_int c in
      Policy_changed { time; op; version }
  | 20 -> Run_finished { time }
  | k -> malformed "unknown event kind %d" k

let decode_with read s =
  let c = { s; pos = 0 } in
  match
    let v = r_u8 c in
    if v <> version then raise (Fail (Bad_version v));
    let value = read c in
    let rest = String.length s - c.pos in
    if rest <> 0 then malformed "%d trailing bytes" rest;
    value
  with
  | value -> Ok value
  | exception Fail e -> Error e

let decode_request s =
  decode_with
    (fun c ->
      match r_u8 c with
      | 0 -> Ping
      | 1 ->
          let object_id = r_str c in
          let owner = r_str c in
          let roles = r_list c r_str in
          let text = r_str c in
          let program =
            match Sral.Parser.program text with
            | ast -> ast
            | exception _ -> malformed "bad program %S" text
          in
          Register { object_id; owner; roles; program }
      | 2 ->
          let object_id = r_str c in
          let server = r_str c in
          Arrive { object_id; server }
      | 3 -> Depart { object_id = r_str c }
      | 4 ->
          let object_id = r_str c in
          let access = r_access c in
          Check { object_id; access }
      | 5 ->
          let object_id = r_str c in
          let role = r_str c in
          Activate { object_id; role }
      | 6 ->
          let object_id = r_str c in
          let team = r_str c in
          Join { object_id; team }
      | 7 -> Subscribe
      | t -> raise (Fail (Bad_tag t)))
    s

let decode_reply s =
  decode_with
    (fun c ->
      match r_u8 c with
      | 0 -> Ack { seq = r_u32 c }
      | 1 ->
          let seq = r_u32 c in
          let verdict = r_verdict c in
          Verdict { seq; verdict }
      | 2 ->
          let seq = r_u32 c in
          let reason = r_str c in
          Rejected { seq; reason }
      | 3 -> Shed { seq = r_u32 c }
      | 4 -> Event (r_event c)
      | t -> raise (Fail (Bad_tag t)))
    s

(* ------------------------------------------------------------------ *)
(* JSONL debug codec (write-only). *)

let json_str buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_field buf first name write =
  if not !first then Buffer.add_char buf ',';
  first := false;
  json_str buf name;
  Buffer.add_char buf ':';
  write buf

let json_obj fields =
  let buf = Buffer.create 96 in
  let first = ref true in
  Buffer.add_char buf '{';
  List.iter (fun (name, write) -> json_field buf first name write) fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let str s buf = json_str buf s
let int i buf = Buffer.add_string buf (string_of_int i)
let raw s buf = Buffer.add_string buf s
let strs xs buf =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      json_str buf x)
    xs;
  Buffer.add_char buf ']'

let request_to_line = function
  | Ping -> json_obj [ ("req", str "ping") ]
  | Register { object_id; owner; roles; program } ->
      json_obj
        [
          ("req", str "register");
          ("object", str object_id);
          ("owner", str owner);
          ("roles", strs roles);
          ("program", str (Sral.Pretty.to_string program));
        ]
  | Arrive { object_id; server } ->
      json_obj
        [ ("req", str "arrive"); ("object", str object_id); ("server", str server) ]
  | Depart { object_id } ->
      json_obj [ ("req", str "depart"); ("object", str object_id) ]
  | Check { object_id; access } ->
      json_obj
        [
          ("req", str "check");
          ("object", str object_id);
          ("access", str (Sral.Access.to_string access));
        ]
  | Activate { object_id; role } ->
      json_obj
        [ ("req", str "activate"); ("object", str object_id); ("role", str role) ]
  | Join { object_id; team } ->
      json_obj
        [ ("req", str "join"); ("object", str object_id); ("team", str team) ]
  | Subscribe -> json_obj [ ("req", str "subscribe") ]

let reply_to_line = function
  | Ack { seq } -> json_obj [ ("reply", str "ack"); ("seq", int seq) ]
  | Verdict { seq; verdict } ->
      json_obj
        [
          ("reply", str "verdict");
          ("seq", int seq);
          ("verdict", raw (Obs.Export.verdict_to_json verdict));
        ]
  | Rejected { seq; reason } ->
      json_obj
        [ ("reply", str "rejected"); ("seq", int seq); ("reason", str reason) ]
  | Shed { seq } -> json_obj [ ("reply", str "shed"); ("seq", int seq) ]
  | Event ev ->
      json_obj [ ("reply", str "event"); ("event", raw (Obs.Export.to_line ev)) ]
