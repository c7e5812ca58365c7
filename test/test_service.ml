(* Tests for the decision service: framing, protocol codec fuzz +
   adversarial inputs, server-core semantics (fail-closed kills,
   overload shedding, event streaming), the sim-vs-direct differential
   gate, lossy-transport determinism, the Unix transport, and the
   normalized CLI exit codes. *)

module Frame = Service.Frame
module Protocol = Service.Protocol
module Server = Service.Server
module Sim_net = Service.Sim_net
module Script = Service.Script
module Net_unix = Service.Net_unix
module Q = Temporal.Q

let user0 = List.hd Parallel.Workload.users
let role0 = List.hd Parallel.Workload.roles

let a_program =
  lazy
    (let rng = Random.State.make [| 0xbeef; 1 |] in
     let scen = Parallel.Workload.scenario ~objects:2 rng in
     (List.hd scen.Parallel.Scenario.objects).Parallel.Scenario.program)

let decode_frames bytes =
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec bytes;
  let rec go acc =
    match Frame.Decoder.next dec with
    | Ok (Some payload) -> go (payload :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "reply framing: %s" e
  in
  go []

let decode_replies bytes =
  List.map
    (fun payload ->
      match Protocol.decode_reply payload with
      | Ok r -> r
      | Error e -> Alcotest.failf "reply decode: %s" (Protocol.describe e))
    (decode_frames bytes)

let frame_req req = Frame.encode (Protocol.encode_request req)
let feed_req server conn req = decode_replies (Server.feed server ~conn (frame_req req))

(* --- framing --- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 'q'; "\x00\xff\x01" ] in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  Alcotest.(check (list string)) "all frames recovered" payloads
    (decode_frames stream);
  (* byte-by-byte feeding reassembles across arbitrary splits *)
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed dec (String.make 1 c);
      match Frame.Decoder.next dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "unexpected framing error: %s" e)
    stream;
  Alcotest.(check (list string)) "byte-by-byte" payloads (List.rev !got)

let test_frame_oversized_poisons () =
  let dec = Frame.Decoder.create ~max_frame:64 () in
  Frame.Decoder.feed dec "\xff\xff\xff\xff";
  (match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length prefix accepted");
  (* poisoned forever, even for later well-formed frames *)
  Frame.Decoder.feed dec (Frame.encode "ok");
  match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poisoned decoder recovered"

(* --- protocol codec: fuzz round-trip + adversarial inputs --- *)

let gen_bytes rng =
  let len = Random.State.int rng 12 in
  String.init len (fun _ -> Char.chr (Random.State.int rng 256))

let gen_access rng =
  let op =
    match Random.State.int rng 4 with
    | 0 -> Sral.Access.Read
    | 1 -> Sral.Access.Write
    | 2 -> Sral.Access.Execute
    | _ -> Sral.Access.Custom ("op-" ^ string_of_int (Random.State.int rng 100))
  in
  Sral.Access.make ~op ~resource:(gen_bytes rng) ~server:(gen_bytes rng)

let gen_request rng : Protocol.request =
  match Random.State.int rng 8 with
  | 0 -> Ping
  | 1 ->
      Register
        {
          object_id = gen_bytes rng;
          owner = gen_bytes rng;
          roles = List.init (Random.State.int rng 4) (fun _ -> gen_bytes rng);
          program = Lazy.force a_program;
        }
  | 2 -> Arrive { object_id = gen_bytes rng; server = gen_bytes rng }
  | 3 -> Depart { object_id = gen_bytes rng }
  | 4 -> Check { object_id = gen_bytes rng; access = gen_access rng }
  | 5 -> Activate { object_id = gen_bytes rng; role = gen_bytes rng }
  | 6 -> Join { object_id = gen_bytes rng; team = gen_bytes rng }
  | _ -> Subscribe

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* a non-negative int anywhere in [0, max_int] *)
let gen_big rng =
  Random.State.bits rng
  lor (Random.State.bits rng lsl 30)
  lor ((Random.State.bits rng land 3) lsl 60)

(* small, negative, huge and edge rationals; [Q.make] normalizes them *)
let gen_q rng =
  match Random.State.int rng 4 with
  | 0 -> Q.make (Random.State.int rng 1000) (1 + Random.State.int rng 60)
  | 1 -> Q.make (Random.State.int rng 200 - 100) (1 + Random.State.int rng 9)
  | 2 ->
      let num = gen_big rng in
      let num = if Random.State.bool rng then -num else num in
      Q.make num (1 + gen_big rng / 2)
  | _ -> pick rng [ Q.zero; Q.of_int max_int; Q.of_int (-max_int); Q.make 1 max_int ]

let gen_int rng =
  match Random.State.int rng 3 with
  | 0 -> Random.State.int rng 10
  | 1 -> pick rng [ min_int; max_int; -1 ]
  | _ -> gen_big rng - gen_big rng

let gen_i64 rng =
  match Random.State.int rng 3 with
  | 0 -> pick rng [ Int64.min_int; Int64.max_int; 0L; -1L ]
  | 1 -> Random.State.int64 rng 1_000_000L
  | _ -> Int64.sub (Random.State.int64 rng Int64.max_int) (Random.State.int64 rng Int64.max_int)

let gen_verdict rng : Obs.Verdict.t =
  match Random.State.int rng 7 with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (gen_bytes rng))
  | 2 ->
      Denied
        (Spatial_violation { binding = gen_bytes rng; detail = gen_bytes rng })
  | 3 -> Denied (Temporal_expired { binding = gen_bytes rng; spent = gen_q rng })
  | 4 -> Denied (Not_active (gen_bytes rng))
  | 5 -> Denied Not_arrived
  | _ -> Denied (Server_unavailable (gen_bytes rng))

let all_stages = Obs.Trace.[ Rbac; Spatial; Temporal ]

let all_faults =
  Obs.Trace.
    [
      Server_unreachable;
      Migration_failure;
      Channel_drop;
      Channel_delay;
      Channel_duplicate;
      Signal_loss;
      Recv_timeout;
    ]

(* The wire kind byte of each constructor.  No wildcard: a new
   constructor stops this suite compiling until it is given a kind
   here, a case in [gen_event_of_kind], and so a roundtrip below. *)
let kind_of : Obs.Trace.event -> int = function
  | Stage_start _ -> 0
  | Stage_end _ -> 1
  | Cache_probe _ -> 2
  | Decision _ -> 3
  | Arrival _ -> 4
  | Role_rejected _ -> 5
  | Spawned _ -> 6
  | Migrated _ -> 7
  | Message_sent _ -> 8
  | Message_received _ -> 9
  | Signal_raised _ -> 10
  | Completed _ -> 11
  | Aborted _ -> 12
  | Deadlocked _ -> 13
  | Fault_injected _ -> 14
  | Server_down _ -> 15
  | Server_up _ -> 16
  | Retry_scheduled _ -> 17
  | Gave_up _ -> 18
  | Policy_changed _ -> 19
  | Run_finished _ -> 20

let event_kinds = 21

(* every constructor of [Obs.Trace.event], every stage and fault *)
let gen_event_of_kind rng kind : Obs.Trace.event =
  let time = gen_q rng in
  let str () = gen_bytes rng in
  match kind with
  | 0 -> Stage_start { time; object_id = str (); stage = pick rng all_stages }
  | 1 ->
      Stage_end
        {
          time;
          object_id = str ();
          stage = pick rng all_stages;
          ok = Random.State.bool rng;
          elapsed_ns = gen_i64 rng;
        }
  | 2 -> Cache_probe { time; object_id = str (); hit = Random.State.bool rng }
  | 3 ->
      Decision
        {
          time;
          object_id = str ();
          access = gen_access rng;
          verdict = gen_verdict rng;
        }
  | 4 -> Arrival { time; object_id = str (); server = str () }
  | 5 -> Role_rejected { time; object_id = str (); role = str (); reason = str () }
  | 6 -> Spawned { time; agent = str (); home = str () }
  | 7 -> Migrated { time; agent = str (); from_ = str (); to_ = str () }
  | 8 -> Message_sent { time; agent = str (); channel = str () }
  | 9 -> Message_received { time; agent = str (); channel = str () }
  | 10 -> Signal_raised { time; agent = str (); signal = str () }
  | 11 -> Completed { time; agent = str () }
  | 12 -> Aborted { time; agent = str (); reason = str () }
  | 13 -> Deadlocked { time; agent = str () }
  | 14 ->
      Fault_injected
        { time; agent = str (); fault = pick rng all_faults; target = str () }
  | 15 -> Server_down { time; server = str () }
  | 16 -> Server_up { time; server = str () }
  | 17 ->
      Retry_scheduled
        { time; agent = str (); attempt = gen_int rng; at = gen_q rng }
  | 18 -> Gave_up { time; agent = str (); attempts = gen_int rng }
  | 19 -> Policy_changed { time; op = str (); version = gen_int rng }
  | _ -> Run_finished { time }

let gen_event rng = gen_event_of_kind rng (Random.State.int rng event_kinds)

let gen_reply rng : Protocol.reply =
  let seq = Random.State.int rng 0x3FFFFFFF in
  match Random.State.int rng 5 with
  | 0 -> Ack { seq }
  | 1 -> Verdict { seq; verdict = gen_verdict rng }
  | 2 -> Rejected { seq; reason = gen_bytes rng }
  | 3 -> Shed { seq }
  | _ -> Event (gen_event rng)

(* encode → decode → encode is the identity on bytes: the codec has one
   canonical encoding per value and decoding inverts it *)
let roundtrip ~what ~encode ~decode v =
  let bytes = encode v in
  match decode bytes with
  | Error e -> Alcotest.failf "%s: decode failed: %s" what (Protocol.describe e)
  | Ok v' ->
      if not (String.equal (encode v') bytes) then
        Alcotest.failf "%s: re-encode differs" what

let adversarial ~what ~decode bytes =
  (* every proper prefix is rejected, typed — never an exception *)
  for k = 0 to String.length bytes - 1 do
    match decode (String.sub bytes 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %d-byte prefix accepted" what k
  done;
  (* version skew *)
  if String.length bytes > 0 then begin
    let skew = Bytes.of_string bytes in
    Bytes.set skew 0 (Char.chr (Protocol.version + 1));
    match decode (Bytes.to_string skew) with
    | Error (Protocol.Bad_version v) ->
        Alcotest.(check int) "skewed version reported" (Protocol.version + 1) v
    | Error e -> Alcotest.failf "%s: skew: wrong error %s" what (Protocol.describe e)
    | Ok _ -> Alcotest.failf "%s: future version accepted" what
  end

let test_protocol_fuzz () =
  Gen.each_seed ~salt:81 ~count:40 (fun ~seed:_ rng ->
      (* every event kind on every seed, then random replies *)
      for kind = 0 to event_kinds - 1 do
        let ev = gen_event_of_kind rng kind in
        Alcotest.(check int) "generated kind" kind (kind_of ev);
        let reply = Protocol.Event ev in
        roundtrip ~what:"event" ~encode:Protocol.encode_reply
          ~decode:Protocol.decode_reply reply;
        adversarial ~what:"event" ~decode:Protocol.decode_reply
          (Protocol.encode_reply reply)
      done;
      for _ = 1 to 25 do
        let req = gen_request rng in
        roundtrip ~what:"request" ~encode:Protocol.encode_request
          ~decode:Protocol.decode_request req;
        adversarial ~what:"request" ~decode:Protocol.decode_request
          (Protocol.encode_request req);
        let reply = gen_reply rng in
        roundtrip ~what:"reply" ~encode:Protocol.encode_reply
          ~decode:Protocol.decode_reply reply;
        adversarial ~what:"reply" ~decode:Protocol.decode_reply
          (Protocol.encode_reply reply);
        (* arbitrary garbage never raises *)
        (match Protocol.decode_request (gen_bytes rng) with
        | Ok _ | Error _ -> ());
        match Protocol.decode_reply (gen_bytes rng) with
        | Ok _ | Error _ -> ()
      done)

let test_protocol_bad_tag_and_trailing () =
  let ver = String.make 1 (Char.chr Protocol.version) in
  (match Protocol.decode_request (ver ^ "\xfa") with
  | Error (Protocol.Bad_tag 250) -> ()
  | _ -> Alcotest.fail "bad tag not reported");
  match Protocol.decode_request (Protocol.encode_request Ping ^ "junk") with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* An event reply built by hand: version, tag 4, kind, then [fields]. *)
let event_payload ~kind fields =
  let buf = Buffer.create 32 in
  Buffer.add_char buf (Char.chr Protocol.version);
  Buffer.add_char buf '\004';
  Buffer.add_char buf (Char.chr kind);
  fields buf;
  Buffer.contents buf

let i64 buf v = Buffer.add_int64_be buf v
let q_pair num den buf = i64 buf num; i64 buf den

let test_protocol_event_layout () =
  (* Stage_start at 3/2 for "o" in the spatial stage, byte for byte *)
  let expected =
    event_payload ~kind:0 (fun buf ->
        q_pair 3L 2L buf;
        Buffer.add_string buf "\000\000\000\001o";
        Buffer.add_char buf '\001')
  in
  Alcotest.(check string) "stage_start layout" expected
    (Protocol.encode_reply
       (Event (Stage_start { time = Q.make 3 2; object_id = "o"; stage = Spatial })));
  (* events carry no JSON and decode without it *)
  match Protocol.decode_reply expected with
  | Ok (Event (Stage_start { time; object_id = "o"; stage = Spatial }))
    when Q.equal time (Q.make 3 2) ->
      ()
  | _ -> Alcotest.fail "stage_start did not decode"

let expect_malformed what bytes =
  match Protocol.decode_reply bytes with
  | Error (Protocol.Malformed _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Protocol.describe e)
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_protocol_noncanonical_rejected () =
  let run_finished num den = event_payload ~kind:20 (q_pair num den) in
  List.iter
    (fun (what, num, den) -> expect_malformed what (run_finished num den))
    [
      ("den = 0", 1L, 0L);
      ("den < 0", 1L, -2L);
      ("negative den, negative num", -1L, -1L);
      ("2/4 not reduced", 2L, 4L);
      ("0/2 not reduced", 0L, 2L);
      ("num above max_int", Int64.max_int, 1L);
      ("num below min_int", Int64.min_int, 1L);
      ("den above max_int", 1L, Int64.max_int);
      ("min_int over 3", Int64.of_int min_int, 3L);
    ];
  (* the canonical neighbours of those pairs decode *)
  List.iter
    (fun (num, den) ->
      match Protocol.decode_reply (run_finished num den) with
      | Ok (Event (Run_finished { time })) ->
          Alcotest.(check (pair int int)) "canonical pair kept"
            (Int64.to_int num, Int64.to_int den) (time.num, time.den)
      | _ -> Alcotest.failf "canonical %Ld/%Ld rejected" num den)
    [ (0L, 1L); (1L, 2L); (-3L, 7L); (Int64.of_int max_int, 1L); (Int64.of_int min_int, 1L) ];
  (* a verdict's [spent] obeys the same rule *)
  expect_malformed "verdict spent 2/4"
    (let buf = Buffer.create 32 in
     Buffer.add_string buf
       (String.sub
          (Protocol.encode_reply
             (Verdict
                {
                  seq = 1;
                  verdict = Denied (Temporal_expired { binding = "b"; spent = Q.one });
                }))
          0 12);
     q_pair 2L 4L buf;
     Buffer.contents buf);
  (* unknown one-byte codes and out-of-range ints are typed too *)
  let head buf = q_pair 0L 1L buf in
  let str s buf =
    Buffer.add_int32_be buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  in
  expect_malformed "unknown kind" (event_payload ~kind:21 head);
  expect_malformed "unknown stage"
    (event_payload ~kind:0 (fun b -> head b; str "o" b; Buffer.add_char b '\003'));
  expect_malformed "bool byte 2"
    (event_payload ~kind:2 (fun b -> head b; str "o" b; Buffer.add_char b '\002'));
  expect_malformed "unknown fault"
    (event_payload ~kind:14 (fun b ->
         head b; str "a" b; Buffer.add_char b '\007'; str "t" b));
  expect_malformed "attempts out of range"
    (event_payload ~kind:18 (fun b -> head b; str "a" b; i64 b Int64.max_int))

(* --- server core --- *)

let register ?(object_id = "obj") ?(owner = user0) server conn =
  feed_req server conn
    (Register
       {
         object_id;
         owner;
         roles = [ role0 ];
         program = Lazy.force a_program;
       })

let test_server_basic_flow () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  (match register server conn with
  | [ Ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "register not acked");
  (match feed_req server conn (Arrive { object_id = "obj"; server = "s1" }) with
  | [ Ack { seq = 2 } ] -> ()
  | _ -> Alcotest.fail "arrive not acked");
  (match
     feed_req server conn
       (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
   with
  | [ Verdict { seq = 3; verdict = _ } ] -> ()
  | _ -> Alcotest.fail "check did not produce a verdict");
  (* unknown object *)
  (match
     feed_req server conn
       (Check { object_id = "ghost"; access = Sral.Access.read "r1" ~at:"s1" })
   with
  | [ Rejected { seq = 4; reason } ] ->
      Alcotest.(check bool) "reason names the object" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "unknown object not rejected");
  (* unknown user is rejected without killing the connection *)
  (match register ~object_id:"obj2" ~owner:"nobody" server conn with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "unknown user not rejected");
  Alcotest.(check bool) "conn survives domain rejections" true
    (Server.conn_alive server ~conn);
  Alcotest.(check int) "executed" 5 (Server.executed server)

let test_server_depart () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  (match feed_req server conn (Depart { object_id = "obj" }) with
  | [ Ack _ ] -> ()
  | _ -> Alcotest.fail "depart not acked");
  match
    feed_req server conn
      (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "departed object still served"

let test_server_subscribe_streams_events () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  (match feed_req server conn Subscribe with
  | [ Ack { seq = 1 } ] -> ()
  | _ -> Alcotest.fail "subscribe not acked");
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let replies =
    feed_req server conn
      (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })
  in
  (* events stream before the verdict that concluded them *)
  (match List.rev replies with
  | Verdict { verdict; _ } :: earlier ->
      let decision_events =
        List.filter_map
          (function
            | Protocol.Event (Obs.Trace.Decision { verdict = v; _ }) -> Some v
            | _ -> None)
          earlier
      in
      (match decision_events with
      | [ v ] ->
          Alcotest.(check bool) "traced verdict matches the reply" true
            (v = verdict)
      | _ -> Alcotest.fail "expected exactly one Decision event")
  | _ -> Alcotest.fail "last reply is not the verdict")

let test_server_malformed_kills () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  let replies =
    decode_replies (Server.feed server ~conn (Frame.encode "\xff\xff\xff"))
  in
  (match replies with
  | [ Rejected _ ] -> ()
  | _ -> Alcotest.fail "malformed payload not rejected");
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn);
  Alcotest.(check string) "dead connection ignored" ""
    (Server.feed server ~conn (frame_req Ping));
  Alcotest.(check int) "malformed audited" 1 (Server.malformed server)

let test_server_oversized_frame_kills () =
  let server = Server.create ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  let replies = decode_replies (Server.feed server ~conn "\xff\xff\xff\xff") in
  (match replies with
  | [ Rejected { reason; _ } ] ->
      Alcotest.(check bool) "reason mentions the limit" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "oversized frame not rejected");
  Alcotest.(check bool) "connection killed" false (Server.conn_alive server ~conn)

let test_server_sheds_overload () =
  let config = { Server.default_config with queue_capacity = 2 } in
  let server = Server.create ~config ~base:(Script.base_system ()) () in
  let conn = Server.open_conn server in
  ignore (register server conn);
  ignore (feed_req server conn (Arrive { object_id = "obj"; server = "s1" }));
  let burst =
    String.concat ""
      (List.init 5 (fun _ ->
           frame_req
             (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" })))
  in
  let replies = decode_replies (Server.feed server ~conn burst) in
  let verdicts =
    List.length (List.filter (function Protocol.Verdict _ -> true | _ -> false) replies)
  and sheds =
    List.length (List.filter (function Protocol.Shed _ -> true | _ -> false) replies)
  in
  Alcotest.(check int) "capacity executed" 2 verdicts;
  Alcotest.(check int) "rest shed" 3 sheds;
  Alcotest.(check int) "shed counter" 3 (Server.shed server);
  Alcotest.(check bool) "shedding is not fatal" true
    (Server.conn_alive server ~conn)

let test_feed_batch_conforms () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:82 ~count:5 (fun ~seed _rng ->
      let script = Script.generate ~conns:3 ~requests:40 ~seed () in
      let run_with driver =
        let server = Server.create ~base () in
        let ids = Array.init 3 (fun _ -> Server.open_conn server) in
        let outs = Array.make 3 [] in
        driver server ids outs;
        Array.map (fun chunks -> String.concat "" (List.rev chunks)) outs
      in
      let sequential =
        run_with (fun server ids outs ->
            List.iter
              (fun (e : Script.entry) ->
                let out = Server.feed server ~conn:ids.(e.conn) (frame_req e.req) in
                outs.(e.conn) <- out :: outs.(e.conn))
              script)
      in
      let batched =
        run_with (fun server ids outs ->
            let items =
              List.map
                (fun (e : Script.entry) -> (ids.(e.conn), frame_req e.req))
                script
            in
            List.iter
              (fun (conn, out) ->
                let c = ref 0 in
                Array.iteri (fun i id -> if id = conn then c := i) ids;
                outs.(!c) <- out :: outs.(!c))
              (Server.feed_batch server items))
      in
      Array.iteri
        (fun i a ->
          if not (String.equal a batched.(i)) then
            Alcotest.failf "feed_batch diverges on conn %d at seed %d" i seed)
        sequential)

(* --- the differential gate --- *)

let test_differential_gate () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:83 ~count:15 (fun ~seed _rng ->
      let script = Script.generate ~conns:3 ~requests:60 ~seed () in
      let sim = Script.render (Script.run_sim ~base script) in
      let direct = Script.render (Script.drive_direct ~base script) in
      if not (String.equal sim direct) then
        Alcotest.failf "sim and direct drives diverge at seed %d" seed;
      let sim2 = Script.render (Script.run_sim ~base script) in
      if not (String.equal sim sim2) then
        Alcotest.failf "sim replay is not deterministic at seed %d" seed)

let test_lossy_transport_deterministic () =
  let base = Script.base_system () in
  Gen.each_seed ~salt:84 ~count:8 (fun ~seed _rng ->
      let script = Script.generate ~conns:2 ~requests:40 ~seed () in
      let policy = Sim_net.lossy ~seed in
      let a = Script.render (Script.run_sim ~policy ~base script) in
      let b = Script.render (Script.run_sim ~policy ~base script) in
      if not (String.equal a b) then
        Alcotest.failf "lossy run not reproducible at seed %d" seed;
      (* drops may lose requests but never wedge the exchange *)
      let total =
        List.fold_left
          (fun acc (_, rs) -> acc + List.length rs)
          0
          (Script.run_sim ~policy ~base script)
      in
      if total = 0 then Alcotest.failf "lossy run lost everything at seed %d" seed)

(* --- the real transport --- *)

let test_unix_transport () =
  let path = Filename.temp_file "stacc_serve" ".sock" in
  let addr = Net_unix.Unix_path path in
  let listener = Net_unix.listen addr in
  let server = Server.create ~base:(Script.base_system ()) () in
  let finally () = Net_unix.shutdown listener in
  Fun.protect ~finally (fun () ->
      let client = Net_unix.Client.connect addr in
      (* pump until the reply lands; client and server share this thread *)
      let await () =
        let rec go n =
          if n = 0 then Alcotest.fail "no reply from unix transport"
          else begin
            ignore (Net_unix.step listener ~server ~timeout:0.05);
            match Net_unix.Client.drain client with
            | [] -> go (n - 1)
            | replies -> replies
          end
        in
        go 100
      in
      Net_unix.Client.send client Ping;
      (match await () with
      | [ Ack { seq = 1 } ] -> ()
      | _ -> Alcotest.fail "ping not acked over unix socket");
      Net_unix.Client.send client
        (Register
           {
             object_id = "obj";
             owner = user0;
             roles = [ role0 ];
             program = Lazy.force a_program;
           });
      (match await () with
      | [ Ack { seq = 2 } ] -> ()
      | _ -> Alcotest.fail "register not acked over unix socket");
      Net_unix.Client.send client (Arrive { object_id = "obj"; server = "s1" });
      ignore (await ());
      Net_unix.Client.send client
        (Check { object_id = "obj"; access = Sral.Access.read "r1" ~at:"s1" });
      (match await () with
      | [ Verdict { seq = 4; _ } ] -> ()
      | _ -> Alcotest.fail "check not answered over unix socket");
      Net_unix.Client.close client)

(* A raw peer on the listener's socket path: nonblocking, so a burst
   larger than the socket buffer is written a piece per server turn
   instead of blocking the one thread that also runs the server. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

let raw_write fd s off =
  match Unix.write_substring fd s off (String.length s - off) with
  | n -> off + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off

(* [Net_unix.Client.drain] for a raw peer *)
let raw_drain fd dec =
  let buf = Bytes.create 4096 in
  let rec read () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Frame.Decoder.feed dec (Bytes.sub_string buf 0 n);
        read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  read ();
  let rec decode acc =
    match Frame.Decoder.next dec with
    | Ok (Some payload) -> (
        match Protocol.decode_reply payload with
        | Ok r -> decode (r :: acc)
        | Error e -> Alcotest.failf "reply decode: %s" (Protocol.describe e))
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "reply framing: %s" e
  in
  decode []

(* Close with SO_LINGER 0 while a reply sits unread: a TCP peer sends
   RST; a Unix-domain peer leaves the server's end with ECONNRESET
   pending and EPIPE on any write. *)
let reset fd =
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd

let is_direct = function Protocol.Event _ -> false | _ -> true

(* Script connections 0 and 1 are closed-loop [Net_unix.Client]s (a
   mobile object blocks on its verdict); connection 2 sends its whole
   share of the script as one pre-framed burst over 64 KiB, so frames
   straddle the listener's reads.  Two more peers reset mid-stream:
   one with a request in flight (its reply write fails), one idle (its
   read fails).  The server must survive both, drop exactly those two,
   and every scripted reply stream must render byte-identical to
   [Script.drive_direct]. *)
let test_unix_burst_and_reset () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let base = Script.base_system () in
  let script = Script.generate ~conns:3 ~requests:9000 ~seed:12 () in
  let requests_of c =
    List.filter_map
      (fun (e : Script.entry) -> if e.conn = c then Some e.req else None)
      script
  in
  let path = Filename.temp_file "stacc_burst" ".sock" in
  let addr = Net_unix.Unix_path path in
  let listener = Net_unix.listen addr in
  let config = { Server.default_config with queue_capacity = max_int } in
  let server = Server.create ~config ~base () in
  Fun.protect ~finally:(fun () -> Net_unix.shutdown listener) (fun () ->
      (* accept order = connect order = server conn ids 0..4 *)
      let clients = Array.init 2 (fun _ -> Net_unix.Client.connect addr) in
      let burst_fd = raw_connect path in
      let busy_fd = raw_connect path and idle_fd = raw_connect path in
      let burst = String.concat "" (List.map frame_req (requests_of 2)) in
      Alcotest.(check bool) "burst spans several reads" true
        (String.length burst > 65536);
      let burst_dec = Frame.Decoder.create () in
      let drain =
        [|
          (fun () -> Net_unix.Client.drain clients.(0));
          (fun () -> Net_unix.Client.drain clients.(1));
          (fun () -> raw_drain burst_fd burst_dec);
        |]
      in
      let todo = Array.init 2 (fun c -> ref (requests_of c)) in
      let pending = Array.make 2 false and burst_off = ref 0 in
      let got = Array.make 3 [] in
      let unanswered = Array.init 3 (fun c -> List.length (requests_of c)) in
      let ping = frame_req Ping in
      ignore (raw_write busy_fd ping 0 + raw_write idle_fd ping 0);
      let steps = ref 0 and multi = ref 0 in
      while Array.exists (fun n -> n > 0) unanswered do
        incr steps;
        if !steps > 100_000 then Alcotest.fail "socket exchange stalled";
        Array.iteri
          (fun c client ->
            match !(todo.(c)) with
            | req :: rest when not pending.(c) ->
                Net_unix.Client.send client req;
                todo.(c) := rest;
                pending.(c) <- true
            | _ -> ())
          clients;
        burst_off := raw_write burst_fd burst !burst_off;
        if !steps = 200 then begin
          (* mid-stream: the busy peer's ping is read, answered, and the
             write fails *)
          ignore (raw_write busy_fd ping 0);
          reset busy_fd;
          reset idle_fd
        end;
        if Net_unix.step listener ~server ~timeout:0.05 >= 2 then incr multi;
        Array.iteri
          (fun c drain ->
            let replies = drain () in
            let answered = List.length (List.filter is_direct replies) in
            unanswered.(c) <- unanswered.(c) - answered;
            if c < 2 && answered > 0 then pending.(c) <- false;
            got.(c) <- List.rev_append replies got.(c))
          drain
      done;
      Alcotest.(check bool) "clients shared a step" true (!multi > 0);
      Alcotest.(check bool) "reset peers dropped" false
        (Server.conn_alive server ~conn:3 || Server.conn_alive server ~conn:4);
      Alcotest.(check string) "socket replies = drive_direct"
        (Script.render (Script.drive_direct ~base script))
        (Script.render (List.init 3 (fun c -> (c, List.rev got.(c)))));
      Array.iter Net_unix.Client.close clients;
      Unix.close burst_fd)

(* Connection 0 subscribes, then sends thousands of checks as one raw
   nonblocking burst and reads nothing.  Its replies, events included,
   outgrow the socket buffers, so the server's writes would block: they
   must wait in the peer's pending output while connection 1, a
   closed-loop client beside it, is served in full with replies
   byte-identical to [Script.drive_direct].  Then the flooder drains
   its socket and its replies match [drive_direct] too. *)
let test_unix_stalled_reader () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let base = Script.base_system () in
  let flood =
    [
      Protocol.Subscribe;
      Register
        { object_id = "obj"; owner = user0; roles = [ role0 ]; program = Lazy.force a_program };
      Arrive { object_id = "obj"; server = "s1" };
    ]
    @ List.init 6000 (fun i ->
          let resource = Printf.sprintf "r%d" (1 + (i mod 3)) in
          Protocol.Check
            { object_id = "obj"; access = Sral.Access.read resource ~at:"s1" })
  in
  let others =
    List.filter
      (fun (e : Script.entry) -> e.conn = 1)
      (Script.generate ~conns:2 ~requests:1200 ~seed:31 ())
  in
  let script =
    List.map (fun req -> { Script.conn = 0; req }) flood @ others
  in
  let direct = Script.drive_direct ~base script in
  let path = Filename.temp_file "stacc_stall" ".sock" in
  let addr = Net_unix.Unix_path path in
  let listener = Net_unix.listen addr in
  let config = { Server.default_config with queue_capacity = max_int } in
  let server = Server.create ~config ~base () in
  Fun.protect ~finally:(fun () -> Net_unix.shutdown listener) (fun () ->
      (* accept order = connect order: the flooder is conn 0 *)
      let flood_fd = raw_connect path in
      let client = Net_unix.Client.connect addr in
      let burst = String.concat "" (List.map frame_req flood) in
      let flood_off = ref 0 and steps = ref 0 in
      let pump () =
        incr steps;
        if !steps > 100_000 then Alcotest.fail "socket exchange stalled";
        flood_off := raw_write flood_fd burst !flood_off;
        ignore (Net_unix.step listener ~server ~timeout:0.05)
      in
      (* phase 1: the flooder never reads *)
      let got1 = ref [] and stalled = ref 0 in
      List.iter
        (fun (e : Script.entry) ->
          Net_unix.Client.send client e.req;
          let rec await () =
            pump ();
            if Net_unix.pending_output listener > 0 then incr stalled;
            let replies = Net_unix.Client.drain client in
            got1 := List.rev_append replies !got1;
            if not (List.exists is_direct replies) then await ()
          in
          await ())
        others;
      Alcotest.(check bool) "the flooder's replies outgrew its socket" true
        (!stalled > 0 && Net_unix.pending_output listener > 0);
      Alcotest.(check bool) "flooder still connected" true
        (Server.conn_alive server ~conn:0);
      Alcotest.(check string) "neighbour's replies = drive_direct"
        (Script.render [ (1, List.assoc 1 direct) ])
        (Script.render [ (1, List.rev !got1) ]);
      (* phase 2: the flooder drains *)
      let dec = Frame.Decoder.create () in
      let got0 = ref [] and unanswered = ref (List.length flood) in
      while !unanswered > 0 do
        pump ();
        let replies = raw_drain flood_fd dec in
        unanswered := !unanswered - List.length (List.filter is_direct replies);
        got0 := List.rev_append replies !got0
      done;
      Alcotest.(check int) "nothing left pending" 0
        (Net_unix.pending_output listener);
      Alcotest.(check string) "flooder's replies = drive_direct"
        (Script.render [ (0, List.assoc 0 direct) ])
        (Script.render [ (0, List.rev !got0) ]);
      Net_unix.Client.close client;
      Unix.close flood_fd)

(* --- normalized CLI exit codes (PR 8 satellite) --- *)

(* run from the test's build directory, so the relative paths hold under
   [dune exec test/test_service.exe] as well as under [dune runtest] *)
let stacc args =
  Sys.command
    (Printf.sprintf "cd %s && ../bin/stacc.exe %s >/dev/null 2>&1"
       (Filename.quote (Filename.dirname Sys.executable_name))
       args)

let test_cli_bad_usage_exits_2 () =
  let subcommands =
    [
      "parse"; "traces"; "check"; "dot"; "audit"; "trace"; "chaos"; "workflow";
      "bench-parallel"; "policy"; "lint"; "analyze"; "simulate"; "serve"; "load";
    ]
  in
  List.iter
    (fun sub ->
      let rc = stacc (sub ^ " --definitely-not-a-flag") in
      if rc <> 2 then
        Alcotest.failf "%s: bad flag exited %d, want 2" sub rc)
    subcommands;
  Alcotest.(check int) "unknown subcommand" 2 (stacc "frobnicate");
  Alcotest.(check int) "bad rational deadline" 2
    (stacc "audit --deadline not-a-q ../examples/policies/fig1.policy");
  Alcotest.(check int) "missing file is usage" 2 (stacc "check /no/such/file")

let test_cli_help_exits_0 () =
  Alcotest.(check int) "group help" 0 (stacc "--help");
  Alcotest.(check int) "subcommand help" 0 (stacc "serve --help");
  Alcotest.(check int) "load help" 0 (stacc "load --help")

let () =
  Alcotest.run "service"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip and reassembly" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "oversized prefix poisons" `Quick
            test_frame_oversized_poisons;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "fuzz roundtrip + adversarial" `Quick
            test_protocol_fuzz;
          Alcotest.test_case "bad tag and trailing bytes" `Quick
            test_protocol_bad_tag_and_trailing;
          Alcotest.test_case "event layout is binary" `Quick
            test_protocol_event_layout;
          Alcotest.test_case "non-canonical rationals are malformed" `Quick
            test_protocol_noncanonical_rejected;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic request flow" `Quick test_server_basic_flow;
          Alcotest.test_case "depart forgets the object" `Quick
            test_server_depart;
          Alcotest.test_case "subscribe streams trace events" `Quick
            test_server_subscribe_streams_events;
          Alcotest.test_case "malformed payload kills fail-closed" `Quick
            test_server_malformed_kills;
          Alcotest.test_case "oversized frame kills fail-closed" `Quick
            test_server_oversized_frame_kills;
          Alcotest.test_case "overload sheds auditable" `Quick
            test_server_sheds_overload;
          Alcotest.test_case "feed_batch = feed" `Quick test_feed_batch_conforms;
        ] );
      ( "differential",
        [
          Alcotest.test_case "sim = direct, byte-identical" `Quick
            test_differential_gate;
          Alcotest.test_case "lossy transport deterministic" `Quick
            test_lossy_transport_deterministic;
        ] );
      ( "transport",
        [
          Alcotest.test_case "unix socket smoke" `Quick test_unix_transport;
          Alcotest.test_case "burst and resets = drive_direct" `Quick
            test_unix_burst_and_reset;
          Alcotest.test_case "stalled reader, neighbour = drive_direct" `Quick
            test_unix_stalled_reader;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad usage exits 2" `Quick
            test_cli_bad_usage_exits_2;
          Alcotest.test_case "help exits 0" `Quick test_cli_help_exits_0;
        ] );
    ]
