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

let gen_verdict rng : Obs.Verdict.t =
  match Random.State.int rng 7 with
  | 0 -> Granted
  | 1 -> Denied (Rbac_denied (gen_bytes rng))
  | 2 ->
      Denied
        (Spatial_violation { binding = gen_bytes rng; detail = gen_bytes rng })
  | 3 ->
      Denied
        (Temporal_expired
           {
             binding = gen_bytes rng;
             spent =
               Q.make (Random.State.int rng 1000) (1 + Random.State.int rng 60);
           })
  | 4 -> Denied (Not_active (gen_bytes rng))
  | 5 -> Denied Not_arrived
  | _ -> Denied (Server_unavailable (gen_bytes rng))

let gen_event rng : Obs.Trace.event =
  let time = Q.make (Random.State.int rng 100) (1 + Random.State.int rng 9) in
  match Random.State.int rng 4 with
  | 0 ->
      Decision
        {
          time;
          object_id = "o1";
          access = Sral.Access.read "r1" ~at:"s1";
          verdict = gen_verdict rng;
        }
  | 1 -> Arrival { time; object_id = "o1"; server = "s2" }
  | 2 -> Aborted { time; agent = "conn-3"; reason = "overload-shed" }
  | _ -> Run_finished { time }

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

(* --- normalized CLI exit codes (PR 8 satellite) --- *)

let stacc args =
  Sys.command (Printf.sprintf "../bin/stacc.exe %s >/dev/null 2>&1" args)

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
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad usage exits 2" `Quick
            test_cli_bad_usage_exits_2;
          Alcotest.test_case "help exits 0" `Quick test_cli_help_exits_0;
        ] );
    ]
