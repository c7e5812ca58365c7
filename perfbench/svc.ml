(* svc-mixed: the built `stacc serve --socket` as a child process, driven
   by this benchmark's own closed-loop client over two connections. *)

module Protocol = Service.Protocol
module Frame = Service.Frame

let conns = 2
let objects_per_conn = 4
let servers = [ "s1"; "s2"; "s3" ]
let resources = [ "r1"; "r2"; "r3" ]

(* ------------------------------------------------------------------ *)
(* The session generator.  Every input is a function of (seed, conn,
   requests): a connection's stream never depends on the other
   connection or on anything measured at run time.  The object set is
   fixed for the whole stream — a Depart is always followed by a
   re-Register of the same object — so a session stays valid at any
   length. *)

type stream = { preamble : Protocol.request list; main : Protocol.request list }

let program_pool =
  lazy
    (let rng = Random.State.make [| 0x5bc; 1 |] in
     let scen = Parallel.Workload.scenario ~servers ~resources ~objects:6 rng in
     Array.of_list (List.map (fun o -> o.Parallel.Scenario.program) scen.objects))

let pick = Parallel.Workload.pick

let access_of rng =
  let r = pick rng resources and s = pick rng servers in
  match Random.State.int rng 3 with
  | 0 -> Sral.Access.read r ~at:s
  | 1 -> Sral.Access.write r ~at:s
  | _ -> Sral.Access.execute r ~at:s

let register rng object_id =
  let pool = Lazy.force program_pool in
  let owner = pick rng Parallel.Workload.users in
  let roles =
    List.init (1 + Random.State.int rng 2) (fun _ -> pick rng Parallel.Workload.roles)
  in
  let program = pool.(Random.State.int rng (Array.length pool)) in
  Protocol.Register { object_id; owner; roles; program }

let stream ~seed ~requests conn =
  let rng = Random.State.make [| 0x5bc; seed; conn |] in
  let ids = List.init objects_per_conn (Printf.sprintf "o%d_%d" conn) in
  let preamble =
    List.map (register rng) ids
    @ (if conn = 0 then [ Protocol.Subscribe ] else [])
    @ List.map (fun object_id -> Protocol.Arrive { object_id; server = pick rng servers }) ids
  in
  let main = ref [] and n = ref 0 in
  let push r =
    main := r :: !main;
    incr n
  in
  while !n < requests do
    let object_id = pick rng ids in
    match Random.State.int rng 100 with
    | r when r < 70 -> push (Protocol.Check { object_id; access = access_of rng })
    | r when r < 80 -> push (Protocol.Arrive { object_id; server = pick rng servers })
    | r when r < 88 ->
        push (Protocol.Activate { object_id; role = pick rng Parallel.Workload.roles })
    | r when r < 93 ->
        push (Protocol.Join { object_id; team = pick rng Parallel.Workload.team_names })
    | r when r < 97 -> push Protocol.Ping
    | _ ->
        push (Protocol.Depart { object_id });
        if !n < requests then push (register rng object_id)
  done;
  { preamble; main = List.rev !main }

let streams ~seed ~requests = Array.init conns (stream ~seed ~requests)


(* ------------------------------------------------------------------ *)
(* The oracle: Script.drive_direct, an implementation of the request
   semantics that shares no code with the server, on the same
   per-connection streams.  Connections are isolated clones, so the
   interleaving between them does not matter. *)

let script_of streams =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun conn s ->
            List.map (fun req -> { Service.Script.conn; req }) (s.preamble @ s.main))
          streams))

let expected_render streams =
  let base = Service.Script.base_system () in
  Service.Script.render (Service.Script.drive_direct ~base (script_of streams))

(* The gate: the replies a run collected, events included, must render
   byte-identical to the oracle. *)
let gate ~expected (replies : Protocol.reply list array) =
  String.equal expected
    (Service.Script.render (Array.to_list (Array.mapi (fun c rs -> (c, rs)) replies)))

(* ------------------------------------------------------------------ *)
(* The load client: one blocking socket per connection, every
   connection with one request outstanding, one select over all of
   them.  No zero-timeout polling. *)

type conn_state = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  reqs : string array;  (* pre-framed request bytes *)
  mutable next : int;
  mutable sent_at : int;
  mutable outstanding : bool;
  mutable replies : Protocol.reply list;  (* reversed *)
  mutable events : int;
  mutable failed : int;
}

let read_buf = Bytes.create 65536

let conn_state fd reqs =
  {
    fd;
    dec = Frame.Decoder.create ();
    reqs;
    next = 0;
    sent_at = 0;
    outstanding = false;
    replies = [];
    events = 0;
    failed = 0;
  }

let frames requests =
  Array.of_list (List.map (fun r -> Frame.encode (Protocol.encode_request r)) requests)

(* The exact bytes a connection sends, preamble first. *)
let stream_bytes s = String.concat "" (Array.to_list (frames (s.preamble @ s.main)))

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let send c =
  c.sent_at <- Clock.now_ns ();
  write_all c.fd c.reqs.(c.next) 0;
  c.next <- c.next + 1;
  c.outstanding <- true

(* Read what the socket has and consume decoded replies; [on_direct]
   sees each direct (non-event) reply as it is decoded. *)
let pump c ~on_direct =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> false
  | n ->
      Frame.Decoder.feed c.dec (Bytes.sub_string read_buf 0 n);
      let rec drain () =
        match Frame.Decoder.next c.dec with
        | Ok (Some payload) -> (
            match Protocol.decode_reply payload with
            | Ok (Protocol.Event _ as ev) ->
                c.replies <- ev :: c.replies;
                c.events <- c.events + 1;
                drain ()
            | Ok reply ->
                c.replies <- reply :: c.replies;
                on_direct c reply;
                drain ()
            | Error _ -> false)
        | Ok None -> true
        | Error _ -> false
      in
      drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Closed loop over the given connections until every one has had all
   its requests answered, or has failed (timeout, lost connection,
   undecodable bytes); the requests a failed connection still owed
   count as failed.  [lat] receives one send-to-decoded latency per
   direct reply. *)
let closed_loop ?(timeout = 10.) cs ~lat =
  let fail c =
    c.failed <- c.failed + (Array.length c.reqs - c.next) + if c.outstanding then 1 else 0;
    c.next <- Array.length c.reqs;
    c.outstanding <- false
  in
  let send_next c =
    if c.next < Array.length c.reqs then
      try send c with Unix.Unix_error _ -> fail c
  in
  let on_direct c reply =
    (match reply with
    | Protocol.Shed _ -> c.failed <- c.failed + 1
    | _ -> ());
    Pct.Buf.add lat (Clock.now_ns () - c.sent_at);
    c.outstanding <- false;
    send_next c
  in
  Array.iter send_next cs;
  let live () = List.filter (fun c -> c.outstanding) (Array.to_list cs) in
  let rec loop () =
    match live () with
    | [] -> ()
    | waiting ->
        (match Unix.select (List.map (fun c -> c.fd) waiting) [] [] timeout with
        | [], _, _ -> List.iter fail waiting
        | ready, _, _ ->
            List.iter
              (fun c -> if List.memq c.fd ready && not (pump c ~on_direct) then fail c)
              waiting
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* One round: spawn the server, connect, preamble, timed main phase,
   read the child's /proc counters, stop and reap it. *)

type config = { stacc : string; socket : string }

type round = {
  setup_s : float;
  elapsed_s : float;
  lat : int array;  (* ns, one per main-phase direct reply *)
  attempted : int;
  failed : int;
  events : int;
  replies : Protocol.reply list array;
  server_rss_kb : int;
  server_cpu_s : float;
  client_cpu_s : float;
}

let rec connect_retry path deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception (Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) as e) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then raise e;
      Unix.sleepf 0.001;
      connect_retry path deadline

let remove_socket path = try Sys.remove path with Sys_error _ -> ()

let round cfg (streams : stream array) =
  remove_socket cfg.socket;
  let pre = Array.map (fun s -> frames s.preamble) streams in
  let main = Array.map (fun s -> frames s.main) streams in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process cfg.stacc
      [| cfg.stacc; "serve"; "--socket"; cfg.socket |]
      devnull devnull devnull
  in
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
      Proc.terminate pid;
      Unix.close devnull;
      remove_socket cfg.socket)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 30. in
      let cs =
        Array.map
          (fun reqs ->
            let fd = connect_retry cfg.socket deadline in
            fds := fd :: !fds;
            conn_state fd reqs)
          pre
      in
      let pre_lat = Pct.Buf.create 16 in
      closed_loop cs ~lat:pre_lat;
      let setup_s = Clock.seconds_since t0 in
      let pre_failed = Array.fold_left (fun a (c : conn_state) -> a + c.failed) 0 cs in
      let cs =
        Array.mapi
          (fun i c -> { c with reqs = main.(i); next = 0; events = 0; failed = 0 })
          cs
      in
      let lat = Pct.Buf.create (Array.fold_left (fun a r -> a + Array.length r) 0 main) in
      let cpu0 = Proc.self_cpu_s () and server_cpu0 = Proc.cpu_s pid in
      let t1 = Clock.now_ns () in
      closed_loop cs ~lat;
      let elapsed_s = Clock.seconds_since t1 in
      let client_cpu_s = Proc.self_cpu_s () -. cpu0 in
      let server_rss_kb = Proc.vm_hwm_kb (Some pid) in
      let server_cpu_s = Proc.cpu_s pid -. server_cpu0 in
      {
        setup_s;
        elapsed_s;
        lat = Pct.Buf.to_array lat;
        attempted = Array.fold_left (fun a r -> a + Array.length r) 0 main;
        failed = pre_failed + Array.fold_left (fun a (c : conn_state) -> a + c.failed) 0 cs;
        events = Array.fold_left (fun a (c : conn_state) -> a + c.events) 0 cs;
        replies = Array.map (fun (c : conn_state) -> List.rev c.replies) cs;
        server_rss_kb;
        server_cpu_s;
        client_cpu_s;
      })

let requests_per_conn = 2500

let timed ~seconds ~seed cfg =
  let streams = streams ~seed ~requests:requests_per_conn in
  let expected = expected_render streams in
  let mismatch = ref false and failed = ref 0 and attempted = ref 0 and rss = ref [] in
  let rounds =
    Report.run_rounds ~seconds ~min_rounds:3 (fun _ ->
        let r = round cfg streams in
        failed := !failed + r.failed;
        attempted := !attempted + r.attempted;
        rss := (float_of_int r.server_rss_kb /. 1024.) :: !rss;
        if not (gate ~expected r.replies) then mismatch := true;
        { Report.setup_s = r.setup_s; elapsed_s = r.elapsed_s; ops = Array.length r.lat; lat = r.lat })
  in
  if !mismatch then prerr_endline "svc-mixed: replies differ from Script.drive_direct";
  {
    Report.correct = not !mismatch;
    attempted = !attempted;
    failed = !failed;
    metrics =
      Report.end_to_end rounds ~rate:"throughput_rps: direct replies/s"
        ~latency:"reply_p*_us: send to decoded direct reply" ~rss_mb:(Pct.median_float !rss)
        ~rss_note:"VmHWM of the stacc serve child, median over rounds";
  }

(* ------------------------------------------------------------------ *)
(* The traced probe.  In one process:
   1. Net_unix.listen/step with this benchmark's own client sockets,
      serving a Server with the default configuration, recording each
      step's batch of (connection, bytes);
   2. a twin Server fed every batch through feed_batch;
   3. a twin Server fed every chunk through feed;
   4. the Frame/Protocol codecs and a direct System drive, on a bus
      with a monotonic clock, over the same bytes.
   The twins are separate instances fed identical bytes, so their spans
   are attributed to the step that carried those bytes. *)

(* A direct per-request drive of System, mirroring the server's request
   semantics, so that each System call can be timed on its own. *)
type drive_conn = {
  sys : Coordinated.System.t;
  objs : (string, Rbac.Session.t * Sral.Ast.t) Hashtbl.t;
  mutable subscribed : bool;
  mutable seq : int;
}

(* The span the drive's decision-stage spans hang under: the
   System.check call in progress. *)
let stage_parent = ref (-1)

(* [spans]: where the System calls are timed; [None] runs them untimed. *)
let drive_exec spans ~parent ~req c (r : Protocol.request) : Protocol.reply =
  let module System = Coordinated.System in
  c.seq <- c.seq + 1;
  let seq = c.seq in
  let time = Temporal.Q.of_int seq in
  let reject reason : Protocol.reply = Rejected { seq; reason } in
  let span name f =
    match spans with Some spans -> Spans.time spans ~name ~parent ~req f | None -> f (-1)
  in
  let with_obj id f =
    match Hashtbl.find_opt c.objs id with
    | None -> reject (Printf.sprintf "unknown object %S" id)
    | Some o -> f o
  in
  match r with
  | Ping -> Ack { seq }
  | Subscribe ->
      c.subscribed <- true;
      Ack { seq }
  | Register { object_id; owner; roles; program } -> (
      if Hashtbl.mem c.objs object_id then
        reject (Printf.sprintf "object %S already registered" object_id)
      else
        match span "system.new_session" (fun _ -> System.new_session c.sys ~user:owner) with
        | exception Rbac.Policy.Unknown (what, who) -> reject (Printf.sprintf "unknown %s %S" what who)
        | session ->
            List.iter
              (fun role ->
                try Rbac.Session.activate session role
                with Rbac.Session.Not_authorized _ | Rbac.Session.Dsd_violation _ -> ())
              roles;
            Hashtbl.replace c.objs object_id (session, program);
            Ack { seq })
  | Arrive { object_id; server } ->
      with_obj object_id (fun _ ->
          span "system.arrive" (fun _ -> System.arrive c.sys ~object_id ~server ~time);
          Ack { seq })
  | Depart { object_id } ->
      with_obj object_id (fun (session, _) ->
          Rbac.Session.drop session;
          Hashtbl.remove c.objs object_id;
          Ack { seq })
  | Check { object_id; access } ->
      with_obj object_id (fun (session, program) ->
          let verdict =
            span "system.check" (fun id ->
                stage_parent := id;
                System.check c.sys ~session ~object_id ~program ~time access)
          in
          Verdict { seq; verdict })
  | Activate { object_id; role } ->
      with_obj object_id (fun (session, _) ->
          match Rbac.Session.activate session role with
          | () -> Ack { seq }
          | exception Rbac.Session.Not_authorized (u, r) ->
              reject (Printf.sprintf "user %S may not activate %S" u r)
          | exception Rbac.Session.Dsd_violation (_, u, r) ->
              reject (Printf.sprintf "DSD forbids %S activating %S" u r))
  | Join { object_id; team } ->
      with_obj object_id (fun _ ->
          span "system.join" (fun _ -> System.join_team c.sys ~object_id ~team);
          Ack { seq })

type batch = { step_span : int; chunks : (int * int * string) list (* conn, request id, bytes *) }

(* Phase 1: the in-process socket drive.  Returns the batches each step
   served and the in-process round-trip latencies. *)
let inprocess cfg ~record spans (reqs : string array array) =
  let path = cfg.socket ^ ".in" in
  let listener = Service.Net_unix.listen (Service.Net_unix.Unix_path path) in
  let server = Service.Server.create ~base:(Service.Script.base_system ()) () in
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fds;
      Service.Net_unix.shutdown listener)
    (fun () ->
      let cs =
        Array.map
          (fun r ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            fds := fd :: !fds;
            Unix.connect fd (Unix.ADDR_UNIX path);
            conn_state fd r)
          reqs
      in
      ignore (Service.Net_unix.step listener ~server ~timeout:1.0);
      let lat = Pct.Buf.create 1024 and batches = ref [] and next_req = ref 0 in
      let rec loop () =
        let chunks =
          List.filter_map
            (fun (i, c) ->
              if c.next < Array.length c.reqs then begin
                let bytes = c.reqs.(c.next) in
                send c;
                let id = !next_req in
                incr next_req;
                Some (i, id, bytes)
              end
              else None)
            (List.mapi (fun i c -> (i, c)) (Array.to_list cs))
        in
        if chunks <> [] then begin
          let step () = Service.Net_unix.step listener ~server ~timeout:5.0 in
          let served, step_span =
            if record then Spans.time spans ~name:"net_unix.step" (fun id -> (step (), id))
            else (step (), -1)
          in
          if served <> List.length chunks then failwith "in-process step served a partial batch";
          batches := { step_span; chunks } :: !batches;
          List.iter
            (fun (i, _, _) ->
              let c = cs.(i) in
              let got = ref false in
              let on_direct c _ =
                Pct.Buf.add lat (Clock.now_ns () - c.sent_at);
                c.outstanding <- false;
                got := true
              in
              while not !got do
                if not (pump c ~on_direct) then failwith "in-process connection lost"
              done)
            chunks;
          loop ()
        end
      in
      loop ();
      (List.rev !batches, Pct.Buf.to_array lat, Array.map (fun (c : conn_state) -> List.rev c.replies) cs))

let traced ~seed cfg spans =
  let streams = streams ~seed ~requests:requests_per_conn in
  let expected = expected_render streams in
  (* the child process, as in the timed run *)
  let child = round cfg streams in
  let child_ok = gate ~expected child.replies in
  let main_reqs = float_of_int child.attempted in
  let socket_rtt_us = Pct.mean_float (List.map float_of_int (Array.to_list child.lat)) /. 1e3 in
  let reqs = Array.map (fun s -> frames (s.preamble @ s.main)) streams in
  let n_req = Array.fold_left (fun a r -> a + Array.length r) 0 reqs in
  (* untraced in-process drive, after one warm-up drive: the gc deltas
     and the overhead baseline *)
  ignore (inprocess cfg ~record:false spans reqs);
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let _, plain_lat, plain_replies = inprocess cfg ~record:false spans reqs in
  let g1 = Gc.quick_stat () in
  Gc.compact ();
  let batches, traced_lat, _ = inprocess cfg ~record:true spans reqs in
  let base = Service.Script.base_system () in
  (* phase 2: twin fed through feed_batch *)
  let twin_c = Service.Server.create ~base () in
  let conn_c = Array.init conns (fun _ -> Service.Server.open_conn twin_c) in
  let feed_batch_span = Hashtbl.create 1024 in
  List.iter
    (fun b ->
      let name = if List.length b.chunks > 1 then "server.feed_batch.multi" else "server.feed_batch.single" in
      let items = List.map (fun (i, _, bytes) -> (conn_c.(i), bytes)) b.chunks in
      Spans.time spans ~name ~parent:b.step_span (fun id ->
          Hashtbl.replace feed_batch_span b.step_span id;
          ignore (Service.Server.feed_batch twin_c items)))
    batches;
  (* phase 3: twin fed chunk by chunk.  Right after each feed, the same
     request goes through the codecs and System untraced, on a bus with
     the null clock, as the server runs them: feed minus that pipeline
     is the server's own dispatch work.  Timing the two back to back
     keeps a change in machine speed out of their difference. *)
  let twin_b = Service.Server.create ~base () in
  let conn_b = Array.init conns (fun _ -> Service.Server.open_conn twin_b) in
  let plain =
    Array.init conns (fun _ ->
        let c =
          { sys = Coordinated.System.clone base; objs = Hashtbl.create 8; subscribed = false; seq = 0 }
        in
        Obs.Bus.subscribe (Coordinated.System.bus c.sys)
          (Obs.Sink.make ~name:"bench-plain" (fun ev ->
               if c.subscribed then ignore (Frame.encode (Protocol.encode_reply (Event ev)))));
        (c, Frame.Decoder.create ()))
  in
  let pipeline c dec bytes =
    Frame.Decoder.feed dec bytes;
    match Frame.Decoder.next dec with
    | Ok (Some payload) -> (
        match Protocol.decode_request payload with
        | Ok r -> ignore (Frame.encode (Protocol.encode_reply (drive_exec None ~parent:(-1) ~req:(-1) c r)))
        | Error _ -> failwith "protocol replay")
    | _ -> failwith "frame replay"
  in
  let feed_span = Hashtbl.create 4096 and pipeline_ns = ref 0 in
  List.iter
    (fun b ->
      let parent = Hashtbl.find feed_batch_span b.step_span in
      List.iter
        (fun (i, req, bytes) ->
          Spans.time spans ~name:"server.feed" ~parent ~req (fun id ->
              Hashtbl.replace feed_span req id;
              ignore (Service.Server.feed twin_b ~conn:conn_b.(i) bytes));
          let c, dec = plain.(i) in
          let t0 = Clock.now_ns () in
          pipeline c dec bytes;
          pipeline_ns := !pipeline_ns + (Clock.now_ns () - t0))
        b.chunks)
    batches;
  (* phase 4: codecs and the direct System drive on a clocked bus *)
  let current_req = ref (-1) in
  let drive =
    Array.init conns (fun _ ->
        let bus = Obs.Bus.create ~clock:Clock.now_i64 () in
        let sys =
          Coordinated.System.create ~mode:(Coordinated.System.mode base)
            ~bindings:(Coordinated.System.bindings base) ~bus (Coordinated.System.policy base)
        in
        let c = { sys; objs = Hashtbl.create 8; subscribed = false; seq = 0 } in
        let pending = Queue.create () in
        Obs.Bus.subscribe bus
          (Obs.Sink.make ~name:"bench-drive" (fun ev ->
               (match ev with
               | Obs.Trace.Stage_end { stage; elapsed_ns; _ } ->
                   let e = Clock.now_ns () and d = Int64.to_int elapsed_ns in
                   ignore
                     (Spans.add spans
                        ~name:("decision." ^ Obs.Trace.stage_name stage)
                        ~parent:!stage_parent ~req:!current_req ~start_ns:(e - d) ~end_ns:e ())
               | _ -> ());
               if c.subscribed then Queue.add ev pending));
        (c, Frame.Decoder.create (), pending, ref []))
  in
  let events = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun (i, req, bytes) ->
          let c, dec, pending, replies = drive.(i) in
          let parent = Hashtbl.find feed_span req in
          let payload =
            Spans.time spans ~name:"frame.decode" ~parent ~req (fun _ ->
                Frame.Decoder.feed dec bytes;
                Frame.Decoder.next dec)
          in
          let payload = match payload with Ok (Some p) -> p | _ -> failwith "frame replay" in
          let s = Clock.now_ns () in
          let request = Protocol.decode_request payload in
          let name =
            match request with
            | Ok (Protocol.Check _) -> "protocol.decode.check"
            | Ok (Protocol.Register _) -> "protocol.decode.register"
            | _ -> "protocol.decode.other"
          in
          ignore (Spans.add spans ~name ~parent ~req ~start_ns:s ~end_ns:(Clock.now_ns ()) ());
          let request = match request with Ok r -> r | Error _ -> failwith "protocol replay" in
          let reply =
            Spans.time spans ~name:"system.exec" ~parent ~req (fun id ->
                current_req := req;
                drive_exec (Some spans) ~parent:id ~req c request)
          in
          if not (Queue.is_empty pending) then begin
            events := !events + Queue.length pending;
            Spans.time spans ~name:"protocol.event_encode" ~parent ~req (fun _ ->
                Queue.iter (fun ev -> ignore (Frame.encode (Protocol.encode_reply (Event ev)))) pending);
            Queue.clear pending
          end;
          Spans.time spans ~name:"protocol.encode" ~parent ~req (fun _ ->
              ignore (Frame.encode (Protocol.encode_reply reply)));
          replies := reply :: !replies)
        b.chunks)
    batches;
  (* the drive mirrors the server: its direct replies must match the
     oracle's (events differ: a clocked bus gives spans real durations) *)
  let directs l = List.filter (function Protocol.Event _ -> false | _ -> true) l in
  let oracle =
    Service.Script.drive_direct ~base (script_of streams)
    |> List.map (fun (_, rs) -> Service.Script.render [ (0, directs rs) ])
  in
  let drive_ok =
    List.for_all2
      (fun want (_, _, _, got) -> String.equal want (Service.Script.render [ (0, List.rev !got) ]))
      oracle (Array.to_list drive)
  in
  let plain_ok = gate ~expected plain_replies in
  let tot = Spans.totals spans in
  let per_req_us name = float_of_int (Spans.total tot name) /. 1e3 /. float_of_int n_req in
  let multi = Spans.count tot "server.feed_batch.multi" in
  let batches_n = List.length batches in
  let step_us = per_req_us "net_unix.step" in
  (* medians: one slow domain spawn moves a mean of in-process round trips *)
  let p50 a = float_of_int (Pct.nearest_rank ~p:50. a) in
  {
    Report.metrics =
      [
        Report.metric "net_unix.self_us_per_req" "us" ~samples:n_req
          ~note:"step minus feed_batch on the same bytes"
          (float_of_int (Spans.self tot "net_unix.step") /. 1e3 /. float_of_int n_req);
        Report.metric "server.cpu_us_per_req" "us" ~samples:child.attempted
          ~note:"stacc serve child utime+stime" (child.server_cpu_s *. 1e6 /. main_reqs);
        Report.metric "server.feed_us_per_req" "us" ~samples:n_req (per_req_us "server.feed");
        Report.metric "server.dispatch_self_us" "us" ~samples:n_req
          ~note:"feed minus an untraced codec+System replay"
          (float_of_int (Spans.total tot "server.feed" - !pipeline_ns) /. 1e3 /. float_of_int n_req);
        Report.metric "server.fanout_us_per_batch" "us" ~samples:multi
          ~note:"feed_batch minus its feeds, 2-connection batches"
          (float_of_int (Spans.self tot "server.feed_batch.multi") /. 1e3 /. float_of_int (max 1 multi));
        Report.metric "server.multi_conn_batch_ratio" "ratio" ~samples:batches_n
          (float_of_int multi /. float_of_int (max 1 batches_n));
        Report.metric "frame.decode_ns" "ns" ~samples:(Spans.count tot "frame.decode")
          (Spans.mean_ns tot "frame.decode");
        Report.metric "protocol.decode_check_ns" "ns" ~samples:(Spans.count tot "protocol.decode.check")
          (Spans.mean_ns tot "protocol.decode.check");
        Report.metric "protocol.decode_register_ns" "ns"
          ~samples:(Spans.count tot "protocol.decode.register") (Spans.mean_ns tot "protocol.decode.register");
        Report.metric "protocol.encode_ns" "ns" ~samples:(Spans.count tot "protocol.encode")
          ~note:"direct reply, framed" (Spans.mean_ns tot "protocol.encode");
        Report.metric "protocol.event_encode_ns" "ns" ~samples:!events ~note:"per event, framed"
          (float_of_int (Spans.total tot "protocol.event_encode") /. float_of_int (max 1 !events));
        Report.metric "svc.system_us_per_req" "us" ~samples:n_req
          ~note:"System calls of the direct drive, clocked bus" (per_req_us "system.exec");
        Report.metric "svc.events_per_req" "count" ~samples:child.attempted
          (float_of_int child.events /. main_reqs);
        Report.metric "client.cpu_us_per_req" "us" ~samples:child.attempted
          ~note:"this benchmark's client, utime+stime" (child.client_cpu_s *. 1e6 /. main_reqs);
        Report.metric "client.rtt_us" "us" ~samples:(Array.length child.lat)
          ~note:"mean socket round trip to the child" socket_rtt_us;
        Report.metric "layers.sum_over_rtt" "ratio" ~samples:n_req
          ~note:"layer self times per request (the in-process step) over client.rtt_us"
          (step_us /. socket_rtt_us);
      ];
    gc_ops = n_req;
    gc = (g0, g1);
    overhead = (p50 traced_lat /. p50 plain_lat) -. 1.;
    correct = child_ok && plain_ok && drive_ok;
    attempted = child.attempted;
    failed = child.failed;
  }
