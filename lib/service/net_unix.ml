type addr = Unix_path of string | Tcp of int

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

type peer = { fd : Unix.file_descr; conn : int }

(* one read buffer per listener and per client, never shared between
   them, so listeners on different domains cannot race on it *)
let read_buffer () = Bytes.create 65536

type t = {
  addr : addr;
  listener : Unix.file_descr;
  mutable peers : peer list;
  buf : Bytes.t;
}

let listen addr =
  (match addr with
  | Unix_path p when Sys.file_exists p -> Sys.remove p
  | _ -> ());
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_path _ -> ());
  Unix.bind fd (sockaddr_of addr);
  Unix.listen fd 64;
  { addr; listener = fd; peers = []; buf = read_buffer () }

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* [None] once the peer is gone: EOF, or a reset treated as one *)
let rec read_chunk buf fd =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> None
  | n -> Some (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Some ""
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk buf fd

let step t ~server ~timeout =
  let fds = t.listener :: List.map (fun p -> p.fd) t.peers in
  let ready, _, _ = try Unix.select fds [] [] timeout with
    | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (* accept first so a connect+send in the same pump gets served *)
  if List.mem t.listener ready then begin
    (* newest first, reversed once so the peer list keeps accept order
       and is copied once per pump rather than once per accept *)
    let rec accept_all acc =
      match Unix.accept t.listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          accept_all ({ fd; conn = Server.open_conn server } :: acc)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> acc
    in
    Unix.set_nonblock t.listener;
    t.peers <- t.peers @ List.rev (accept_all [])
  end;
  (* peers lost to EOF, a reset or a broken pipe *)
  let lost = ref [] in
  let batch =
    List.filter_map
      (fun p ->
        if List.mem p.fd ready then
          match read_chunk t.buf p.fd with
          | None ->
              lost := p :: !lost;
              None
          | Some "" -> None
          | Some bytes -> Some (p, bytes)
        else None)
      t.peers
  in
  let replies = Server.feed_batch server (List.map (fun (p, b) -> (p.conn, b)) batch) in
  (* one reply entry per batch peer, in batch order *)
  List.iter2
    (fun (p, _) (_, out) ->
      if String.length out > 0 then
        try write_all p.fd out
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          lost := p :: !lost)
    batch replies;
  (* disconnect lost peers and peers the server killed fail-closed *)
  let gone p =
    List.memq p !lost
    || (not (Server.conn_alive server ~conn:p.conn))
       && List.exists (fun (q, _) -> q == p) batch
  in
  let dropped, kept = List.partition gone t.peers in
  List.iter
    (fun p ->
      Server.close_conn server ~conn:p.conn;
      try Unix.close p.fd with Unix.Unix_error _ -> ())
    dropped;
  t.peers <- kept;
  List.length batch

let serve t ~server ?max_requests () =
  let done_ () =
    match max_requests with
    | None -> false
    | Some n -> Server.executed server + Server.shed server >= n
  in
  while not (done_ ()) do
    ignore (step t ~server ~timeout:0.1)
  done

let shutdown t =
  List.iter (fun p -> try Unix.close p.fd with Unix.Unix_error _ -> ()) t.peers;
  t.peers <- [];
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  match t.addr with
  | Unix_path p when Sys.file_exists p -> Sys.remove p
  | _ -> ()

module Client = struct
  type t = { fd : Unix.file_descr; decoder : Frame.Decoder.t; buf : Bytes.t }

  let connect addr =
    let domain =
      match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.connect fd (sockaddr_of addr);
    { fd; decoder = Frame.Decoder.create (); buf = read_buffer () }

  let send t req = write_all t.fd (Frame.encode (Protocol.encode_request req))

  let decode_available t =
    let rec go acc =
      match Frame.Decoder.next t.decoder with
      | Ok (Some payload) -> (
          match Protocol.decode_reply payload with
          | Ok reply -> go (reply :: acc)
          | Error err ->
              failwith ("Client: undecodable reply: " ^ Protocol.describe err))
      | Ok None -> List.rev acc
      | Error e -> failwith ("Client: reply framing: " ^ e)
    in
    go []

  let drain t =
    let rec pump () =
      match Unix.select [ t.fd ] [] [] 0.0 with
      | [], _, _ -> ()
      | _ -> (
          match read_chunk t.buf t.fd with
          | None | Some "" -> ()
          | Some bytes ->
              Frame.Decoder.feed t.decoder bytes;
              pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    pump ();
    decode_available t

  let request t req =
    send t req;
    let events = ref [] in
    (* decode_available consumes events too; collect them *)
    let rec loop () =
      let batch = decode_available t in
      let evs, directs =
        List.partition (function Protocol.Event _ -> true | _ -> false) batch
      in
      events := !events @ evs;
      match directs with
      | r :: _ -> r
      | [] -> (
          match Unix.select [ t.fd ] [] [] 5.0 with
          | [], _, _ -> failwith "Client.request: timed out"
          | _ -> (
              match read_chunk t.buf t.fd with
              | None -> failwith "Client.request: connection closed"
              | Some "" -> loop ()
              | Some bytes ->
                  Frame.Decoder.feed t.decoder bytes;
                  loop ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
    in
    let r = loop () in
    (r, !events)

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
