type addr = Unix_path of string | Tcp of int

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* [out] from [out_off] on is reply bytes the socket has not taken
   yet; while any remain the peer is polled for writability only, never
   read, so its unsent output is bounded by the replies to one read *)
type peer = {
  fd : Unix.file_descr;
  conn : int;
  mutable out : string;
  mutable out_off : int;
}

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

let pending p = String.length p.out - p.out_off

let pending_output t = List.fold_left (fun acc p -> acc + pending p) 0 t.peers

(* Write what the nonblocking socket takes now and keep the rest.
   [false] once the peer is gone (broken pipe or reset). *)
let rec flush p =
  let n = pending p in
  if n = 0 then true
  else
    match Unix.write_substring p.fd p.out p.out_off n with
    | k ->
        if k = n then begin
          p.out <- "";
          p.out_off <- 0
        end
        else p.out_off <- p.out_off + k;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush p
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

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
  let reads, writes =
    List.fold_left
      (fun (r, w) p -> if pending p > 0 then (r, p.fd :: w) else (p.fd :: r, w))
      ([ t.listener ], []) t.peers
  in
  let readable, writable, _ = try Unix.select reads writes [] timeout with
    | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (* accept first so a connect+send in the same pump gets served *)
  if List.mem t.listener readable then begin
    (* newest first, reversed once so the peer list keeps accept order
       and is copied once per pump rather than once per accept *)
    let rec accept_all acc =
      match Unix.accept t.listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          accept_all
            ({ fd; conn = Server.open_conn server; out = ""; out_off = 0 } :: acc)
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
        if List.mem p.fd writable then begin
          if not (flush p) then lost := p :: !lost;
          None
        end
        else if List.mem p.fd readable then
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
  (* one reply entry per batch peer, in batch order; a batch peer had
     nothing pending, so its replies start a fresh output *)
  List.iter2
    (fun (p, _) (_, out) ->
      p.out <- out;
      p.out_off <- 0;
      if not (flush p) then lost := p :: !lost)
    batch replies;
  (* disconnect lost peers, and peers the server killed fail-closed once
     their last replies are out *)
  let gone p =
    List.memq p !lost
    || pending p = 0 && not (Server.conn_alive server ~conn:p.conn)
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

  (* the client's socket blocks, so this returns once all is written *)
  let send t req =
    let s = Frame.encode (Protocol.encode_request req) in
    let rec from off =
      if off < String.length s then
        match Unix.write_substring t.fd s off (String.length s - off) with
        | k -> from (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> from off
    in
    from 0

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
