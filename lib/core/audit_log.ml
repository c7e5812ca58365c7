type entry = {
  time : Temporal.Q.t;
  object_id : string;
  access : Sral.Access.t;
  verdict : Decision.verdict;
}

(* Ring buffer over [buf]: retained entries are the [len] slots starting
   at [start] (mod capacity).  In unbounded mode the buffer only grows
   and [start] stays 0.  Lifetime statistics ([total], [granted_total],
   the per-object/per-server count tables) are updated in O(1) at record
   time and never forget evicted entries. *)
type t = {
  mutable buf : entry option array;
  mutable start : int;
  mutable len : int;
  capacity : int option;
  mutable total : int;
  mutable granted_total : int;
  object_counts : (string, int ref) Hashtbl.t;
  server_counts : (string, int ref) Hashtbl.t;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Audit_log.create: capacity %d < 1" c)
  | _ -> ());
  (* bounded mode allocates its ring in full so the modulus is always
     the array length; unbounded mode starts small and doubles *)
  let initial = match capacity with Some c -> c | None -> 16 in
  {
    buf = Array.make initial None;
    start = 0;
    len = 0;
    capacity;
    total = 0;
    granted_total = 0;
    object_counts = Hashtbl.create 16;
    server_counts = Hashtbl.create 16;
  }

(* one probe per record once the key has a cell *)
let bump table key =
  match Hashtbl.find table key with
  | n -> incr n
  | exception Not_found -> Hashtbl.add table key (ref 1)

let grow log =
  let bigger = Array.make (2 * Array.length log.buf) None in
  (* unbounded mode never wraps, so the live region is a prefix *)
  Array.blit log.buf 0 bigger 0 log.len;
  log.buf <- bigger

let record log e =
  log.total <- log.total + 1;
  if Decision.is_granted e.verdict then
    log.granted_total <- log.granted_total + 1;
  bump log.object_counts e.object_id;
  bump log.server_counts e.access.Sral.Access.server;
  match log.capacity with
  | None ->
      if log.len = Array.length log.buf then grow log;
      log.buf.(log.len) <- Some e;
      log.len <- log.len + 1
  | Some cap ->
      if log.len < cap then begin
        log.buf.((log.start + log.len) mod Array.length log.buf) <- Some e;
        log.len <- log.len + 1
      end
      else begin
        (* full: overwrite the oldest slot and rotate *)
        log.buf.(log.start) <- Some e;
        log.start <- (log.start + 1) mod Array.length log.buf
      end

let size log = log.total
let retained log = log.len
let granted_count log = log.granted_total
let denied_count log = log.total - log.granted_total

let count table key =
  match Hashtbl.find table key with n -> !n | exception Not_found -> 0

let count_by_object log id = count log.object_counts id
let count_by_server log server = count log.server_counts server

let entries log =
  List.filter_map
    (fun i -> log.buf.((log.start + i) mod Array.length log.buf))
    (List.init log.len Fun.id)

let granted log =
  List.filter (fun e -> Decision.is_granted e.verdict) (entries log)

let denied log =
  List.filter (fun e -> not (Decision.is_granted e.verdict)) (entries log)

let grant_rate log =
  if log.total = 0 then 1.0
  else float_of_int log.granted_total /. float_of_int log.total

let by_object log id =
  List.filter (fun e -> String.equal e.object_id id) (entries log)

let by_server log server =
  List.filter (fun e -> String.equal e.access.Sral.Access.server server) (entries log)

let sink log =
  Obs.Sink.make ~name:"audit-log" (function
    | Obs.Trace.Decision { time; object_id; access; verdict } ->
        record log { time; object_id; access; verdict }
    | _ -> ())

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %s: %a -> %a" Temporal.Q.pp e.time e.object_id
    Sral.Access.pp e.access Decision.pp_verdict e.verdict

let pp ppf log =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry)
    (entries log)
