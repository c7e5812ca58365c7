(* Spans for the traced run, recorded by the benchmark around its calls
   into each layer's public functions.  Kept in memory, written out as
   JSONL when the run ends.

   A child either nests in its parent's interval (the call happened
   inside it) or is attributed to it by id (a twin replay of the same
   bytes, timed separately); either way a layer's self time is its
   span's duration minus its children's durations. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (* -1: a root *)
  req : int;  (* request or operation index; -1: none *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ?(id = fresh t) ~name ~parent ~req ~start_ns ~end_ns () =
  t.spans <- { id; name; start_ns; end_ns; parent; req } :: t.spans;
  id

(* Time [f] as a span; [f] receives the span's id so that its children
   can name their parent before the span itself is recorded. *)
let time t ~name ?(parent = -1) ?(req = -1) f =
  let id = fresh t in
  let start_ns = Clock.now_ns () in
  let v = f id in
  let end_ns = Clock.now_ns () in
  ignore (add t ~id ~name ~parent ~req ~start_ns ~end_ns ());
  v

let all t = List.rev t.spans
let dur s = s.end_ns - s.start_ns

(* Per span name: (count, total duration, total self time) in ns. *)
let totals t =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child_sum s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt child_sum s.id) in
      let n, d, sf = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, d + dur s, sf + self))
    t.spans;
  by_name

let count tot name = match Hashtbl.find_opt tot name with Some (n, _, _) -> n | None -> 0
let total tot name = match Hashtbl.find_opt tot name with Some (_, d, _) -> d | None -> 0
let self tot name = match Hashtbl.find_opt tot name with Some (_, _, s) -> s | None -> 0

let mean_ns tot name =
  match Hashtbl.find_opt tot name with
  | Some (n, d, _) when n > 0 -> float_of_int d /. float_of_int n
  | _ -> 0.

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n" s.id
            (Report.json_string s.name) s.start_ns s.end_ns s.parent s.req)
        (all t))
