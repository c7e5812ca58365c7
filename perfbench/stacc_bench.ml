(* The STACC benchmark's measuring program; perfbench/run.py builds it
   and the stacc binary, then runs it from the repository root:

     stacc_bench.exe --workload W --seed N --seconds S --trace 0|1
                     [--stacc PATH] [--out DIR]

   With --trace 0 it runs workload W for S seconds and prints its
   end-to-end metrics; with --trace 1 it runs every workload's traced
   probe once and prints the per-layer metrics.  The last line of
   standard output is the JSON result.  Exit 0 when every correctness
   gate passed, 1 when one failed, 2 on a usage or run-time error. *)

open Perfkit

let workloads = [ "svc-mixed"; "decide-history"; "emulate-coalition"; "analyze-queries" ]

let usage () =
  prerr_endline
    ("usage: stacc_bench.exe --workload ("
    ^ String.concat "|" workloads
    ^ ") --seed N --seconds S --trace 0|1 [--stacc PATH] [--out DIR]");
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  stacc : string;
  out : string;
}

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--stacc" :: p :: rest -> go { a with stacc = p } rest
    | "--out" :: d :: rest -> go { a with out = d } rest
    | [] -> a
    | _ -> usage ()
  in
  match
    go
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        stacc = "_build/default/bin/stacc.exe";
        out = "perfbench/_out";
      }
      (List.tl (Array.to_list argv))
  with
  | a when a.workload = "" || a.seconds <= 0. -> usage ()
  | a -> a
  | exception Failure _ -> usage ()

let svc_config a =
  (* relative to the repository root, which keeps the Unix socket path
     short however deep the checkout is *)
  { Svc.stacc = a.stacc; socket = Filename.concat a.out (Printf.sprintf "svc-%d.sock" (Unix.getpid ())) }

let timed a =
  match a.workload with
  | "svc-mixed" -> Svc.timed ~seconds:a.seconds ~seed:a.seed (svc_config a)
  | "decide-history" -> Decide.timed ~seconds:a.seconds ~seed:a.seed
  | "emulate-coalition" -> Emulate.timed ~seconds:a.seconds
  | _ -> Analyze.timed ~seconds:a.seconds ~seed:a.seed

(* Every probe runs, whichever workload is named, so every per-layer
   metric is measured in every traced run; the gc and tracing-overhead
   metrics are the named workload's. *)
let traced a =
  let probe name f =
    let spans = Spans.create () in
    let p = f spans in
    let path = Filename.concat a.out (Printf.sprintf "spans-%s-seed%d.jsonl" name a.seed) in
    Spans.write_jsonl spans path;
    Printf.eprintf "spans: %s\n%!" path;
    (name, p)
  in
  let svc = probe "svc-mixed" (Svc.traced ~seed:a.seed (svc_config a)) in
  let decide = probe "decide-history" (Decide.traced ~seed:a.seed) in
  let emulate = probe "emulate-coalition" Emulate.traced in
  let analyze = probe "analyze-queries" (Analyze.traced ~seed:a.seed) in
  let probes = [ svc; decide; emulate; analyze ] in
  let own = List.assoc a.workload probes in
  List.iter
    (fun (name, (p : Report.probe)) ->
      if not p.correct then Printf.eprintf "%s: a correctness gate failed in the traced probe\n" name)
    probes;
  {
    Report.correct = List.for_all (fun (_, (p : Report.probe)) -> p.correct) probes;
    attempted = own.attempted;
    failed = own.failed;
    metrics = List.concat_map (fun (_, (p : Report.probe)) -> p.metrics) probes @ Report.gc_metrics own;
  }

let () =
  let a = parse Sys.argv in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a signal unwinds through the cleanup handlers, so the server child
     is always reaped *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  Sys.catch_break true;
  match
    if not (Sys.file_exists a.out) then Unix.mkdir a.out 0o755;
    if a.trace then traced a else timed a
  with
  | r ->
      Report.print_table
        ~title:(Printf.sprintf "%s seed=%d trace=%b" a.workload a.seed a.trace)
        r;
      print_endline (Report.to_json r);
      exit (if r.correct then 0 else 1)
  | exception e ->
      Printf.eprintf "stacc_bench: %s\n" (Printexc.to_string e);
      exit 2
