(* decide-history: an in-process storm of Coordinated.System.check calls
   over a seeded, teamed coalition whose bindings mostly grant, so most
   checks extend a monitor history.  No service layer runs. *)

module System = Coordinated.System
module Q = Temporal.Q

let servers = [| "s0"; "s1"; "s2"; "s3" |]
let resources = [| "r0"; "r1"; "r2"; "r3" |]
let users = [| "u0"; "u1"; "u2"; "u3" |]
let objects = 64
let team_size = 4
let teams = objects / team_size

type obj = { id : string; user : string; program : Sral.Ast.t; home : string; team : string }

type op =
  | Check of int * Sral.Access.t  (* object index, access *)
  | Arrive of int * string
  | Join of int * string

type input = { objs : obj array; ops : op array; checks : int }

let policy () =
  let p = Rbac.Policy.create () in
  Array.iter (Rbac.Policy.add_user p) users;
  List.iter (Rbac.Policy.add_role p) [ "reader"; "writer"; "auditor" ];
  Rbac.Policy.grant p "reader" (Rbac.Perm.make ~operation:"read" ~target:"*@*");
  Rbac.Policy.grant p "writer" (Rbac.Perm.make ~operation:"write" ~target:"*@*");
  Rbac.Policy.grant p "auditor" (Rbac.Perm.make ~operation:"execute" ~target:"r0@*");
  Array.iter
    (fun u ->
      Rbac.Policy.assign_user p u "reader";
      Rbac.Policy.assign_user p u "writer")
    users;
  Rbac.Policy.assign_user p "u0" "auditor";
  p

(* Per resource: a write needs an earlier own read of it at s0 or s1
   (Performed, Own); a read at s3 needs some teammate's read of it at
   s0 (Performed, Team); a read at s2 is refused after an execute of it
   there (Performed, Own).  Reads carry a whole-journey duration that
   outlives the run and writes at s2 a per-server one, so the temporal
   stage runs on most checks. *)
let bindings () =
  let open Srac.Formula in
  let module B = Coordinated.Perm_binding in
  let perm op target = Rbac.Perm.make ~operation:op ~target in
  Array.to_list resources
  |> List.concat_map (fun r ->
         let rd s = Sral.Access.read r ~at:s in
         [
           B.make ~spatial_scope:B.Performed
             ~spatial:(Or (Atom (rd "s0"), Atom (rd "s1")))
             (perm "write" (r ^ "@*"));
           B.make ~spatial_scope:B.Performed ~proof_scope:B.Team
             ~spatial:(Atom (rd "s0")) (perm "read" (r ^ "@s3"));
           B.make ~spatial_scope:B.Performed
             ~spatial:(Not (Ordered (Sral.Access.execute r ~at:"s2", rd "s2")))
             (perm "read" (r ^ "@s2"));
         ])
  |> fun l ->
  l
  @ [
      B.make ~dur:(Q.of_int 1_000_000_000) (perm "read" "*@*");
      B.make ~dur:(Q.of_int 2_000) ~scheme:Temporal.Validity.Per_server
        (perm "write" "*@s2");
    ]

let generate ~seed ~ops:n =
  let rng = Random.State.make [| 0xdec1; seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* the population is the same for every seed — only the operation
     stream is drawn — so a seed's cost differs by its draws, not by
     who happened to hold which role *)
  let objs =
    Array.init objects (fun i ->
        let at k = Array.length servers |> fun n -> servers.((i + k) mod n) in
        let a k = Sral.Ast.access (Sral.Access.read resources.((i + k) mod 4) ~at:(at k)) in
        {
          id = Printf.sprintf "m%d" i;
          user = users.(i mod Array.length users);
          program = Sral.Ast.seq [ a 0; a 1; a 2 ];
          home = at 0;
          team = Printf.sprintf "t%d" (i / team_size);
        })
  in
  (* joins swap two objects between teams, so every team keeps its size
     and a seed changes who works together, not how much history a
     Team-scope check folds *)
  let team_of = Array.map (fun o -> o.team) objs in
  let checks = ref 0 and ops = ref [] and len = ref 0 in
  let push op =
    ops := op :: !ops;
    incr len
  in
  while !len < n do
    let o = Random.State.int rng objects in
    match Random.State.int rng 1000 with
    | r when r < 35 -> push (Arrive (o, pick servers))
    | r when r < 50 ->
        let o' = Random.State.int rng objects in
        let t = team_of.(o) and t' = team_of.(o') in
        if t <> t' then begin
          team_of.(o) <- t';
          team_of.(o') <- t;
          push (Join (o, t'));
          push (Join (o', t))
        end
    | r ->
        incr checks;
        let res = pick resources and at = pick servers in
        let access =
          if r < 620 then Sral.Access.read res ~at
          else if r < 960 then Sral.Access.write res ~at
          else Sral.Access.execute res ~at
        in
        push (Check (o, access))
  done;
  { objs; ops = Array.of_list (List.rev !ops); checks = !checks }

type live = { sys : System.t; sessions : Rbac.Session.t array }

(* How a caller wraps each call into System: [call name k f] runs [f],
   where [name] is the span name and [k] the operation index. *)
type timer = { call : 'a. string -> int -> (unit -> 'a) -> 'a }

let untimed = { call = (fun _ _ f -> f ()) }

(* The coalition build: system, one session per object with every role
   its user holds, initial arrivals and team memberships at time 0. *)
let build ?mode ?bus ?(timer = untimed) input =
  let sys = System.create ?mode ?bus ~bindings:(bindings ()) (policy ()) in
  let sessions =
    Array.mapi
      (fun i o ->
        let s = timer.call "system.new_session" i (fun () -> System.new_session sys ~user:o.user) in
        List.iter
          (fun r -> Rbac.Session.activate s r)
          (Rbac.Policy.assigned_roles (System.policy sys) o.user);
        timer.call "system.arrive" i (fun () ->
            System.arrive sys ~object_id:o.id ~server:o.home ~time:Q.zero);
        timer.call "system.join" i (fun () -> System.join_team sys ~object_id:o.id ~team:o.team);
        s)
      input.objs
  in
  { sys; sessions }

(* Execute the op list; returns the verdicts, in check order. *)
let execute ?(timer = untimed) live input =
  let verdicts = Array.make input.checks Coordinated.Decision.Granted in
  let k = ref 0 in
  Array.iteri
    (fun i op ->
      let time = Q.of_int (i + 1) in
      match op with
      | Check (o, access) ->
          let obj = input.objs.(o) in
          verdicts.(!k) <-
            timer.call "system.check" i (fun () ->
                System.check live.sys ~session:live.sessions.(o) ~object_id:obj.id
                  ~program:obj.program ~time access);
          incr k
      | Arrive (o, server) ->
          timer.call "system.arrive" i (fun () ->
              System.arrive live.sys ~object_id:input.objs.(o).id ~server ~time)
      | Join (o, team) ->
          timer.call "system.join" i (fun () ->
              System.join_team live.sys ~object_id:input.objs.(o).id ~team))
    input.ops;
  verdicts

let render_verdict v = Format.asprintf "%a" Coordinated.Decision.pp_verdict v

(* The oracle: the same op list replayed in Naive mode, the seed's
   linear decision path, rendered to strings (denial reasons
   included). *)
let oracle input = Array.map render_verdict (execute (build ~mode:System.Naive input) input)

(* Index of the first verdict that differs from the oracle, if any. *)
let gate ~expected verdicts =
  let n = Array.length expected in
  if Array.length verdicts <> n then Some (min n (Array.length verdicts))
  else
    let rec go i =
      if i = n then None
      else if String.equal expected.(i) (render_verdict verdicts.(i)) then go (i + 1)
      else Some i
    in
    go 0

let round input =
  let t0 = Clock.now_ns () in
  let live = build input in
  let setup_s = Clock.seconds_since t0 in
  let lat = Pct.Buf.create input.checks in
  let timer =
    {
      call =
        (fun name _ f ->
          if name = "system.check" then begin
            let s = Clock.now_ns () in
            let v = f () in
            Pct.Buf.add lat (Clock.now_ns () - s);
            v
          end
          else f ());
    }
  in
  let t1 = Clock.now_ns () in
  let verdicts = execute ~timer live input in
  let elapsed_s = Clock.seconds_since t1 in
  ({ Report.setup_s; elapsed_s; ops = input.checks; lat = Pct.Buf.to_array lat }, verdicts)

let ops_per_round = 12_000

let timed ~seconds ~seed =
  let input = generate ~seed ~ops:ops_per_round in
  let expected = oracle input in
  let mismatch = ref None in
  let rounds =
    Report.run_rounds ~seconds ~min_rounds:3 (fun _ ->
        let r, verdicts = round input in
        (match (!mismatch, gate ~expected verdicts) with
        | None, Some i -> mismatch := Some i
        | _ -> ());
        r)
  in
  (match !mismatch with
  | Some i -> Printf.eprintf "decide-history: check %d differs from the Naive replay\n" i
  | None -> ());
  {
    Report.correct = !mismatch = None;
    attempted = List.length rounds * Array.length input.ops;
    failed = 0;
    metrics =
      Report.end_to_end rounds ~rate:"decisions_per_s: System.check calls/s"
        ~latency:"decide_p*_us: one System.check call"
        ~rss_mb:(float_of_int (Proc.vm_hwm_kb None) /. 1024.)
        ~rss_note:"VmHWM of the benchmark process";
  }

(* ------------------------------------------------------------------ *)
(* The traced probe. *)

let stage_names = [ Obs.Trace.Rbac; Obs.Trace.Spatial; Obs.Trace.Temporal ]

let traced ~seed spans =
  let input = generate ~seed ~ops:ops_per_round in
  let stage_buf = List.map (fun s -> (s, Pct.Buf.create input.checks)) stage_names in
  let current = ref (-1) and current_req = ref (-1) in
  let probes = ref 0 and hits = ref 0 in
  let bus = Obs.Bus.create ~clock:Clock.now_i64 () in
  let capture, captured = Obs.Sink.memory () in
  Obs.Bus.subscribe bus capture;
  Obs.Bus.subscribe bus
    (Obs.Sink.make ~name:"bench-spans" (function
      | Obs.Trace.Stage_end { stage; elapsed_ns; _ } ->
          let e = Clock.now_ns () and d = Int64.to_int elapsed_ns in
          Pct.Buf.add (List.assoc stage stage_buf) d;
          ignore
            (Spans.add spans
               ~name:("decision." ^ Obs.Trace.stage_name stage)
               ~parent:!current ~req:!current_req ~start_ns:(e - d) ~end_ns:e ())
      | Obs.Trace.Cache_probe { hit; _ } ->
          incr probes;
          if hit then incr hits
      | _ -> ()));
  let live_ref = ref None in
  let history = ref 0 in
  let timer =
    {
      call =
        (fun name k f ->
          (match (name, !live_ref) with
          | "system.check", Some live -> (
              match input.ops.(k) with
              | Check (o, _) ->
                  history :=
                    !history
                    + Sral.Trace.length
                        (Coordinated.Monitor.performed
                           (System.monitor live.sys ~object_id:input.objs.(o).id))
              | _ -> ())
          | _ -> ());
          Spans.time spans ~name:("decide." ^ name) ~req:k (fun id ->
              current := id;
              current_req := k;
              f ()));
    }
  in
  let live = build ~bus ~timer input in
  live_ref := Some live;
  let emitted0 = Obs.Bus.emitted bus in
  let verdicts = execute ~timer live input in
  let emitted = Obs.Bus.emitted bus - emitted0 in
  (* the standing sink every system has is its audit log: replay the
     captured events into a bus holding only that *)
  let events = captured () in
  let replay_bus = Obs.Bus.create () in
  Obs.Bus.subscribe replay_bus (Coordinated.Audit_log.sink (Coordinated.Audit_log.create ()));
  let t0 = Clock.now_ns () in
  List.iter (Obs.Bus.emit replay_bus) events;
  let emit_ns = float_of_int (Clock.now_ns () - t0) /. float_of_int (max 1 (List.length events)) in
  (* untraced: the timed run's round, for the overhead and the gc deltas *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let plain, _ = round input in
  let g1 = Gc.quick_stat () in
  (* allocation of System.check alone, no sinks beyond the audit log *)
  let calib =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let words = ref 0. in
  let alloc_timer =
    {
      call =
        (fun name _ f ->
          if name = "system.check" then begin
            let a = Gc.minor_words () in
            let v = f () in
            words := !words +. (Gc.minor_words () -. a -. calib);
            v
          end
          else f ());
    }
  in
  ignore (execute ~timer:alloc_timer (build input) input);
  let expected = oracle input in
  let tot = Spans.totals spans in
  let checks = float_of_int input.checks in
  let granted =
    Array.fold_left (fun a v -> if Coordinated.Decision.is_granted v then a + 1 else a) 0 verdicts
  in
  let stage s =
    let a = Pct.sorted_ints (Pct.Buf.to_array (List.assoc s stage_buf)) in
    let name = "decision." ^ Obs.Trace.stage_name s in
    let n = Array.length a in
    let mean = if n = 0 then 0. else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n in
    [
      Report.metric (name ^ "_ns") "ns" ~samples:n ~note:"mean Stage_end span" mean;
      Report.metric (name ^ "_p99_ns") "ns" ~samples:n ~note:"Stage_end span, nearest rank"
        (if n = 0 then 0. else float_of_int (Pct.of_sorted ~p:99. a));
    ]
  in
  let untraced_check = Pct.mean_float (List.map float_of_int (Array.to_list plain.Report.lat)) in
  let mean name = Spans.mean_ns tot ("decide." ^ name) in
  {
    Report.metrics =
      List.concat_map stage stage_names
      @ [
          Report.metric "decision.check_ns" "ns" ~samples:input.checks
            ~note:"System.check on a clocked bus" (mean "system.check");
          Report.metric "decision.granted_ratio" "ratio" ~samples:input.checks
            (float_of_int granted /. checks);
          Report.metric "decision.cache_hit_ratio" "ratio" ~samples:!probes
            ~note:"verdict-cache probes that hit"
            (if !probes = 0 then 0. else float_of_int !hits /. float_of_int !probes);
          Report.metric "decision.minor_words_per_check" "words" ~samples:input.checks
            ~note:"no sinks beyond the audit log" (!words /. checks);
          Report.metric "system.arrive_ns" "ns" ~samples:(Spans.count tot "decide.system.arrive")
            (mean "system.arrive");
          Report.metric "system.join_ns" "ns" ~samples:(Spans.count tot "decide.system.join")
            (mean "system.join");
          Report.metric "system.new_session_ns" "ns"
            ~samples:(Spans.count tot "decide.system.new_session") (mean "system.new_session");
          Report.metric "monitor.history_len_mean" "count" ~samples:input.checks
            ~note:"own performed history at check time"
            (float_of_int !history /. checks);
          Report.metric "bus.emit_ns_per_event" "ns" ~samples:(List.length events)
            ~note:"replay into a bus with the audit log" emit_ns;
          Report.metric "bus.events_per_check" "count" ~samples:input.checks
            (float_of_int emitted /. checks);
        ];
    gc_ops = Array.length input.ops + (3 * objects);
    gc = (g0, g1);
    overhead = (mean "system.check" /. untraced_check) -. 1.;
    correct = gate ~expected verdicts = None;
    attempted = Array.length input.ops;
    failed = 0;
  }
