module Q = Temporal.Q

let servers = [ "s1"; "s2"; "s3" ]
let horizon = 120

type report = {
  plan : Fault.Plan.t;
  seed : int;
  mode : Coordinated.System.decision_mode;
  metrics : Naplet.Metrics.t;
  trace : Obs.Trace.event list;
  violations : Fault.Invariant.violation list;
  routes : (string * string list) list;
}

(* Each courier gets a ring itinerary with an [Alt] middle leg, so a
   crashed alternative has a live detour. *)
let courier_itinerary i =
  let open Naplet.Itinerary in
  match i mod 3 with
  | 0 -> Seq [ Visit "s1"; Alt [ Visit "s2"; Visit "s3" ]; Visit "s1" ]
  | 1 -> Seq [ Visit "s2"; Alt [ Visit "s3"; Visit "s1" ]; Visit "s2" ]
  | _ -> Seq [ Visit "s3"; Alt [ Visit "s1"; Visit "s2" ]; Visit "s3" ]

let task server =
  Sral.Ast.Access (Sral.Access.custom "hash" "status" ~at:server)

let courier_route plan i =
  (* route around servers already down at dispatch; mid-run crashes are
     handled by the retry/fail-closed machinery instead *)
  let down s = Fault.Plan.server_down plan ~server:s ~time:Q.zero in
  Naplet.Itinerary.linearize_avoiding ~down (courier_itinerary i)

let producer_program messages =
  Sral.Ast.seq
    (List.init messages (fun i ->
         Sral.Ast.Send ("chaos-ch", Sral.Expr.Int i))
    @ [ Sral.Ast.Signal "chaos-done" ])

let consumer_program messages =
  Sral.Ast.seq
    (List.init messages (fun i ->
         Sral.Ast.Recv ("chaos-ch", Printf.sprintf "x%d" i))
    @ [ Sral.Ast.Wait "chaos-done" ])

let build_control ~mode =
  let policy = Rbac.Policy.create () in
  Rbac.Policy.add_user policy "auditor";
  Rbac.Policy.add_role policy "system_auditor";
  Rbac.Policy.assign_user policy "auditor" "system_auditor";
  Rbac.Policy.grant policy "system_auditor"
    (Rbac.Perm.make ~operation:"hash" ~target:"*@*");
  Coordinated.System.create ~mode policy

let run ?(mode = Coordinated.System.Lazy) ?(plan_name = "moderate")
    ?(seed = 42) ?(couriers = 4) ?(messages = 4) () =
  let control = build_control ~mode in
  let capture, trace = Obs.Sink.memory () in
  Obs.Bus.subscribe (Coordinated.System.bus control) capture;
  let world = Naplet.World.create control in
  List.iter
    (fun s -> Naplet.World.add_server world (Naplet.Server.create s))
    servers;
  let plan = Fault.Plan.of_name plan_name ~seed ~servers ~horizon in
  let injector = Fault.Injector.create ~seed plan in
  let resilience = Fault.Resilience.make ~recv_timeout:(Q.of_int 30) () in
  Naplet.World.set_faults ~resilience world injector;
  (* the Figure-1 audit itinerary, now under chaos *)
  Naplet.World.spawn world ~id:"audit-naplet" ~owner:"auditor"
    ~roles:[ "system_auditor" ] ~home:"s1"
    (Integrity_audit.audit_program ());
  (* couriers: rerouted itineraries *)
  let routes =
    List.init couriers (fun i ->
        let id = Printf.sprintf "courier-%d" i in
        let route = courier_route plan i in
        let home = List.nth servers (i mod List.length servers) in
        Naplet.World.spawn world ~id ~owner:"auditor"
          ~roles:[ "system_auditor" ] ~home
          (Sral.Ast.seq (List.map task route));
        (id, route))
  in
  (* channel + signal traffic exposed to drop/delay/duplicate/loss *)
  Naplet.World.spawn world ~id:"chaos-producer" ~owner:"auditor"
    ~roles:[ "system_auditor" ] ~home:"s1" (producer_program messages);
  Naplet.World.spawn world ~id:"chaos-consumer" ~owner:"auditor"
    ~roles:[ "system_auditor" ] ~home:"s2" (consumer_program messages);
  let metrics = Naplet.World.run world in
  let trace = trace () in
  let violations = Fault.Invariant.check ~plan trace in
  { plan; seed; mode; metrics; trace; violations; routes }

let export report = Obs.Export.to_string report.trace
