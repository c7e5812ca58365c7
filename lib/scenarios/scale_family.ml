module Q = Temporal.Q

let resources = [ "r1"; "r2"; "r3" ]

(* One permissive policy shared by the big-coalition builds: a single
   worker role with a wildcard grant, so decision cost is the flat
   lazy path and the benchmark measures the engine, not the policy. *)
let permissive_control () =
  let p = Rbac.Policy.create () in
  Rbac.Policy.add_user p "u1";
  Rbac.Policy.add_role p "worker";
  Rbac.Policy.grant p "worker" (Rbac.Perm.make ~operation:"*" ~target:"*@*");
  Rbac.Policy.assign_user p "u1" "worker";
  Coordinated.System.create ~bindings:[] p

module Drive (W : Naplet.World_intf.S) = struct
  (* ------------------------------------------------------------------
     Randomized small coalitions — the conformance corpus.  Everything
     is drawn from (salt, seed) through the same code path for both
     engines, so equal inputs must yield byte-equal exported traces. *)

  let random_trace ?(faults = true) ~salt ~seed () =
    let rng = Random.State.make [| salt; seed |] in
    let n_servers = 2 + Random.State.int rng 3 in
    let server_names =
      List.init n_servers (fun i -> Printf.sprintf "s%d" (i + 1))
    in
    let policy = Rbac.Policy.create () in
    List.iter (Rbac.Policy.add_user policy) Parallel.Workload.users;
    List.iter (Rbac.Policy.add_role policy) Parallel.Workload.roles;
    List.iter
      (fun (role, perm) -> Rbac.Policy.grant policy role perm)
      (Parallel.Workload.grants ~resources ~servers:server_names rng);
    List.iter
      (fun (u, r) -> Rbac.Policy.assign_user policy u r)
      (Parallel.Workload.assignments rng);
    let bindings = Parallel.Workload.bindings ~resources rng in
    let control = Coordinated.System.create ~bindings policy in
    let sink, captured = Obs.Sink.memory () in
    Obs.Bus.subscribe (Coordinated.System.bus control) sink;
    let world = W.create control in
    List.iter
      (fun name ->
        let capacity = 1 + Random.State.int rng 2 in
        let access_duration =
          if Random.State.bool rng then Q.one else Q.make 1 2
        in
        let s = Naplet.Server.create ~access_duration ~capacity name in
        List.iter
          (fun r -> Naplet.Server.put_resource s ~name:r ~contents:(r ^ "@" ^ name))
          resources;
        W.add_server world s)
      server_names;
    (if faults && Random.State.int rng 3 > 0 then
       let name =
         Parallel.Workload.pick rng [ "light"; "moderate"; "heavy" ]
       in
       let plan =
         Fault.Plan.of_name name
           ~seed:(Random.State.int rng 1_000_000)
           ~servers:server_names ~horizon:60
       in
       let injector = Fault.Injector.create ~seed:(Random.State.int rng 1_000_000) plan in
       let resilience = Fault.Resilience.make ~recv_timeout:(Q.of_int 25) () in
       W.set_faults ~resilience world injector);
    let n_agents = 3 + Random.State.int rng 8 in
    for i = 1 to n_agents do
      let id = Printf.sprintf "o%d" i in
      let owner = Parallel.Workload.pick rng Parallel.Workload.users in
      let roles =
        List.filter (fun _ -> Random.State.bool rng) Parallel.Workload.roles
      in
      let home = Parallel.Workload.pick rng server_names in
      let program =
        Sral.Generate.program ~allow_io:true ~resources ~servers:server_names
          ~size:(4 + Random.State.int rng 8)
          rng
      in
      let team =
        if Random.State.int rng 3 = 0 then
          Some (Parallel.Workload.pick rng Parallel.Workload.team_names)
        else None
      in
      W.spawn ?team world ~id ~owner ~roles ~home program
    done;
    (* a mid-run administrative intervention through the public [at]
       API, so the closure-carrying admin path stays covered *)
    if Random.State.bool rng then begin
      let extra = Parallel.Workload.bindings ~resources rng in
      match extra with
      | [] -> ()
      | b :: _ ->
          W.at world
            ~time:(Q.of_int (1 + Random.State.int rng 20))
            (fun () -> Coordinated.System.add_binding control b)
    end;
    ignore (W.run world);
    Obs.Export.to_string (captured ())

  (* ------------------------------------------------------------------
     Big uniform coalitions — the scaling benchmark.  [objects] agents
     spread over [servers] servers; programs are shared ASTs (two local
     reads, with every 100th agent hopping to the next server so the
     migration path stays warm), so per-agent state is the machine +
     the SoA row, not a private program tree. *)

  let build_big ?(config = W.default_config) ~objects ~servers () =
    let control = permissive_control () in
    let world = W.create ~config control in
    let server_names =
      Array.init servers (fun i -> Printf.sprintf "s%d" (i + 1))
    in
    Array.iter
      (fun name ->
        let s = Naplet.Server.create ~capacity:4 name in
        Naplet.Server.put_resource s ~name:"r1" ~contents:"blob";
        W.add_server world s)
      server_names;
    let local_program =
      Array.map
        (fun s ->
          let a = Sral.Access.read "r1" ~at:s in
          Sral.Ast.seq [ Sral.Ast.Access a; Sral.Ast.Access a ])
        server_names
    in
    let hop_program =
      Array.mapi
        (fun i s ->
          let next = server_names.((i + 1) mod servers) in
          Sral.Ast.seq
            [
              Sral.Ast.Access (Sral.Access.read "r1" ~at:s);
              Sral.Ast.Access (Sral.Access.read "r1" ~at:next);
            ])
        server_names
    in
    for i = 0 to objects - 1 do
      let home = i mod servers in
      let program =
        if i mod 100 = 0 then hop_program.(home) else local_program.(home)
      in
      W.spawn world
        ~id:(Printf.sprintf "o%d" (i + 1))
        ~owner:"u1" ~roles:[ "worker" ]
        ~home:server_names.(home)
        program
    done;
    world
end

module Soa = Drive (Naplet.World)
module Legacy = Drive (Naplet.World_legacy)

(* The conformance gate: identical coalitions through both engines,
   byte-compared.  Returns the divergent seeds (empty = conformant). *)
let divergences ?(salt = 1919) ~runs offset =
  let diverged = ref [] in
  for seed = offset to offset + runs - 1 do
    let soa = Soa.random_trace ~salt ~seed () in
    let legacy = Legacy.random_trace ~salt ~seed () in
    if not (String.equal soa legacy) then diverged := seed :: !diverged
  done;
  List.rev !diverged
