module Q = Temporal.Q

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let default_servers = [ "s1"; "s2" ]
let default_resources = [ "r1"; "r2"; "r3" ]
let users = [ "u1"; "u2" ]
let roles = [ "ra"; "rb"; "rc" ]
let team_names = [ "crew"; "b-team" ]

(* The seed repo's fuzz binding mix: a Performed-scope cardinality cap,
   two duration budgets under both base-time schemes, and a Team-scope
   execute cap. *)
let base_bindings ~resources rng =
  List.filteri
    (fun _ _ -> Random.State.bool rng)
    [
      Coordinated.Perm_binding.make
        ~spatial:
          (Srac.Formula.at_most
             (1 + Random.State.int rng 4)
             (Srac.Selector.Resource (pick rng resources)))
        ~spatial_scope:Coordinated.Perm_binding.Performed
        (Rbac.Perm.make ~operation:"*" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~dur:(Q.of_int (2 + Random.State.int rng 10))
        (Rbac.Perm.make ~operation:"read" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~dur:(Q.of_int (1 + Random.State.int rng 5))
        ~scheme:Temporal.Validity.Per_server
        (Rbac.Perm.make ~operation:"write" ~target:"*@*");
      Coordinated.Perm_binding.make
        ~spatial:
          (Srac.Formula.at_most
             (2 + Random.State.int rng 4)
             (Srac.Selector.Op Sral.Access.Execute))
        ~spatial_scope:Coordinated.Perm_binding.Performed
        ~proof_scope:Coordinated.Perm_binding.Team
        (Rbac.Perm.make ~operation:"execute" ~target:"*@*");
    ]

(* plus program-scope and Both-scope shapes so the lazy path's
   program-check memo and team folds get exercised *)
let bindings ~resources rng =
  base_bindings ~resources rng
  @ List.filteri
      (fun _ _ -> Random.State.bool rng)
      [
        Coordinated.Perm_binding.make
          ~spatial:
            (Srac.Formula.at_most
               (1 + Random.State.int rng 3)
               (Srac.Selector.Resource (pick rng resources)))
          ~spatial_modality:
            (if Random.State.bool rng then Srac.Program_sat.Exists
             else Srac.Program_sat.Forall)
          ~spatial_scope:Coordinated.Perm_binding.Program
          (Rbac.Perm.make ~operation:"read" ~target:"*@*");
        Coordinated.Perm_binding.make
          ~spatial:
            (Srac.Formula.at_most
               (1 + Random.State.int rng 4)
               (Srac.Selector.Op Sral.Access.Write))
          ~spatial_scope:Coordinated.Perm_binding.Both
          ~proof_scope:Coordinated.Perm_binding.Team
          ~dur:(Q.of_int (3 + Random.State.int rng 8))
          (Rbac.Perm.make ~operation:"write" ~target:"*@*");
      ]

let access ~resources ~servers rng =
  Sral.Generate.access
    ~ops:[ Sral.Access.Read; Sral.Access.Write; Sral.Access.Execute ]
    ~resources ~servers rng

let grants ~resources ~servers rng =
  List.concat_map
    (fun role ->
      List.filter_map
        (fun op ->
          if Random.State.bool rng then
            let target =
              match Random.State.int rng 3 with
              | 0 -> "*@*"
              | 1 -> pick rng resources ^ "@*"
              | _ -> pick rng resources ^ "@" ^ pick rng servers
            in
            Some (role, Rbac.Perm.make ~operation:op ~target)
          else None)
        [ "read"; "write"; "execute" ])
    roles

let assignments rng =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun r -> if Random.State.bool rng then Some (u, r) else None)
        roles)
    users

let objects ~count ~resources ~servers rng =
  List.init count (fun i ->
      {
        Scenario.id = Printf.sprintf "o%d" (i + 1);
        owner = pick rng users;
        roles = List.filter (fun _ -> Random.State.bool rng) roles;
        program =
          Sral.Generate.program ~allow_io:false ~resources ~servers
            ~size:(3 + Random.State.int rng 6)
            rng;
      })

let scenario ?(servers = default_servers) ?(resources = default_resources)
    ?objects:obj_count ?events:event_count ?(teams = true) ?(faults = false)
    rng =
  let obj_count =
    match obj_count with Some n -> n | None -> 2 + Random.State.int rng 3
  in
  let objs = objects ~count:obj_count ~resources ~servers rng in
  let extra = bindings ~resources rng in
  let obj () = (pick rng objs).Scenario.id in
  let event_count =
    match event_count with Some n -> n | None -> 15 + Random.State.int rng 25
  in
  let events =
    (* everyone arrives somewhere first, then a random event stream *)
    List.map
      (fun (o : Scenario.obj) -> Scenario.Arrive (o.id, pick rng servers))
      objs
    @ List.init event_count (fun _ ->
          match Random.State.int rng 12 with
          | 0 | 1 -> Scenario.Arrive (obj (), pick rng servers)
          | 2 when teams -> Scenario.Join (obj (), pick rng team_names)
          | 3 -> Scenario.Activate (obj (), pick rng roles)
          | 4 -> Scenario.Deactivate (obj (), pick rng roles)
          | 5 when extra <> [] -> Scenario.Add_binding (pick rng extra)
          | 2 | 6 -> Scenario.Refresh (obj ())
          | _ -> Scenario.Check (obj (), access ~resources ~servers rng))
  in
  let plan =
    if not faults then None
    else
      let name = pick rng [ "light"; "moderate"; "heavy" ] in
      let horizon = List.length events + 2 in
      Some
        (Fault.Plan.of_name name
           ~seed:(Random.State.int rng 1_000_000)
           ~servers ~horizon)
  in
  {
    Scenario.users;
    roles;
    grants = grants ~resources ~servers rng;
    assignments = assignments rng;
    bindings = bindings ~resources rng;
    objects = objs;
    events;
    plan;
  }

(* One very large coalition in team-closed blocks: object [i] joins
   team "blk<i/block>", so {!Partition.assign} recovers components of
   exactly [block] objects and object-level sharding has [objects /
   block] units to balance.  Programs come from a small shared pool
   (the program-check memo sees real reuse, and generation
   stays linear); every per-object lookup below is array-indexed, so
   building 10^4..10^5 objects is cheap. *)
let big_coalition ?(servers = default_servers)
    ?(resources = default_resources) ?(block = 8) ?(checks_per_object = 2)
    ~objects:count rng =
  let pool =
    Array.init 32 (fun _ ->
        Sral.Generate.program ~allow_io:false ~resources ~servers
          ~size:(3 + Random.State.int rng 6)
          rng)
  in
  let objs =
    Array.init count (fun i ->
        {
          Scenario.id = Printf.sprintf "o%d" (i + 1);
          owner = pick rng users;
          roles = List.filter (fun _ -> Random.State.bool rng) roles;
          program = pool.(Random.State.int rng (Array.length pool));
        })
  in
  let arrivals =
    List.init count (fun i ->
        Scenario.Arrive (objs.(i).Scenario.id, pick rng servers))
  in
  let joins =
    List.init count (fun i ->
        Scenario.Join
          (objs.(i).Scenario.id, Printf.sprintf "blk%d" (i / block)))
  in
  (* checks interleave across the population round by round, so no
     shard's work clusters at one end of the event stream *)
  let checks =
    List.concat
      (List.init checks_per_object (fun _ ->
           List.init count (fun i ->
               Scenario.Check
                 (objs.(i).Scenario.id, access ~resources ~servers rng))))
  in
  {
    Scenario.users;
    roles;
    grants = grants ~resources ~servers rng;
    assignments = assignments rng;
    bindings = bindings ~resources rng;
    objects = Array.to_list objs;
    events = arrivals @ joins @ checks;
    plan = None;
  }

let coalitions ?servers ?resources ?objects ?events ?teams ?faults ~salt ~count
    seed =
  Array.init count (fun i ->
      let rng = Random.State.make [| salt; seed; i |] in
      scenario ?servers ?resources ?objects ?events ?teams ?faults rng)
