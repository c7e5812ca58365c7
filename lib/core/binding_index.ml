(* Append-only store of permission bindings with a bucket index over
   the (operation, resource, server) pattern of each binding's
   permission.  Buckets are keyed by the pattern fields verbatim
   (wildcards included), so a lookup probes at most the 8 combinations
   of concrete-vs-"*" per field instead of scanning every binding. *)

type entry = int * Perm_binding.t

type t = {
  mutable slots : Perm_binding.t option array;
  mutable len : int;
  buckets : (string, int list ref) Hashtbl.t;  (* reverse insertion order *)
  mutable stamps : int array;
      (* by access id: the [version] [results] was resolved at, or -1 *)
  mutable results : entry list array;  (* by access id *)
}

let create () =
  {
    slots = Array.make 8 None;
    len = 0;
    buckets = Hashtbl.create 16;
    stamps = [||];
    results = [||];
  }

let length t = t.len

(* The store only grows, so the length doubles as a monotone version
   stamp for the per-access memo. *)
let version t = t.len

let bucket_key ~operation ~resource ~server =
  operation ^ ":" ^ resource ^ "@" ^ server

(* Where does this binding's pattern live?  The decomposition mirrors
   Rbac.Perm.matches exactly: structured targets bucket on their two
   fields; the unstructured "*" matches every structured access target;
   any other unstructured pattern matches no coalition access (accesses
   are always spelled "resource@server") and is not indexed at all. *)
let classify (b : Perm_binding.t) =
  let p = b.Perm_binding.perm in
  match Rbac.Perm.split_target p.Rbac.Perm.target with
  | r, Some s ->
      Some (bucket_key ~operation:p.Rbac.Perm.operation ~resource:r ~server:s)
  | "*", None ->
      Some (bucket_key ~operation:p.Rbac.Perm.operation ~resource:"*" ~server:"*")
  | _, None -> None

let add t b =
  if t.len = Array.length t.slots then begin
    let bigger = Array.make (2 * t.len) None in
    Array.blit t.slots 0 bigger 0 t.len;
    t.slots <- bigger
  end;
  let i = t.len in
  t.slots.(i) <- Some b;
  t.len <- i + 1;
  match classify b with
  | None -> ()
  | Some key -> (
      match Hashtbl.find_opt t.buckets key with
      | Some r -> r := i :: !r
      | None -> Hashtbl.add t.buckets key (ref [ i ]))

let of_list bindings =
  let t = create () in
  List.iter (add t) bindings;
  t

let to_list t =
  List.filter_map (fun i -> t.slots.(i)) (List.init t.len Fun.id)

let resolve t (a : Sral.Access.t) =
  let operation = Sral.Access.operation_name a.Sral.Access.op in
  let resource, server =
    (* same first-'@' split the matcher applies to the access target *)
    match Rbac.Perm.split_target (a.resource ^ "@" ^ a.server) with
    | r, Some s -> (r, s)
    | r, None -> (r, "")
  in
  let alts field = if field = "*" then [ "*" ] else [ field; "*" ] in
  let indices =
    List.fold_left
      (fun acc operation ->
        List.fold_left
          (fun acc resource ->
            List.fold_left
              (fun acc server ->
                match
                  Hashtbl.find_opt t.buckets
                    (bucket_key ~operation ~resource ~server)
                with
                | Some r -> List.rev_append !r acc
                | None -> acc)
              acc (alts server))
          acc (alts resource))
      [] (alts operation)
  in
  (* ascending slot index = binding-store insertion order, the order the
     linear scan would have produced *)
  List.sort_uniq Int.compare indices
  |> List.filter_map (fun i ->
         match t.slots.(i) with
         (* buckets are a conservative over-approximation (string
            collisions in exotic resource names are possible); the
            matcher has the last word *)
         | Some b when Perm_binding.applies_to b a -> Some (i, b)
         | _ -> None)

(* Bucket probing builds 8 key strings and sorts; the answer depends
   only on the access and the store's contents, so it is resolved once
   per access id and store version. *)
let applicable t ~id a =
  if id >= 0 && id < Array.length t.stamps && t.stamps.(id) = t.len then
    t.results.(id)
  else begin
    let result = resolve t a in
    if id >= 0 then begin
      if id >= Array.length t.stamps then begin
        let n = max (2 * Array.length t.stamps) (max 16 (id + 1)) in
        let stamps = Array.make n (-1) and results = Array.make n [] in
        Array.blit t.stamps 0 stamps 0 (Array.length t.stamps);
        Array.blit t.results 0 results 0 (Array.length t.results);
        t.stamps <- stamps;
        t.results <- results
      end;
      t.stamps.(id) <- t.len;
      t.results.(id) <- result
    end;
    result
  end
