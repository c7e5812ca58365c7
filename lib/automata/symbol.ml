type t = int

module Access_tbl = Sral.Access.Tbl

type table = {
  ids : int Access_tbl.t;
  mutable backing : Sral.Access.t array;
  mutable count : int;
}

let dummy = Sral.Access.read "" ~at:""

let create () = { ids = Access_tbl.create 16; backing = Array.make 8 dummy; count = 0 }

let intern tbl a =
  match Access_tbl.find_opt tbl.ids a with
  | Some id -> id
  | None ->
      let id = tbl.count in
      if id >= Array.length tbl.backing then begin
        let bigger = Array.make (2 * Array.length tbl.backing) dummy in
        Array.blit tbl.backing 0 bigger 0 tbl.count;
        tbl.backing <- bigger
      end;
      tbl.backing.(id) <- a;
      tbl.count <- id + 1;
      Access_tbl.add tbl.ids a id;
      id

let of_accesses accesses =
  let tbl = create () in
  List.iter (fun a -> ignore (intern tbl a)) accesses;
  tbl

let find tbl a = Access_tbl.find_opt tbl.ids a

let access tbl id =
  if id < 0 || id >= tbl.count then invalid_arg "Symbol.access: bad symbol"
  else tbl.backing.(id)

let size tbl = tbl.count
let alphabet tbl = List.init tbl.count Fun.id
let accesses tbl = List.init tbl.count (fun i -> tbl.backing.(i))
let pp_symbol tbl ppf id = Sral.Access.pp ppf (access tbl id)
