type operation = Read | Write | Execute | Custom of string

type t = { op : operation; resource : string; server : string }

let make ~op ~resource ~server = { op; resource; server }
let read resource ~at = { op = Read; resource; server = at }
let write resource ~at = { op = Write; resource; server = at }
let execute resource ~at = { op = Execute; resource; server = at }
let custom name resource ~at = { op = Custom name; resource; server = at }

let operation_name = function
  | Read -> "read"
  | Write -> "write"
  | Execute -> "execute"
  | Custom name -> name

let operation_of_name = function
  | "read" -> Read
  | "write" -> Write
  | "execute" -> Execute
  | name -> Custom name

let compare_operation op1 op2 =
  match (op1, op2) with
  | Read, Read | Write, Write | Execute, Execute -> 0
  | Custom n1, Custom n2 -> String.compare n1 n2
  | Read, _ -> -1
  | _, Read -> 1
  | Write, _ -> -1
  | _, Write -> 1
  | Execute, _ -> -1
  | _, Execute -> 1

let compare a1 a2 =
  let c = compare_operation a1.op a2.op in
  if c <> 0 then c
  else
    let c = String.compare a1.resource a2.resource in
    if c <> 0 then c else String.compare a1.server a2.server

let equal a1 a2 = compare a1 a2 = 0
(* combined without building a tuple: this hash sits on allocation-free
   hot paths (symbol interning, per-access RBAC and binding memos) *)
let hash a =
  let h = Hashtbl.hash (operation_name a.op) in
  let h = (h * 131) + Hashtbl.hash a.resource in
  let h = (h * 131) + Hashtbl.hash a.server in
  h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Ids = struct
  type access = t
  type t = int Tbl.t  (* ids run 0, 1, 2, ... in order of first sight *)

  let create () = Tbl.create 64

  let intern t a =
    match Tbl.find t a with
    | id -> id
    | exception Not_found ->
        let id = Tbl.length t in
        Tbl.add t a id;
        id

  let count = Tbl.length
end

let pp_operation ppf op = Format.pp_print_string ppf (operation_name op)

let pp ppf a =
  match a.op with
  | Read | Write | Execute ->
      Format.fprintf ppf "%a %s @@ %s" pp_operation a.op a.resource a.server
  | Custom name ->
      Format.fprintf ppf "op(%s) %s @@ %s" name a.resource a.server

let to_string a = Format.asprintf "%a" pp a
