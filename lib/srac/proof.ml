type entry = { access : Sral.Access.t; id : int; time : Temporal.Q.t }

type store = Store of entry list ref | Always
(* entries kept in reverse issue order *)

let create () = Store (ref [])

let record ?(id = -1) store access ~time =
  match store with
  | Always -> invalid_arg "Proof.record: the Always store is read-only"
  | Store entries -> entries := { access; id; time } :: !entries

let entry_list = function Always -> [] | Store entries -> List.rev !entries

let holds store a =
  match store with
  | Always -> true
  | Store entries -> List.exists (fun e -> Sral.Access.equal e.access a) !entries

let holds_before store a t =
  match store with
  | Always -> true
  | Store entries ->
      List.exists
        (fun e -> Sral.Access.equal e.access a && Temporal.Q.le e.time t)
        !entries

let times store a =
  List.sort Temporal.Q.compare
    (List.filter_map
       (fun e -> if Sral.Access.equal e.access a then Some e.time else None)
       (entry_list store))

let count_matching store pred =
  List.length (List.filter (fun e -> pred e.access) (entry_list store))

let entries = entry_list
let rev_entries = function Always -> [] | Store entries -> !entries

let performed_trace store =
  let by_time =
    List.stable_sort
      (fun e1 e2 -> Temporal.Q.compare e1.time e2.time)
      (entry_list store)
  in
  List.map (fun e -> e.access) by_time

let size store = List.length (entry_list store)

let copy = function
  | Always -> Always
  | Store entries -> Store (ref !entries)

let always = Always
