(* Per-monitor state of the lazy-derivative decision path
   (Decision.decide_lazy).

   Each monitor owns one [store]: a slot per permission binding it has
   evaluated (holding the binding's lazy constraint machine, residual
   cursors into the object's / team's performed history, a
   version-stamped RBAC activation bit and the binding's activation
   change cell), a per-access RBAC verdict cache, and the monitor's
   sub-histories for the Team-scope bindings that have read its
   proofs.  Everything here is stamp-invalidated, never evicted: the
   bindings and accesses a monitor sees are bounded by the policy, not
   by traffic.

   All three tables are arrays indexed by dense ids, so the warm path
   hashes nothing: slots and subs by the binding's position in the
   system's {!Binding_index}, RBAC verdicts by the access's
   {!Sral.Access.Ids} id in the system's interner.  A slot or sub
   remembers the binding it was built for and is rebuilt if a caller
   ever presents a different binding (by identity) under its id, so a
   caller numbering bindings inconsistently gets slow answers, never
   wrong ones. *)

type cell = (Temporal.Q.t * bool) list ref
(* a monitor activation-change list (newest first), shared with
   Monitor.activations — cached in the slot so the hot path skips the
   hashtable probe *)

(* One team member's part of a Team-scope binding's history: the
   member's proof entries the binding's constraint can see (the
   non-inert ones, {!Srac.Lazy_dfa.inert}), in issue order. *)
type sub = {
  owner : Perm_binding.t option;  (* the binding whose constraint filtered it *)
  mutable entries : Srac.Proof.entry array;
  mutable len : int;
  mutable scanned : int;  (* member proof entries examined so far *)
  mutable pos : int;  (* merge cursor, reset by every team fold *)
}

let no_entry =
  {
    Srac.Proof.access = Sral.Access.read "" ~at:"";
    id = -1;
    time = Temporal.Q.zero;
  }

let new_sub b = { owner = Some b; entries = [||]; len = 0; scanned = 0; pos = 0 }

(* the merge's "nothing left" candidate; never written *)
let exhausted = { owner = None; entries = [||]; len = 0; scanned = 0; pos = 0 }

let push sub e =
  if sub.len = Array.length sub.entries then begin
    let bigger = Array.make (max 4 (2 * sub.len)) no_entry in
    Array.blit sub.entries 0 bigger 0 sub.len;
    sub.entries <- bigger
  end;
  sub.entries.(sub.len) <- e;
  sub.len <- sub.len + 1

type slot = {
  binding : Perm_binding.t;  (* the binding the slot was built for *)
  mutable machine : Srac.Lazy_dfa.t option;
      (* present iff the binding has a Performed/Both spatial scope *)
  cell : cell;
  mutable own_state : int;  (* residual state after own performed trace *)
  mutable own_consumed : int;  (* own history entries folded so far *)
  mutable team_state : int;  (* residual state after the team's trace *)
  mutable team_subs : sub list;
      (* the members' subs that state was folded from, requester
         first; [] = not folded yet *)
  mutable team_len : int;  (* their summed lengths at that fold *)
  mutable may_session : Rbac.Session.t;
  mutable may_version : int;
  mutable may_ok : bool;  (* Rbac.Session.may for the binding's perm *)
  mutable prog_program : Sral.Ast.t option;
      (* the program [prog_result] was computed for, by identity — the
         monitor's spatial memo keys on a formatted permission string
         rebuilt per probe, too costly for the warm path *)
  mutable prog_result : (unit, string) result;
}

type rbac_entry = {
  mutable r_session : Rbac.Session.t;
  mutable r_version : int;
  mutable r_verdict : Rbac.Engine.verdict;
}

type store = {
  mutable slots : slot option array;  (* by binding id *)
  mutable rbac : rbac_entry option array;  (* by access id *)
  mutable subs : sub option array;
      (* per Team-scope binding id; empty until the monitor first
         serves as a team member *)
}

let create () = { slots = [||]; rbac = [||]; subs = [||] }

(* An id-indexed table's entry; [None] past its end. *)
let find a id = if id < Array.length a then a.(id) else None

(* Grow an id-indexed table so that [id] is in range. *)
let ensure a id =
  if id < Array.length a then a
  else begin
    let bigger = Array.make (max (2 * Array.length a) (max 8 (id + 1))) None in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end
