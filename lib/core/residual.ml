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

   Slots are keyed by the binding value *physically*: bindings are
   immutable and the binding index hands out the same objects on every
   lookup, and two structurally-equal bindings are semantically
   interchangeable, so distinct slots for them are merely harmless
   duplicates.  (Keying by [Perm_binding.key] would be wrong: two
   bindings may share a permission but carry different spatial
   constraints.) *)

module Binding_tbl = Hashtbl.Make (struct
  type t = Perm_binding.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Access_tbl = Sral.Access.Tbl

type cell = (Temporal.Q.t * bool) list ref
(* a monitor activation-change list (newest first), shared with
   Monitor.activations — cached in the slot so the hot path skips the
   hashtable probe *)

(* One team member's part of a Team-scope binding's history: the
   member's proof entries the binding's constraint can see (the
   non-inert ones, {!Srac.Lazy_dfa.inert}), in issue order. *)
type sub = {
  mutable entries : Srac.Proof.entry array;
  mutable len : int;
  mutable scanned : int;  (* member proof entries examined so far *)
  mutable pos : int;  (* merge cursor, reset by every team fold *)
}

let no_entry =
  { Srac.Proof.access = Sral.Access.read "" ~at:""; time = Temporal.Q.zero }

let new_sub () = { entries = [||]; len = 0; scanned = 0; pos = 0 }

(* the merge's "nothing left" candidate; never written *)
let exhausted = new_sub ()

let push sub e =
  if sub.len = Array.length sub.entries then begin
    let bigger = Array.make (max 4 (2 * sub.len)) no_entry in
    Array.blit sub.entries 0 bigger 0 sub.len;
    sub.entries <- bigger
  end;
  sub.entries.(sub.len) <- e;
  sub.len <- sub.len + 1

type slot = {
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
  slots : slot Binding_tbl.t;
  rbac : rbac_entry Access_tbl.t;
  mutable subs : sub Binding_tbl.t option;
      (* per Team-scope binding; created on first use, since most
         monitors never serve as a team member *)
}

let create () =
  { slots = Binding_tbl.create 8; rbac = Access_tbl.create 8; subs = None }
