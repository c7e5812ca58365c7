(** Bindings of spatio-temporal constraints to permissions.

    The paper's extension of RBAC attaches to a permission (i) a
    spatial SRAC constraint that the mobile object's program must be
    able to satisfy for the permission to be active (Eq. 3.1), and
    (ii) a validity duration with a base-time scheme (Eq. 4.1).  A
    binding packages these for one permission pattern; several bindings
    may apply to one access, in which case all must pass. *)

type spatial_scope =
  | Program
      (** the paper's [check(P, C)]: decide against the program's trace
          model (Theorem 3.2's symbolic checker) *)
  | Performed
      (** history-based: the trace performed so far, extended with the
          requested access, must satisfy [C] (Definition 3.6 over the
          execution proofs) — what the "too many times at s₁ ⇒ never at
          s₂" coalition rules need *)
  | Both

type proof_scope =
  | Own  (** only the requesting object's own execution proofs *)
  | Team
      (** the proofs of the whole team the object belongs to — the
          introduction's "previous access actions of the device and
          even of its companions".  Only affects [Performed]/[Both]
          spatial scopes (the program-level check is per-object). *)

type t = {
  perm : Rbac.Perm.t;  (** which permission(s) this binding constrains *)
  spatial : Srac.Formula.t option;  (** [None]: no spatial constraint *)
  spatial_modality : Srac.Program_sat.modality;
      (** [Exists] is the paper's [check(P,C)] ("can satisfy");
          [Forall] suits prohibitions.  Only used for [Program] scope. *)
  spatial_scope : spatial_scope;
  proof_scope : proof_scope;
  dur : Temporal.Q.t option;
      (** validity duration, never negative; [None] = infinite *)
  scheme : Temporal.Validity.scheme;
}

val make :
  ?spatial:Srac.Formula.t ->
  ?spatial_modality:Srac.Program_sat.modality ->
  ?spatial_scope:spatial_scope ->
  ?proof_scope:proof_scope ->
  ?dur:Temporal.Q.t ->
  ?scheme:Temporal.Validity.scheme ->
  Rbac.Perm.t ->
  t
(** Defaults: no spatial constraint, [Exists], [Program] scope, [Own]
    proofs, infinite duration, [Whole_journey].
    @raise Invalid_argument if [dur] is negative. *)

val applies_to : t -> Sral.Access.t -> bool
(** Does the binding's permission pattern cover the access? *)

val key : t -> string
(** Stable identifier for monitor state, derived from the permission. *)

val pp : Format.formatter -> t -> unit
