(** Textual policy files for the coordinated model.

    A policy file declares the RBAC half (users, roles, hierarchy,
    assignments, grants, separation of duty) and the spatio-temporal
    bindings — the artifact a security officer writes (Section 3.4).

    Line-oriented syntax; [#] starts a comment:
    {v
      user     alice
      role     auditor
      role     chief
      inherit  chief auditor            # chief dominates auditor
      assign   alice auditor
      grant    auditor read:db@s1
      grant    auditor hash:*@*
      ssd      name rolea roleb ... max 1
      dsd      name rolea roleb ... max 1
      bind     read:db@s1 spatial "done(read cfg @ s1)" modality exists
      bind     read:db@s1 dur 10 scheme journey
      bind     hash:*@* dur 5/2 scheme server
    v}
    A [bind] line takes any subset of the clauses [spatial "..."],
    [modality exists|forall], [scope program|performed|both],
    [proofs own|team], [dur <rational>], [scheme journey|server].  A
    negative [dur] is a parse error on its line. *)

type t = {
  policy : Rbac.Policy.t;
  bindings : Perm_binding.t list;
}

exception Error of int * string
(** [(line_number, message)] *)

val parse : string -> t
(** Parse policy text.  @raise Error *)

val parse_file : string -> t
(** @raise Error and [Sys_error]. *)

val render : t -> string
(** Render back to (parseable) policy text.  [parse (render t)] is a
    fixed point: rendering the parse of a rendering reproduces it
    byte for byte. *)

val parse_binding : string -> Perm_binding.t
(** Parse one binding in the [bind] line syntax, with or without the
    leading [bind] keyword — e.g. ["read:db@s1 dur 10 scheme journey"].
    @raise Error (the reported line number is always 1). *)

val render_binding : Perm_binding.t -> string
(** Render one binding in the [bind] line syntax (without the leading
    [bind] keyword); inverse of {!parse_binding}. *)
