(* Lazy subset construction over Brzozowski derivative residuals.

   A machine is a growable DFA whose states are *simplified residual
   formulas* ({!Derivative.after} images of the source constraint) and
   whose alphabet is an arena of interned accesses: the constraint's
   own accesses plus every performed access some cardinality selector
   of the constraint matches.  Any other access is *inert*: no atom,
   ordering or selector of the constraint can see it, so it is a
   self-loop on every residual and is never interned.
   Nothing is compiled up front — a transition is materialized the
   first time some trace actually takes it, and from then on stepping
   is two array reads.  The steady-state decision path therefore
   allocates nothing: arrays are preallocated and grown geometrically,
   symbol lookup uses a no-option hashtable probe, and verdict
   (nullability) and feasibility are cached per state.

   Accesses that arrive with a dense {!Sral.Access.Ids} id (proof
   entries recorded through a system, the access a decision asks
   about) are classified once per machine and id: [by_id] maps the id
   to its local symbol, to "inert", or to "look it up" (a selector
   matches it but no performed step has interned it yet), so the
   decision path's steps and inertness tests are array reads, not
   hashes.

   Equivalence with the eager oracle (`Compile.dfa` / `Trace_sat.sat` /
   `Program_sat.prefix_feasible`) is property-tested in test_srac and
   differentially fuzzed through the full decision procedure in
   test_fuzz. *)

module Access_tbl = Sral.Access.Tbl

module Formula_tbl = Hashtbl.Make (struct
  type t = Formula.t

  let equal = Formula.equal
  let hash = Hashtbl.hash
end)

type t = {
  source : Formula.t;  (* the raw constraint, pre-simplification *)
  sels : Selector.t array;  (* the source's cardinality selectors *)
  mutable syms : Sral.Access.t array;  (* symbol id -> access *)
  sym_ids : int Access_tbl.t;  (* access -> symbol id *)
  mutable sym_count : int;
  mutable states : Formula.t array;  (* state id -> residual *)
  mutable null : bool array;  (* satisfied-by-empty-extension flag *)
  state_ids : int Formula_tbl.t;  (* residual -> state id *)
  mutable state_count : int;
  mutable rows : int array array;  (* state -> symbol -> state; -1 = lazy *)
  mutable feas : int array;  (* -1 unknown / 0 infeasible / 1 feasible *)
  mutable feas_stamp : int array;  (* arena size when feas was recorded *)
  mutable gen : int array;  (* search-visited generation marks *)
  mutable cur_gen : int;
  mutable materialized : int;  (* transitions materialized so far *)
  mutable by_id : Bytes.t;  (* access id -> class (see [remember]) *)
}

(* [code]'s answers below 0 *)
let inert_code = -2
let lookup = -3  (* not inert; find the symbol by hash (or intern it) *)

(* Residual state spaces are finite for constraints whose simplified
   derivatives close up (the n-ary {!Simplify} canonicalization
   guarantees this for the SRAC connectives), but a non-canonical
   corner would otherwise grow states without bound — fail loudly
   instead of consuming the heap. *)
let max_states = 1 lsl 16

let dummy_access = Sral.Access.read "" ~at:""

let grow_array a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let intern_sym m a =
  match Access_tbl.find m.sym_ids a with
  | id -> id
  | exception Not_found ->
      let id = m.sym_count in
      if id = Array.length m.syms then
        m.syms <- grow_array m.syms (2 * id) dummy_access;
      m.syms.(id) <- a;
      Access_tbl.add m.sym_ids a id;
      m.sym_count <- id + 1;
      id

let find_sym m a =
  match Access_tbl.find m.sym_ids a with
  | id -> id
  | exception Not_found -> -1

let intern_state m f =
  match Formula_tbl.find m.state_ids f with
  | id -> id
  | exception Not_found ->
      let id = m.state_count in
      if id >= max_states then
        invalid_arg
          (Format.asprintf "Lazy_dfa: residual state space exploded for %a"
             Formula.pp m.source);
      if id = Array.length m.states then begin
        let len = 2 * id in
        m.states <- grow_array m.states len Formula.True;
        m.null <- grow_array m.null len false;
        m.rows <- grow_array m.rows len [||];
        m.feas <- grow_array m.feas len (-1);
        m.feas_stamp <- grow_array m.feas_stamp len 0;
        m.gen <- grow_array m.gen len 0
      end;
      m.states.(id) <- f;
      m.null.(id) <- Derivative.satisfied_by_empty f;
      m.rows.(id) <- Array.make (max 4 m.sym_count) (-1);
      m.feas.(id) <- -1;
      m.feas_stamp.(id) <- 0;
      m.gen.(id) <- 0;
      Formula_tbl.add m.state_ids f id;
      m.state_count <- id + 1;
      id

let rec card_selectors acc = function
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Ordered _ -> acc
  | Formula.Card { sel; _ } -> sel :: acc
  | Formula.And (c1, c2) | Formula.Or (c1, c2) ->
      card_selectors (card_selectors acc c1) c2
  | Formula.Not c1 -> card_selectors acc c1

let create c =
  let m =
    {
      source = c;
      sels = Array.of_list (card_selectors [] c);
      syms = Array.make 4 dummy_access;
      sym_ids = Access_tbl.create 16;
      sym_count = 0;
      states = Array.make 8 Formula.True;
      null = Array.make 8 false;
      state_ids = Formula_tbl.create 16;
      state_count = 0;
      rows = Array.make 8 [||];
      feas = Array.make 8 (-1);
      feas_stamp = Array.make 8 0;
      gen = Array.make 8 0;
      cur_gen = 0;
      materialized = 0;
      by_id = Bytes.empty;
    }
  in
  (* intern the *raw* formula's accesses: the eager feasibility oracle
     builds its alphabet from [Formula.accesses c] before
     simplification, and simplification may drop accesses that still
     matter to cardinality selectors *)
  List.iter (fun a -> ignore (intern_sym m a)) (Formula.accesses c);
  ignore (intern_state m (Simplify.simplify c));
  m

let start _ = 0
let nullable m q = m.null.(q)
let residual m q = m.states.(q)
let num_states m = m.state_count
let num_symbols m = m.sym_count
let transitions m = m.materialized

let materialize m q s =
  let row = m.rows.(q) in
  let row =
    if s < Array.length row then row
    else begin
      let row' = grow_array row (max (2 * Array.length row) (s + 1)) (-1) in
      m.rows.(q) <- row';
      row'
    end
  in
  let tgt = intern_state m (Derivative.after m.states.(q) m.syms.(s)) in
  row.(s) <- tgt;
  m.materialized <- m.materialized + 1;
  tgt

let step m q s =
  let row = m.rows.(q) in
  if s < Array.length row then begin
    let tgt = Array.unsafe_get row s in
    if tgt >= 0 then tgt else materialize m q s
  end
  else materialize m q s

let rec selected sels a i =
  i < Array.length sels
  && (Selector.matches (Array.unsafe_get sels i) a || selected sels a (i + 1))

(* Every access of the source is interned at creation, so an access
   missing from the arena is inert unless a selector counts it.
   Derivatives never introduce accesses or selectors, so inertness
   holds for every residual, not just the source, and an id's
   classification stays true for the machine's lifetime.

   [by_id] keeps one byte per access id, an eighth of an int array:
   0 = not yet classified, 1 = inert, 2 = [lookup] (selected but not
   yet interned when classified, or a symbol too large for a byte),
   [3 + s] = symbol [s]. *)
let remember m id code =
  if id >= 0 then begin
    let len = Bytes.length m.by_id in
    if id >= len then begin
      let bigger = Bytes.make (max (2 * len) (max 16 (id + 1))) '\000' in
      Bytes.blit m.by_id 0 bigger 0 len;
      m.by_id <- bigger
    end;
    Bytes.unsafe_set m.by_id id
      (Char.unsafe_chr
         (if code = inert_code then 1 else if code >= 0 && code < 253 then code + 3
          else 2))
  end

(* Classifies without interning: only a performed step may widen the
   alphabet. *)
let classify m id a =
  let s = find_sym m a in
  let code =
    if s >= 0 then s else if selected m.sels a 0 then lookup else inert_code
  in
  remember m id code;
  code

let code m id a =
  if id >= 0 && id < Bytes.length m.by_id then
    match Char.code (Bytes.unsafe_get m.by_id id) with
    | 0 -> classify m id a
    | 1 -> inert_code
    | 2 -> lookup
    | c -> c - 3
  else classify m id a

let inert_id m ~id a = code m id a = inert_code
let inert m a = inert_id m ~id:(-1) a

let step_id m q ~id a =
  let c = code m id a in
  if c >= 0 then step m q c
  else if c = inert_code then q
  else begin
    let s = intern_sym m a in
    remember m id s;
    step m q s
  end

let step_access m q a = step_id m q ~id:(-1) a
let step_entry m q (e : Proof.entry) = step_id m q ~id:e.id e.access
let inert_entry m (e : Proof.entry) = inert_id m ~id:e.id e.access

let nullable_after m q ~id a =
  let c = code m id a in
  let c = if c = lookup then find_sym m a else c in
  if c >= 0 then m.null.(step m q c)
  else if c = inert_code then m.null.(q)
  else
    (* a selected access outside the arena (a denied or
       not-yet-performed query) must not pollute the alphabet: derive
       directly without interning.  Cold path; allocates. *)
    Derivative.satisfied_by_empty (Derivative.after m.states.(q) a)

(* Is any nullable residual reachable from [q] over the current
   alphabet?  Mirrors [Program_sat.prefix_feasible]'s
   final-state-reachability over the same symbol set.  A [true] answer
   is stable under arena growth (more symbols only add words); [false]
   is stamped with the arena size and recomputed if the arena has
   grown since. *)
let search m q =
  m.cur_gen <- m.cur_gen + 1;
  let g = m.cur_gen in
  let n_syms = m.sym_count in
  (* derivatives introduce no fresh accesses, so the alphabet is fixed
     during the search even though new states may be interned *)
  let visited = ref [] in
  let stack = ref [ q ] in
  m.gen.(q) <- g;
  let found = ref false in
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        visited := v :: !visited;
        if m.null.(v) || m.feas.(v) = 1 then found := true
        else if m.feas.(v) = 0 && m.feas_stamp.(v) = n_syms then
          () (* known dead end at this alphabet: don't expand *)
        else
          for s = 0 to n_syms - 1 do
            let t = step m v s in
            if m.gen.(t) <> g then begin
              m.gen.(t) <- g;
              stack := t :: !stack
            end
          done
  done;
  if !found then begin
    m.feas.(q) <- 1;
    true
  end
  else begin
    (* everything reachable from any visited state was explored, so
       the whole visited set is infeasible at this alphabet *)
    List.iter
      (fun v ->
        m.feas.(v) <- 0;
        m.feas_stamp.(v) <- n_syms)
      !visited;
    false
  end

let feasible m q =
  if m.null.(q) then true
  else if m.feas.(q) = 1 then true
  else if m.feas.(q) = 0 && m.feas_stamp.(q) = m.sym_count then false
  else search m q
