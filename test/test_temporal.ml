(* Tests for the temporal library: exact rationals, intervals, step
   functions, the duration-calculus model checker (Theorem 4.1) and
   Eq. 4.1 validity durations. *)

open Temporal

let q = Q.of_int
let qq n d = Q.make n d
let iv a b = Interval.of_ints a b

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* --- rationals --- *)

let test_q_normalization () =
  check_q "6/4 = 3/2" (qq 3 2) (qq 6 4);
  check_q "-6/-4 = 3/2" (qq 3 2) (Q.make (-6) (-4));
  check_q "6/-4 = -3/2" (qq (-3) 2) (Q.make 6 (-4));
  check_q "0/5 = 0" Q.zero (Q.make 0 5)

let test_q_arithmetic () =
  check_q "1/2 + 1/3" (qq 5 6) (Q.add (qq 1 2) (qq 1 3));
  check_q "1/2 - 1/3" (qq 1 6) (Q.sub (qq 1 2) (qq 1 3));
  check_q "2/3 * 3/4" (qq 1 2) (Q.mul (qq 2 3) (qq 3 4));
  check_q "1/2 / 1/4" (q 2) (Q.div (qq 1 2) (qq 1 4));
  check_q "neg" (qq (-1) 2) (Q.neg (qq 1 2));
  check_q "abs" (qq 1 2) (Q.abs (qq (-1) 2));
  check_q "inv" (qq 3 2) (Q.inv (qq 2 3))

let test_q_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (qq 1 3) (qq 1 2));
  Alcotest.(check bool) "2/4 = 1/2" true (Q.equal (qq 2 4) (qq 1 2));
  Alcotest.(check int) "sign" (-1) (Q.sign (qq (-1) 7));
  check_q "min" (qq 1 3) (Q.min (qq 1 3) (qq 1 2));
  check_q "mid" (qq 5 12) (Q.mid (qq 1 3) (qq 1 2))

let test_q_division_by_zero () =
  Alcotest.check_raises "make" Division_by_zero (fun () -> ignore (Q.make 1 0));
  Alcotest.check_raises "div" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_q_of_string () =
  check_q "int" (q 3) (Q.of_string "3");
  check_q "fraction" (qq 3 4) (Q.of_string "3/4");
  check_q "negative fraction" (qq (-1) 2) (Q.of_string "-1/2");
  check_q "decimal" (qq 5 2) (Q.of_string "2.5");
  check_q "negative decimal" (qq (-5) 2) (Q.of_string "-2.5");
  Alcotest.check_raises "garbage" (Invalid_argument "Q.of_string: \"x\"")
    (fun () -> ignore (Q.of_string "x"))

let q_field_props =
  QCheck.Test.make ~name:"rational field laws (random small rationals)"
    ~count:300
    QCheck.(
      triple (pair (int_range (-20) 20) (int_range 1 12))
        (pair (int_range (-20) 20) (int_range 1 12))
        (pair (int_range (-20) 20) (int_range 1 12)))
    (fun ((n1, d1), (n2, d2), (n3, d3)) ->
      let x = Q.make n1 d1 and y = Q.make n2 d2 and z = Q.make n3 d3 in
      Q.equal (Q.add x y) (Q.add y x)
      && Q.equal (Q.add (Q.add x y) z) (Q.add x (Q.add y z))
      && Q.equal (Q.mul x (Q.add y z)) (Q.add (Q.mul x y) (Q.mul x z))
      && Q.equal (Q.sub x x) Q.zero)

(* --- intervals --- *)

let test_interval_basics () =
  let i = iv 2 5 in
  check_q "length" (q 3) (Interval.length i);
  Alcotest.(check bool) "contains" true (Interval.contains i (q 3));
  Alcotest.(check bool) "boundary" true (Interval.contains i (q 5));
  Alcotest.(check bool) "outside" false (Interval.contains i (q 6));
  Alcotest.(check bool) "point" true (Interval.is_point (iv 4 4));
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Interval.make: 5 > 2") (fun () ->
      ignore (Interval.make (q 5) (q 2)))

let test_interval_inter_split () =
  (match Interval.inter (iv 0 5) (iv 3 8) with
  | Some i -> Alcotest.(check bool) "inter" true (Interval.equal i (iv 3 5))
  | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "disjoint" true (Interval.inter (iv 0 1) (iv 2 3) = None);
  match Interval.split (iv 0 10) (q 4) with
  | Some (l, r) ->
      Alcotest.(check bool) "left" true (Interval.equal l (iv 0 4));
      Alcotest.(check bool) "right" true (Interval.equal r (iv 4 10))
  | None -> Alcotest.fail "split failed"

(* Boundary cases the workflow windows lean on (mirroring PR 5's
   crash-window boundary tests): point windows, touching endpoints,
   rational endpoints.  Interval is closed at *both* ends — unlike
   Fault.Plan's half-open crash windows — so a decision slot landing
   exactly on a window edge is in. *)
let test_interval_boundaries () =
  (* point (zero-length) windows contain exactly their instant *)
  let p = Interval.make (qq 5 2) (qq 5 2) in
  Alcotest.(check bool) "point is a point" true (Interval.is_point p);
  check_q "point has zero length" Q.zero (Interval.length p);
  Alcotest.(check bool) "point contains its instant" true
    (Interval.contains p (qq 5 2));
  Alcotest.(check bool) "point misses 5/2 + 1/1000" false
    (Interval.contains p (Q.add (qq 5 2) (qq 1 1000)));
  Alcotest.(check bool) "point misses 5/2 - 1/1000" false
    (Interval.contains p (Q.sub (qq 5 2) (qq 1 1000)));
  (* touching endpoints: the intersection degenerates to a point
     rather than disappearing *)
  (match Interval.inter (iv 0 4) (iv 4 9) with
  | Some i ->
      Alcotest.(check bool) "touching inter is the shared point" true
        (Interval.equal i (iv 4 4))
  | None -> Alcotest.fail "touching intervals must intersect");
  Alcotest.(check bool) "subsumes its own endpoint point" true
    (Interval.subsumes (iv 0 4) (iv 4 4));
  (* splitting at an endpoint yields a point half, not a failure *)
  (match Interval.split (iv 2 6) (q 2) with
  | Some (l, r) ->
      Alcotest.(check bool) "left half is the lo point" true
        (Interval.is_point l);
      Alcotest.(check bool) "right half is whole" true
        (Interval.equal r (iv 2 6))
  | None -> Alcotest.fail "split at lo endpoint failed");
  Alcotest.(check bool) "split outside fails" true
    (Interval.split (iv 2 6) (q 7) = None);
  (* rational endpoints are exact: no epsilon slop on either side *)
  let w = Interval.make (qq 1 3) (qq 2 3) in
  Alcotest.(check bool) "1/3 in" true (Interval.contains w (qq 1 3));
  Alcotest.(check bool) "2/3 in" true (Interval.contains w (qq 2 3));
  Alcotest.(check bool) "333333/1000000 out" false
    (Interval.contains w (Q.make 333333 1000000));
  check_q "exact rational length" (qq 1 3) (Interval.length w);
  match Interval.inter (Interval.make (qq 1 3) (qq 1 2)) (Interval.make (qq 1 2) (qq 2 3)) with
  | Some i ->
      Alcotest.(check bool) "rational touching point" true
        (Interval.equal i (Interval.make (qq 1 2) (qq 1 2)))
  | None -> Alcotest.fail "rational touching intervals must intersect"

(* --- step functions --- *)

let test_step_fn_value_at () =
  let f = Step_fn.of_changes ~init:false [ (q 2, true); (q 5, false) ] in
  Alcotest.(check bool) "before" false (Step_fn.value_at f (q 1));
  Alcotest.(check bool) "at change" true (Step_fn.value_at f (q 2));
  Alcotest.(check bool) "inside" true (Step_fn.value_at f (q 4));
  Alcotest.(check bool) "at fall" false (Step_fn.value_at f (q 5));
  Alcotest.(check bool) "after" false (Step_fn.value_at f (q 9))

let test_step_fn_normalization () =
  (* redundant changes collapse; equality is extensional *)
  let f1 = Step_fn.of_changes ~init:false [ (q 2, true); (q 3, true); (q 5, false) ] in
  let f2 = Step_fn.of_changes ~init:false [ (q 2, true); (q 5, false) ] in
  Alcotest.(check bool) "normalized equal" true (Step_fn.equal f1 f2);
  let f3 = Step_fn.of_changes ~init:true [ (q 0, true) ] in
  Alcotest.(check bool) "no-op change dropped" true
    (Step_fn.equal f3 (Step_fn.const true))

let test_step_fn_of_intervals () =
  let f = Step_fn.of_intervals [ iv 1 3; iv 2 5; iv 7 8 ] in
  Alcotest.(check bool) "overlap covered" true (Step_fn.value_at f (q 4));
  Alcotest.(check bool) "gap" false (Step_fn.value_at f (q 6));
  Alcotest.(check bool) "second blob" true (Step_fn.value_at f (qq 15 2));
  Alcotest.(check bool) "right-open" false (Step_fn.value_at f (q 8));
  check_q "measure" (q 5) (Step_fn.integrate f (iv 0 10))

let test_step_fn_point_interval () =
  let f = Step_fn.of_intervals [ iv 3 3 ] in
  Alcotest.(check bool) "point contributes nothing" true
    (Step_fn.equal f (Step_fn.const false))

let test_step_fn_boolean_ops () =
  let f = Step_fn.of_intervals [ iv 0 4 ] in
  let g = Step_fn.of_intervals [ iv 2 6 ] in
  let fg = Step_fn.and_ f g in
  let f_or_g = Step_fn.or_ f g in
  check_q "and measure" (q 2) (Step_fn.integrate fg (iv 0 10));
  check_q "or measure" (q 6) (Step_fn.integrate f_or_g (iv 0 10));
  (* De Morgan *)
  Alcotest.(check bool) "de morgan" true
    (Step_fn.equal
       (Step_fn.not_ fg)
       (Step_fn.or_ (Step_fn.not_ f) (Step_fn.not_ g)))

let test_step_fn_integrate_partial () =
  let f = Step_fn.of_intervals [ iv 2 8 ] in
  check_q "clipped" (q 3) (Step_fn.integrate f (iv 5 10));
  check_q "inside" (q 2) (Step_fn.integrate f (iv 3 5));
  check_q "disjoint" Q.zero (Step_fn.integrate f (iv 9 12));
  check_q "point" Q.zero (Step_fn.integrate f (iv 4 4))

let test_accum_reaches () =
  let f = Step_fn.of_intervals [ iv 0 2; iv 5 9 ] in
  (* budget 3: 2 units by t=2, third unit at t=6 *)
  (match Step_fn.accum_reaches f ~from:Q.zero ~budget:(q 3) with
  | Some t -> check_q "cutoff" (q 6) t
  | None -> Alcotest.fail "should reach");
  (match Step_fn.accum_reaches f ~from:Q.zero ~budget:(q 7) with
  | Some _ -> Alcotest.fail "only 6 units available"
  | None -> ());
  (* from the middle *)
  (match Step_fn.accum_reaches f ~from:(q 1) ~budget:(q 2) with
  | Some t -> check_q "from 1" (q 6) t
  | None -> Alcotest.fail "should reach");
  (* eventually-true function accumulates forever *)
  let g = Step_fn.of_changes ~init:false [ (q 3, true) ] in
  match Step_fn.accum_reaches g ~from:Q.zero ~budget:(q 10) with
  | Some t -> check_q "tail accumulation" (q 13) t
  | None -> Alcotest.fail "should reach eventually"

let test_accum_zero_budget () =
  let f = Step_fn.const false in
  match Step_fn.accum_reaches f ~from:(q 4) ~budget:Q.zero with
  | Some t -> check_q "immediately" (q 4) t
  | None -> Alcotest.fail "zero budget reached immediately"

let step_fn_ops_pointwise =
  QCheck.Test.make ~name:"and/or/not are pointwise (random step fns)"
    ~count:200
    QCheck.(
      pair
        (small_list (pair (int_range 0 20) bool))
        (small_list (pair (int_range 0 20) bool)))
    (fun (ch1, ch2) ->
      let mk ch =
        Step_fn.of_changes ~init:false
          (List.map (fun (t, v) -> (q t, v)) ch)
      in
      let f = mk ch1 and g = mk ch2 in
      let samples = List.init 22 (fun i -> Q.add (q i) (qq 1 2)) in
      List.for_all
        (fun t ->
          Step_fn.value_at (Step_fn.and_ f g) t
          = (Step_fn.value_at f t && Step_fn.value_at g t)
          && Step_fn.value_at (Step_fn.or_ f g) t
             = (Step_fn.value_at f t || Step_fn.value_at g t)
          && Step_fn.value_at (Step_fn.not_ f) t = not (Step_fn.value_at f t))
        samples)

(* --- state expressions --- *)

let test_state_expr () =
  let v = Step_fn.of_intervals [ iv 0 5 ] in
  let w = Step_fn.of_intervals [ iv 3 8 ] in
  let interp = function "v" -> v | "w" -> w | _ -> raise Not_found in
  let e = State_expr.And (State_expr.Var "v", State_expr.Not (State_expr.Var "w")) in
  let f = State_expr.eval interp e in
  Alcotest.(check bool) "v and not w at 1" true (Step_fn.value_at f (q 1));
  Alcotest.(check bool) "at 4" false (Step_fn.value_at f (q 4));
  Alcotest.(check (list string)) "vars" [ "v"; "w" ]
    (State_expr.vars e)

(* --- duration calculus --- *)

let dc_interp () =
  let v = Step_fn.of_intervals [ iv 0 4; iv 6 10 ] in
  fun name -> if name = "v" then v else invalid_arg name

let test_dc_atomic () =
  let interp = dc_interp () in
  let open Duration_calculus in
  Alcotest.(check bool) "true" true (sat interp (iv 0 10) True);
  Alcotest.(check bool) "dur = 8" true
    (sat interp (iv 0 10) (Dur_cmp (State_expr.Var "v", Eq, q 8)));
  Alcotest.(check bool) "dur <= 7 fails" false
    (sat interp (iv 0 10) (Dur_cmp (State_expr.Var "v", Le, q 7)));
  Alcotest.(check bool) "len" true (sat interp (iv 0 10) (Len_cmp (Eq, q 10)));
  Alcotest.(check bool) "everywhere on [1,3]" true
    (sat interp (iv 1 3) (Everywhere (State_expr.Var "v")));
  Alcotest.(check bool) "everywhere on [3,7] fails" false
    (sat interp (iv 3 7) (Everywhere (State_expr.Var "v")));
  Alcotest.(check bool) "everywhere needs non-point" false
    (sat interp (iv 2 2) (Everywhere (State_expr.Var "v")))

let test_dc_boolean' () =
  let interp = dc_interp () in
  let open Duration_calculus in
  let phi = Dur_cmp (State_expr.Var "v", Ge, q 3) in
  Alcotest.(check bool) "and" true
    (sat interp (iv 0 10) (And (phi, Len_cmp (Ge, q 5))));
  Alcotest.(check bool) "not" false (sat interp (iv 0 10) (Not phi));
  Alcotest.(check bool) "vacuous implies" true
    (sat interp (iv 0 10) (implies (Len_cmp (Le, q 1)) false_))

let test_dc_chop () =
  let interp = dc_interp () in
  let open Duration_calculus in
  (* [0,10] splits into an all-v prefix and a remainder of length >= 6 *)
  let f = Everywhere (State_expr.Var "v") in
  let g = Len_cmp (Ge, q 6) in
  Alcotest.(check bool) "chop holds" true (sat interp (iv 0 10) (Chop (f, g)));
  (match chop_witness interp (iv 0 10) f g with
  | Some m ->
      Alcotest.(check bool) "witness in (0,4]" true (Q.gt m Q.zero && Q.le m (q 4))
  | None -> Alcotest.fail "expected witness");
  (* impossible: all-v prefix of length >= 5 *)
  let g2 = Len_cmp (Ge, q 5) in
  Alcotest.(check bool) "no 5-long all-v prefix" false
    (sat interp (iv 0 10) (Chop (And (f, Len_cmp (Ge, q 5)), g2)))

let test_dc_chop_exact_budget () =
  (* chop point must be found at the exact integral threshold *)
  let interp = dc_interp () in
  let open Duration_calculus in
  let spent = Dur_cmp (State_expr.Var "v", Eq, q 4) in
  let none_left = Dur_cmp (State_expr.Var "v", Eq, q 4) in
  (* split [0,10] so each side holds exactly 4 units of v *)
  Alcotest.(check bool) "4|4 split exists" true
    (sat interp (iv 0 10) (Chop (spent, none_left)))

let test_dc_nested_chop () =
  let interp = dc_interp () in
  let open Duration_calculus in
  (* three-way split: v-only ; gap ; v-only *)
  let all_v = Everywhere (State_expr.Var "v") in
  let no_v = Everywhere (State_expr.Not (State_expr.Var "v")) in
  Alcotest.(check bool) "v;(!v;v)" true
    (sat interp (iv 0 10) (Chop (all_v, Chop (no_v, all_v))))

let test_thm41_formula () =
  (* Theorem 4.1's constraint shape: ∫valid <= dur *)
  let active = Step_fn.of_intervals [ iv 0 20 ] in
  let valid =
    Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:(Some (q 5)) active
  in
  let interp name = if name = "valid" then valid else invalid_arg name in
  let formula = Validity.as_dc_formula ~dur:(q 5) ~valid_var:"valid" in
  Alcotest.(check bool) "holds over whole line" true
    (Duration_calculus.sat interp (iv 0 20) formula);
  (* and the integral is exactly the duration *)
  check_q "spent exactly dur" (q 5) (Step_fn.integrate valid (iv 0 20))

(* --- validity (Eq. 4.1) --- *)

let test_validity_whole_journey () =
  let active = Step_fn.of_intervals [ iv 0 10 ] in
  let valid =
    Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:(Some (q 4)) active
  in
  Alcotest.(check bool) "valid at 2" true (Step_fn.value_at valid (q 2));
  Alcotest.(check bool) "invalid at 4" false (Step_fn.value_at valid (q 4));
  Alcotest.(check bool) "invalid at 9" false (Step_fn.value_at valid (q 9))

let test_validity_gaps_pause_burn () =
  (* inactive gaps do not consume the budget *)
  let active = Step_fn.of_intervals [ iv 0 2; iv 6 12 ] in
  let valid =
    Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:(Some (q 4)) active
  in
  Alcotest.(check bool) "valid again at 7" true (Step_fn.value_at valid (q 7));
  Alcotest.(check bool) "expires at 8 (2+2)" false
    (Step_fn.value_at valid (q 8))

let test_validity_per_server_resets () =
  let active = Step_fn.of_intervals [ iv 0 20 ] in
  let arrivals = [ Q.zero; q 10 ] in
  let dur = Some (q 4) in
  let journey =
    Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals ~dur active
  in
  let per_server =
    Validity.valid_fn ~scheme:Validity.Per_server ~arrivals ~dur active
  in
  (* at t=12: journey budget long gone; per-server budget reset at 10 *)
  Alcotest.(check bool) "journey expired" false
    (Step_fn.value_at journey (q 12));
  Alcotest.(check bool) "per-server fresh" true
    (Step_fn.value_at per_server (q 12));
  Alcotest.(check bool) "per-server expires at 14" false
    (Step_fn.value_at per_server (q 14))

let test_validity_infinite () =
  let active = Step_fn.of_intervals [ iv 0 1000 ] in
  let valid =
    Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:None active
  in
  Alcotest.(check bool) "never expires" true (Step_fn.value_at valid (q 999))

let test_validity_spent () =
  let active = Step_fn.of_intervals [ iv 0 10 ] in
  let spent =
    Validity.spent ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:(Some (q 4)) active ~at:(q 2)
  in
  check_q "spent 2 at t=2" (q 2) spent;
  let spent_late =
    Validity.spent ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
      ~dur:(Some (q 4)) active ~at:(q 9)
  in
  check_q "caps at dur" (q 4) spent_late

let test_validity_errors () =
  let active = Step_fn.const true in
  Alcotest.check_raises "empty arrivals"
    (Invalid_argument "Validity: empty arrival list") (fun () ->
      ignore
        (Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[]
           ~dur:None active));
  Alcotest.check_raises "unsorted arrivals"
    (Invalid_argument "Validity: arrivals not sorted") (fun () ->
      ignore
        (Validity.valid_fn ~scheme:Validity.Whole_journey
           ~arrivals:[ q 5; q 1 ] ~dur:None active));
  Alcotest.check_raises "negative duration (oracle)"
    (Invalid_argument "Validity: negative duration") (fun () ->
      ignore
        (Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ q 0 ]
           ~dur:(Some (q (-1))) active));
  let current ?(base = q 0) ?(dur = Some (q 1)) changes at =
    ignore (Validity.current ~base ~dur changes ~at:(q at))
  in
  Alcotest.check_raises "negative duration (current)"
    (Invalid_argument "Validity: negative duration") (fun () ->
      current ~dur:(Some (q (-1))) [ (q 0, true) ] 1);
  Alcotest.check_raises "change after the query"
    (Invalid_argument "Validity: change after query") (fun () ->
      current [ (q 2, true) ] 1);
  Alcotest.check_raises "query before the base time"
    (Invalid_argument "Validity: query before base time") (fun () ->
      current ~base:(q 3) [] 1)

(* [Validity.current] against the step-function oracle.  A case is one
   timeline over half-unit instants 0..10: arrivals with a repeated
   instant, activation changes with a double flip at one instant and a
   change exactly at an arrival.  It is queried at every arrival and
   change instant and past them all, each time on the prefix a monitor
   would hold with its clock there — so queries land exactly on t_b and
   exactly on the newest change. *)
type timeline = {
  scheme : Validity.scheme;
  dur : Q.t option;
  arrivals : int list;  (* half units, ascending *)
  changes : (int * bool) list;  (* half units, oldest first *)
}

let half k = qq k 2

let timeline_gen =
  let open QCheck.Gen in
  let* scheme = oneofl [ Validity.Per_server; Validity.Whole_journey ] in
  let* dur =
    oneof
      [
        return None;
        return (Some Q.zero);
        map (fun k -> Some (half k)) (int_range 1 6);
        return (Some (q 50));
      ]
  in
  let* arrivals = list_size (int_range 1 4) (int_range 0 20) in
  let* repeated = oneofl arrivals in
  let arrivals = List.sort compare (repeated :: arrivals) in
  let* random = list_size (int_range 0 8) (pair (int_range 0 20) bool) in
  let* flip_at = int_range 0 20 in
  let* flip_to = bool in
  let* at_base = oneofl arrivals in
  let* base_to = bool in
  let changes =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (random
      @ [ (flip_at, flip_to); (flip_at, not flip_to); (at_base, base_to) ])
  in
  return { scheme; dur; arrivals; changes }

let pp_timeline tl =
  Printf.sprintf "%s dur=%s arrivals=[%s] changes=[%s] (half units)"
    (Format.asprintf "%a" Validity.pp_scheme tl.scheme)
    (match tl.dur with None -> "inf" | Some d -> Q.to_string d)
    (String.concat ";" (List.map string_of_int tl.arrivals))
    (String.concat ";"
       (List.map (fun (t, v) -> Printf.sprintf "%d:%b" t v) tl.changes))

let current_agrees_with_oracle =
  QCheck.Test.make
    ~name:"Validity.current = is_valid_at + spent (random timelines)"
    ~count:600
    (QCheck.make ~print:pp_timeline timeline_gen)
    (fun tl ->
      let scheme = tl.scheme and dur = tl.dur in
      let queries =
        List.sort_uniq compare ((21 :: tl.arrivals) @ List.map fst tl.changes)
      in
      List.for_all
        (fun at_k ->
          match List.filter (fun a -> a <= at_k) tl.arrivals with
          | [] -> true
          | first :: _ as upto ->
              let at = half at_k in
              let arrivals = List.map half upto in
              let changes =
                List.filter_map
                  (fun (t, v) -> if t <= at_k then Some (half t, v) else None)
                  tl.changes
              in
              let active = Step_fn.of_changes ~init:false changes in
              let expected =
                if Validity.is_valid_at ~scheme ~arrivals ~dur active at then
                  `Valid
                else if Step_fn.value_at active at then
                  `Expired (Validity.spent ~scheme ~arrivals ~dur active ~at)
                else `Inactive
              in
              let base =
                match scheme with
                | Validity.Whole_journey -> half first
                | Validity.Per_server -> half (List.nth upto (List.length upto - 1))
              in
              let got = Validity.current ~base ~dur (List.rev changes) ~at in
              match (expected, got) with
              | `Valid, `Valid | `Inactive, `Inactive -> true
              | `Expired a, `Expired b -> Q.equal a b
              | _ ->
                  QCheck.Test.fail_reportf "query at %d (half units)" at_k)
        queries)

let validity_never_exceeds_dur =
  QCheck.Test.make
    ~name:"Eq 4.1: accumulated validity never exceeds dur (random activity)"
    ~count:200
    QCheck.(
      pair
        (small_list (pair (int_range 0 30) (int_range 0 30)))
        (int_range 1 10))
    (fun (raw_intervals, dur) ->
      let intervals =
        List.filter_map
          (fun (a, b) -> if a < b then Some (iv a b) else None)
          raw_intervals
      in
      let active = Step_fn.of_intervals intervals in
      let valid =
        Validity.valid_fn ~scheme:Validity.Whole_journey ~arrivals:[ Q.zero ]
          ~dur:(Some (q dur)) active
      in
      Q.le (Step_fn.integrate valid (iv 0 40)) (q dur)
      (* and valid implies active *)
      && List.for_all
           (fun i ->
             let t = qq (2 * i + 1) 2 in
             (not (Step_fn.value_at valid t)) || Step_fn.value_at active t)
           (List.init 40 Fun.id))

let test_dc_derived_modalities () =
  let interp = dc_interp () in
  let open Duration_calculus in
  let v = Everywhere (State_expr.Var "v") in
  (* v holds on [0,4] and [6,10]: some subinterval is all-v *)
  Alcotest.(check bool) "eventually" true
    (sat interp (iv 0 10) (eventually v));
  (* but not every subinterval *)
  Alcotest.(check bool) "not always" false (sat interp (iv 0 10) (always v));
  (* classic DC subtlety: □⌈v⌉ is false even on a pure stretch because
     point subintervals never satisfy ⌈v⌉; the standard idiom adds
     ℓ = 0 *)
  Alcotest.(check bool) "always bare everywhere fails (points)" false
    (sat interp (iv 1 3) (always v));
  Alcotest.(check bool) "always (v or len=0) on pure stretch" true
    (sat interp (iv 1 3) (always (Or (v, Len_cmp (Eq, Q.zero)))));
  Alcotest.(check bool) "always (v or len=0) fails across gap" false
    (sat interp (iv 1 6) (always (Or (v, Len_cmp (Eq, Q.zero)))));
  Alcotest.(check bool) "begins" true (sat interp (iv 0 10) (begins v));
  Alcotest.(check bool) "ends" true (sat interp (iv 6 10) (ends v));
  (* [3,5] starts in a gap region partially: v true on [3,4) only *)
  Alcotest.(check bool) "ends fails when suffix has gap" false
    (sat interp (iv 0 6) (ends v))

(* differential: the chop decision agrees with brute-force grid search
   (grid witnesses imply sat; sat implies a verifiable witness) *)
let chop_agrees_with_grid =
  QCheck.Test.make ~name:"chop decision vs dense grid search" ~count:150
    QCheck.(
      pair
        (small_list (pair (int_range 0 16) (int_range 0 16)))
        (pair (int_range 0 8) (int_range 1 8)))
    (fun (raw_intervals, (c1, c2)) ->
      let intervals =
        List.filter_map
          (fun (a, b) -> if a < b then Some (iv a b) else None)
          raw_intervals
      in
      let v = Step_fn.of_intervals intervals in
      let interp name = if name = "v" then v else invalid_arg name in
      let span = iv 0 16 in
      let open Duration_calculus in
      let f = Dur_cmp (State_expr.Var "v", Ge, q c1) in
      let g = Dur_cmp (State_expr.Var "v", Le, q c2) in
      let formula = Chop (f, g) in
      let symbolic = sat interp span formula in
      (* brute force: chop points on a 1/4 grid *)
      let grid = List.init 65 (fun i -> qq i 4) in
      let brute =
        List.exists
          (fun m ->
            match Interval.split span m with
            | Some (l, r) -> sat interp l f && sat interp r g
            | None -> false)
          grid
      in
      (* the grid can miss exact crossing points but never invents
         witnesses: brute -> symbolic.  And a positive symbolic answer
         must come with a checkable witness. *)
      (if brute then symbolic else true)
      &&
      if symbolic then
        match chop_witness interp span f g with
        | Some m -> (
            match Interval.split span m with
            | Some (l, r) -> sat interp l f && sat interp r g
            | None -> false)
        | None -> false
      else true)

(* --- periodic (TRBAC baseline) --- *)

let test_periodic_contains () =
  let night = Periodic.daily ~start_hour:(q 22) ~length_hours:(q 5) in
  Alcotest.(check bool) "23:00 in window" true
    (Periodic.contains night (q 23));
  Alcotest.(check bool) "01:00 next day (wraps)" true
    (Periodic.contains night (q 25));
  Alcotest.(check bool) "noon outside" false (Periodic.contains night (q 12));
  Alcotest.(check bool) "repeats next day" true
    (Periodic.contains night (q 47));
  Alcotest.(check bool) "27:00 is 3am: closed" false
    (Periodic.contains night (q 27))

let test_periodic_step_fn () =
  let night = Periodic.daily ~start_hour:(q 22) ~length_hours:(q 5) in
  let f = Periodic.to_step_fn ~horizon:(q 72) night in
  Alcotest.(check bool) "agrees with contains at 23" true
    (Step_fn.value_at f (q 23));
  Alcotest.(check bool) "agrees at 12" false (Step_fn.value_at f (q 12));
  (* windows within [0,72]: [0,3) (tail of the window opened at -2),
     [22,27), [46,51) and [70,72) (clipped) — 3+5+5+2 hours *)
  check_q "total enabled time" (q 15) (Step_fn.integrate f (iv 0 72))

let test_periodic_next_window () =
  let night = Periodic.daily ~start_hour:(q 22) ~length_hours:(q 5) in
  check_q "from noon" (q 22) (Periodic.next_window_start night ~after:(q 12));
  check_q "from 23 (already open, next start)" (q 46)
    (Periodic.next_window_start night ~after:(Q.add (q 22) (qq 1 2)));
  check_q "exactly at start" (q 22)
    (Periodic.next_window_start night ~after:(q 22))

let test_periodic_measure () =
  let night = Periodic.daily ~start_hour:(q 22) ~length_hours:(q 5) in
  check_q "one full night" (q 5)
    (Periodic.enabled_measure night (Interval.make (q 22) (q 27)));
  check_q "half a night" (qq 5 2)
    (Periodic.enabled_measure night
       (Interval.make (q 22) (Q.add (q 22) (qq 5 2))))

(* Periodic windows are half-open [start, start + length) — the other
   convention from Interval's closed one; these boundary cases pin the
   difference down exactly where workflow windows meet TRBAC-style
   enabling. *)
let test_periodic_boundaries () =
  let night = Periodic.daily ~start_hour:(q 22) ~length_hours:(q 5) in
  Alcotest.(check bool) "open exactly at start" true
    (Periodic.contains night (q 22));
  Alcotest.(check bool) "closed exactly at end (22+5=27)" false
    (Periodic.contains night (q 27));
  Alcotest.(check bool) "1/1000 before the end still in" true
    (Periodic.contains night (Q.sub (q 27) (qq 1 1000)));
  Alcotest.(check bool) "1/1000 before start still out" false
    (Periodic.contains night (Q.sub (q 22) (qq 1 1000)));
  (* next_window_start at the exact boundaries *)
  check_q "asking exactly at the end gets the next repetition" (q 46)
    (Periodic.next_window_start night ~after:(q 27));
  check_q "asking exactly at the start gets this repetition" (q 22)
    (Periodic.next_window_start night ~after:(q 22));
  (* a whole-period window is enabled everywhere *)
  let always = Periodic.make ~start:Q.zero ~length:(q 24) ~period:(q 24) in
  Alcotest.(check bool) "full-period window always on" true
    (Periodic.contains always (qq 999 7));
  check_q "full-period measure is the interval length" (q 10)
    (Periodic.enabled_measure always (iv 3 13));
  (* measuring across the closed end: [27, 46] holds no window time
     except the opening instant 46, which has measure zero *)
  check_q "gap between repetitions measures zero" Q.zero
    (Periodic.enabled_measure night (Interval.make (q 27) (q 46)));
  (* rational-endpoint periodic window: start 1/2, length 1/3 *)
  let tiny = Periodic.make ~start:(qq 1 2) ~length:(qq 1 3) ~period:(q 2) in
  Alcotest.(check bool) "1/2 in" true (Periodic.contains tiny (qq 1 2));
  Alcotest.(check bool) "5/6 out (half-open)" false
    (Periodic.contains tiny (qq 5 6));
  Alcotest.(check bool) "5/6 - 1/1000 in" true
    (Periodic.contains tiny (Q.sub (qq 5 6) (qq 1 1000)));
  Alcotest.(check bool) "repeats at 5/2" true
    (Periodic.contains tiny (qq 5 2));
  check_q "rational window measure over one period" (qq 1 3)
    (Periodic.enabled_measure tiny (Interval.make Q.zero (q 2)))

let test_periodic_validation () =
  Alcotest.check_raises "bad period"
    (Invalid_argument "Periodic.make: period <= 0") (fun () ->
      ignore (Periodic.make ~start:Q.zero ~length:Q.one ~period:Q.zero));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Periodic.make: length out of (0, period]") (fun () ->
      ignore (Periodic.make ~start:Q.zero ~length:(q 30) ~period:(q 24)));
  Alcotest.check_raises "bad start"
    (Invalid_argument "Periodic.make: start out of [0, period)") (fun () ->
      ignore (Periodic.make ~start:(q 25) ~length:Q.one ~period:(q 24)))

let periodic_step_fn_agrees =
  QCheck.Test.make ~name:"to_step_fn agrees with contains" ~count:200
    QCheck.(
      quad (int_range 0 23) (int_range 1 24) (int_range 0 200)
        (int_range 1 4))
    (fun (start, len, sample2, den) ->
      let p =
        Periodic.make ~start:(q start) ~length:(q (min len 24))
          ~period:(q 24)
      in
      let t = Q.make sample2 den in
      let f = Periodic.to_step_fn ~horizon:(q 201) p in
      Q.gt t (q 200) || Step_fn.value_at f t = Periodic.contains p t)

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac2

let () =
  Alcotest.run "temporal"
    [
      ( "rationals",
        [
          Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "arithmetic" `Quick test_q_arithmetic;
          Alcotest.test_case "compare" `Quick test_q_compare;
          Alcotest.test_case "division by zero" `Quick test_q_division_by_zero;
          Alcotest.test_case "of_string" `Quick test_q_of_string;
          qcheck q_field_props;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "inter/split" `Quick test_interval_inter_split;
          Alcotest.test_case "boundaries" `Quick test_interval_boundaries;
        ] );
      ( "step-fn",
        [
          Alcotest.test_case "value_at" `Quick test_step_fn_value_at;
          Alcotest.test_case "normalization" `Quick test_step_fn_normalization;
          Alcotest.test_case "of_intervals" `Quick test_step_fn_of_intervals;
          Alcotest.test_case "point interval" `Quick test_step_fn_point_interval;
          Alcotest.test_case "boolean ops" `Quick test_step_fn_boolean_ops;
          Alcotest.test_case "integrate partial" `Quick
            test_step_fn_integrate_partial;
          Alcotest.test_case "accum_reaches" `Quick test_accum_reaches;
          Alcotest.test_case "zero budget" `Quick test_accum_zero_budget;
          qcheck step_fn_ops_pointwise;
        ] );
      ("state-expr", [ Alcotest.test_case "eval" `Quick test_state_expr ]);
      ( "duration-calculus",
        [
          Alcotest.test_case "atomic" `Quick test_dc_atomic;
          Alcotest.test_case "boolean" `Quick test_dc_boolean';
          Alcotest.test_case "chop" `Quick test_dc_chop;
          Alcotest.test_case "chop exact budget" `Quick
            test_dc_chop_exact_budget;
          Alcotest.test_case "nested chop" `Quick test_dc_nested_chop;
          Alcotest.test_case "theorem 4.1 formula" `Quick test_thm41_formula;
          Alcotest.test_case "derived modalities" `Quick
            test_dc_derived_modalities;
          qcheck chop_agrees_with_grid;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "contains" `Quick test_periodic_contains;
          Alcotest.test_case "step fn" `Quick test_periodic_step_fn;
          Alcotest.test_case "next window" `Quick test_periodic_next_window;
          Alcotest.test_case "measure" `Quick test_periodic_measure;
          Alcotest.test_case "boundaries" `Quick test_periodic_boundaries;
          Alcotest.test_case "validation" `Quick test_periodic_validation;
          qcheck periodic_step_fn_agrees;
        ] );
      ( "validity",
        [
          Alcotest.test_case "whole journey" `Quick test_validity_whole_journey;
          Alcotest.test_case "gaps pause burn" `Quick
            test_validity_gaps_pause_burn;
          Alcotest.test_case "per-server resets" `Quick
            test_validity_per_server_resets;
          Alcotest.test_case "infinite" `Quick test_validity_infinite;
          Alcotest.test_case "spent" `Quick test_validity_spent;
          Alcotest.test_case "errors" `Quick test_validity_errors;
          qcheck validity_never_exceeds_dur;
          qcheck current_agrees_with_oracle;
        ] );
    ]
