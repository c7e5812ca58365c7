type scheme = Per_server | Whole_journey

let pp_scheme ppf = function
  | Per_server -> Format.pp_print_string ppf "per-server"
  | Whole_journey -> Format.pp_print_string ppf "whole-journey"

let check_arrivals arrivals =
  match arrivals with
  | [] -> invalid_arg "Validity: empty arrival list"
  | first :: rest ->
      let rec sorted prev = function
        | [] -> ()
        | t :: rest ->
            if Q.lt t prev then invalid_arg "Validity: arrivals not sorted"
            else sorted t rest
      in
      sorted first rest;
      first

(* Valid function within one base window [base, stop): active, cut once
   the accumulated active time since [base] reaches [dur].  Eq. 4.1 is
   self-referential (valid accumulates *valid* time), but within one
   window valid = active up to the cutoff and 0 after, so the
   accumulated valid time equals the accumulated active time until the
   budget is spent — the unique solution is active truncated at the
   moment its own accumulation reaches dur. *)
let window_valid ~active ~base ~stop ~dur =
  let clip f =
    (* f restricted to [base, stop): false outside *)
    let window =
      match stop with
      | None -> Step_fn.of_changes ~init:false [ (base, true) ]
      | Some s -> Step_fn.of_intervals [ Interval.make base s ]
    in
    Step_fn.and_ f window
  in
  match dur with
  | None -> clip active
  | Some dur -> (
      if Q.sign dur < 0 then invalid_arg "Validity: negative duration";
      let windowed = clip active in
      match Step_fn.accum_reaches windowed ~from:base ~budget:dur with
      | None -> windowed
      | Some cutoff ->
          let mask = Step_fn.of_changes ~init:true [ (cutoff, false) ] in
          Step_fn.and_ windowed mask)

let valid_fn ~scheme ~arrivals ~dur active =
  let first = check_arrivals arrivals in
  match scheme with
  | Whole_journey -> window_valid ~active ~base:first ~stop:None ~dur
  | Per_server ->
      let rec windows = function
        | [] -> []
        | [ last ] -> [ window_valid ~active ~base:last ~stop:None ~dur ]
        | t :: (t' :: _ as rest) ->
            window_valid ~active ~base:t ~stop:(Some t') ~dur :: windows rest
      in
      List.fold_left Step_fn.or_ (Step_fn.const false) (windows arrivals)

let is_valid_at ~scheme ~arrivals ~dur active t =
  Step_fn.value_at (valid_fn ~scheme ~arrivals ~dur active) t

let spent ~scheme ~arrivals ~dur active ~at =
  let first = check_arrivals arrivals in
  let base =
    match scheme with
    | Whole_journey -> first
    | Per_server ->
        List.fold_left
          (fun acc t -> if Q.le t at then Q.max acc t else acc)
          first arrivals
  in
  let valid = valid_fn ~scheme ~arrivals ~dur active in
  if Q.lt at base then Q.zero
  else Step_fn.integrate valid (Interval.make base at)

(* Every arrival and change is at or before [at], so of [valid_fn]'s
   windows only the last, [base, ∞), holds [at]; inside it valid is
   active cut off where acc reaches dur, hence the verdict depends on
   acc = ∫_base^at active alone. *)
let current ~base ~dur changes ~at =
  (match changes with
  | (t, _) :: _ when Q.gt t at -> invalid_arg "Validity: change after query"
  | _ -> ());
  if Q.lt at base then invalid_arg "Validity: query before base time";
  let active = match changes with [] -> false | (_, v) :: _ -> v in
  match dur with
  | None -> if active then `Valid else `Inactive
  | Some dur ->
      if Q.sign dur < 0 then invalid_arg "Validity: negative duration";
      (* [hi] ends the segment the next-older change opens; equal-time
         changes give empty segments *)
      let rec since sum hi = function
        | [] -> sum
        | _ when Q.ge sum dur -> sum
        | (t, v) :: older ->
            let lo = Q.max t base in
            let sum = if v then Q.add sum (Q.sub hi lo) else sum in
            if Q.le t base then sum else since sum t older
      in
      if not active then `Inactive
      else
        let acc = since Q.zero at changes in
        if Q.lt acc dur then `Valid else `Expired (Q.min acc dur)

let as_dc_formula ~dur ~valid_var =
  Duration_calculus.Dur_cmp (State_expr.Var valid_var, Duration_calculus.Le, dur)
