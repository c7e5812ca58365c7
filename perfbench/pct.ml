(* Exact order statistics over raw samples.  Percentiles are nearest
   rank: the p-th percentile of n sorted samples is the sample at
   1-based rank ceil(p/100 * n).  No bucketing, at any sample count. *)

let sorted_ints a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let rank ~p n =
  if n = 0 then invalid_arg "Pct.rank: no samples";
  if p <= 0. || p > 100. then invalid_arg "Pct.rank: p outside (0, 100]";
  (* the epsilon keeps p*n/100 that is an exact integer from rounding up *)
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
  max 1 (min n r)

let of_sorted ~p sorted = sorted.(rank ~p (Array.length sorted) - 1)
let nearest_rank ~p a = of_sorted ~p (sorted_ints a)

let median_float xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Pct.median_float: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The mean of the lower half of the values (the middle one included
   when their count is odd).  Outside load on a shared host only ever
   slows a round down, so the faster half of a run's rounds measures the
   program and the slower half measures the host: a burst that slows up
   to half of the rounds does not move this mean.  Unlike the minimum or
   a quantile it moves smoothly when the host flips between a fast and a
   slow state in changing shares, instead of jumping between them. *)
let lower_half_mean xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Pct.lower_half_mean: empty"
  | sorted ->
      let k = (List.length sorted + 1) / 2 in
      List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < k) sorted) /. float_of_int k

(* The same for a value where higher is better, such as a rate. *)
let upper_half_mean xs = -.lower_half_mean (List.map Float.neg xs)

let mean_float xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A growable int buffer for latency samples: the timed loops append
   without allocating a list cell per sample. *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (max 16 n) 0; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
end
