(* Percentiles by nearest rank. A percentile is refused when fewer
   than [min_tail] samples lie beyond it: a "p90" over 20 samples is
   the second-largest value, and reporting it as a tail figure would
   let one slow request move it. *)

let min_tail = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of quantile [q] among [n] samples. *)
let rank ~q n =
  max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else
    let r = rank ~q n in
    let beyond = n - r in
    if beyond < min_tail then
      Error
        (Printf.sprintf "%d of %d samples lie beyond p%g; %d needed" beyond n
           (q *. 100.) min_tail)
    else Ok a.(r - 1)

type summary = {
  count : int;
  p50 : (float, string) result;
  p90 : (float, string) result;
}

let summarize xs =
  { count = List.length xs; p50 = percentile 0.5 xs; p90 = percentile 0.9 xs }

(* Plain median, for a handful of repeated measurements (set-up time);
   the tail rule does not apply. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
