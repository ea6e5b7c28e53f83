(* Tests for the percentile helper. *)

module Stats = Perfbench_lib.Stats

let check name cond = if not cond then failwith ("test_stats: " ^ name)

let ints n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* 100 samples 1..100: p50 is 50 (50 beyond), p90 is 90 (10 beyond) *)
  let s = Stats.summarize (ints 100) in
  check "count" (s.count = 100);
  check "p50 of 1..100" (s.p50 = Ok 50.);
  check "p90 of 1..100" (s.p90 = Ok 90.);
  (* 99 samples: p90 is rank 90, only 9 beyond, so it is refused *)
  check "p90 refused with 9 beyond"
    (Result.is_error (Stats.percentile 0.9 (ints 99)));
  check "p50 of 1..99" (Stats.percentile 0.5 (ints 99) = Ok 50.);
  (* a p99 needs 1,000 samples; over 48 it is refused, not the maximum *)
  check "p99 over 48 refused" (Result.is_error (Stats.percentile 0.99 (ints 48)));
  check "p99 over 1100"
    (Stats.percentile 0.99 (ints 1100) = Ok 1089.);
  (* order of the input does not matter *)
  check "unsorted input"
    (Stats.percentile 0.5 (List.rev (ints 100)) = Ok 50.);
  check "empty" (Result.is_error (Stats.percentile 0.5 []));
  (* 19 samples: p50 is rank 10, 9 beyond *)
  check "p50 refused with 9 beyond"
    (Result.is_error (Stats.percentile 0.5 (ints 19)));
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  print_endline "test_stats: ok"
