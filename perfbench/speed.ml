(* Host-speed probe. On a shared host the speed of the machine itself
   drifts: a fixed amount of CPU work can take 1.7 times as long in one
   minute as in the next, with no steal time and no other process of
   ours running. The probe is a fixed amount of work, run between the
   workload's own operations while nothing else of the benchmark runs;
   the workload's CPU times are scaled by [ref_s / probe time], so that
   they read as on a host where the probe takes [ref_s]. The probe is
   the benchmark's own code and calls nothing of the repository, so no
   change to the program under test moves it.

   The mix of the probe follows what tracked the workloads: over 30
   [paper] passes whose CPU time ranged from 2.3 to 4.1 s, CPU time
   over probe time varied by 11% (coefficient of variation) with an
   arithmetic-only probe, by 8% with arithmetic plus dependent loads,
   and by 5% with about four fifths of the probe's time in streaming
   multiply-adds over arrays the size of the workloads' columns. *)

(* Integer and float arithmetic with no allocation: about a fifth of
   the probe's time. *)
let alu_iters = 300_000

(* Streaming multiply-adds over two 1 MB float arrays: about four
   fifths. *)
let stream_len = 1 lsl 17
let stream_rounds = 32

let stream_arrays = lazy (Array.make stream_len 1.0, Array.make stream_len 0.5)

let alu () =
  let x = ref 0x2545F491 and f = ref 1.0 in
  for i = 1 to alu_iters do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    f := !f +. (float_of_int (!x land 1023) *. 1e-9) -. (float_of_int (i land 7) *. 1e-10)
  done;
  ignore (Sys.opaque_identity (!x, !f))

let stream () =
  let x, y = Lazy.force stream_arrays in
  for _ = 1 to stream_rounds do
    for i = 0 to stream_len - 1 do
      Array.unsafe_set y i ((Array.unsafe_get y i *. 0.999) +. (1e-3 *. Array.unsafe_get x i))
    done
  done

(* Seconds one probe takes. One untimed round first, so that the timed
   ones do not depend on what the workload left in the caches. *)
let probe () =
  let x, y = Lazy.force stream_arrays in
  Array.blit x 0 y 0 stream_len;
  let t0 = Unix.gettimeofday () in
  alu ();
  stream ();
  Unix.gettimeofday () -. t0

(* What one probe takes on the reference host. *)
let ref_s = 0.005

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Least, median and greatest of [probes], in ms, for the record. *)
let spread probes =
  let a = Array.of_list probes in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then "none"
  else Printf.sprintf "%.3f %.3f %.3f" (1000. *. a.(0)) (1000. *. a.(n / 2)) (1000. *. a.(n - 1))

(* [x], measured while a probe took [probe_s], as on the reference host. *)
let scale ~probe_s x = x *. ref_s /. probe_s

(* [f ()] between [k] probes before it and [k] after it: its result
   and the mean probe time. *)
let bracket ?(k = 3) f =
  let before = List.init k (fun _ -> probe ()) in
  let r = f () in
  let after = List.init k (fun _ -> probe ()) in
  (r, mean (before @ after))
