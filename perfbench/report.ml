(* What one workload run hands back to main.ml for printing. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;  (** operations that failed outside the known misses *)
  mutable metrics : metric list;  (** end-to-end, in BENCHMARK.json *)
  mutable extra : metric list;  (** end-to-end figures not in BENCHMARK.json *)
  mutable layers : metric list;  (** per-layer, traced run only *)
  mutable absent : (string * string) list;  (** per-layer metric, why absent *)
  mutable info : (string * string) list;  (** provenance and sample counts *)
  mutable problems : string list;  (** failed checks, printed *)
}

let create () =
  {
    correct = true;
    attempted = 0;
    failed = 0;
    metrics = [];
    extra = [];
    layers = [];
    absent = [];
    info = [];
    problems = [];
  }

let m name value unit_ = { name; value; unit_ }

let add r name value unit_ = r.metrics <- r.metrics @ [ m name value unit_ ]
let add_extra r name value unit_ = r.extra <- r.extra @ [ m name value unit_ ]
let layer r name value unit_ = r.layers <- r.layers @ [ m name value unit_ ]
let absent r name why = r.absent <- r.absent @ [ (name, why) ]
let info r k v = r.info <- r.info @ [ (k, v) ]

(* A failed check: printed, and the run is no longer correct. *)
let problem r msg =
  r.correct <- false;
  r.problems <- r.problems @ [ msg ]

(* A latency percentile, as an [extra] figure, or the reason it was
   refused. *)
let add_pct r name (s : (float, string) result) =
  match s with
  | Ok v -> add_extra r name (v *. 1000.) "ms"
  | Error why -> absent r name why

let ratio a b = if b = 0. then 0. else a /. b
