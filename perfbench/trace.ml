(* In-memory spans for the traced run: name, start, end, parent and
   request id. Nothing is written until the run ends. A span id is
   taken when the span opens, so children can name their parent before
   it closes. Thread-safe: served workloads record from two client
   threads. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = a root span *)
  req : int;
  t0 : float;
  t1 : float;
}

type t = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create () = { mu = Mutex.create (); next = 1; spans = [] }

let fresh_id t =
  Mutex.protect t.mu (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let add t ~id ~name ~parent ~req t0 t1 =
  Mutex.protect t.mu (fun () ->
      t.spans <- { id; name; parent; req; t0; t1 } :: t.spans)

(* Record a span that has already ended, [dt] seconds long, ending now
   (for durations reported after the fact, such as stage observers). *)
let add_closed t ~name ~parent ~req dt =
  let t1 = Unix.gettimeofday () in
  add t ~id:(fresh_id t) ~name ~parent ~req (t1 -. dt) t1

(* [with_span t ~name ~parent ~req f] runs [f id] inside a new span. *)
let with_span t ~name ~parent ~req f =
  let id = fresh_id t in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add t ~id ~name ~parent ~req t0 (Unix.gettimeofday ()))
    (fun () -> f id)

let spans t = Mutex.protect t.mu (fun () -> List.rev t.spans)

let dur s = s.t1 -. s.t0

(* Spans must nest: every child lies inside its parent. The slack
   covers durations reported by observers, whose start is
   reconstructed. *)
let nesting_errors t =
  let slack = 1e-4 in
  let all = spans t in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  List.filter_map
    (fun s ->
      if s.parent = 0 then None
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> Some (Printf.sprintf "%s#%d: parent %d missing" s.name s.id s.parent)
        | Some p ->
          if s.t0 < p.t0 -. slack || s.t1 > p.t1 +. slack || s.req <> p.req then
            Some
              (Printf.sprintf "%s#%d [%.6f,%.6f] outside %s#%d [%.6f,%.6f]"
                 s.name s.id s.t0 s.t1 p.name p.id p.t0 p.t1)
          else None)
    all

(* Total and self time per span name, in seconds: self time is the
   span minus its children. *)
let layer_times t =
  let all = spans t in
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let total, self, n =
        Option.value ~default:(0., 0., 0) (Hashtbl.find_opt acc s.name)
      in
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_sum s.id) in
      Hashtbl.replace acc s.name (total +. dur s, self +. dur s -. kids, n + 1))
    all;
  acc
