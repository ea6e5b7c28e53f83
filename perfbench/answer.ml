(* Re-check of a served package from the rows the server returned.

   The server sends a package as CSV, one line per copy of a row. The
   check groups identical lines back into one row with a multiplicity,
   so the query's REPEAT bound is enforced, and refuses a line that is
   not a row of the table the query ran on. *)

type table = {
  header : string;
  copies : (string, int) Hashtbl.t;  (** row line -> rows holding it *)
}

let lines csv = List.filter (( <> ) "") (String.split_on_char '\n' csv)

let add_line t l =
  Hashtbl.replace t.copies l (1 + Option.value ~default:0 (Hashtbl.find_opt t.copies l))

(* The rows of [csv], rendered as the server renders them. *)
let table csv =
  match lines csv with
  | [] -> invalid_arg "Answer.table: no header"
  | header :: rows ->
    let t = { header; copies = Hashtbl.create (List.length rows) } in
    List.iter (add_line t) rows;
    t

(* Rows appended to the table (a CSV with the same header). *)
let add_rows t csv =
  match lines csv with
  | [] -> ()
  | h :: _ when h <> t.header -> invalid_arg "Answer.add_rows: header differs from the table's"
  | _ :: rows -> List.iter (add_line t) rows

(* The returned package as a relation of distinct rows with
   multiplicities. A line the table holds [k] times is spread as evenly
   as it can be over up to [k] rows, so the REPEAT check is exact. *)
let package t csv =
  match lines csv with
  | [] -> Error "no rows returned"
  | h :: _ when h <> t.header -> Error "header differs from the table's"
  | _ :: rows -> (
    let counts = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun l ->
        match Hashtbl.find_opt counts l with
        | Some c -> Hashtbl.replace counts l (c + 1)
        | None ->
          Hashtbl.add counts l 1;
          order := l :: !order)
      rows;
    let order = List.rev !order in
    match List.find_opt (fun l -> not (Hashtbl.mem t.copies l)) order with
    | Some l -> Error ("row not in the table: " ^ l)
    | None ->
      let b = Buffer.create 1024 in
      Buffer.add_string b t.header;
      Buffer.add_char b '\n';
      let entries = ref [] and id = ref 0 in
      List.iter
        (fun l ->
          let c = Hashtbl.find counts l in
          let m = min c (Hashtbl.find t.copies l) in
          for j = 0 to m - 1 do
            Buffer.add_string b l;
            Buffer.add_char b '\n';
            entries := (!id, (c / m) + if j < c mod m then 1 else 0) :: !entries;
            incr id
          done)
        order;
      let rel = Relalg.Csv.of_string (Buffer.contents b) in
      Ok (Pkg.Package.make rel (List.rev !entries)))

(* Check a served package against its compiled query: base predicates,
   REPEAT, global constraints and, for a deterministic objective, the
   objective value the server reported. *)
let check t spec ~reported csv =
  match package t csv with
  | Error e -> Error e
  | Ok p -> (
    if not (Pkg.Package.feasible spec p) then Error "package fails its constraints"
    else
      match reported with
      | Some o when not (Paql.Translate.is_stochastic spec) ->
        let mine = Pkg.Package.objective spec p in
        if Float.abs (mine -. o) <= 1e-5 *. Float.max 1. (Float.abs o) then Ok ()
        else Error (Printf.sprintf "reported objective %g, rows give %g" o mine)
      | _ -> Ok ())
