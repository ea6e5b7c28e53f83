(* Tests for the served-package re-check. *)

module Answer = Perfbench_lib.Answer

let check name cond = if not cond then failwith ("test_answer: " ^ name)

let base = "id:int,x:float\n1,1\n2,2\n3,3\n4,4\n"

let spec_of query =
  let ast = match Paql.Parser.parse query with Ok a -> a | Error e -> failwith e in
  Paql.Translate.compile_exn
    (Relalg.Relation.schema (Relalg.Csv.of_string base))
    ast

let repeat0 =
  spec_of
    "SELECT PACKAGE(T) AS P FROM t T REPEAT 0 SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.x)"

let ok = function Ok () -> true | Error _ -> false

let () =
  let t = Answer.table base in
  check "a correct package passes"
    (ok (Answer.check t repeat0 ~reported:(Some 7.) "id:int,x:float\n3,3\n4,4\n"));
  check "a wrong reported objective fails"
    (not (ok (Answer.check t repeat0 ~reported:(Some 8.) "id:int,x:float\n3,3\n4,4\n")));
  check "a row repeated under REPEAT 0 fails"
    (not (ok (Answer.check t repeat0 ~reported:(Some 8.) "id:int,x:float\n4,4\n4,4\n")));
  check "a row not in the table fails"
    (not (ok (Answer.check t repeat0 ~reported:(Some 12.) "id:int,x:float\n4,4\n8,8\n")));
  check "a package that breaks COUNT fails"
    (not (ok (Answer.check t repeat0 ~reported:(Some 4.) "id:int,x:float\n4,4\n")));
  (* REPEAT 1: each row at most twice *)
  let repeat1 =
    spec_of
      "SELECT PACKAGE(T) AS P FROM t T REPEAT 1 SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.x)"
  in
  check "a row twice under REPEAT 1 passes"
    (ok (Answer.check t repeat1 ~reported:(Some 8.) "id:int,x:float\n4,4\n4,4\n"));
  (* a line the table holds twice may appear twice under REPEAT 0 *)
  let t2 = Answer.table base in
  Answer.add_rows t2 "id:int,x:float\n4,4\n";
  check "an appended copy of a row counts"
    (ok (Answer.check t2 repeat0 ~reported:(Some 8.) "id:int,x:float\n4,4\n4,4\n"));
  check "an appended row is in the table"
    (let t3 = Answer.table base in
     Answer.add_rows t3 "id:int,x:float\n9,9\n";
     ok (Answer.check t3 repeat0 ~reported:(Some 13.) "id:int,x:float\n4,4\n9,9\n"));
  check "a header that differs fails"
    (not (ok (Answer.check t repeat0 ~reported:None "id:int,y:float\n3,3\n4,4\n")));
  print_endline "test_answer: ok"
