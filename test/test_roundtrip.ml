(* Property-based parser validation: generate random expression ASTs,
   pretty-print them, re-parse, and compare.  The printer fully
   parenthesizes, so the reparse must reproduce the tree exactly — any
   precedence or associativity bug in the parser shows up as a mismatch.

   A second property runs the normalizer on random statement lists to
   check it never crashes and respects the assignment-count bookkeeping. *)

open Cla_cfront
open Cast

(* ------------------------------------------------------------------ *)
(* Random expression ASTs                                              *)
(* ------------------------------------------------------------------ *)

let var_names = [| "a"; "b"; "c"; "p"; "q" |]

let binops =
  [| "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "<"; ">"; "<="; ">="; "=="; "!=";
     "&"; "^"; "|"; "&&"; "||" |]

let gen_expr : expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> mk_expr (Eident var_names.(i mod 5))) small_nat;
            map (fun i -> mk_expr (Eint (Int64.of_int i, string_of_int i))) small_nat;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map2
                (fun i (a, b) -> mk_expr (Ebinop (binops.(i mod Array.length binops), a, b)))
                small_nat
                (pair (self (n / 2)) (self (n / 2))) );
            (1, map (fun a -> mk_expr (Eunop ("!", a))) (self (n - 1)));
            (1, map (fun a -> mk_expr (Eunop ("~", a))) (self (n - 1)));
            (1, map (fun a -> mk_expr (Eunop ("u-", a))) (self (n - 1)));
            (1, map (fun a -> mk_expr (Ederef a)) (self (n - 1)));
            ( 1,
              map
                (fun (c, (a, b)) -> mk_expr (Econd (c, a, b)))
                (pair (self (n / 3)) (pair (self (n / 3)) (self (n / 3)))) );
            ( 1,
              map2
                (fun i args -> mk_expr (Ecall (mk_expr (Eident var_names.(i mod 5)), args)))
                small_nat
                (list_size (int_bound 3) (self (n / 3))) );
            (1, map (fun (a, b) -> mk_expr (Eindex (a, b))) (pair (self (n / 2)) (self (n / 2))));
          ]
        |> fun g -> g)

(* structural comparison ignoring locations *)
let rec expr_equal (a : expr) (b : expr) =
  match (a.edesc, b.edesc) with
  | Eident x, Eident y -> x = y
  | Eint (v, _), Eint (w, _) -> v = w
  | Ebinop (o1, a1, a2), Ebinop (o2, b1, b2) ->
      o1 = o2 && expr_equal a1 b1 && expr_equal a2 b2
  | Eunop (o1, a1), Eunop (o2, b1) -> o1 = o2 && expr_equal a1 b1
  | Ederef a1, Ederef b1 -> expr_equal a1 b1
  | Eaddrof a1, Eaddrof b1 -> expr_equal a1 b1
  | Econd (c1, a1, a2), Econd (c2, b1, b2) ->
      expr_equal c1 c2 && expr_equal a1 b1 && expr_equal a2 b2
  | Ecall (f1, l1), Ecall (f2, l2) ->
      expr_equal f1 f2
      && List.length l1 = List.length l2
      && List.for_all2 expr_equal l1 l2
  | Eindex (a1, a2), Eindex (b1, b2) -> expr_equal a1 b1 && expr_equal a2 b2
  | _ -> false

let parse_expr_back text =
  let src = Fmt.str "void f(void) { sink = %s; }" text in
  let r = Cparser.parse_string ~file:"rt.c" src in
  List.find_map
    (function
      | Tfundef f ->
          List.find_map
            (fun s ->
              match s.sdesc with
              | Sexpr { edesc = Eassign (None, _, e); _ } -> Some e
              | _ -> None)
            f.fbody
      | _ -> None)
    r.Cparser.tunit.tops

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"print then reparse preserves the tree"
    (QCheck.make ~print:Cast.expr_to_string gen_expr)
    (fun e ->
      let text = Cast.expr_to_string e in
      match parse_expr_back text with
      | Some e' ->
          if expr_equal e e' then true
          else
            QCheck.Test.fail_reportf "mismatch:@.printed: %s@.reparsed: %s"
              text (Cast.expr_to_string e')
      | None -> QCheck.Test.fail_reportf "no expression reparsed from %s" text)

(* ------------------------------------------------------------------ *)
(* Normalizer robustness on random statements                          *)
(* ------------------------------------------------------------------ *)

let gen_stmt_text : string QCheck.Gen.t =
  let open QCheck.Gen in
  let v = oneofl [ "a"; "b"; "c" ] in
  let p = oneofl [ "p"; "q" ] in
  oneof
    [
      map2 (fun x y -> Fmt.str "%s = %s;" x y) v v;
      map2 (fun x y -> Fmt.str "%s = &%s;" x y) p v;
      map2 (fun x y -> Fmt.str "*%s = %s;" x y) p v;
      map2 (fun x y -> Fmt.str "%s = *%s;" x y) v p;
      map2 (fun x y -> Fmt.str "%s = %s + 1;" x y) v v;
      map2 (fun x y -> Fmt.str "if (%s) { %s = %s; }" x x y) v v;
      map2 (fun x y -> Fmt.str "while (%s) { %s = %s; break; }" x x y) v v;
    ]

let prog_of_string src =
  Normalize.run
    (Cparser.parse_string ~file:"gen.c" (Cpp.preprocess_string ~file:"gen.c" src))

let normalizer_total =
  QCheck.Test.make ~count:200 ~name:"normalizer never fails on generated statements"
    QCheck.(make Gen.(list_size (int_range 1 25) gen_stmt_text))
    (fun stmts ->
      let src =
        "int a, b, c; int *p, *q;\nvoid f(void) {\n"
        ^ String.concat "\n" stmts ^ "\n}"
      in
      let prog = prog_of_string src in
      (* every statement lowers to at least zero and at most 3 primitives *)
      Cla_ir.Prog.n_assigns prog <= (3 * List.length stmts) + 3)

let counts_match_source =
  QCheck.Test.make ~count:200 ~name:"assignment counts track the source"
    QCheck.(make Gen.(list_size (int_range 1 25) gen_stmt_text))
    (fun stmts ->
      let src =
        "int a, b, c; int *p, *q;\nvoid f(void) {\n"
        ^ String.concat "\n" stmts ^ "\n}"
      in
      let prog = prog_of_string src in
      let c = Cla_ir.Prog.counts prog in
      let count_of prefix =
        List.length (List.filter (fun s -> String.length s > 0 && String.sub s 0 1 = prefix) stmts)
      in
      (* the store statements are exactly those beginning with '*' *)
      c.Cla_ir.Prim.n_store = count_of "*")

let () =
  Alcotest.run "roundtrip"
    [
      ( "parser",
        [ QCheck_alcotest.to_alcotest roundtrip ] );
      ( "normalizer",
        [
          QCheck_alcotest.to_alcotest normalizer_total;
          QCheck_alcotest.to_alcotest counts_match_source;
        ] );
    ]
