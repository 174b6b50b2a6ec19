(* End-to-end tests of the `cla` command-line driver: compile, link,
   analyze, depend, transform, dump, gen — the tool a user actually runs. *)

let cla =
  (* dune declares the binary as a dep; it lands next to the test's cwd *)
  let candidates =
    [ "../bin/cla.exe"; "_build/default/bin/cla.exe"; "bin/cla.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/cla.exe"

let run_capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> 255 in
  (code, Buffer.contents buf)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let tmpdir = Filename.temp_file "cla_cli" ""

let () =
  Sys.remove tmpdir;
  Sys.mkdir tmpdir 0o755

let in_tmp name = Filename.concat tmpdir name

let write_file name content =
  let oc = open_out (in_tmp name) in
  output_string oc content;
  close_out oc

let () =
  write_file "a.c"
    "int x, *y;\nint **z;\nvoid main(void) { z = &y; *z = &x; }\n";
  write_file "b.c" "extern int *y;\nint *alias;\nvoid g(void) { alias = y; }\n";
  write_file "dep.c"
    "short counter;\nshort mirror;\nint wide;\n\
     void f(void) { counter = 40000; mirror = counter; wide = counter; }\n"

let check_run name cmd expects =
  Alcotest.test_case name `Quick (fun () ->
      let code, out = run_capture cmd in
      Alcotest.(check int) (name ^ ": exit code\n" ^ out) 0 code;
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Fmt.str "%s: output contains %S in:\n%s" name e out)
            true (contains ~affix:e out))
        expects)

let q = Filename.quote

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The on-disk compile cache: an existing object whose recorded TU hash
   matches the source and flags is kept ("(cached)"), anything else —
   an edit, a new -D, an unreadable object — is recompiled. *)
let test_compile_cache () =
  let dir = in_tmp "cache" in
  Sys.mkdir dir 0o755;
  let units = [ "u1"; "u2"; "u3" ] in
  let path u ext = Filename.concat dir (u ^ ext) in
  List.iter
    (fun u ->
      Out_channel.with_open_bin (path u ".c") (fun oc ->
          Printf.fprintf oc
            "int %s_x, *%s_p;\nvoid %s_f(void) { %s_p = &%s_x; }\n" u u u u u))
    units;
  (* the set of units the run reported as cached *)
  let compile flags =
    let code, out =
      run_capture
        (Fmt.str "%s compile %s %s" cla flags
           (String.concat " " (List.map (fun u -> q (path u ".c")) units)))
    in
    Alcotest.(check int) ("compile exit code\n" ^ out) 0 code;
    List.filter
      (fun u ->
        List.exists
          (fun line ->
            contains ~affix:(u ^ ".c ->") line
            && contains ~affix:"(cached)" line)
          (String.split_on_char '\n' out))
      units
  in
  let objects () = List.map (fun u -> read_file (path u ".clo")) units in
  let cached = Alcotest.(check (list string)) in
  cached "first run compiles every unit" [] (compile "");
  let first = objects () in
  cached "second run is all cached" units (compile "");
  Alcotest.(check (list string)) "cached objects unchanged" first (objects ());
  Out_channel.with_open_gen [ Open_append ] 0o644 (path "u2" ".c") (fun oc ->
      output_string oc "int u2_y;\n");
  cached "an edit recompiles exactly that unit" [ "u1"; "u3" ] (compile "");
  cached "a new -D recompiles every unit" [] (compile "-D NEW=1");
  let with_d = objects () in
  Out_channel.with_open_bin (path "u1" ".clo") (fun oc ->
      output_string oc (String.sub (List.hd with_d) 0 16));
  cached "a truncated object is recompiled" [ "u2"; "u3" ] (compile "-D NEW=1");
  Alcotest.(check (list string)) "recompiled object restored" with_d (objects ())

let () =
  Alcotest.run "cli"
    [
      ( "pipeline",
        [
          check_run "compile"
            (Fmt.str "%s compile %s %s" cla (q (in_tmp "a.c")) (q (in_tmp "b.c")))
            [ "a.clo"; "b.clo" ];
          check_run "link"
            (Fmt.str "%s link %s %s -o %s" cla
               (q (in_tmp "a.clo"))
               (q (in_tmp "b.clo"))
               (q (in_tmp "prog.cla")))
            [ "2 unit(s)"; "merged" ];
          check_run "analyze"
            (Fmt.str "%s analyze %s --print" cla (q (in_tmp "prog.cla")))
            [ "y -> {x}"; "z -> {y}"; "alias -> {x}"; "pretransitive" ];
          check_run "analyze json"
            (Fmt.str "%s analyze %s --json" cla (q (in_tmp "prog.cla")))
            [ "\"y\": [\"x\"]"; "\"z\": [\"y\"]" ];
          check_run "analyze worklist"
            (Fmt.str "%s analyze %s --algo worklist" cla (q (in_tmp "prog.cla")))
            [ "worklist:" ];
          check_run "analyze ablation flags"
            (Fmt.str "%s analyze %s --no-cache --no-cycle-elim" cla
               (q (in_tmp "prog.cla")))
            [ "pretransitive:" ];
          check_run "dump"
            (Fmt.str "%s dump %s --blocks" cla (q (in_tmp "prog.cla")))
            [ "static section"; "z = &y"; "dynamic section" ];
        ] );
      ( "applications",
        [
          check_run "depend setup"
            (Fmt.str "%s compile %s -o %s && %s link %s -o %s" cla
               (q (in_tmp "dep.c"))
               (q (in_tmp "dep.clo"))
               cla
               (q (in_tmp "dep.clo"))
               (q (in_tmp "dep.cla")))
            [];
          check_run "depend"
            (Fmt.str "%s depend %s --target counter" cla (q (in_tmp "dep.cla")))
            [ "dependent object(s)"; "mirror/short" ];
          check_run "depend narrowing"
            (Fmt.str "%s depend %s --target counter --new-type int" cla
               (q (in_tmp "dep.cla")))
            [ "[WIDEN]"; "[ok"; "40000" ];
          check_run "transform"
            (Fmt.str "%s transform %s --substitute -o %s" cla
               (q (in_tmp "prog.cla"))
               (q (in_tmp "prog2.cla")))
            [ "substitute:" ];
          check_run "gen"
            (Fmt.str "%s gen nethack --scale 0.05 -d %s" cla (q tmpdir))
            [ "nethack_00.c" ];
        ] );
      ( "compile cache",
        [ Alcotest.test_case "hits, edits, flags, truncation" `Quick
            test_compile_cache ] );
      ( "errors",
        [
          Alcotest.test_case "missing file" `Quick (fun () ->
              let code, _ = run_capture (Fmt.str "%s analyze /nonexistent.cla" cla) in
              Alcotest.(check bool) "nonzero exit" true (code <> 0));
          Alcotest.test_case "parse error reported" `Quick (fun () ->
              write_file "bad.c" "int x = ;\n";
              let code, out =
                run_capture (Fmt.str "%s compile %s" cla (q (in_tmp "bad.c")))
              in
              Alcotest.(check bool) "nonzero exit" true (code <> 0);
              Alcotest.(check bool) ("mentions parse error: " ^ out) true
                (contains ~affix:"parse error" out));
        ] );
    ]
