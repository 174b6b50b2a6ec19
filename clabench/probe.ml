(* The benchmark's in-process half.  run.py drives the real `cla`
   binaries for every end-to-end number; this probe makes the seeded
   inputs, computes reference solutions for the correctness checks, and
   replays each pipeline stage in-process with a timer around every call
   into a layer's public function (the per-layer numbers of a traced
   run).  It adds no spans inside the program.

   Every subcommand prints exactly one JSON object on stdout, except
   [tree], which speaks a line protocol on stdin/stdout. *)

open Cla_core
module Json = Cla_obs.Json

let now = Cla_resilience.Deadline.now_s

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("probe: " ^ m);
      exit 2)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let print_json j = print_endline (Json.to_string ~indent:false j)

(* ------------------------------------------------------------------ *)
(* Layer timers                                                        *)
(* ------------------------------------------------------------------ *)

(* Per layer: total seconds, total bytes allocated, and every call's
   duration (per-query layers are reported as medians). *)
type layer = {
  mutable l_s : float;
  mutable l_alloc : float;
  mutable l_calls : float list;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let timed key f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  let l =
    match Hashtbl.find_opt layers key with
    | Some l -> l
    | None ->
        let l = { l_s = 0.; l_alloc = 0.; l_calls = [] } in
        Hashtbl.replace layers key l;
        l
  in
  l.l_s <- l.l_s +. dt;
  l.l_alloc <- l.l_alloc +. da;
  l.l_calls <- dt :: l.l_calls;
  r

let count ?(by = 1) key =
  Hashtbl.replace counts key
    (by + Option.value ~default:0 (Hashtbl.find_opt counts key))

let median l =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let layers_json extra =
  Json.Obj
    ([
       ( "layers",
         Json.Obj
           (List.map
              (fun (k, l) ->
                ( k,
                  Json.Obj
                    [
                      ("s", Json.Float l.l_s);
                      ("alloc_mb", Json.Float (l.l_alloc /. 1048576.));
                      ("calls", Json.Int (List.length l.l_calls));
                      ("median_s", Json.Float (median l.l_calls));
                    ] ))
              (sorted_bindings layers)) );
       ( "counts",
         Json.Obj
           (List.map (fun (k, n) -> (k, Json.Int n)) (sorted_bindings counts))
       );
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Solutions: digests and query samples                                *)
(* ------------------------------------------------------------------ *)

(* Digest of a solution over the variable ids of its view: two solvers
   run on the same database agree iff their digests do. *)
let id_digest (sol : Solution.t) =
  let b = Buffer.create (1 lsl 20) in
  for v = 0 to Objfile.n_vars sol.Solution.view - 1 do
    let s = Solution.points_to sol v in
    if Lvalset.cardinal s > 0 && Solution.is_program_var sol v then begin
      Buffer.add_int32_le b (Int32.of_int v);
      Buffer.add_int32_le b (Int32.of_int (Lvalset.cardinal s));
      Lvalset.iter (fun z -> Buffer.add_int32_le b (Int32.of_int z)) s
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digest by names: comparable across databases whose variable ids
   differ (a delta-linked view against a cold link of the same
   sources). *)
let name_digest (sol : Solution.t) =
  let lines = ref [] in
  for v = 0 to Objfile.n_vars sol.Solution.view - 1 do
    let s = Solution.points_to sol v in
    if Lvalset.cardinal s > 0 && Solution.is_program_var sol v then
      let ts =
        Lvalset.fold (fun acc z -> Solution.var_name sol z :: acc) [] s
        |> List.sort String.compare
      in
      lines := String.concat " " (Solution.var_name sol v :: "->" :: ts) :: !lines
  done;
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.sort String.compare !lines)))

(* The names a points-to query can resolve to exactly one variable with
   a non-empty answer: [k] of them, stratified by answer size (one from
   each of [k] equal rank ranges, picked by [seed]) so the query mix —
   and the cost of answering it — follows the whole size distribution
   whatever the seed. *)
let sample_names ~seed ~k (sol : Solution.t) =
  let view = sol.Solution.view in
  let cands = ref [] in
  for v = Objfile.n_vars view - 1 downto 0 do
    let n = Lvalset.cardinal (Solution.points_to sol v) in
    if n > 0 && Solution.is_program_var sol v then
      let name = Solution.var_name sol v in
      if Objfile.find_targets view name = [ v ] then cands := (n, v, name) :: !cands
  done;
  let a = Array.of_list (List.sort compare !cands) in
  let n = Array.length a in
  let k = min k n in
  let st = Random.State.make [| seed |] in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      let _, _, name = a.(lo + Random.State.int st (hi - lo)) in
      name)

let targets_of (sol : Solution.t) name =
  match Objfile.find_targets sol.Solution.view name with
  | v :: _ ->
      Lvalset.fold
        (fun acc z -> Solution.var_name sol z :: acc)
        [] (Solution.points_to sol v)
      |> List.rev
  | [] -> []

let solution_json ?(by_name = false) ~seed ~k (sol : Solution.t) =
  [
    ("pointer_vars", Json.Int (Solution.n_pointer_vars sol));
    ("relations", Json.Int (Solution.n_relations sol));
    ("digest", Json.Str (if by_name then name_digest sol else id_digest sol));
    ( "sample",
      Json.Obj
        (List.map
           (fun n ->
             (n, Json.Arr (List.map (fun s -> Json.Str s) (targets_of sol n))))
           (sample_names ~seed ~k sol)) );
  ]

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

(* [--flag value] pairs and the bare switches below; everything else is
   positional. *)
let switches = [ "--open-world"; "--by-name" ]

let parse_args args =
  let is_flag f = String.length f > 2 && String.sub f 0 2 = "--" in
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: rest when List.mem f switches -> go ((f, "") :: flags) pos rest
    | f :: v :: rest when is_flag f -> go ((f, v) :: flags) pos rest
    | f :: _ when is_flag f -> die "%s expects a value" f
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags name ~default = Option.value ~default (List.assoc_opt name flags)
let has flags name = List.mem_assoc name flags
let int_flag flags name ~default =
  match List.assoc_opt name flags with
  | Some v -> int_of_string v
  | None -> default

(* Every input is the Table 2 gimp profile at [--scale], and every edit
   stream removes an earlier edit with the probability `bench
   incremental` uses. *)
let edit_stream flags =
  let scale = float_of_string (flag flags "--scale" ~default:"1.0") in
  let p = Cla_workload.Profile.gimp in
  Cla_workload.Editstream.create
    ~seed:(Int64.of_int (int_flag flags "--seed" ~default:1))
    ~p_remove:0.2
    (if scale < 1.0 then Cla_workload.Profile.scaled scale p else p)

(* ------------------------------------------------------------------ *)
(* Compile replay                                                      *)
(* ------------------------------------------------------------------ *)

(* The paper's source-line metrics, as the compile phase records them in
   the object's META section. *)
let count_source_lines text =
  List.fold_left
    (fun n line ->
      let t = String.trim line in
      if t <> "" && t.[0] <> '#' then n + 1 else n)
    0
    (String.split_on_char '\n' text)

let count_lines text = List.length (String.split_on_char '\n' text)

(* [Compilep.compile_string] with default options, one timer per layer.
   The TU hash is [Compilep]'s: the canonical rendering of the default
   options, a NUL, then the preprocessed text. *)
let compile_layers ~file source =
  let open Cla_cfront in
  let pre = timed "cpp" (fun () -> Cpp.preprocess_string ~file source) in
  let hash =
    timed "compilep.hash" (fun () ->
        Digest.to_hex (Digest.string ("field_based\x00" ^ pre)))
  in
  let parsed = timed "cparser" (fun () -> Cparser.parse_string ~file pre) in
  let prog = timed "normalize" (fun () -> Normalize.run parsed) in
  let db =
    timed "compilep.lower" (fun () ->
        Compilep.db_of_prog ~source_lines:(count_source_lines source)
          ~preproc_lines:(count_lines pre) prog)
  in
  { db with Objfile.tuhash = Some hash }

let clo_of src = Filename.remove_extension src ^ ".clo"

let cmd_trace_compile flags srcs =
  let out_dir = flag flags "--out-dir" ~default:"." in
  List.iter
    (fun src ->
      let source = read_file src in
      let db = compile_layers ~file:src source in
      let bytes = timed "objfile.write" (fun () -> Objfile.write db) in
      write_file (Filename.concat out_dir (Filename.basename (clo_of src))) bytes)
    srcs;
  print_json (layers_json [])

(* `cla compile SRC...` over objects already on disk: the on-disk
   object's recorded TU hash against a fresh probe, and a compile for
   every miss.  Fresh objects go to [--out-dir], not next to the
   sources, so the CLI that runs after this replay sees the same state. *)
let cmd_trace_cliedit flags srcs =
  let out_dir = flag flags "--out-dir" ~default:"." in
  List.iter
    (fun src ->
      let out = clo_of src in
      let recorded =
        if not (Sys.file_exists out) then None
        else
          match timed "objfile.read" (fun () -> Objfile.load_result out) with
          | Ok v -> v.Objfile.rtuhash
          | Error _ -> None
      in
      let source = read_file src in
      let fresh =
        match recorded with
        | None -> true
        | Some h ->
            not
              (String.equal h
                 (timed "compilep.tu_hash" (fun () ->
                      Compilep.tu_hash ~file:src source)))
      in
      if fresh then begin
        count "incremental.cache_misses";
        let db =
          timed "compilep.compile" (fun () -> Compilep.compile_string ~file:src source)
        in
        let bytes = timed "objfile.write" (fun () -> Objfile.write db) in
        write_file (Filename.concat out_dir (Filename.basename out)) bytes
      end
      else count "incremental.cache_hits")
    srcs;
  print_json (layers_json [])

(* ------------------------------------------------------------------ *)
(* Link replay                                                         *)
(* ------------------------------------------------------------------ *)

let load_views paths =
  List.map
    (fun p ->
      let data = read_file p in
      timed "objfile.read" (fun () -> Objfile.view_of_string data))
    paths

(* `cla link` (strict) or `cla link --open-world`: merge, then the
   incomplete-program policy, then serialize. *)
let link_layers ~open_world views =
  let db, _ = timed "linkp.merge" (fun () -> Linkp.link_views views) in
  let report = timed "openworld.detect" (fun () -> Openworld.detect db) in
  if open_world then begin
    count ~by:(List.length report.Openworld.escaping) "openworld.escaping";
    timed "openworld.synthesize" (fun () -> Openworld.synthesize db report)
  end
  else if report.Openworld.undefined <> [] then
    die "strict link: undefined functions %s"
      (String.concat ", " report.Openworld.undefined)
  else db

let cmd_trace_link flags clos =
  let open_world = has flags "--open-world" in
  let out = flag flags "--out" ~default:"prog.cla" in
  let db = link_layers ~open_world (load_views clos) in
  let bytes = timed "objfile.write_linked" (fun () -> Objfile.write db) in
  write_file out bytes;
  print_json (layers_json [])

(* ------------------------------------------------------------------ *)
(* Analyze and query replay                                            *)
(* ------------------------------------------------------------------ *)

(* `cla analyze`: load with checksums, then [Andersen.solve].  The
   iteration is run once more through the public [init]/[pass] pair so
   init and passes are timed on their own; extraction is the solve's
   remainder. *)
let analyze_layers path =
  let data = read_file path in
  let view =
    timed "loader.load" (fun () -> Objfile.view_of_string ~verify:true data)
  in
  let t_init = ref 0. and t_pass = ref 0. in
  let time_into r f =
    let t0 = now () in
    let x = f () in
    r := !r +. (now () -. t0);
    x
  in
  let a0 = Gc.allocated_bytes () in
  let st = time_into t_init (fun () -> Andersen.init view) in
  let a1 = Gc.allocated_bytes () in
  while time_into t_pass (fun () -> Andersen.pass st) do
    ()
  done;
  let a2 = Gc.allocated_bytes () in
  count ~by:st.Andersen.passes "andersen.passes";
  (* the solve starts from a heap as clean as a fresh `cla analyze` *)
  Gc.compact ();
  let a3 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = Andersen.solve view in
  let t_solve = now () -. t0 in
  let a4 = Gc.allocated_bytes () in
  let put key s alloc =
    Hashtbl.replace layers key { l_s = s; l_alloc = alloc; l_calls = [ s ] }
  in
  put "andersen.init" !t_init (a1 -. a0);
  put "andersen.pass" !t_pass (a2 -. a1);
  put "andersen.extract"
    (t_solve -. !t_init -. !t_pass)
    (a4 -. a3 -. (a2 -. a0));
  if r.Andersen.passes <> st.Andersen.passes then
    die "solve took %d passes, the init/pass replay %d" r.Andersen.passes
      st.Andersen.passes;
  r.Andersen.solution

(* One `cla serve` points-to answer per request line, split into the
   protocol parse, the lookup and the rendering. *)
let query_layers (sol : Solution.t) lines =
  let n = ref 0 and targets = ref 0 in
  List.iter
    (fun line ->
      match timed "protocol.parse" (fun () -> Cla_serve.Protocol.parse line) with
      | Ok { Cla_serve.Protocol.r_op = Cla_serve.Protocol.Points_to name; r_id; _ }
        ->
          let set =
            timed "solution.points_to" (fun () ->
                match Objfile.find_targets sol.Solution.view name with
                | v :: _ -> Solution.points_to sol v
                | [] -> die "query for unknown variable %S" name)
          in
          ignore
            (timed "protocol.render" (fun () ->
                 let names =
                   Lvalset.fold
                     (fun acc z -> Solution.var_name sol z :: acc)
                     [] set
                   |> List.rev
                 in
                 targets := !targets + List.length names;
                 Cla_serve.Protocol.ok_points_to ~id:r_id ~rung:"pretransitive"
                   ~degraded:false ~var:name ~targets:names ()));
          incr n
      | _ -> die "not a points-to request: %s" line)
    lines;
  count ~by:!n "query.count";
  count ~by:!targets "query.targets"

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let cmd_trace_analyze flags paths =
  let path = match paths with [ p ] -> p | _ -> die "trace-analyze FILE.cla" in
  let sol = analyze_layers path in
  (match List.assoc_opt "--queries" flags with
  | Some q -> query_layers sol (read_lines q)
  | None -> ());
  print_json
    (layers_json
       [
         ("pointer_vars", Json.Int (Solution.n_pointer_vars sol));
         ("relations", Json.Int (Solution.n_relations sol));
       ])

(* ------------------------------------------------------------------ *)
(* Delta path replay                                                   *)
(* ------------------------------------------------------------------ *)

(* What `cla serve --watch` does with one edit and its undo, over
   objects on disk: delta-link the edited unit and resume the solver,
   then restore the old unit — a removal — which relinks in full and
   falls back to a scratch solve. *)
let cmd_trace_watch flags clos =
  let unit_name = flag flags "--unit" ~default:"" in
  let pre = flag flags "--pre" ~default:"" and post = flag flags "--post" ~default:"" in
  let load p = Objfile.view_of_string (read_file p) in
  let others = List.map (fun p -> (Filename.basename p, load p)) clos in
  let set v = (unit_name, v) :: others in
  let pre_v = load pre and post_v = load post in
  let lstate, _ = Linkp.state_create (set pre_v) in
  let solver, _ = Andersen.solve_state (Linkp.state_view lstate) in
  let step v =
    let delta = timed "linkp.relink" (fun () -> Linkp.relink lstate (set v)) in
    let view = Linkp.state_view lstate in
    match
      timed "andersen.resume" (fun () -> Andersen.resume solver ~view ~delta)
    with
    | Some _ -> count "incremental.resumed"
    | None ->
        count "incremental.fallbacks";
        ignore (timed "andersen.fallback" (fun () -> Andersen.solve_state view))
  in
  step post_v;
  step pre_v;
  print_json (layers_json [])

(* The served edit stream, replayed in-process: the incremental
   pipeline's update — probe every unit, compile the misses, delta-link,
   resume or fall back — with a timer around each layer, over the same
   seeded stream the server was fed. *)
let cmd_trace_serve flags _ =
  let steps = int_flag flags "--steps" ~default:1 in
  let es = edit_stream flags in
  let compile_unit file src =
    let db = timed "compilep.compile" (fun () -> Compilep.compile_string ~file src) in
    let bytes = timed "objfile.write" (fun () -> Objfile.write db) in
    let view = timed "objfile.read" (fun () -> Objfile.view_of_string bytes) in
    (Option.get db.Objfile.tuhash, view)
  in
  let units = Hashtbl.create 64 in
  let dir = flag flags "--dir" ~default:"." in
  let path f = Filename.concat dir f in
  let initial =
    List.map
      (fun (f, src) ->
        let h, v = compile_unit (path f) src in
        Hashtbl.replace units f (h, v);
        (path f, v))
      (Cla_workload.Editstream.sources es)
  in
  (* the boot is set-up, not an edit: keep its layers out of the totals *)
  Hashtbl.reset layers;
  let lstate, _ = Linkp.state_create initial in
  let solver = ref (fst (Andersen.solve_state (Linkp.state_view lstate))) in
  let solution = ref None in
  let step_s = ref [] in
  for _ = 1 to steps do
    let step = Cla_workload.Editstream.next es in
    let t0 = now () in
    let set =
      List.map
        (fun (f, src) ->
          let h, v = Hashtbl.find units f in
          let probe =
            timed "compilep.tu_hash" (fun () -> Compilep.tu_hash ~file:(path f) src)
          in
          if String.equal h probe then begin
            count "incremental.cache_hits";
            (path f, v)
          end
          else begin
            count "incremental.cache_misses";
            let h, v = compile_unit (path f) src in
            Hashtbl.replace units f (h, v);
            (path f, v)
          end)
        step.Cla_workload.Editstream.ssources
    in
    let delta = timed "linkp.relink" (fun () -> Linkp.relink lstate set) in
    let view = Linkp.state_view lstate in
    (match
       timed "andersen.resume" (fun () -> Andersen.resume !solver ~view ~delta)
     with
    | Some r ->
        count "incremental.resumed";
        solution := Some r.Andersen.solution
    | None ->
        count "incremental.fallbacks";
        let st, r = timed "andersen.fallback" (fun () -> Andersen.solve_state view) in
        solver := st;
        solution := Some r.Andersen.solution);
    step_s := (now () -. t0) :: !step_s
  done;
  let sol =
    match !solution with Some s -> s | None -> die "--steps must be >= 1"
  in
  (match List.assoc_opt "--queries" flags with
  | Some q -> query_layers sol (read_lines q)
  | None -> ());
  print_json
    (layers_json
       [
         ("step_median_s", Json.Float (median !step_s));
         ("pointer_vars", Json.Int (Solution.n_pointer_vars sol));
         ("relations", Json.Int (Solution.n_relations sol));
         ("name_digest", Json.Str (name_digest sol));
       ])

(* ------------------------------------------------------------------ *)
(* Inputs and references                                               *)
(* ------------------------------------------------------------------ *)

(* Materialize the seeded Genc program of a profile into [--dir], then
   serve its edit stream: each "next" line on stdin applies one
   Editstream edit, rewrites the edited file, and answers
   "FILE<TAB>REMOVAL".  With [--names K], first compile, link and solve
   the base program in-process and write K queryable variable names to
   [--names-out]. *)
let cmd_tree flags _ =
  let seed = int_flag flags "--seed" ~default:1 in
  let dir = flag flags "--dir" ~default:"." in
  let es = edit_stream flags in
  let sources = Cla_workload.Editstream.sources es in
  List.iter (fun (f, src) -> write_file (Filename.concat dir f) src) sources;
  (match List.assoc_opt "--names" flags with
  | Some k ->
      let views =
        List.map
          (fun (f, src) ->
            Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file:f src)))
          sources
      in
      let db, _ = Linkp.link_views views in
      let view = Objfile.view_of_string (Objfile.write db) in
      let sol = (Andersen.solve view).Andersen.solution in
      write_file
        (flag flags "--names-out" ~default:"names.txt")
        (String.concat "\n" (sample_names ~seed ~k:(int_of_string k) sol) ^ "\n")
  | None -> ());
  print_endline "ready";
  let rec loop () =
    match input_line stdin with
    | "next" ->
        let step = Cla_workload.Editstream.next es in
        let file = step.Cla_workload.Editstream.sfile in
        write_file (Filename.concat dir file)
          (List.assoc file step.Cla_workload.Editstream.ssources);
        Printf.printf "%s\t%d\n%!" file
          (if step.Cla_workload.Editstream.sremoval then 1 else 0);
        loop ()
    | "" -> loop ()
    | l -> die "tree: unknown command %S" l
    | exception End_of_file -> ()
  in
  loop ()

(* The solution of a linked database, by the paper's pre-transitive
   solver or by the independent bit-vector baseline, with the answers
   for the variables named in [--names FILE]. *)
let cmd_solve flags paths =
  let path = match paths with [ p ] -> p | _ -> die "solve FILE.cla" in
  let view = Objfile.load path in
  let sol =
    match flag flags "--algo" ~default:"pretransitive" with
    | "pretransitive" -> (Andersen.solve view).Andersen.solution
    | "bitvector" ->
        (* outside any timing: use both cores *)
        Bitsolver.solve ~pool:(Cla_par.Pool.shared ~jobs:2) view
    | a -> die "unknown algorithm %S" a
  in
  let named =
    match List.assoc_opt "--names" flags with
    | None -> []
    | Some f ->
        [
          ( "answers",
            Json.Obj
              (List.map
                 (fun n ->
                   (n, Json.Arr (List.map (fun s -> Json.Str s) (targets_of sol n))))
                 (read_lines f)) );
        ]
  in
  print_json
    (Json.Obj
       (solution_json ~by_name:(has flags "--by-name")
          ~seed:(int_flag flags "--seed" ~default:1)
          ~k:(int_flag flags "--sample" ~default:0)
          sol
       @ named))

(* Open-world soundness on a fragment: link the objects closed-world
   (undefined functions ignored) in-process, solve, and check that every
   closed-world points-to set is a subset of the set of the same
   variable in OPEN.cla, the same objects linked with --open-world.  The
   open-world link appends its synthesized variables, so ids below the
   closed database's size name the same variables in both. *)
let cmd_subset _ paths =
  let opened, clos =
    match paths with o :: (_ :: _ as c) -> (o, c) | _ -> die "subset OPEN.cla CLO..."
  in
  let closed_db, _ =
    Linkp.link_views (List.map (fun p -> Objfile.view_of_string (read_file p)) clos)
  in
  let solve v = (Andersen.solve v).Andersen.solution in
  let c = solve (Objfile.view_of_string (Objfile.write closed_db)) in
  let o = solve (Objfile.load opened) in
  let checked = ref 0 and violations = ref 0 in
  for v = 0 to Objfile.n_vars c.Solution.view - 1 do
    if Solution.is_program_var c v then begin
      incr checked;
      if Solution.var_name c v <> Solution.var_name o v then incr violations
      else
        let os = Solution.points_to o v in
        Lvalset.iter
          (fun z -> if not (Lvalset.mem z os) then incr violations)
          (Solution.points_to c v)
    end
  done;
  print_json
    (Json.Obj
       [
         ("checked", Json.Int !checked);
         ("violations", Json.Int !violations);
         ("closed_relations", Json.Int (Solution.n_relations c));
         ("pointer_vars", Json.Int (Solution.n_pointer_vars o));
         ("relations", Json.Int (Solution.n_relations o));
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let flags, pos = parse_args rest in
      match cmd with
      | "tree" -> cmd_tree flags pos
      | "solve" -> cmd_solve flags pos
      | "subset" -> cmd_subset flags pos
      | "trace-compile" -> cmd_trace_compile flags pos
      | "trace-cliedit" -> cmd_trace_cliedit flags pos
      | "trace-link" -> cmd_trace_link flags pos
      | "trace-analyze" -> cmd_trace_analyze flags pos
      | "trace-watch" -> cmd_trace_watch flags pos
      | "trace-serve" -> cmd_trace_serve flags pos
      | c -> die "unknown command %S" c)
  | _ -> die "usage: probe COMMAND [ARGS]"
