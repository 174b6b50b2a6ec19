(** The incremental compile–link–analyze driver.

    Holds the three persistent states of the pipeline — the per-unit
    compile cache (TU content hash -> compiled unit view), the delta
    linker ({!Linkp.state}), and the solver's iteration state
    ({!Andersen.t}) — and threads an edited source set through all
    three:

    - unchanged units are detected by {!Compilep.compile_unit} (one
      preprocessor run, no parse on a hit) and reused, counted in
      [compile.cache.hits]/[compile.cache.misses];
    - the delta linker patches the linked view in place of a full
      re-merge when it can ({!Linkp.relink});
    - a pure-add constraint delta is absorbed by {!Andersen.resume} —
      surviving reachability memos and difference-propagation state do
      most of the work — and anything else falls back to a from-scratch
      solve behind the [pretrans.delta.fallbacks] counter.

    The invariant the whole chain maintains: after every {!update}, the
    held solution equals a from-scratch
    compile-link-{!Andersen.solve} of the same sources
    ({!Solution.equal}); the incremental path only changes how fast it
    is computed. *)

let now = Cla_resilience.Deadline.now_s

type t = {
  options : Compilep.options;
  pool : Cla_par.Pool.t option;
  units : (string, string * Objfile.view) Hashtbl.t;
      (* file -> (tuhash, compiled unit view) *)
  lstate : Linkp.state;
  mutable solver : Andersen.t;
  mutable result : Andersen.result;
}

type stats = {
  sources : int;
  cache_hits : int;
  cache_misses : int;
  resumed : bool;
  delta_pure : bool;
  delta_added : int;
  delta_removed : int;
  wall_compile_s : float;
  wall_link_s : float;
  wall_solve_s : float;
}

(* Compile one unit through {!Compilep.compile_unit}, probing with the
   hash its table entry recorded: a hit reuses the entry's view, a miss
   replaces the entry.  Returns whether it was a hit, and the unit. *)
let compile_into ~options units (file, src) =
  let entry = Hashtbl.find_opt units file in
  match
    Compilep.compile_unit ~options ?cached:(Option.map fst entry) ~file src
  with
  | _, Compilep.Hit -> (true, (file, snd (Option.get entry)))
  | h, Compilep.Compiled db ->
      let uview = Objfile.view_of_string (Objfile.write db) in
      Hashtbl.replace units file (h, uview);
      (false, (file, uview))

let solution t = t.result.Andersen.solution
let result t = t.result
let view t = Linkp.state_view t.lstate

let create ?(options = Compilep.default_options) ?pool ?(units = []) sources =
  let t0 = now () in
  let tbl = Hashtbl.create 64 in
  let compiled =
    List.map (fun u -> snd (compile_into ~options tbl u)) sources
  in
  let t1 = now () in
  let lstate, delta = Linkp.state_create (compiled @ units) in
  let lview = Linkp.state_view lstate in
  let t2 = now () in
  let solver, result = Andersen.solve_state ?pool lview in
  let t3 = now () in
  ( { options; pool; units = tbl; lstate; solver; result },
    {
      sources = List.length sources + List.length units;
      cache_hits = 0;
      cache_misses = List.length sources;
      resumed = false;
      delta_pure = Linkp.delta_is_pure_add delta;
      delta_added = Linkp.delta_size_added delta;
      delta_removed = Linkp.delta_size_removed delta;
      wall_compile_s = t1 -. t0;
      wall_link_s = t2 -. t1;
      wall_solve_s = t3 -. t2;
    } )

let update t ?(units = []) sources =
  Cla_obs.Obs.with_span "incremental.update" @@ fun () ->
  Cla_obs.Metrics.incr "incremental.updates";
  let t0 = now () in
  let hits = ref 0 and misses = ref 0 in
  let compiled =
    List.map
      (fun u ->
        let hit, unit_ = compile_into ~options:t.options t.units u in
        incr (if hit then hits else misses);
        unit_)
      sources
  in
  (* forget cache entries for files no longer in the source set *)
  let present = Hashtbl.create 64 in
  List.iter (fun (file, _) -> Hashtbl.replace present file ()) compiled;
  let stale =
    Hashtbl.fold
      (fun file _ acc -> if Hashtbl.mem present file then acc else file :: acc)
      t.units []
  in
  List.iter (Hashtbl.remove t.units) stale;
  let t1 = now () in
  let delta = Linkp.relink t.lstate (compiled @ units) in
  let lview = Linkp.state_view t.lstate in
  let t2 = now () in
  let resumed, result =
    match Andersen.resume ?pool:t.pool t.solver ~view:lview ~delta with
    | Some r -> (true, r)
    | None ->
        (* resume declined (removal, full relink, ...) and bumped
           [pretrans.delta.fallbacks]; re-solve from scratch over the
           relinked view *)
        let solver, r = Andersen.solve_state ?pool:t.pool lview in
        t.solver <- solver;
        (false, r)
  in
  t.result <- result;
  let t3 = now () in
  {
    sources = List.length sources + List.length units;
    cache_hits = !hits;
    cache_misses = !misses;
    resumed;
    delta_pure =
      Linkp.delta_is_pure_add delta && not delta.Linkp.d_full_relink;
    delta_added = Linkp.delta_size_added delta;
    delta_removed = Linkp.delta_size_removed delta;
    wall_compile_s = t1 -. t0;
    wall_link_s = t2 -. t1;
    wall_solve_s = t3 -. t2;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d sources (%d cached, %d compiled), delta %s+%d/-%d, %s solve, \
     compile %.3fs link %.3fs solve %.3fs"
    s.sources s.cache_hits s.cache_misses
    (if s.delta_pure then "pure-add " else "")
    s.delta_added s.delta_removed
    (if s.resumed then "resumed" else "scratch")
    s.wall_compile_s s.wall_link_s s.wall_solve_s
