(** The incremental compile–link–analyze driver: persistent pipeline
    state that absorbs source edits.

    {!create} compiles, links and solves a source set from scratch while
    keeping the three pieces of reusable state: the per-unit compile
    cache (TU content hash -> unit view, probed through
    {!Compilep.compile_unit}), the delta linker ({!Linkp.state}) and the solver's iteration state
    ({!Andersen.t}).  Each {!update} then skips unchanged units
    ([compile.cache.hits]), patches the linked view
    ({!Linkp.relink}) and — on a pure-add constraint delta — resumes
    the solver ({!Andersen.resume}) instead of re-solving.  Any delta
    the resume cannot handle soundly falls back to a from-scratch solve
    behind [pretrans.delta.fallbacks].

    Soundness invariant: after every {!update}, {!solution} is
    {!Solution.equal} to a from-scratch solve of the same sources —
    incrementality changes the wall-clock, never the answer. *)

type t

(** Per-{!update} accounting, for callers that report or gate on the
    incremental path being taken. *)
type stats = {
  sources : int;  (** units in the set *)
  cache_hits : int;  (** units reused via TU-hash probe *)
  cache_misses : int;  (** units recompiled *)
  resumed : bool;  (** solver resumed (vs from-scratch fallback) *)
  delta_pure : bool;  (** link delta was pure-add with stable ids *)
  delta_added : int;  (** added constraints across sections *)
  delta_removed : int;
  wall_compile_s : float;
  wall_link_s : float;
  wall_solve_s : float;
}

(** [create ?options ?pool ?units sources] — full build of
    [(file, source)] pairs (file names unique; they key the compile
    cache and the delta linker's unit matching).  [pool] parallelizes
    the solver's query fan-out.  [units] are pre-compiled unit views
    (e.g. [.clo] files the caller loads and revalidates itself —
    {!Loader.load_file_cached}) linked after the compiled sources; they
    bypass the compile cache and its hit/miss counters. *)
val create :
  ?options:Compilep.options ->
  ?pool:Cla_par.Pool.t ->
  ?units:(string * Objfile.view) list ->
  (string * string) list ->
  t * stats

(** Re-sync to an edited source set.  Files absent from [sources] (and
    [units]) are unlinked (a removal — the solver falls back to
    scratch); new files are compiled and linked in; everything else is
    probed by content hash.  [units] follow {!create}'s contract. *)
val update : t -> ?units:(string * Objfile.view) list -> (string * string) list -> stats

(** The current points-to solution, indexed by the current linked
    view's variable ids. *)
val solution : t -> Solution.t

(** The full solver result behind {!solution}. *)
val result : t -> Andersen.result

(** The current linked view. *)
val view : t -> Objfile.view

val pp_stats : Format.formatter -> stats -> unit
