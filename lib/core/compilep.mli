(** The CLA compile phase: C source -> object-file database.

    "The compile phase parses source files, extracts assignments and
    function calls/returns/definitions, and writes an object file that is
    basically an indexed database structure of these basic program
    components.  No analysis is performed yet." (Section 4) *)

type options = {
  mode : Cla_cfront.Normalize.mode;
      (** field-based (paper default) or field-independent structs *)
  include_dirs : string list;
  defines : (string * string) list;
  virtual_fs : (string * string) list;  (** in-memory headers, for tests *)
  drop_bodies : string list;
      (** names of functions whose bodies are suppressed, keeping their
          declared interfaces — the building block of open-world
          deletion testing.  Order and duplicates do not matter. *)
}

val default_options : options

(** Lower a normalized translation unit to a serializable database. *)
val db_of_prog :
  ?source_lines:int -> ?preproc_lines:int -> Cla_ir.Prog.t -> Objfile.db

(** Content-hash a translation unit without parsing it: preprocessed
    source plus a canonical rendering of the options (mode, include
    dirs, defines, and [drop_bodies] when non-empty).  With default
    options this is the hex digest of ["field_based\x00"] followed by
    the preprocessed text.  Equals the [Objfile.tuhash] that
    {!compile_string} records for the same input. *)
val tu_hash : ?options:options -> file:string -> string -> string

(** Compile C source text into a database carrying
    [tuhash = Some (tu_hash ...)].  Recorded as a ["compile"] span
    (labelled with the file) and published as [compile.*] metrics; it
    consults no cache. *)
val compile_string : ?options:options -> file:string -> string -> Objfile.db

(** What {!compile_unit} did with a unit. *)
type outcome =
  | Hit  (** the unit hashes to the caller's [cached] hash *)
  | Compiled of Objfile.db  (** parsed afresh, like {!compile_string} *)

(** The compile cache's one decision: preprocess the unit once, hash it,
    and either report a {!Hit} against [cached] (the hash recorded for
    this unit last time, if any) or parse the text already in hand.
    Returns the unit's hash with the outcome and bumps
    [compile.cache.hits] or [compile.cache.misses]. *)
val compile_unit :
  ?options:options ->
  ?cached:string ->
  file:string ->
  string ->
  string * outcome

(** Compile a C file from disk. *)
val compile_file : ?options:options -> string -> Objfile.db

(** Compile and serialize to an object file on disk (like [cc -c]). *)
val compile_to : ?options:options -> output:string -> string -> unit
