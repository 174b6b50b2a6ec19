(** Mini C preprocessor.

    The paper's compile phase consumes unpreprocessed source; this covers
    the cpp subset real code and the synthetic workloads exercise:
    object- and function-like macros with [#] stringize and [##] paste and
    [__VA_ARGS__], [#include] with search paths and an in-memory virtual
    filesystem for tests, the full conditional family with a constant
    expression evaluator, [#undef], [#error], and comment handling.

    Output is plain text with GNU-style [# <line> "<file>"] markers which
    {!Clexer} interprets, so downstream locations refer to original
    files.  Missing [<system>] headers expand to nothing (the sealed
    environment has none and the analysis only needs assignment
    structure); missing ["local"] headers are errors. *)

exception Cpp_error of string * string * int
(** (message, file, line) *)

(** Preprocess [content] as if it were file [file]. *)
val preprocess_string :
  ?include_dirs:string list ->
  ?virtual_fs:(string * string) list ->
  ?defines:(string * string) list ->
  file:string ->
  string ->
  string
