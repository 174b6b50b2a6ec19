(** Fault injection for CLA object files.

    Robustness harness: mutate serialized database bytes in ways that
    model real-world corruption — truncated downloads, flipped bits,
    reordered section tables — and check that the reader upholds its
    contract: every mutated file either loads and analyzes to the
    {e identical} solution, or is rejected with a structured
    [Binio.Corrupt] / [Diag.Fail].  Any other exception, out-of-bounds
    access, or runaway allocation is a bug in the reader.

    Mutations are drawn from the deterministic {!Rng}, so a sweep is
    reproducible from its seed. *)

open Cla_core

type mutation =
  | Truncate of int  (** keep only the first [n] bytes *)
  | Byte_flip of int * int  (** xor the byte at [offset] with [mask] *)
  | Table_swap of int * int
      (** swap section-table entries [i] and [j] wholesale *)

let describe = function
  | Truncate n -> Fmt.str "truncate to %d bytes" n
  | Byte_flip (off, mask) -> Fmt.str "flip byte %d with 0x%02x" off mask
  | Table_swap (i, j) -> Fmt.str "swap section-table entries %d and %d" i j

(* A CLA2 section-table entry: u8 id, u32 off, u32 size, u32 crc. *)
let esize = 13

(* The section count of serialized bytes, or None if the file is too
   mangled to locate a table (mutations then fall back to byte flips). *)
let table_geometry data =
  if String.length data < 8 || String.sub data 0 4 <> "CLA2" then None
  else
    let b i = Char.code data.[i] in
    let nsec = b 4 lor (b 5 lsl 8) lor (b 6 lsl 16) lor (b 7 lsl 24) in
    if nsec < 2 || 8 + (nsec * esize) > String.length data then None
    else Some nsec

let apply data = function
  | Truncate n -> String.sub data 0 (min n (String.length data))
  | Byte_flip (off, mask) ->
      if off >= String.length data then data
      else begin
        let b = Bytes.of_string data in
        Bytes.set b off (Char.chr (Char.code data.[off] lxor (mask land 0xff)));
        Bytes.unsafe_to_string b
      end
  | Table_swap (i, j) -> (
      match table_geometry data with
      | None -> data
      | Some nsec ->
          let i = i mod nsec and j = j mod nsec in
          let b = Bytes.of_string data in
          let oi = 8 + (i * esize) and oj = 8 + (j * esize) in
          Bytes.blit_string data oj b oi esize;
          Bytes.blit_string data oi b oj esize;
          Bytes.unsafe_to_string b)

(* CLA2's table checksum deliberately rejects reordered tables, so a
   Table_swap on current-format bytes must re-seal the header to test
   what it is meant to test: that the *reader* is order-independent.
   [reseal] recomputes the table crc32; on unrecognizable bytes it is
   the identity. *)
let reseal data =
  match table_geometry data with
  | Some nsec when String.length data >= 8 + (nsec * esize) + 4 ->
      let table_end = 8 + (nsec * esize) in
      let crc = Crc32.sub data ~pos:4 ~len:(table_end - 4) in
      let b = Bytes.of_string data in
      Bytes.set_uint8 b table_end (crc land 0xff);
      Bytes.set_uint8 b (table_end + 1) ((crc lsr 8) land 0xff);
      Bytes.set_uint8 b (table_end + 2) ((crc lsr 16) land 0xff);
      Bytes.set_uint8 b (table_end + 3) ((crc lsr 24) land 0xff);
      Bytes.unsafe_to_string b
  | _ -> data

let random rng data =
  let len = String.length data in
  match Rng.int rng 3 with
  | 0 -> Truncate (Rng.int rng (max 1 len))
  | 1 -> Byte_flip (Rng.int rng (max 1 len), 1 + Rng.int rng 255)
  | _ -> Table_swap (Rng.int rng 64, Rng.int rng 64)

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Accepted of Solution.t  (** parsed and analyzed *)
  | Rejected of string  (** structured corruption diagnostic *)

(** The reader's contract was broken: a mutation escaped as something
    other than [Binio.Corrupt] / [Diag.Fail]. *)
exception Invariant_violation of mutation * exn

(* Load + analyze mutated bytes.  [demand:false] forces every dynamic
   block through the decoder, so corruption in a block the analysis
   would not otherwise touch is still exercised. *)
let check_bytes mutated =
  match
    let v = Objfile.view_of_string mutated in
    (Andersen.solve ~demand:false v).Andersen.solution
  with
  | sol -> Accepted sol
  | exception Binio.Corrupt msg -> Rejected msg
  | exception Diag.Fail d -> Rejected (Diag.to_string d)

let check data m =
  let mutated =
    match m with
    | Table_swap _ -> reseal (apply data m)
    | _ -> apply data m
  in
  try check_bytes mutated
  with e -> raise (Invariant_violation (m, e))

type stats = {
  n_total : int;
  n_accepted : int;  (** loaded and analyzed (identical solution) *)
  n_rejected : int;  (** rejected with a structured diagnostic *)
}

(** Run [n] random mutations of [data] through load + analyze.  When
    [baseline] is given, an accepted mutant whose solution differs from
    it is an {!Invariant_violation} — corruption must never silently
    change analysis results. *)
let sweep ?baseline ~seed ~n data =
  let rng = Rng.create seed in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to n do
    let m = random rng data in
    match check data m with
    | Accepted sol ->
        (match baseline with
        | Some b when not (Solution.equal b sol) ->
            raise
              (Invariant_violation
                 (m, Failure "accepted mutant with a different solution"))
        | _ -> ());
        incr accepted
    | Rejected _ -> incr rejected
  done;
  { n_total = n; n_accepted = !accepted; n_rejected = !rejected }
