(** Synthetic C workload generator.

    Produces a deterministic multi-file C program whose primitive-assignment
    mix matches a Table 2 profile: the generator plans exactly the requested
    number of [x = y], [x = &y], [*x = y], [x = *y] and [*x = *y]
    assignments (function calls and definitions consume part of the copy
    budget, as they lower to argument/return copies), distributes them over
    functions across files, and renders compilable C.

    Shape matters as much as counts: a few {e hub} pointers receive most of
    the address-of assignments and copy chains spread their points-to sets
    (the paper's "join-point effect", Section 5), with the concentration
    controlled by the profile's [hubbiness]; struct traffic is laid out so
    that the field-based / field-independent choice separates measurably
    (each field is fed from its own hub, so collapsing fields onto their
    base objects — field-independent — unions unrelated hub sets, Table 4's
    effect). *)

open Cla_ir

type var = {
  vname : string;
  vfile : int;  (* owning file; -1 = global to all (extern-linked) *)
  vfun : int;  (* owning function; -1 = file scope *)
  vcomm : int;  (* owning community; -1 = shared *)
  level : int;  (* 0 = int, 1 = int*, 2 = int**, 3 = int*** *)
}

type func = { fname : string; ffile : int; arity : int; fidx : int }

type t = {
  params : Profile.t;
  seed : int64;
  n_files : int;
  funcs : func array;
  (* pools by (level); each entry carries visibility *)
  globals : var array array;  (* globals.(level) *)
  statics : var array array array;  (* statics.(file).(level), for rendering *)
  statics_comm : var array array array;  (* statics.(community).(level) *)
  locals : var array array array;  (* locals.(func).(level) *)
  n_structs : int;
  fields_per_struct : int;
  n_instances : int;  (* struct-typed variables (all global) *)
  n_funptrs : int;
  n_comm : int;  (* communities: locality domains for variable usage *)
  n_hubs : int array;  (* per level: size of the shared hub region *)
  n_sinks : int array;  (* per level: tail region that reads from hubs *)
}

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let plan (p : Profile.t) ~seed : t =
  let v = p.variables in
  let n_files = max 2 (v / 1200) in
  let n_funcs = max 3 (v / 45) in
  let n_comm = max 2 (n_funcs / 4) in
  let n_structs = max 1 (v / 150) in
  let fields_per_struct = 6 in
  let n_instances = max 2 (n_structs * 2) in
  let n_funptrs = max 2 (p.n_indirect / 8) in
  let c = p.counts in
  let p1 = max 8 (min (v / 5) (c.Prim.n_addr * 2 / 3)) in
  let p2 = max 4 (p1 / 8) in
  let p3 = max 2 (p2 / 8) in
  let overhead = (n_funcs * 7) + (n_structs * fields_per_struct) + n_instances + n_funptrs in
  let ints = max (v / 4) (v - overhead - p1 - p2 - p3) in
  (* split each level pool into globals (55%), statics (15%), locals *)
  let rng = Rng.create seed in
  let funcs =
    Array.init n_funcs (fun i ->
        {
          fname = Fmt.str "fn%d" i;
          ffile = i * n_files / n_funcs;
          arity = 1 + Rng.int rng 3;
          fidx = i;
        })
  in
  let mk_pools total level prefix =
    let n_glob = max 1 (total * 55 / 100) in
    let n_stat = max 0 (total * 15 / 100) in
    let n_loc = max 0 (total - n_glob - n_stat) in
    let globals =
      Array.init n_glob (fun i ->
          { vname = Fmt.str "%sg%d_%d" prefix level i; vfile = -1; vfun = -1; vcomm = -1; level })
    in
    let statics =
      Array.init n_stat (fun i ->
          (* a static belongs to a community; it lives in a file hosting
             that community's functions *)
          let c = Rng.int rng n_comm in
          let fn = min (n_funcs - 1) (c * n_funcs / n_comm) in
          {
            vname = Fmt.str "%ss%d_%d" prefix level i;
            vfile = funcs.(fn).ffile;
            vfun = -1;
            vcomm = c;
            level;
          })
    in
    let locals =
      Array.init n_loc (fun i ->
          let fn = Rng.int rng n_funcs in
          {
            vname = Fmt.str "%sl%d_%d" prefix level i;
            vfile = funcs.(fn).ffile;
            vfun = fn;
            vcomm = fn * n_comm / n_funcs;
            level;
          })
    in
    (globals, statics, locals)
  in
  let g0, s0, l0 = mk_pools ints 0 "" in
  let g1, s1, l1 = mk_pools p1 1 "" in
  let g2, s2, l2 = mk_pools p2 2 "" in
  let g3, s3, l3 = mk_pools p3 3 "" in
  (* single-pass bucketing (a filter per bucket is quadratic at gimp scale) *)
  let bucket n key arr =
    let out = Array.make n [] in
    Array.iter
      (fun v ->
        let k = key v in
        if k >= 0 && k < n then out.(k) <- v :: out.(k))
      arr;
    Array.map (fun l -> Array.of_list (List.rev l)) out
  in
  (* bucket each of the four pools once, then regroup per bucket *)
  let by n key (a0, a1, a2, a3) =
    let b0 = bucket n key a0 and b1 = bucket n key a1
    and b2 = bucket n key a2 and b3 = bucket n key a3 in
    Array.init n (fun k -> [| b0.(k); b1.(k); b2.(k); b3.(k) |])
  in
  {
    params = p;
    seed;
    n_files;
    funcs;
    globals = [| g0; g1; g2; g3 |];
    statics = by n_files (fun v -> v.vfile) (s0, s1, s2, s3);
    statics_comm = by n_comm (fun v -> v.vcomm) (s0, s1, s2, s3);
    locals = by n_funcs (fun v -> v.vfun) (l0, l1, l2, l3);
    n_structs;
    fields_per_struct;
    n_instances;
    n_funptrs;
    n_comm;
    n_hubs =
      [| 0;
         max 2 (Array.length g1 / 48);
         max 1 (Array.length g2 / 16);
         max 1 (Array.length g3 / 8) |];
    n_sinks = [| 0; Array.length g1 * 2 / 5; Array.length g2 / 6; 0 |];
  }

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

type out = {
  t : t;
  rng : Rng.t;
  bodies : Buffer.t array;  (* one per function *)
  headers : Buffer.t array;  (* file-scope text per file *)
  used_globals : (string, unit) Hashtbl.t array;  (* extern decls needed *)
  mutable stmt_count : int array;  (* statements per function, for if-wrapping *)
}

let typ_of_level = function
  | 0 -> "int "
  | 1 -> "int *"
  | 2 -> "int **"
  | _ -> "int ***"

(* The community a function belongs to: a locality domain.  Variable uses
   stay inside the community except for the shared hub region and rare
   cross-community joins — real code bases are modular, and it is exactly
   the rare central objects that make points-to sets blow up (Section 5's
   join-point effect). *)
let comm_of o fn = fn * o.t.n_comm / Array.length o.t.funcs

(* Struct types are partitioned across communities too (a module's data
   structures are its own); an instance's type is drawn from its
   community's share so no field variable bridges communities. *)
let type_of_instance t i =
  let c = i mod t.n_comm in
  let per = max 1 (t.n_structs / t.n_comm) in
  let j = (c mod t.n_structs) + (t.n_comm * (i / t.n_comm mod per)) in
  if j < t.n_structs && j mod t.n_comm = c mod t.n_comm then j
  else c mod t.n_structs

(* Pick a variable of [level] visible inside function [fn].  [bias] selects
   from the shared hub region (concentration controlled by the profile's
   hubbiness); otherwise the pick stays in [fn]'s community slice of the
   global pool, or its file statics / function locals. *)
let pick ?(sink = false) o ~fn ~level ~bias =
  let t = o.t in
  let f = t.funcs.(fn) in
  let choice = Rng.int o.rng 100 in
  let nhub l = min t.n_hubs.(l) (Array.length t.globals.(l)) in
  let nsink l =
    min t.n_sinks.(l) (max 0 (Array.length t.globals.(l) - nhub l))
  in
  let from_hubs () =
    let pool = t.globals.(level) in
    let h = nhub level in
    if h = 0 then None
    else Some pool.(Rng.biased o.rng h (t.params.Profile.hubbiness ** 2.0))
  in
  (* the sink region: "reader" variables at the tail of the pool that take
     values from hubs but are never dereferenced — the cheap way real
     programs accumulate enormous points-to sets (emacs-like rows) *)
  let from_sinks () =
    let pool = t.globals.(level) in
    let k = nsink level in
    if k = 0 then from_hubs ()
    else Some pool.(Array.length pool - 1 - Rng.int o.rng k)
  in
  let from_globals () =
    let pool = t.globals.(level) in
    let h = nhub level in
    let n = Array.length pool - h - nsink level in
    if n <= 0 then from_hubs ()
    else begin
      (* community slice of the non-hub, non-sink region *)
      let c = comm_of o fn in
      let sz = max 1 (n / t.n_comm) in
      let lo = h + (c * sz) in
      let lo = if lo + sz > h + n then h else lo in
      let sz = min sz (max 1 (h + n - lo)) in
      Some pool.(lo + Rng.int o.rng sz)
    end
  in
  let from_statics () =
    (* community-owned statics only: a file's statics that belong to other
       communities are another module's privates *)
    let pool = t.statics_comm.(comm_of o fn).(level) in
    if Array.length pool = 0 then None else Some (Rng.choose o.rng pool)
  in
  let from_locals () =
    let pool = t.locals.(fn).(level) in
    if Array.length pool = 0 then None else Some (Rng.choose o.rng pool)
  in
  let v =
    if sink then from_sinks ()
    else if bias then from_hubs ()
    else
      match
        if choice < 55 then from_globals ()
        else if choice < 70 then from_statics ()
        else from_locals ()
      with
      | Some v -> Some v
      | None -> (
          match from_globals () with Some v -> Some v | None -> from_locals ())
  in
  match v with
  | Some v ->
      if v.vfile = -1 then
        Hashtbl.replace o.used_globals.(f.ffile)
          (v.vname ^ "|" ^ typ_of_level level)
          ();
      v
  | None -> { vname = "dummy0"; vfile = -1; vfun = -1; vcomm = -1; level }

let stmt o ~fn text =
  let b = o.bodies.(fn) in
  o.stmt_count.(fn) <- o.stmt_count.(fn) + 1;
  (* light control-flow realism: every so often, guard a statement *)
  if o.stmt_count.(fn) mod 11 = 7 then
    Buffer.add_string b (Fmt.str "  if (cond) { %s }\n" text)
  else if o.stmt_count.(fn) mod 17 = 13 then
    Buffer.add_string b (Fmt.str "  while (cond) { %s break; }\n" text)
  else Buffer.add_string b (Fmt.str "  %s\n" text)

let int_ops = [| "+"; "+"; "-"; "&"; "|"; "*"; ">>"; "/"; "!"; "^" |]

(** Generate the program for [profile].  Returns [(filename, source)]
    pairs, ready for {!Cla_core.Pipeline.compile_link}. *)
let generate ?(seed = 42L) (profile : Profile.t) : (string * string) list =
  let t = plan profile ~seed in
  let rng = Rng.create (Int64.add seed 17L) in
  let n_funcs = Array.length t.funcs in
  let o =
    {
      t;
      rng;
      bodies = Array.init n_funcs (fun _ -> Buffer.create 512);
      headers = Array.init t.n_files (fun _ -> Buffer.create 512);
      used_globals = Array.init t.n_files (fun _ -> Hashtbl.create 64);
      stmt_count = Array.make n_funcs 0;
    }
  in
  let c = profile.Profile.counts in
  (* One knob gates every cross-community mechanism: the fraction of
     operations allowed to touch the shared hub region.  Low-aliasing
     benchmarks (nethack) have essentially none; emacs-like ones have
     many (their Table 3 points-to sets are two orders of magnitude
     denser). *)
  let join_frac =
    Float.min 0.30 (Float.max 0.004 ((profile.Profile.hubbiness -. 1.0) *. 0.05))
  in
  (* Absolute budgets derived from the Table 3 targets, so shape holds at
     every scale: the mega-set (what a hub aggregates) is ~3x the target
     average points-to set, and the number of join copies is what is
     needed to reach the target relation volume through sinks. *)
  let t3 = profile.Profile.table3 in
  let mega =
    max 10
      (3 * t3.Profile.t3_relations / max 1 t3.Profile.t3_pointer_vars)
  in
  let join_budget = max 8 (t3.Profile.t3_relations / mega) in
  let hub_addr_budget = mega in
  let hub_addrs_used = ref 0 in
  let joins_used = ref 0 in
  let hubhub_budget = max 2 (t.n_hubs.(1) / 2) in
  let hubhub_used = ref 0 in
  (* field 0 of each struct is the "link" field (next pointers etc.): it
     carries a hub-sized set.  Field-based analysis isolates it; the
     field-independent mode merges it into the base object, where reads of
     the *other* fields pick it up — Table 4's blowup. *)
  let struct_hub_budget = max 4 (join_budget / 4) in
  let struct_hub_used = ref 0 in
  (* ---- copy budget bookkeeping ---- *)
  let copies_left = ref c.Prim.n_copy in
  let addrs_left = ref c.Prim.n_addr in
  let take budget n = budget := max 0 (!budget - n) in
  let rand_fn () = Rng.int rng n_funcs in
  (* every function definition lowers each parameter to one copy
     [prm_i = fn@i]; charge them to the copy budget up front *)
  Array.iter (fun f -> take copies_left f.arity) t.funcs;

  (* ---- direct calls: consume (arity + 1) copies each ---- *)
  let call_budget = min (c.Prim.n_copy / 12) (6 * n_funcs) in
  let n_calls = ref 0 in
  while !copies_left > 0 && !n_calls * 3 < call_budget do
    let caller = rand_fn () in
    let callee = t.funcs.(Rng.int rng n_funcs) in
    let args =
      List.init callee.arity (fun _ ->
          (pick o ~fn:caller ~level:0 ~bias:false).vname)
    in
    let dst = pick o ~fn:caller ~level:0 ~bias:false in
    stmt o ~fn:caller
      (Fmt.str "%s = %s(%s);" dst.vname callee.fname (String.concat ", " args));
    take copies_left (callee.arity + 1);
    incr n_calls
  done;

  (* ---- indirect calls: fp = &fn (addr) + per-site arg/ret copies ---- *)
  let funptrs = Array.init t.n_funptrs (fun i -> Fmt.str "fp%d" i) in
  Array.iteri
    (fun i fp ->
      let target = t.funcs.(Rng.int rng n_funcs) in
      let fn = rand_fn () in
      stmt o ~fn (Fmt.str "%s = &%s;" fp target.fname);
      ignore i;
      take addrs_left 1)
    funptrs;
  for _ = 1 to profile.Profile.n_indirect do
    let caller = rand_fn () in
    let fp = Rng.choose rng funptrs in
    let a1 = pick o ~fn:caller ~level:0 ~bias:false in
    let dst = pick o ~fn:caller ~level:0 ~bias:false in
    stmt o ~fn:caller (Fmt.str "%s = (*%s)(%s);" dst.vname fp a1.vname);
    take copies_left 2
  done;

  (* ---- struct traffic: each field is fed from its own hub pointer so
     field-based stays tight while field-independent unions the hubs ---- *)
  let struct_copy_budget = !copies_left * 15 / 100 in
  let n_struct_ops = ref 0 in
  while !n_struct_ops < struct_copy_budget && !copies_left > 1 do
    let fn = rand_fn () in
    (* structs and instances are owned by communities: struct types are a
       locality boundary in real code (a module's data structures), so a
       community only touches its own types.  Each field is fed from its
       own source pointer, which keeps field-based analysis tight while
       field-independent (which merges all fields of the base object)
       unions them all (Table 4's effect). *)
    let c = comm_of o fn in
    let s =
      (* instance ids of community c are exactly {c, c + n_comm, ...} *)
      let count = ((t.n_instances - 1 - c) / t.n_comm) + 1 in
      if c >= t.n_instances then Rng.int rng t.n_instances
      else c + (t.n_comm * Rng.int rng count)
    in
    let fld = Rng.int rng (t.fields_per_struct / 2) in
    if Rng.flip rng 0.45 then begin
      let hubw = fld = 0 && !struct_hub_used < struct_hub_budget in
      if hubw then incr struct_hub_used;
      let src = pick o ~fn ~level:1 ~bias:hubw in
      stmt o ~fn (Fmt.str "inst%d.pf%d = %s;" s fld src.vname)
    end
    else if fld = 0 then begin
      (* link-field reads land in readers (sinks) *)
      let dst = pick o ~fn ~level:1 ~bias:false ~sink:true in
      stmt o ~fn (Fmt.str "%s = inst%d.pf%d;" dst.vname s fld)
    end
    else begin
      (* data-field reads flow back into the community: harmless when
         fields are distinguished, poisonous when they are merged *)
      let dst = pick o ~fn ~level:1 ~bias:false ~sink:(Rng.flip rng 0.5) in
      stmt o ~fn (Fmt.str "%s = inst%d.pf%d;" dst.vname s fld)
    end;
    take copies_left 1;
    incr n_struct_ops
  done;

  (* ---- address-of assignments (the static section) ---- *)
  while !addrs_left > 0 do
    let fn = rand_fn () in
    let kind = Rng.int rng 100 in
    (if kind < 6 then begin
       (* heap allocation: a fresh location per site *)
       let dst = pick o ~fn ~level:1 ~bias:true in
       stmt o ~fn (Fmt.str "%s = (int *)malloc(sizeof(int));" dst.vname)
     end
     else if kind < 86 then begin
       (* p = &x : most destinations uniform (real code takes an address
          about once per pointer); a minority feed the hubs *)
       let to_hub =
         Rng.flip rng (join_frac *. 3.) && !hub_addrs_used < hub_addr_budget
       in
       if to_hub then incr hub_addrs_used;
       let dst = pick o ~fn ~level:1 ~bias:to_hub in
       let src = pick o ~fn ~level:0 ~bias:false in
       stmt o ~fn (Fmt.str "%s = &%s;" dst.vname src.vname);
       (* hubs aggregate each other: the join-point effect concentrates *)
       if Rng.flip rng (join_frac /. 2.) && !hubhub_used < hubhub_budget then begin
         incr hubhub_used;
         let h1 = pick o ~fn ~level:1 ~bias:true in
         let h2 = pick o ~fn ~level:1 ~bias:true in
         if h1.vname <> h2.vname then
           stmt o ~fn (Fmt.str "%s = %s;" h1.vname h2.vname)
       end
     end
     else if kind < 96 then begin
       let dst = pick o ~fn ~level:2 ~bias:(Rng.flip rng (join_frac *. 2.)) in
       let src = pick o ~fn ~level:1 ~bias:false in
       stmt o ~fn (Fmt.str "%s = &%s;" dst.vname src.vname)
     end
     else begin
       let dst = pick o ~fn ~level:3 ~bias:false in
       let src = pick o ~fn ~level:2 ~bias:false in
       stmt o ~fn (Fmt.str "%s = &%s;" dst.vname src.vname)
     end);
    take addrs_left 1
  done;

  (* ---- stores *x = y ---- *)
  for _ = 1 to c.Prim.n_store do
    let fn = rand_fn () in
    let lvl = if Rng.flip rng 0.8 then 1 else 2 in
    let p = pick o ~fn ~level:lvl ~bias:false in
    let y = pick o ~fn ~level:(lvl - 1) ~bias:false in
    stmt o ~fn (Fmt.str "*%s = %s;" p.vname y.vname)
  done;

  (* ---- loads x = *y ---- *)
  for _ = 1 to c.Prim.n_load do
    let fn = rand_fn () in
    let lvl = if Rng.flip rng 0.8 then 1 else 2 in
    let p = pick o ~fn ~level:lvl ~bias:false in
    let x = pick o ~fn ~level:(lvl - 1) ~bias:false in
    stmt o ~fn (Fmt.str "%s = *%s;" x.vname p.vname)
  done;

  (* ---- *x = *y ---- *)
  for _ = 1 to c.Prim.n_deref2 do
    let fn = rand_fn () in
    let p = pick o ~fn ~level:1 ~bias:false in
    let q = pick o ~fn ~level:1 ~bias:false in
    stmt o ~fn (Fmt.str "*%s = *%s;" p.vname q.vname)
  done;

  (* ---- remaining copies: pointer chains (spread hub sets) and integer
     arithmetic (dependence fodder; skipped by the points-to loader).
     Pointer copies are mostly *local*: real code moves a pointer within a
     small clique of variables (a call chain, a data structure's helpers);
     only the rare cross-clique copy joins flows, and those join points are
     what make points-to sets blow up (Section 5).  The profile's
     [hubbiness] controls how often cliques are joined. ---- *)
  while !copies_left > 0 do
    let fn = rand_fn () in
    if Rng.flip rng 0.3 then begin
      let lvl = if Rng.flip rng 0.85 then 1 else 2 in
      (if Rng.flip rng join_frac && !joins_used < join_budget then begin
         incr joins_used;
         (* join point: a hub's set flows into a reader (sink) variable;
            sinks are never dereferenced, so these copies inflate the
            points-to volume without inflating the store fan-out *)
         let src = pick o ~fn ~level:lvl ~bias:true in
         let dst = pick o ~fn ~level:lvl ~bias:false ~sink:true in
         if dst.vname <> src.vname then
           stmt o ~fn (Fmt.str "%s = %s;" dst.vname src.vname)
       end
       else begin
         (* ordinary community-local pointer move *)
         let src = pick o ~fn ~level:lvl ~bias:false in
         let dst = pick o ~fn ~level:lvl ~bias:false in
         if dst.vname <> src.vname then
           stmt o ~fn (Fmt.str "%s = %s;" dst.vname src.vname)
       end);
      take copies_left 1
    end
    else begin
      let src = pick o ~fn ~level:0 ~bias:true in
      let dst = pick o ~fn ~level:0 ~bias:false in
      if Rng.flip rng 0.5 && !copies_left > 1 then begin
        let op = Rng.choose rng int_ops in
        let src2 = pick o ~fn ~level:0 ~bias:false in
        if op = "!" then begin
          stmt o ~fn (Fmt.str "%s = !%s;" dst.vname src.vname);
          take copies_left 1
        end
        else begin
          stmt o ~fn (Fmt.str "%s = %s %s %s;" dst.vname src.vname op src2.vname);
          take copies_left 2
        end
      end
      else begin
        if dst.vname <> src.vname then
          stmt o ~fn (Fmt.str "%s = %s;" dst.vname src.vname);
        take copies_left 1
      end
    end
  done;

  (* ---- render files ---- *)
  let structs_of_file f =
    List.filter (fun s -> s mod t.n_files = f) (List.init t.n_structs Fun.id)
  in
  let files =
    List.init t.n_files (fun f ->
        let b = Buffer.create (1 lsl 14) in
        Buffer.add_string b (Fmt.str "/* generated: %s file %d seed %Ld */\n" profile.Profile.name f seed);
        Buffer.add_string b "#define GUARD(x) (x)\n";
        Buffer.add_string b "extern void *malloc(unsigned long n);\n";
        Buffer.add_string b "extern int cond;\n";
        if f = 0 then Buffer.add_string b "int cond;\nint dummy0;\n"
        else Buffer.add_string b "extern int dummy0;\n";
        (* struct definitions are shared: every file defines the ones it may
           touch; we simply define all (header-like), matching real code
           where struct defs come from common headers *)
        for s = 0 to t.n_structs - 1 do
          Buffer.add_string b (Fmt.str "struct st%d {" s);
          for fl = 0 to t.fields_per_struct - 1 do
            if fl < t.fields_per_struct / 2 then
              Buffer.add_string b (Fmt.str " int f%d;" fl)
            else Buffer.add_string b (Fmt.str " int *pf%d;" (fl - (t.fields_per_struct / 2)))
          done;
          Buffer.add_string b " };\n"
        done;
        ignore (structs_of_file f);
        (* struct instances and function pointers live in file 0 *)
        if f = 0 then begin
          for i = 0 to t.n_instances - 1 do
            Buffer.add_string b
              (Fmt.str "struct st%d inst%d;\n" (type_of_instance t i) i)
          done;
          Array.iter
            (fun fp -> Buffer.add_string b (Fmt.str "int (*%s)();\n" fp))
            (Array.init t.n_funptrs (fun i -> Fmt.str "fp%d" i))
        end
        else begin
          for i = 0 to t.n_instances - 1 do
            Buffer.add_string b
              (Fmt.str "extern struct st%d inst%d;\n" (type_of_instance t i) i)
          done;
          for i = 0 to t.n_funptrs - 1 do
            Buffer.add_string b (Fmt.str "extern int (*fp%d)();\n" i)
          done
        end;
        (* globals this file owns *)
        Array.iteri
          (fun level pool ->
            Array.iter
              (fun v ->
                if Hashtbl.hash v.vname mod t.n_files = f then
                  Buffer.add_string b
                    (Fmt.str "%s%s;\n" (typ_of_level level) v.vname))
              pool)
          t.globals;
        (* extern declarations for foreign globals used here *)
        Hashtbl.iter
          (fun key () ->
            match String.index_opt key '|' with
            | Some i ->
                let name = String.sub key 0 i in
                let typ = String.sub key (i + 1) (String.length key - i - 1) in
                if Hashtbl.hash name mod t.n_files <> f then
                  Buffer.add_string b (Fmt.str "extern %s%s;\n" typ name)
            | None -> ())
          o.used_globals.(f);
        (* statics *)
        Array.iteri
          (fun level pool ->
            Array.iter
              (fun v ->
                Buffer.add_string b
                  (Fmt.str "static %s%s;\n" (typ_of_level level) v.vname))
              pool)
          t.statics.(f);
        (* function prototypes for cross-file calls *)
        Array.iter
          (fun fn ->
            if fn.ffile <> f then
              Buffer.add_string b (Fmt.str "extern int %s();\n" fn.fname))
          t.funcs;
        Buffer.add_buffer b o.headers.(f);
        (* functions *)
        Array.iter
          (fun fn ->
            if fn.ffile = f then begin
              let params =
                String.concat ", "
                  (List.init fn.arity (fun i -> Fmt.str "int prm%d" i))
              in
              Buffer.add_string b (Fmt.str "int %s(%s) {\n" fn.fname params);
              (* locals *)
              Array.iteri
                (fun level pool ->
                  Array.iter
                    (fun v ->
                      Buffer.add_string b
                        (Fmt.str "  %s%s;\n" (typ_of_level level) v.vname))
                    pool)
                t.locals.(fn.fidx);
              Buffer.add_buffer b o.bodies.(fn.fidx);
              Buffer.add_string b (Fmt.str "  return GUARD(prm0);\n}\n")
            end)
          t.funcs;
        (Fmt.str "%s_%02d.c" profile.Profile.name f, Buffer.contents b))
  in
  files
