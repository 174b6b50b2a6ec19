(** The open-world soundness gate: body-deletion streams.

    Starts from a complete synthetic program (a {!Genc} profile), whose
    closed-world solution is exact, then deletes function bodies in a
    seeded random order — keeping their declared interfaces — and
    re-analyzes each stripped fragment with open-world havoc
    constraints.  Soundness demands that havoc can only {e add}
    may-point-to facts about the code that survives:

      for every variable present in both solutions,
      closed-world targets that still exist  ⊆  open-world targets

    Equality is deliberately not required: havoc is an
    over-approximation (the blob stands for everything the missing
    bodies could do), and objects owned by deleted bodies (their locals
    and temporaries) disappear from the stripped program entirely — the
    blob abstracts them, so they are excluded from the inclusion check
    on both sides.

    [inject_unsound] deliberately skips havoc synthesis (the stripped
    fragment is analyzed closed-world), which silently drops every flow
    through the deleted bodies — the gate must catch this, proving it
    can fail. *)

open Cla_core
module SS = Set.Make (String)

type violation = {
  v_step : int;  (** 1-based deletion step *)
  v_dropped : string list;  (** bodies deleted at this step *)
  v_var : string;  (** the variable whose facts went missing *)
  v_missing : string list;
      (** closed-world targets that survive deletion but are absent from
          the open-world set *)
}

type outcome = {
  n_steps : int;
  n_funcs : int;  (** defined functions in the complete program *)
  n_dropped : int;  (** bodies deleted by the final step *)
  n_checked : int;  (** (variable, step) inclusion checks performed *)
}

(* Variables are identified across compiles by owner-qualified display
   name ("f:x" for function f's local x, ":g" for a global): locals of
   different functions routinely share display names, and deleting one
   function's body must not confuse its locals with a survivor's.
   Same-key variables (block-scope shadowing) are unioned — the scoping
   is identical in both compiles, so the comparison stays well-defined. *)
let qualify (view : Objfile.view) v =
  let vi = view.Objfile.rvars.(v) in
  vi.Objfile.vowner ^ ":" ^ vi.Objfile.vname

let sets_by_name (sol : Solution.t) : (string, SS.t) Hashtbl.t =
  let view = sol.Solution.view in
  let m = Hashtbl.create 256 in
  for v = 0 to Array.length sol.Solution.pts - 1 do
    if Solution.is_program_var sol v then begin
      let key = qualify view v in
      let targets =
        Lvalset.to_list (Solution.points_to sol v)
        |> List.fold_left
             (fun acc z -> SS.add (qualify view z) acc)
             SS.empty
      in
      let prev = Option.value ~default:SS.empty (Hashtbl.find_opt m key) in
      Hashtbl.replace m key (SS.union prev targets)
    end
  done;
  m

let solve_names files ~options ~undefined =
  let view = Pipeline.compile_link ~options ~undefined files in
  let sol = (Andersen.solve ~demand:false view).Andersen.solution in
  let universe = ref SS.empty in
  for v = 0 to Objfile.n_vars view - 1 do
    universe := SS.add (qualify view v) !universe
  done;
  (sets_by_name sol, !universe, view)

(** Run the gate over [steps] (default 5) deletion steps of a seeded
    stream.  Returns the first violation found, if any. *)
let run ?(inject_unsound = false) ?(steps = 5) ~seed (profile : Profile.t) :
    (outcome, violation) result =
  let files = Genc.generate ~seed profile in
  let options = Compilep.default_options in
  let baseline, _, view = solve_names files ~options ~undefined:Linkp.Ignore in
  (* the deletion order: defined functions, shuffled by the seed *)
  let fnames =
    Array.of_list
      (List.sort_uniq String.compare
         (Array.to_list
            (Array.map
               (fun (f : Objfile.fund_rec) ->
                 view.Objfile.rvars.(f.Objfile.ffvar).Objfile.vname)
               view.Objfile.rfundefs)))
  in
  let rng = Rng.create (Int64.add seed 0x6de1e7e0L) in
  let n = Array.length fnames in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = fnames.(i) in
    fnames.(i) <- fnames.(j);
    fnames.(j) <- t
  done;
  let checked = ref 0 in
  let final_k = ref 0 in
  let rec step i =
    if i > steps then
      Ok
        { n_steps = steps; n_funcs = n; n_dropped = !final_k;
          n_checked = !checked }
    else begin
      let k = min n (max 1 (i * n / steps)) in
      final_k := k;
      let dropped = Array.to_list (Array.sub fnames 0 k) in
      let options = { options with Compilep.drop_bodies = dropped } in
      let undefined =
        if inject_unsound then Linkp.Ignore else Linkp.Open_world
      in
      let opened, universe, _ = solve_names files ~options ~undefined in
      let bad = ref None in
      Hashtbl.iter
        (fun name closed ->
          if !bad = None && Hashtbl.mem opened name then begin
            incr checked;
            let got =
              Option.value ~default:SS.empty (Hashtbl.find_opt opened name)
            in
            (* only targets that survive deletion are owed; deleted
               bodies' objects are abstracted by the blob *)
            let owed = SS.inter closed universe in
            if not (SS.subset owed got) then
              bad :=
                Some
                  {
                    v_step = i;
                    v_dropped = dropped;
                    v_var = name;
                    v_missing = SS.elements (SS.diff owed got);
                  }
          end)
        baseline;
      match !bad with Some v -> Error v | None -> step (i + 1)
    end
  in
  step 1
