(** Per-pass observational-equivalence driver.

    Every pvopt pass must be a semantic no-op: applied to a copy of a
    program, the copy must still verify and must produce the reference
    observation (result, output, globals).  This module checks each pass
    in isolation and then cumulatively in pipeline order, and finally the
    whole pipeline output through the spill-heaviest JIT target — the
    closest thing to the paper's shipped artifact.

    The pass list is a parameter so a harness (or a test) can inject a
    deliberately broken pass and watch the driver catch it. *)

open Pvir

type pass = { pname : string; papply : Prog.t -> unit }

let per_func f (p : Prog.t) = List.iter (fun fn -> ignore (f fn)) p.Prog.funcs

let all_passes : pass list =
  [
    { pname = "constfold"; papply = per_func (Pvopt.Constfold.run ?account:None) };
    { pname = "copyprop"; papply = per_func (Pvopt.Copyprop.run ?account:None) };
    { pname = "cse"; papply = per_func (Pvopt.Cse.run ?account:None) };
    { pname = "dce"; papply = per_func (Pvopt.Dce.run ?account:None) };
    { pname = "ifconv"; papply = per_func (Pvopt.Ifconv.run ?account:None) };
    { pname = "idiom"; papply = per_func (Pvopt.Idiom.run ?account:None) };
    { pname = "licm"; papply = per_func (Pvopt.Licm.run ?account:None) };
    { pname = "simplify_cfg"; papply = per_func (Pvopt.Simplify_cfg.run ?account:None) };
    { pname = "strength"; papply = per_func (Pvopt.Strength.run ?account:None) };
    {
      pname = "unroll";
      papply = (fun p -> per_func (fun fn -> Pvopt.Unroll.run ~factor:2 p fn) p);
    };
    { pname = "inline"; papply = (fun p -> ignore (Pvopt.Inline.run p)) };
    { pname = "vectorize"; papply = (fun p -> ignore (Pvopt.Vectorize.run p)) };
  ]

let pass_known name = List.exists (fun p -> p.pname = name) all_passes

let find_passes names =
  List.map
    (fun n ->
      match List.find_opt (fun p -> p.pname = n) all_passes with
      | Some p -> p
      | None -> invalid_arg (Printf.sprintf "Passcheck.find_passes: unknown pass %s" n))
    names

(** One equivalence failure: which application of which pass, and how the
    observation diverged (or how the verifier complained). *)
type failure = { stage : string; what : string; detail : string }

let reference (prog : Prog.t) : Oracle.obs =
  (Oracle.run_interp prog Pvvm.Vm.Tree_walk).Oracle.iobs

(* A pass application can itself raise (a pass crash is as much a bug as
   a miscompile); fold that into a failure rather than killing the run. *)
let apply_stage ~stage (pass : pass) (q : Prog.t) : failure option =
  match pass.papply q with
  | () -> None
  | exception e ->
    Some { stage; what = "exception"; detail = Printexc.to_string e }

let check_stage ~stage (ref_obs : Oracle.obs) (q : Prog.t) : failure list =
  match Verify.program_result q with
  | Error m -> [ { stage; what = "verify"; detail = m } ]
  | Ok () ->
    let obs = reference q in
    List.map
      (fun (m : Oracle.mismatch) ->
        { stage; what = m.Oracle.what; detail = m.Oracle.detail })
      (Oracle.compare_obs ~path:stage ref_obs obs)

(** [check ?passes prog] — each pass in isolation on a fresh copy, then
    the same list cumulatively (pipeline order), then (unless [jit] is
    false) the pipelined program compiled for the most register-starved
    target. *)
let check ?(passes = all_passes) ?(jit = true) (prog : Prog.t) : failure list =
  let ref_obs = reference prog in
  let failures = ref [] in
  let add fs = failures := !failures @ fs in
  (* isolation *)
  List.iter
    (fun pass ->
      let q = Prog.copy prog in
      let stage = pass.pname in
      match apply_stage ~stage pass q with
      | Some f -> add [ f ]
      | None -> add (check_stage ~stage ref_obs q))
    passes;
  (* pipeline order: keep folding passes into one copy, checking after
     every step so the first broken stage is named, not the last *)
  let q = Prog.copy prog in
  List.iter
    (fun pass ->
      let stage = "pipeline:" ^ pass.pname in
      match apply_stage ~stage pass q with
      | Some f -> add [ f ]
      | None -> add (check_stage ~stage ref_obs q))
    passes;
  (* the fully optimized program must also survive the split JIT on the
     spill-heaviest machine *)
  (if jit && Verify.program_result q = Ok () then
     let jr =
       Oracle.run_jit q Pvmach.Machine.uchost Pvjit.Jit.Hints_recompute
         Pvvm.Vm.Threaded
     in
     add
       (List.map
          (fun (m : Oracle.mismatch) ->
            { stage = "pipeline:jit-uchost"; what = m.Oracle.what; detail = m.Oracle.detail })
          (Oracle.compare_obs ~path:"pipeline:jit-uchost" ref_obs jr.Oracle.jobs)));
  !failures
