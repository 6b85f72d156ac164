(** Differential oracle: run one program through every execution path of
    the toolchain and compare what each path observed.

    The observation of a run is everything the paper's contract makes
    portable — the returned value, the intrinsic output, the trap (if
    any), and the final contents of every global — plus accounting
    invariants that must hold between host execution engines of the same
    virtual machine:

    - the tree-walk, threaded and AOT interpreters must agree on cycles,
      instructions and calls on every outcome, fuel traps included (the
      pre-decoded and compiled engines are host-side speedups, not
      semantic changes);
    - the tree-walk and threaded simulators must agree on cycles,
      instructions and spill traffic for the same compiled code;
    - a JIT report claiming zero spilled registers must come with zero
      executed spill operations.

    Every run goes through one run-and-observe path ({!observe_interp},
    {!run_jit}), and the one place it catches a guest trap catches
    {!Pvvm.Vm.Trap} — the exception every engine of both executors
    raises, memory faults and fuel exhaustion included.  {!Migrate} and
    {!Profcheck} reuse both, and the same {!accounting} comparison.

    Paths are named so a harness can subset them ([--engines]):
    [interp-tw], [interp-th], [interp-aot] (one per {!Pvvm.Vm.tag}),
    [serial] (binary encode/decode round-trip),
    [text] (printer/parser round-trip), and [jit-MACHINE] for every
    registered machine descriptor. *)

open Pvir

type outcome = Finished of Value.t option | Trapped of string

type obs = {
  outcome : outcome;
  output : string;
  globals : (string * Value.t array) list;
}

(** One disagreement between a path and the reference observation. *)
type mismatch = { path : string; what : string; detail : string }

let outcome_to_string = function
  | Finished None -> "finished (no value)"
  | Finished (Some v) -> Printf.sprintf "finished %s" (Value.to_string v)
  | Trapped m -> Printf.sprintf "trap: %s" m

let outcome_equal a b =
  match (a, b) with
  | Finished None, Finished None -> true
  | Finished (Some x), Finished (Some y) -> Value.equal x y
  | Trapped x, Trapped y -> String.equal x y
  | _ -> false

(* Each path runs against its own freshly loaded image, so memory state
   never leaks between paths. *)
let read_globals (img : Pvvm.Image.t) =
  List.map
    (fun (g : Prog.global) -> (g.Prog.gname, Pvvm.Image.read_global img g.Prog.gname))
    img.Pvvm.Image.prog.Prog.globals

(** Fuel far above anything the generator's bounded loops can burn (worst
    observed legitimate runs are under 100k instructions), but small
    enough that a shrinker candidate which accidentally closes an
    infinite loop costs milliseconds, not seconds. *)
let fuel = 2_000_000L

(* the one trap-catching point of every oracle run *)
let outcome_of f =
  match f () with v -> Finished v | exception Pvvm.Vm.Trap m -> Trapped m

type interp_run = { iobs : obs; icycles : int64; iinstrs : int64; icalls : int }

(** A fresh interpreter on its own image of [prog], under the oracle's
    fuel. *)
let interp ?sampler (prog : Prog.t) (engine : Pvvm.Vm.engine) =
  Pvvm.Interp.create ~fuel ~engine ?sampler (Pvvm.Image.load (Prog.copy prog))

(** Run [f] — an activation of [it] — and observe it: outcome, output,
    globals and counters. *)
let observe_interp (it : Pvvm.Interp.t) f : interp_run =
  let outcome = outcome_of f in
  let st = it.Pvvm.Interp.stats in
  {
    iobs =
      {
        outcome;
        output = Pvvm.Interp.output it;
        globals = read_globals it.Pvvm.Interp.img;
      };
    icycles = st.Pvvm.Interp.cycles;
    iinstrs = st.Pvvm.Interp.instrs;
    icalls = st.Pvvm.Interp.calls;
  }

let run_interp ?sampler (prog : Prog.t) (engine : Pvvm.Vm.engine) :
    interp_run =
  let it = interp ?sampler prog engine in
  observe_interp it (fun () -> Pvvm.Interp.run it "main" [])

type jit_run = {
  jobs : obs;
  jcycles : int64;
  jinstrs : int64;
  jspill_ops : int64;
  jspilled_regs : int;  (** static, summed over the report *)
}

let run_jit (prog : Prog.t) (machine : Pvmach.Machine.t)
    (hints : Pvjit.Jit.hints) (engine : Pvvm.Vm.engine) : jit_run =
  let img = Pvvm.Image.load (Prog.copy prog) in
  let sim, report = Pvjit.Jit.compile_program ~machine ~hints img in
  sim.Pvvm.Sim.engine <- engine;
  sim.Pvvm.Sim.fuel <- fuel;
  let outcome = outcome_of (fun () -> Pvvm.Sim.run sim "main" []) in
  let st = sim.Pvvm.Sim.stats in
  {
    jobs = { outcome; output = Pvvm.Sim.output sim; globals = read_globals img };
    jcycles = st.Pvvm.Sim.cycles;
    jinstrs = st.Pvvm.Sim.instrs;
    jspill_ops = st.Pvvm.Sim.spill_ops;
    jspilled_regs =
      List.fold_left
        (fun acc (f : Pvjit.Jit.func_report) ->
          acc + f.Pvjit.Jit.ra.Pvjit.Regalloc.spilled_regs)
        0 report.Pvjit.Jit.funcs;
  }

(* -- comparison ------------------------------------------------------- *)

let globals_diff ref_gs gs =
  List.find_map
    (fun (name, vs) ->
      match List.assoc_opt name ref_gs with
      | None -> Some (Printf.sprintf "global @%s missing from reference" name)
      | Some rvs ->
        if Array.length rvs <> Array.length vs then
          Some (Printf.sprintf "global @%s length %d vs %d" name
                  (Array.length rvs) (Array.length vs))
        else
          let bad = ref None in
          Array.iteri
            (fun i v ->
              if !bad = None && not (Value.equal rvs.(i) v) then
                bad :=
                  Some
                    (Printf.sprintf "global @%s[%d]: %s vs %s" name i
                       (Value.to_string rvs.(i)) (Value.to_string v)))
            vs;
          !bad)
    gs

let compare_obs ~path (reference : obs) (obs : obs) : mismatch list =
  let ms = ref [] in
  let add what detail = ms := { path; what; detail } :: !ms in
  if not (outcome_equal reference.outcome obs.outcome) then
    add "result"
      (Printf.sprintf "%s vs %s"
         (outcome_to_string reference.outcome)
         (outcome_to_string obs.outcome));
  if not (String.equal reference.output obs.output) then
    add "output"
      (Printf.sprintf "%S vs %S" reference.output obs.output);
  (match globals_diff reference.globals obs.globals with
  | Some d -> add "globals" d
  | None -> ());
  List.rev !ms

(** Counters two runs of one VM must agree on: cycles, instructions, and
    calls (interpreter) or spill ops (simulator). *)
let icounts r = (r.icycles, r.iinstrs, Int64.of_int r.icalls)

let jcounts r = (r.jcycles, r.jinstrs, r.jspill_ops)

(** [accounting ~path ~third (rname, rc) (name, c)] — no mismatch when
    counters [c] of the run named [name] equal the reference's [rc];
    [third] names the third counter. *)
let accounting ?(what = "accounting") ~path ~third (rname, (rcy, rin, rx))
    (name, (cy, ins, x)) : mismatch list =
  if rcy = cy && rin = ins && rx = x then []
  else
    [
      {
        path;
        what;
        detail =
          Printf.sprintf "%s %Ld cycles/%Ld instrs/%Ld %s vs %s %Ld/%Ld/%Ld"
            rname rcy rin rx third name cy ins x;
      };
    ]

(* -- the path matrix -------------------------------------------------- *)

let all_paths : string list =
  List.map (fun e -> "interp-" ^ Pvvm.Vm.tag e) Pvvm.Vm.engines
  @ [ "serial"; "text" ]
  @ List.map
      (fun (m : Pvmach.Machine.t) -> "jit-" ^ m.Pvmach.Machine.name)
      Pvmach.Machine.all

let path_known name = List.mem name all_paths

(** [check ?paths prog] — the full differential matrix; [paths] subsets
    it by name ([interp-tw] is always run as the reference). *)
let check ?(paths = all_paths) (prog : Prog.t) : mismatch list =
  if paths = [] then []
  else begin
  let want p = List.mem p paths in
  let ms = ref [] in
  let add l = ms := !ms @ l in
  let reference = run_interp prog Pvvm.Vm.Tree_walk in
  (* threaded and AOT-compiled interpreters: same observation *and*
     bit-identical accounting on every outcome, fuel exhaustion
     included *)
  List.iter
    (fun engine ->
      let path = "interp-" ^ Pvvm.Vm.tag engine in
      if want path then begin
        if engine = Pvvm.Vm.Aot then Pvaot.install ();
        let r = run_interp prog engine in
        add (compare_obs ~path reference.iobs r.iobs);
        add
          (accounting ~path ~third:"calls"
             ("tree-walk", icounts reference)
             (Pvvm.Vm.engine_name engine, icounts r))
      end)
    [ Pvvm.Vm.Threaded; Pvvm.Vm.Aot ];
  (* distribution round-trips re-interpreted with the reference engine *)
  if want "serial" then begin
    match Serial.decode (Serial.encode prog) with
    | decoded ->
      add (compare_obs ~path:"serial" reference.iobs
             (run_interp decoded Pvvm.Vm.Tree_walk).iobs)
    | exception Serial.Corrupt c ->
      add
        [
          {
            path = "serial";
            what = "decode";
            detail = Serial.corruption_to_string c;
          };
        ]
  end;
  if want "text" then begin
    match Parse.program (Pp.program_to_string prog) with
    | parsed ->
      add (compare_obs ~path:"text" reference.iobs
             (run_interp parsed Pvvm.Vm.Tree_walk).iobs)
    | exception e ->
      add
        [
          { path = "text"; what = "parse"; detail = Printexc.to_string e };
        ]
  end;
  (* every registered machine: JIT + both simulator engines *)
  List.iter
    (fun (m : Pvmach.Machine.t) ->
      let path = "jit-" ^ m.Pvmach.Machine.name in
      if want path then begin
        let hints = Pvjit.Jit.Hints_recompute in
        let th = run_jit prog m hints Pvvm.Vm.Threaded in
        add (compare_obs ~path reference.iobs th.jobs);
        let tw = run_jit prog m hints Pvvm.Vm.Tree_walk in
        add (compare_obs ~path:(path ^ "-tw") reference.iobs tw.jobs);
        (* the AOT sim engine charges per instruction, so its accounting
           is compared unconditionally (fuel outcomes included) *)
        Pvaot.install ();
        let ao = run_jit prog m hints Pvvm.Vm.Aot in
        add (compare_obs ~path:(path ^ "-aot") reference.iobs ao.jobs);
        add
          (accounting ~path:(path ^ "-aot") ~third:"spills"
             ("threaded", jcounts th) ("aot", jcounts ao));
        add
          (accounting ~path ~third:"spills" ("threaded", jcounts th)
             ("tree-walk", jcounts tw));
        if th.jspilled_regs = 0 && th.jspill_ops <> 0L then
          add
            [
              {
                path;
                what = "spill-invariant";
                detail =
                  Printf.sprintf
                    "report says 0 spilled registers but %Ld spill ops executed"
                    th.jspill_ops;
              };
            ]
      end)
    Pvmach.Machine.all;
  !ms
  end
