(* Unit tests for the online compiler: lowering, legalization,
   immediate folding, register allocation, peephole — validated by
   simulating the produced MIR and comparing against the interpreter. *)

open Pvmach

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* compile [src] for [machine] with [hints]; return (img, sim, reports) *)
let compile ?(mode = Core.Splitc.Split) ?(hints = Pvjit.Jit.Hints_annotation)
    ~machine src =
  let p = Core.Splitc.frontend src in
  let off = Core.Splitc.offline ~mode p in
  let prog = Pvir.Serial.decode (Core.Splitc.distribute off) in
  let img = Pvvm.Image.load prog in
  let sim, report = Pvjit.Jit.compile_program ~machine ~hints img in
  (img, sim, report)

(* reference interpretation of the same source *)
let interp_result src entry args =
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  Pvkernels.Harness.fill_inputs img;
  let it = Pvvm.Interp.create img in
  let r = Pvvm.Interp.run it entry args in
  (r, Pvvm.Interp.output it)

let jit_matches_interp ?mode ?hints ~machine src entry args =
  let r0, out0 = interp_result src entry args in
  let img, sim, _ = compile ?mode ?hints ~machine src in
  Pvkernels.Harness.fill_inputs img;
  let r = Pvvm.Sim.run sim entry args in
  check Alcotest.string "output" out0 (Pvvm.Sim.output sim);
  match (r0, r) with
  | None, None -> ()
  | Some a, Some b ->
    check bool_t
      (Printf.sprintf "result on %s" machine.Machine.name)
      true (Pvir.Value.equal a b)
  | _ -> Alcotest.fail "result presence mismatch"

(* ---------------- lowering ---------------- *)

let test_lower_shapes () =
  let src = "i64 main(i64 a, i64 b) { return a * b + 7; }" in
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let mf =
    Pvjit.Lower.run ~machine:Machine.x86ish
      ~resolve_global:(Pvvm.Image.global_address img)
      fn
  in
  check bool_t "same block count" true
    (List.length mf.Mir.mblocks = List.length fn.Pvir.Func.blocks);
  check bool_t "has mul" true
    (List.exists
       (fun (b : Mir.block) ->
         List.exists
           (fun (i : Mir.inst) ->
             match i.Mir.op with Mir.Mbin Pvir.Instr.Mul -> true | _ -> false)
           b.Mir.insts)
       mf.Mir.mblocks)

let test_lower_gaddr_resolved () =
  let src = "i32 g = 7; i64 main() { return (i64)g; }" in
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let mf =
    Pvjit.Lower.run ~machine:Machine.x86ish
      ~resolve_global:(Pvvm.Image.global_address img)
      fn
  in
  (* the global's address appears as an immediate load *)
  let addr = Pvvm.Image.global_address img "g" in
  let found =
    List.exists
      (fun (b : Mir.block) ->
        List.exists
          (fun (i : Mir.inst) ->
            match i.Mir.op with
            | Mir.Mli v -> (
              match v with
              | Pvir.Value.Int (_, x) -> Int64.to_int x = addr
              | _ -> false)
            | _ -> false)
          b.Mir.insts)
      mf.Mir.mblocks
  in
  check bool_t "address burned in" true found

let test_lower_alloca_frame () =
  let src = "i64 main() { i32 t[10]; t[0] = 1; return (i64)t[0]; }" in
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let mf =
    Pvjit.Lower.run ~machine:Machine.x86ish
      ~resolve_global:(Pvvm.Image.global_address img)
      fn
  in
  check bool_t "frame covers alloca" true (mf.Mir.frame_size >= 40)

let test_calling_convention_stack_args () =
  (* 9 parameters on a machine with arg_regs = 3: the rest arrive in
     frame slots, and the function still computes correctly *)
  let src =
    {|
i64 f(i64 a, i64 b, i64 c, i64 d, i64 e, i64 g, i64 h, i64 i, i64 j) {
  return a + 2*b + 3*c + 4*d + 5*e + 6*g + 7*h + 8*i + 9*j;
}
|}
  in
  let machine = Machine.x86ish in
  check int_t "x86ish passes 3 in regs" 3 (Machine.arg_regs machine);
  let img, sim, _ = compile ~machine src in
  ignore img;
  let args = List.init 9 (fun i -> Pvir.Value.i64 (Int64.of_int (i + 1))) in
  (* 1+4+9+16+25+36+49+64+81 = 285 *)
  match Pvvm.Sim.run sim "f" args with
  | Some v ->
    check bool_t "stack args work" true (Pvir.Value.equal v (Pvir.Value.i64 285L))
  | None -> Alcotest.fail "no result"

(* ---------------- legalize ---------------- *)

let vec_src =
  {|
u8 a[128]; u8 b[128];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { b[i] = a[i] + b[i]; } }
|}

let compile_mir ~machine src fname =
  let p = Core.Splitc.frontend src in
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
  let img = Pvvm.Image.load off.Core.Splitc.prog in
  let fn = Pvir.Prog.find_func_exn off.Core.Splitc.prog fname in
  let mf =
    Pvjit.Lower.run ~machine ~resolve_global:(Pvvm.Image.global_address img) fn
  in
  (img, mf)

let has_vector_inst (mf : Mir.func) =
  List.exists
    (fun (b : Mir.block) ->
      List.exists
        (fun (i : Mir.inst) -> Pvir.Types.is_vector i.Mir.ty)
        b.Mir.insts)
    mf.Mir.mblocks

let test_legalize_keeps_simd () =
  let _, mf = compile_mir ~machine:Machine.x86ish vec_src "f" in
  check bool_t "vector before" true (has_vector_inst mf);
  ignore (Pvjit.Legalize.run mf);
  check bool_t "vector kept on SIMD machine" true (has_vector_inst mf)

let test_legalize_scalarizes () =
  let _, mf = compile_mir ~machine:Machine.sparcish vec_src "f" in
  let before = Mir.size mf in
  ignore (Pvjit.Legalize.run mf);
  check bool_t "no vector left" false (has_vector_inst mf);
  check bool_t "code expanded" true (Mir.size mf > before)

let test_legalize_execution_equal () =
  (* scalarized code must compute the same result *)
  List.iter
    (fun machine ->
      jit_matches_interp ~machine vec_src "f" [ Pvir.Value.i64 100L ])
    [ Machine.sparcish; Machine.ppcish; Machine.uchost ]

(* ---------------- immfold ---------------- *)

let test_immfold_folds_and_shrinks () =
  let src = "i64 main(i64 n) { return n + 123; }" in
  let p = Core.Splitc.frontend src in
  Pvopt.Passes.cleanup p;
  let img = Pvvm.Image.load p in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let mf =
    Pvjit.Lower.run ~machine:Machine.x86ish
      ~resolve_global:(Pvvm.Image.global_address img)
      fn
  in
  let before = Mir.size mf in
  let folded = Pvjit.Immfold.run mf in
  check bool_t "folded something" true (folded > 0);
  check bool_t "code shrank" true (Mir.size mf < before);
  (* the add now carries an immediate *)
  let has_imm_add =
    List.exists
      (fun (b : Mir.block) ->
        List.exists
          (fun (i : Mir.inst) ->
            match (i.Mir.op, i.Mir.imm) with
            | Mir.Mbin Pvir.Instr.Add, Some _ -> true
            | _ -> false)
          b.Mir.insts)
      mf.Mir.mblocks
  in
  check bool_t "imm add" true has_imm_add

let test_immfold_keeps_semantics () =
  jit_matches_interp ~machine:Machine.x86ish
    "i64 main(i64 n) { return (n + 5) * 3 - 100; }" "main"
    [ Pvir.Value.i64 9L ]

(* Shrunk from [Pvcheck.Gen.program_recursive ~seed:802347].  Parameter
   [r1] of [@r0] has one [Mli] redefinition, on the base-case path.
   Counting only instruction definitions made it look like a single-def
   constant, so the recursive path's [add r1, r15] folded -1 in place of
   the incoming argument. *)
let immfold_param_src =
  {|program "immfold_param"

func @main() : i64 {
  reg r4 : i64
  reg r10 : i64
  reg r11 : i64
  block 0:
    r4 = const 129:i64
    r10 = const 4:i64
    r11 = call @r0(r10, r4)
    ret r11
}
func @r0(r0 : i64, r1 : i64) : i64 {
  reg r8 : i64
  reg r10 : i64
  reg r12 : i64
  reg r13 : i32
  reg r14 : i64
  reg r15 : i64
  reg r16 : i64
  block 0:
    r8 = const 16384:i64
    r10 = const 1:i64
    r12 = const 0:i64
    r13 = cmp sle r0, r12
    cbr r13, 1, 2
  block 1:
    r1 = const -1:i64
    ret r1
  block 2:
    r14 = sub r0, r10
    r15 = call @r0(r14, r8)
    r16 = add r1, r15
    ret r16
}
|}

let test_immfold_param_not_constant () =
  let expected = Some (Pvir.Value.i64 49280L) in
  let img () = Pvvm.Image.load (Pvir.Parse.program immfold_param_src) in
  let it = Pvvm.Interp.create (img ()) in
  check bool_t "reference result" true (Pvvm.Interp.run it "main" [] = expected);
  List.iter
    (fun (machine : Machine.t) ->
      let sim, _ =
        Pvjit.Jit.compile_program ~machine ~hints:Pvjit.Jit.Hints_recompute
          (img ())
      in
      check bool_t
        (Printf.sprintf "result on %s" machine.Machine.name)
        true
        (Pvvm.Sim.run sim "main" [] = expected))
    Machine.all

(* ---------------- entry block as a branch target ---------------- *)

(* The verifier lets a block branch back to block 0, so a function's
   entry block can be a loop header.  The JIT puts per-call code at the
   top of its entry block: the arg-slot loads of stack-passed parameters
   and the stores of spilled parameters.  Both must run once per call,
   not on every back edge. *)

(* [f]'s fourth parameter is its loop counter; x86ish passes only three
   in registers, so [r3] arrives in an arg slot. *)
let entry_loop_stack_param =
  {|program "entry_loop_stack_param"

func @f(r0 : i64, r1 : i64, r2 : i64, r3 : i64) : i64 {
  reg r4 : i64
  reg r5 : i32
  reg r6 : i64
  block 0:
    r4 = const 0:i64
    r5 = cmp sgt r3, r4
    cbr r5, 1, 2
  block 1:
    r0 = add r0, r3
    r6 = const 1:i64
    r3 = sub r3, r6
    br 0
  block 2:
    ret r0
}

func @main() : i64 {
  reg r0 : i64
  reg r1 : i64
  reg r2 : i64
  reg r3 : i64
  block 0:
    r0 = const 100:i64
    r1 = const 0:i64
    r2 = const 5:i64
    r3 = call @f(r0, r1, r1, r2)
    ret r3
}
|}

(* Enough pressure in the loop body that [r0], a parameter live around
   the back edge, is spilled on machines with few registers. *)
let entry_loop_spilled_param =
  {|program "entry_loop_spilled_param"

func @f(r0 : i64, r1 : i64) : i64 {
  reg r4 : i64
  reg r5 : i32
  reg r6 : i64
  reg r10 : i64
  reg r11 : i64
  reg r12 : i64
  reg r13 : i64
  reg r14 : i64
  reg r15 : i64
  reg r16 : i64
  reg r17 : i64
  reg r18 : i64
  reg r19 : i64
  reg r30 : i64
  reg r31 : i64
  reg r32 : i64
  reg r33 : i64
  reg r34 : i64
  reg r35 : i64
  reg r36 : i64
  reg r37 : i64
  reg r38 : i64
  reg r39 : i64
  block 0:
    r4 = const 0:i64
    r5 = cmp sgt r1, r4
    cbr r5, 1, 2
  block 1:
    r10 = add r0, r1
    r11 = add r0, r10
    r12 = add r0, r11
    r13 = add r0, r12
    r14 = add r0, r13
    r15 = add r0, r14
    r16 = add r0, r15
    r17 = add r0, r16
    r18 = add r0, r17
    r19 = add r0, r18
    r30 = add r1, r10
    r31 = add r30, r11
    r32 = add r31, r12
    r33 = add r32, r13
    r34 = add r33, r14
    r35 = add r34, r15
    r36 = add r35, r16
    r37 = add r36, r17
    r38 = add r37, r18
    r39 = add r38, r19
    r0 = add r0, r39
    r6 = const 1:i64
    r1 = sub r1, r6
    br 0
  block 2:
    ret r0
}

func @main() : i64 {
  reg r0 : i64
  reg r1 : i64
  reg r2 : i64
  block 0:
    r0 = const 7:i64
    r1 = const 5:i64
    r2 = call @f(r0, r1)
    ret r2
}
|}

let test_entry_block_branch_target () =
  Pvaot.install ();
  List.iter
    (fun (src, expected) ->
      let prog = Pvir.Parse.program src in
      let reference =
        (Pvcheck.Oracle.run_interp prog Pvvm.Vm.Tree_walk).Pvcheck.Oracle.iobs
          .Pvcheck.Oracle.outcome
      in
      let show = Pvcheck.Oracle.outcome_to_string in
      let name = prog.Pvir.Prog.pname in
      check Alcotest.string (name ^ ": interpreter")
        (show (Pvcheck.Oracle.Finished (Some (Pvir.Value.i64 expected))))
        (show reference);
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun (hints, hname) ->
              List.iter
                (fun engine ->
                  let r = Pvcheck.Oracle.run_jit prog machine hints engine in
                  check Alcotest.string
                    (Printf.sprintf "%s on %s, %s, %s" name machine.Machine.name
                       hname (Pvvm.Vm.engine_name engine))
                    (show reference)
                    (show r.Pvcheck.Oracle.jobs.Pvcheck.Oracle.outcome))
                Pvvm.Vm.engines)
            [
              (Pvjit.Jit.Hints_none, "no hints");
              (Pvjit.Jit.Hints_recompute, "recomputed hints");
            ])
        Machine.all)
    [ (entry_loop_stack_param, 115L); (entry_loop_spilled_param, 4403851547L) ]

(* ---------------- register allocation ---------------- *)

let test_regalloc_all_physical () =
  let src = "i64 main(i64 a, i64 b) { return a * 2 + b; }" in
  let _, mf = compile_mir ~machine:Machine.x86ish src "main" in
  ignore (Pvjit.Immfold.run mf);
  let stats = Pvjit.Regalloc.run ~quality:Pvjit.Regalloc.Heuristic mf in
  check int_t "no spills needed" 0 stats.Pvjit.Regalloc.spilled_regs;
  (* every register must now be physical *)
  let all_physical = ref true in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          List.iter
            (fun r -> match r with Mir.V _ -> all_physical := false | _ -> ())
            (Mir.inst_uses i);
          match Mir.inst_def i with
          | Some (Mir.V _) -> all_physical := false
          | _ -> ())
        b.Mir.insts)
    mf.Mir.mblocks;
  check bool_t "all physical" true !all_physical

let test_regalloc_respects_register_count () =
  let src = Pvkernels.Kernels.poly8.Pvkernels.Kernels.source in
  let _, mf = compile_mir ~machine:Machine.x86ish src "poly8" in
  ignore (Pvjit.Legalize.run mf);
  ignore (Pvjit.Immfold.run mf);
  ignore (Pvjit.Regalloc.run ~quality:Pvjit.Regalloc.Heuristic mf);
  let max_gpr = ref (-1) in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          List.iter
            (fun r ->
              match r with
              | Mir.P (Mir.Gpr, k) -> max_gpr := max !max_gpr k
              | _ -> ())
            (Mir.inst_uses i
            @ match Mir.inst_def i with Some d -> [ d ] | None -> []))
        b.Mir.insts)
    mf.Mir.mblocks;
  check bool_t "gpr indices within machine" true
    (!max_gpr < Machine.x86ish.Machine.int_regs)

let test_regalloc_spills_under_pressure () =
  let src = Pvkernels.Kernels.poly8.Pvkernels.Kernels.source in
  let _, mf = compile_mir ~machine:Machine.x86ish src "poly8" in
  ignore (Pvjit.Legalize.run mf);
  ignore (Pvjit.Immfold.run mf);
  let stats = Pvjit.Regalloc.run ~quality:Pvjit.Regalloc.Heuristic mf in
  check bool_t "spills happened" true (stats.Pvjit.Regalloc.spilled_regs > 0);
  check bool_t "spill code inserted" true (stats.Pvjit.Regalloc.spill_instrs > 0)

let test_regalloc_weights_beat_heuristic () =
  (* the E3 setup: scalar bytecode + offline spill-order annotations on
     the register-poor target.  Annotation-guided allocation must beat
     the blind heuristic on dynamic spill traffic, and must exactly match
     the quality of weights recomputed online. *)
  let k = Pvkernels.Kernels.poly8 in
  let machine = Machine.x86ish in
  let p = Core.Splitc.frontend k.Pvkernels.Kernels.source in
  Pvopt.Passes.offline_traditional p;
  Pvopt.Regalloc_annotate.run p;
  let bc = Pvir.Serial.encode p in
  let spills hints =
    let img = Pvvm.Image.load (Pvir.Serial.decode bc) in
    let sim, _ = Pvjit.Jit.compile_program ~machine ~hints img in
    Pvkernels.Harness.fill_inputs img;
    ignore (Pvvm.Sim.run sim "poly8" (Pvkernels.Harness.args k 256));
    sim.Pvvm.Sim.stats.Pvvm.Sim.spill_ops
  in
  let none = spills Pvjit.Jit.Hints_none in
  let annot = spills Pvjit.Jit.Hints_annotation in
  let recomputed = spills Pvjit.Jit.Hints_recompute in
  check bool_t "pressure kernel spills" true (Int64.compare none 0L > 0);
  check bool_t "annotation < blind" true (Int64.compare annot none < 0);
  check bool_t "annotation == recomputed quality" true
    (Int64.equal annot recomputed)

let test_regalloc_correct_under_spills () =
  (* execution equality for the pressure kernel on every machine *)
  List.iter
    (fun machine ->
      let k = Pvkernels.Kernels.poly8 in
      let r0, _ = interp_result k.Pvkernels.Kernels.source "poly8"
          (Pvkernels.Harness.args k 64) in
      let r =
        Pvkernels.Harness.run_jit ~n:64 ~mode:Core.Splitc.Split ~machine k
      in
      match (r0, r.Pvkernels.Harness.obs.Pvkernels.Harness.result) with
      | None, None -> ()
      | Some a, Some b ->
        check bool_t "equal" true (Pvir.Value.equal a b)
      | _ -> Alcotest.fail "presence mismatch")
    [ Machine.x86ish; Machine.uchost ]

(* ---------------- peephole ---------------- *)

let test_peephole_removes_self_movs () =
  let mf =
    {
      Mir.mname = "t";
      mparams = [];
      marg_slots = [];
      mret = None;
      mblocks =
        [
          {
            Mir.mlabel = 0;
            insts =
              [
                Mir.inst ~dst:(Mir.P (Mir.Gpr, 1)) ~srcs:[ Mir.P (Mir.Gpr, 1) ]
                  Mir.Mmov Pvir.Types.i64;
                Mir.inst ~dst:(Mir.P (Mir.Gpr, 2)) ~srcs:[ Mir.P (Mir.Gpr, 1) ]
                  Mir.Mmov Pvir.Types.i64;
              ];
            mterm = Mir.Tret None;
          };
        ];
      frame_size = 0;
      vreg_ty = Hashtbl.create 1;
      next_vreg = 0;
      target = Machine.x86ish;
      mblock_index = None;
    }
  in
  let removed = Pvjit.Peephole.run mf in
  check int_t "one mov removed" 1 removed;
  check int_t "one inst left" 1 (List.length (List.hd mf.Mir.mblocks).Mir.insts)

let test_peephole_store_load_forward () =
  let slot = 0 in
  let mf =
    {
      Mir.mname = "t";
      mparams = [];
      marg_slots = [];
      mret = None;
      mblocks =
        [
          {
            Mir.mlabel = 0;
            insts =
              [
                Mir.inst ~srcs:[ Mir.P (Mir.Gpr, 1) ] (Mir.Mframe_st slot)
                  Pvir.Types.i64;
                Mir.inst ~dst:(Mir.P (Mir.Gpr, 2)) (Mir.Mframe_ld slot)
                  Pvir.Types.i64;
              ];
            mterm = Mir.Tret None;
          };
        ];
      frame_size = 8;
      vreg_ty = Hashtbl.create 1;
      next_vreg = 0;
      target = Machine.x86ish;
      mblock_index = None;
    }
  in
  let removed = Pvjit.Peephole.run mf in
  check bool_t "forwarded" true (removed > 0);
  let has_reload =
    List.exists
      (fun (i : Mir.inst) ->
        match i.Mir.op with Mir.Mframe_ld _ -> true | _ -> false)
      (List.hd mf.Mir.mblocks).Mir.insts
  in
  check bool_t "reload gone" false has_reload

(* ---------------- cost model ---------------- *)

let test_cost_vector_chunks () =
  let m = Machine.x86ish in
  let v16 = Mir.inst (Mir.Mbin Pvir.Instr.Add) (Pvir.Types.vec Pvir.Types.I8 16) in
  let v64 =
    Mir.inst (Mir.Mbin Pvir.Instr.Add) (Pvir.Types.vec Pvir.Types.I32 16)
  in
  (* a 64-byte vector costs 4x a 16-byte vector on a 16-byte SIMD unit *)
  check int_t "chunking" (4 * Cost.of_inst m v16) (Cost.of_inst m v64)

let test_cost_narrow_penalty () =
  let op s = Mir.inst (Mir.Mbin Pvir.Instr.Add) (Pvir.Types.Scalar s) in
  let sparc_narrow = Cost.of_inst Machine.sparcish (op Pvir.Types.I8) in
  let sparc_wide = Cost.of_inst Machine.sparcish (op Pvir.Types.I32) in
  check bool_t "sparc pays for narrow ops" true (sparc_narrow > sparc_wide);
  let ppc_narrow = Cost.of_inst Machine.ppcish (op Pvir.Types.I8) in
  let ppc_wide = Cost.of_inst Machine.ppcish (op Pvir.Types.I32) in
  check int_t "ppc does not" ppc_wide ppc_narrow

let test_cost_div_expensive () =
  let m = Machine.x86ish in
  let div = Mir.inst (Mir.Mbin Pvir.Instr.Div) Pvir.Types.i32 in
  let add = Mir.inst (Mir.Mbin Pvir.Instr.Add) Pvir.Types.i32 in
  check bool_t "div costs more" true (Cost.of_inst m div > Cost.of_inst m add)

(* ---------------- whole-JIT equivalence ---------------- *)

let test_jit_equivalence_matrix () =
  (* a few programs across all machines and modes *)
  let programs =
    [
      ("i64 main() { i64 s = 0; for (i64 i = 0; i < 50; i = i + 1) { s = s + i * i; } return s; }",
       "main", []);
      ("f64 main(f64 x) { if (x > 1.5) { return x * 2.0; } return x / 2.0; }",
       "main", [ Pvir.Value.f64 3.0 ]);
      ( {|
u8 t[32];
i64 main() {
  for (i64 i = 0; i < 32; i = i + 1) { t[i] = (u8)(i * 7); }
  u8 m = 0;
  for (i64 i = 0; i < 32; i = i + 1) { m = t[i] > m ? t[i] : m; }
  return (i64)m;
}
|},
        "main", [] );
    ]
  in
  List.iter
    (fun (src, entry, args) ->
      List.iter
        (fun machine ->
          List.iter
            (fun mode -> jit_matches_interp ~mode ~machine src entry args)
            Core.Splitc.all_modes)
        Machine.all)
    programs

let test_jit_work_ordering () =
  (* online work: split mode must be far cheaper than pure-online *)
  let k = Pvkernels.Kernels.saxpy_fp in
  let machine = Machine.x86ish in
  let split =
    Pvkernels.Harness.run_jit ~mode:Core.Splitc.Split ~machine k
  in
  let pure =
    Pvkernels.Harness.run_jit ~mode:Core.Splitc.Pure_online ~machine k
  in
  check bool_t "split online work < 1/3 pure-online" true
    (split.Pvkernels.Harness.online_work * 3
    < pure.Pvkernels.Harness.online_work);
  check bool_t "same code quality" true
    (Int64.equal split.Pvkernels.Harness.cycles pure.Pvkernels.Harness.cycles)

let () =
  Alcotest.run "pvjit"
    [
      ( "lower",
        [
          Alcotest.test_case "shapes" `Quick test_lower_shapes;
          Alcotest.test_case "gaddr resolved" `Quick test_lower_gaddr_resolved;
          Alcotest.test_case "alloca frame" `Quick test_lower_alloca_frame;
          Alcotest.test_case "stack args" `Quick test_calling_convention_stack_args;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "keeps SIMD" `Quick test_legalize_keeps_simd;
          Alcotest.test_case "scalarizes" `Quick test_legalize_scalarizes;
          Alcotest.test_case "execution equal" `Quick test_legalize_execution_equal;
        ] );
      ( "immfold",
        [
          Alcotest.test_case "folds+shrinks" `Quick test_immfold_folds_and_shrinks;
          Alcotest.test_case "semantics" `Quick test_immfold_keeps_semantics;
          Alcotest.test_case "parameter is not a constant" `Quick
            test_immfold_param_not_constant;
        ] );
      ( "entry block",
        [
          Alcotest.test_case "branch target" `Quick
            test_entry_block_branch_target;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "all physical" `Quick test_regalloc_all_physical;
          Alcotest.test_case "register bound" `Quick test_regalloc_respects_register_count;
          Alcotest.test_case "spills under pressure" `Quick test_regalloc_spills_under_pressure;
          Alcotest.test_case "weights beat heuristic" `Quick test_regalloc_weights_beat_heuristic;
          Alcotest.test_case "correct with spills" `Quick test_regalloc_correct_under_spills;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "self movs" `Quick test_peephole_removes_self_movs;
          Alcotest.test_case "store-load forward" `Quick test_peephole_store_load_forward;
        ] );
      ( "cost",
        [
          Alcotest.test_case "vector chunks" `Quick test_cost_vector_chunks;
          Alcotest.test_case "narrow penalty" `Quick test_cost_narrow_penalty;
          Alcotest.test_case "div expensive" `Quick test_cost_div_expensive;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "matrix" `Quick test_jit_equivalence_matrix;
          Alcotest.test_case "work ordering" `Quick test_jit_work_ordering;
        ] );
    ]
