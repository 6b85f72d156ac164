(* Unit tests for the offline optimizer: each pass is checked both
   structurally (did it do its job?) and semantically (the interpreter
   must observe identical behaviour before and after). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* observation of a program: result of calling [entry args] + all globals *)
let observe (p : Pvir.Prog.t) entry args =
  let img = Pvvm.Image.load (Pvir.Prog.copy p) in
  Pvkernels.Harness.fill_inputs img;
  let it = Pvvm.Interp.create img in
  let r = Pvvm.Interp.run it entry args in
  let globals =
    List.map
      (fun (g : Pvir.Prog.global) ->
        (g.Pvir.Prog.gname, Pvvm.Image.read_global img g.Pvir.Prog.gname))
      img.Pvvm.Image.prog.Pvir.Prog.globals
  in
  (r, globals, Pvvm.Interp.output it)

let same_observation (a, ga, oa) (b, gb, ob) =
  (match (a, b) with
  | None, None -> true
  | Some x, Some y -> Pvir.Value.equal x y
  | _ -> false)
  && String.equal oa ob
  && List.for_all2
       (fun (n1, a1) (n2, a2) ->
         n1 = n2 && Array.for_all2 Pvir.Value.equal a1 a2)
       ga gb

(* apply [pass] to every function; assert semantics preserved *)
let preserved ?(entry = "main") ?(args = []) src pass =
  let p = Core.Splitc.frontend src in
  let before = observe p entry args in
  List.iter (fun fn -> ignore (pass fn)) p.Pvir.Prog.funcs;
  Pvir.Verify.program p;
  let after = observe p entry args in
  check bool_t "semantics preserved" true (same_observation before after);
  p

let instr_count (p : Pvir.Prog.t) =
  List.fold_left (fun acc fn -> acc + Pvir.Func.instr_count fn) 0 p.Pvir.Prog.funcs

(* count instructions matching a predicate *)
let count_matching (p : Pvir.Prog.t) pred =
  let n = ref 0 in
  List.iter
    (fun fn -> Pvir.Func.iter_instrs (fun _ i -> if pred i then incr n) fn)
    p.Pvir.Prog.funcs;
  !n

(* ---------------- constfold ---------------- *)

let test_constfold_folds () =
  let src = "i64 main() { i64 x = 3 + 4 * 5; return x + 1; }" in
  let p = preserved src (fun fn -> Pvopt.Constfold.run fn) in
  (* after folding, no arithmetic should remain, only constants and movs *)
  check int_t "no binops left" 0
    (count_matching p (function Pvir.Instr.Binop _ -> true | _ -> false))

let test_constfold_branch () =
  let src =
    "i64 main() { if (1 > 2) { return 100; } else { return 7; } }"
  in
  let p = preserved src (fun fn -> Pvopt.Constfold.run fn) in
  (* the conditional branch must have been folded to a direct branch *)
  let has_cbr =
    List.exists
      (fun (fn : Pvir.Func.t) ->
        List.exists
          (fun (b : Pvir.Func.block) ->
            match b.Pvir.Func.term with Pvir.Instr.Cbr _ -> true | _ -> false)
          fn.Pvir.Func.blocks)
      p.Pvir.Prog.funcs
  in
  check bool_t "cbr folded" false has_cbr

let test_constfold_algebraic () =
  let src = "i64 main(i64 n) { return n * 1 + 0; }" in
  let p = Core.Splitc.frontend src in
  List.iter (fun fn -> ignore (Pvopt.Constfold.run fn)) p.Pvir.Prog.funcs;
  check int_t "mul and add gone" 0
    (count_matching p (function
      | Pvir.Instr.Binop ((Pvir.Instr.Mul | Pvir.Instr.Add), _, _, _) -> true
      | _ -> false))

let test_constfold_keeps_div_by_zero () =
  (* folding must not evaluate a trapping division *)
  let src = "i64 main() { i64 z = 0; return 10 / z; }" in
  let p = Core.Splitc.frontend src in
  List.iter (fun fn -> ignore (Pvopt.Constfold.run fn)) p.Pvir.Prog.funcs;
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create img in
  Alcotest.check_raises "still traps" (Pvvm.Vm.Trap "division by zero")
    (fun () -> ignore (Pvvm.Interp.run it "main" []))

(* ---------------- copyprop + dce ---------------- *)

let test_copyprop_removes_movs () =
  let src = "i64 main() { i64 a = 5; i64 b = a; i64 c = b; return c; }" in
  let p =
    preserved src (fun fn ->
        let c1 = Pvopt.Copyprop.run fn in
        let c2 = Pvopt.Dce.run fn in
        c1 || c2)
  in
  check int_t "movs eliminated" 0
    (count_matching p (function Pvir.Instr.Mov _ -> true | _ -> false))

let test_dce_removes_dead () =
  let src = "i64 main() { i64 dead = 1 + 2; i64 dead2 = dead * 3; return 9; }" in
  let p = preserved src (fun fn -> Pvopt.Dce.run fn) in
  check int_t "dead arith removed" 0
    (count_matching p (function Pvir.Instr.Binop _ -> true | _ -> false))

let test_dce_keeps_stores_and_calls () =
  let src =
    {|
i32 g = 0;
void touch() { g = g + 1; }
i64 main() { touch(); g = g + 5; return (i64)g; }
|}
  in
  let p = preserved src (fun fn -> Pvopt.Dce.run fn) in
  check bool_t "store kept" true
    (count_matching p (function Pvir.Instr.Store _ -> true | _ -> false) > 0);
  check bool_t "call kept" true
    (count_matching p (function Pvir.Instr.Call _ -> true | _ -> false) > 0)

(* ---------------- cse ---------------- *)

let test_cse_dedupes () =
  let src =
    "i64 main(i64 a, i64 b) { i64 x = a * b + 1; i64 y = a * b + 2; return x + y; }"
  in
  let p = Core.Splitc.frontend src in
  let muls p =
    count_matching p (function
      | Pvir.Instr.Binop (Pvir.Instr.Mul, _, _, _) -> true
      | _ -> false)
  in
  check int_t "two muls before" 2 (muls p);
  List.iter (fun fn -> ignore (Pvopt.Cse.run fn)) p.Pvir.Prog.funcs;
  List.iter (fun fn -> ignore (Pvopt.Copyprop.run fn)) p.Pvir.Prog.funcs;
  List.iter (fun fn -> ignore (Pvopt.Dce.run fn)) p.Pvir.Prog.funcs;
  check int_t "one mul after" 1 (muls p);
  Pvir.Verify.program p

let test_cse_invalidated_by_store () =
  (* two loads of the same location with a store in between must both
     remain *)
  let src =
    {|
i32 g = 1;
i64 main() { i32 a = g; g = a + 1; i32 b = g; return (i64)(a * 100 + b); }
|}
  in
  let p =
    preserved src (fun fn ->
        let c = Pvopt.Cse.run fn in
        ignore (Pvopt.Copyprop.run fn);
        ignore (Pvopt.Dce.run fn);
        c)
  in
  check int_t "both loads remain" 2
    (count_matching p (function Pvir.Instr.Load _ -> true | _ -> false))

(* ---------------- simplify_cfg ---------------- *)

let test_simplify_merges () =
  let src =
    "i64 main() { i64 x = 1; if (x > 0) { x = 2; } else { x = 3; } return x; }"
  in
  let p = Core.Splitc.frontend src in
  let before = observe p "main" [] in
  List.iter
    (fun fn ->
      ignore (Pvopt.Constfold.run fn);
      ignore (Pvopt.Copyprop.run fn);
      ignore (Pvopt.Constfold.run fn);
      ignore (Pvopt.Simplify_cfg.run fn);
      ignore (Pvopt.Dce.run fn))
    p.Pvir.Prog.funcs;
  Pvir.Verify.program p;
  let after = observe p "main" [] in
  check bool_t "semantics preserved" true (same_observation before after);
  let fn = Pvir.Prog.find_func_exn p "main" in
  check int_t "collapsed to one block" 1 (List.length fn.Pvir.Func.blocks)

let test_prune_unreachable () =
  let fn = Pvir.Func.create ~name:"f" ~params:[] ~ret:None in
  let b0 = Pvir.Func.add_block fn in
  let _dead = Pvir.Func.add_block fn in
  b0.Pvir.Func.term <- Pvir.Instr.Ret None;
  check bool_t "pruned" true (Pvopt.Cfg.prune_unreachable fn);
  check int_t "one block left" 1 (List.length fn.Pvir.Func.blocks)

(* ---------------- idiom ---------------- *)

let test_idiom_minmax () =
  let src =
    "i64 main(i64 a, i64 b) { i64 m = a > b ? a : b; i64 n = a < b ? a : b; return m - n; }"
  in
  let p =
    preserved ~args:[ Pvir.Value.i64 3L; Pvir.Value.i64 9L ] src (fun fn ->
        Pvopt.Idiom.run fn)
  in
  check int_t "selects fused" 0
    (count_matching p (function Pvir.Instr.Select _ -> true | _ -> false));
  check int_t "max+min present" 2
    (count_matching p (function
      | Pvir.Instr.Binop ((Pvir.Instr.Max | Pvir.Instr.Min), _, _, _) -> true
      | _ -> false))

let test_idiom_unsigned () =
  let src = "i64 main(i64 x) { u8 a = (u8)x; u8 b = 7; u8 m = a > b ? a : b; return (i64)m; }" in
  let p =
    preserved ~args:[ Pvir.Value.i64 200L ] src (fun fn -> Pvopt.Idiom.run fn)
  in
  check int_t "umax used" 1
    (count_matching p (function
      | Pvir.Instr.Binop (Pvir.Instr.Umax, _, _, _) -> true
      | _ -> false))

(* Fusion drops every compare that defines the fused register, the dead
   [cmp eq] included, so block 1 takes a use away from r2 and block 2 may
   fuse too: each block must see the use counts of the function as the
   blocks before it left it. *)
let idiom_across_blocks_src =
  {|
program "idiom_exact"

func @f(r0 : i64, r1 : i64) : i64 {
  reg r2 : i32
  reg r3 : i32
  reg r4 : i32
  reg r5 : i64
  reg r6 : i64
  reg r7 : i64
  block 0:
    r3 = const 0:i32
    br 2
  block 1:
    r4 = cmp eq r2, r3
    r4 = cmp slt r0, r1
    r5 = select r4, r0, r1
    r7 = add r5, r6
    ret r7
  block 2:
    r2 = cmp sgt r0, r1
    r6 = select r2, r0, r1
    br 1
}
|}

let test_idiom_across_blocks () =
  let p = Pvir.Parse.program idiom_across_blocks_src in
  let fn = List.hd p.Pvir.Prog.funcs in
  check bool_t "changed" true (Pvopt.Idiom.run fn);
  let fused l op d =
    List.mem
      (Pvir.Instr.Binop (op, d, 0, 1))
      (Pvir.Func.find_block fn l).Pvir.Func.instrs
  in
  check bool_t "block 1: r5 = min r0, r1" true (fused 1 Pvir.Instr.Min 5);
  check bool_t "block 2: r6 = max r0, r1" true (fused 2 Pvir.Instr.Max 6);
  check int_t "no select or compare left" 0
    (count_matching p (function
      | Pvir.Instr.Select _ | Pvir.Instr.Cmp _ -> true
      | _ -> false))

(* ---------------- licm ---------------- *)

let test_licm_hoists () =
  let src =
    {|
i32 a[64];
void f(i64 n, i32 k) {
  for (i64 i = 0; i < n; i = i + 1) {
    a[i] = k * k;
  }
}
|}
  in
  let p = Core.Splitc.frontend src in
  let before = observe p "f" [ Pvir.Value.i64 64L; Pvir.Value.i32 5 ] in
  List.iter
    (fun fn ->
      ignore (Pvopt.Copyprop.run fn);
      ignore (Pvopt.Licm.run fn))
    p.Pvir.Prog.funcs;
  Pvir.Verify.program p;
  let after = observe p "f" [ Pvir.Value.i64 64L; Pvir.Value.i32 5 ] in
  check bool_t "semantics preserved" true (same_observation before after);
  (* k*k must now be outside the loop: the loop blocks contain no Mul on
     i32 *)
  let fn = Pvir.Prog.find_func_exn p "f" in
  let cfg = Pvopt.Cfg.build fn in
  let loops = Pvopt.Loops.find cfg in
  let in_loop_mul =
    List.exists
      (fun (lp : Pvopt.Loops.loop) ->
        List.exists
          (fun l ->
            List.exists
              (fun i ->
                match i with
                | Pvir.Instr.Binop (Pvir.Instr.Mul, d, _, _) ->
                  Pvir.Types.equal (Pvir.Func.reg_type fn d) Pvir.Types.i32
                | _ -> false)
              (Pvir.Func.find_block fn l).Pvir.Func.instrs)
          lp.Pvopt.Loops.blocks)
      loops.Pvopt.Loops.loops
  in
  check bool_t "k*k hoisted" false in_loop_mul

let test_licm_does_not_hoist_load_past_store () =
  (* g is written in the loop: the load of g must not be hoisted *)
  let src =
    {|
i32 g = 0;
i32 a[8];
void f(i64 n) {
  for (i64 i = 0; i < n; i = i + 1) {
    g = g + 1;
    a[i] = g;
  }
}
|}
  in
  ignore
    (preserved ~entry:"f" ~args:[ Pvir.Value.i64 8L ] src (fun fn ->
         ignore (Pvopt.Copyprop.run fn);
         Pvopt.Licm.run fn))

(* Shrunk from [Pvcheck.Gen.program ~seed:301816] as the offline pipeline
   hands it to LICM.  The inner loop (block 15) gets a preheader holding
   the hoisted [r59 = uitofp r50].  That preheader lies inside the outer
   loop (blocks 1, 13, 15, 16), which must see it: otherwise [r59] looks
   invariant there and its uses are hoisted above its definition, and the
   run traps reading an uninitialized register. *)
let licm_nested_src =
  {|program "fuzz301816"

func @main() : i64 {
  reg r6 : i64
  reg r8 : i64
  reg r25 : i64
  reg r26 : i64
  reg r27 : i32
  reg r31 : i64
  reg r50 : i64
  reg r51 : i64
  reg r52 : f32
  reg r57 : i64
  reg r58 : i64
  reg r59 : f32
  reg r60 : f32
  reg r61 : i32
  reg r62 : i32
  block 0:
    r8 = const 1:i64
    r31 = const 1:i64
    br 9
  block 1:
    r50 = const 1:i64
    r51 = const 1:i64
    r52 = const 0x1p+0:f32
    r57 = const 0:i64
    r58 = mov r51
    br 15
  block 2:
    br 5
  block 5:
    br 25
  block 9:
    br 10
  block 10:
    br 12
  block 12:
    r6 = mov r31
    r25 = const 0:i64
    r26 = const 1:i64
    br 1
  block 13:
    r25 = add r25, r8
    r27 = cmp slt r25, r26
    cbr r27, 1, 2
  block 15:
    r59 = uitofp r50
    r60 = min r59, r52
    r57 = add r57, r51
    r61 = cmp slt r57, r58
    cbr r61, 15, 16
  block 16:
    r62 = cmp eq r60, r59
    br 13
  block 23:
    ret r6
  block 25:
    br 23
}
|}

let test_licm_nested_preheader () =
  let p = Pvir.Parse.program licm_nested_src in
  let before = observe p "main" [] in
  Pvopt.Passes.licm_all p;
  Pvir.Verify.program p;
  check bool_t "semantics preserved" true
    (same_observation before (observe p "main" []))

(* ---------------- strength reduction ---------------- *)

let test_strength_removes_loop_mul () =
  let src =
    {|
f64 a[64];
void f(i64 n, f64 v) {
  for (i64 i = 0; i < n; i = i + 1) {
    a[i] = v;
  }
}
|}
  in
  let p = Core.Splitc.frontend src in
  let before = observe p "f" [ Pvir.Value.i64 64L; Pvir.Value.f64 2.5 ] in
  Pvopt.Passes.cleanup p;
  Pvopt.Passes.licm_all p;  (* strength needs the invariant base hoisted *)
  List.iter (fun fn -> ignore (Pvopt.Strength.run fn)) p.Pvir.Prog.funcs;
  Pvopt.Passes.cleanup p;
  Pvir.Verify.program p;
  let after = observe p "f" [ Pvir.Value.i64 64L; Pvir.Value.f64 2.5 ] in
  check bool_t "semantics preserved" true (same_observation before after);
  (* the i*8 multiply must be gone from the loop *)
  let fn = Pvir.Prog.find_func_exn p "f" in
  let cfg = Pvopt.Cfg.build fn in
  let loops = Pvopt.Loops.find cfg in
  let muls_in_loops =
    List.fold_left
      (fun acc (lp : Pvopt.Loops.loop) ->
        List.fold_left
          (fun acc l ->
            acc
            + List.length
                (List.filter
                   (function
                     | Pvir.Instr.Binop (Pvir.Instr.Mul, _, _, _) -> true
                     | _ -> false)
                   (Pvir.Func.find_block fn l).Pvir.Func.instrs))
          acc lp.Pvopt.Loops.blocks)
      0 loops.Pvopt.Loops.loops
  in
  check int_t "no multiply in loop" 0 muls_in_loops

(* ---------------- inline ---------------- *)

let test_inline_small_callee () =
  let src =
    {|
i64 square(i64 x) { return x * x; }
i64 main() { return square(3) + square(4); }
|}
  in
  let p = Core.Splitc.frontend src in
  let before = observe p "main" [] in
  ignore (Pvopt.Inline.run p);
  Pvir.Verify.program p;
  let after = observe p "main" [] in
  check bool_t "semantics preserved" true (same_observation before after);
  let main = Pvir.Prog.find_func_exn p "main" in
  let calls = ref 0 in
  Pvir.Func.iter_instrs
    (fun _ i -> match i with Pvir.Instr.Call _ -> incr calls | _ -> ())
    main;
  check int_t "no calls left in main" 0 !calls

let test_inline_respects_recursion () =
  let src =
    {|
i64 fact(i64 n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
i64 main() { return fact(5); }
|}
  in
  let p = Core.Splitc.frontend src in
  ignore (Pvopt.Inline.run p);
  Pvir.Verify.program p;
  let fact = Pvir.Prog.find_func_exn p "fact" in
  let self_calls = ref 0 in
  Pvir.Func.iter_instrs
    (fun _ i ->
      match i with
      | Pvir.Instr.Call (_, "fact", _) -> incr self_calls
      | _ -> ())
    fact;
  check bool_t "recursive call kept" true (!self_calls > 0);
  let after = observe p "main" [] in
  match after with
  | Some v, _, _ -> check bool_t "fact(5)" true (Pvir.Value.equal v (Pvir.Value.i64 120L))
  | _ -> Alcotest.fail "no result"

(* ---------------- loops analysis ---------------- *)

let test_loop_detection () =
  let src =
    {|
void f(i64 n) {
  for (i64 i = 0; i < n; i = i + 1) {
    for (i64 j = 0; j < n; j = j + 1) { }
  }
}
|}
  in
  let p = Core.Splitc.frontend src in
  let fn = Pvir.Prog.find_func_exn p "f" in
  let cfg = Pvopt.Cfg.build fn in
  let loops = Pvopt.Loops.find cfg in
  check int_t "two loops" 2 (List.length loops.Pvopt.Loops.loops);
  let depths =
    List.sort compare
      (List.map (fun (l : Pvopt.Loops.loop) -> l.Pvopt.Loops.depth)
         loops.Pvopt.Loops.loops)
  in
  check bool_t "nesting depths" true (depths = [ 1; 2 ])

let test_induction_variables () =
  let src = "void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { } }" in
  let p = Core.Splitc.frontend src in
  (* canonical IV shape (i = add i, c) appears after the cleanup pipeline
     (copy coalescing + folding of the sign-extended step constant) *)
  Pvopt.Passes.cleanup p;
  let fn = Pvir.Prog.find_func_exn p "f" in
  let cfg = Pvopt.Cfg.build fn in
  let loops = Pvopt.Loops.find cfg in
  match loops.Pvopt.Loops.loops with
  | [ lp ] -> (
    match Pvopt.Loops.induction_variables fn lp with
    | [ (_, step, _) ] -> check bool_t "unit step" true (Int64.equal step 1L)
    | l -> Alcotest.fail (Printf.sprintf "%d IVs found" (List.length l)))
  | _ -> Alcotest.fail "expected one loop"

(* ---------------- dominators / liveness ---------------- *)

let test_dominators () =
  let src =
    "i64 main(i64 x) { i64 r = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }"
  in
  let p = Core.Splitc.frontend src in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let cfg = Pvopt.Cfg.build fn in
  let dom = Pvopt.Cfg.dominators cfg in
  let entry = (Pvir.Func.entry fn).Pvir.Func.label in
  List.iter
    (fun (b : Pvir.Func.block) ->
      if Pvopt.Cfg.reachable cfg b.Pvir.Func.label then
        check bool_t "entry dominates all" true
          (Pvopt.Cfg.dominates dom entry b.Pvir.Func.label))
    fn.Pvir.Func.blocks

let test_liveness_param () =
  let src = "i64 main(i64 x) { i64 y = 1; while (y < x) { y = y + y; } return y; }" in
  let p = Core.Splitc.frontend src in
  let fn = Pvir.Prog.find_func_exn p "main" in
  let lv = Pvopt.Cfg.liveness fn in
  (* x (reg 0) is live into the loop header *)
  let live_somewhere =
    Array.exists (fun s -> Pvopt.Liveness.mem s 0) lv.Pvopt.Liveness.live_in
  in
  check bool_t "param live" true live_somewhere

(* ---------------- liveness against a brute-force reference ---------------- *)

(* The reference reads a block as, for each register it touches, whether
   the first touch reads it, plus the positions of its successors.
   Register [r] is live into block [b] iff some path from the start of
   [b] reaches a read of [r] before any write of [r]: a depth-first
   search that stops, on each path, at the first block touching [r]. *)
type ref_block = { first_read : (int, bool) Hashtbl.t; succs : int list }

(* [touches b] lists the registers [b] reads ([true]) and writes
   ([false]), in execution order. *)
let ref_blocks ~label ~succs ~touches blocks =
  let labels = List.map label blocks in
  let position l =
    match List.find_index (( = ) l) labels with
    | Some i -> i
    | None -> Alcotest.failf "no block %d" l
  in
  Array.of_list
    (List.map
       (fun b ->
         let first_read = Hashtbl.create 16 in
         List.iter
           (fun (r, read) ->
             if not (Hashtbl.mem first_read r) then
               Hashtbl.replace first_read r read)
           (touches b);
         { first_read; succs = List.map position (succs b) })
       blocks)

let live_in_ref (blocks : ref_block array) r b =
  let seen = Array.make (Array.length blocks) false in
  let rec from b =
    (not seen.(b))
    && begin
         seen.(b) <- true;
         match Hashtbl.find_opt blocks.(b).first_read r with
         | Some read -> read
         | None -> List.exists from blocks.(b).succs
       end
  in
  from b

(* Every block and register: live-in as above, live-out as live into
   some successor. *)
let check_liveness ~what ~nregs blocks (lv : Pvopt.Liveness.t) =
  check int_t (what ^ ": blocks") (Array.length blocks)
    (Array.length lv.Pvopt.Liveness.live_in);
  Array.iteri
    (fun b (rb : ref_block) ->
      for r = 0 to nregs - 1 do
        let in_ = live_in_ref blocks r b in
        let out = List.exists (fun s -> live_in_ref blocks r s) rb.succs in
        if in_ <> Pvopt.Liveness.mem lv.Pvopt.Liveness.live_in.(b) r then
          Alcotest.failf "%s: r%d live into block %d is %b" what r b in_;
        if out <> Pvopt.Liveness.mem lv.Pvopt.Liveness.live_out.(b) r then
          Alcotest.failf "%s: r%d live out of block %d is %b" what r b out
      done)
    blocks

let reads regs = List.map (fun r -> (r, true)) regs
let writes regs = List.map (fun r -> (r, false)) regs

let pvir_ref_blocks (fn : Pvir.Func.t) =
  let open Pvir in
  ref_blocks fn.Func.blocks
    ~label:(fun (b : Func.block) -> b.label)
    ~succs:(fun (b : Func.block) -> Instr.successors b.term)
    ~touches:(fun (b : Func.block) ->
      List.concat_map
        (fun i -> reads (Instr.uses i) @ writes (Option.to_list (Instr.def i)))
        b.instrs
      @ reads (Instr.term_uses b.term))

let mir_ref_blocks (mf : Pvmach.Mir.func) =
  let open Pvmach in
  let vregs = List.filter_map (function Mir.V v -> Some v | Mir.P _ -> None) in
  ref_blocks mf.Mir.mblocks
    ~label:(fun (b : Mir.block) -> b.mlabel)
    ~succs:(fun (b : Mir.block) -> Mir.term_successors b.mterm)
    ~touches:(fun (b : Mir.block) ->
      List.concat_map
        (fun i ->
          reads (vregs (Mir.inst_uses i))
          @ writes (vregs (Option.to_list (Mir.inst_def i))))
        b.insts
      @ reads (vregs (Mir.term_uses b.mterm)))

(* [Cfg.liveness] on one PVIR program; [Regalloc.liveness] on its
   functions lowered, legalized and immediate-folded for every machine. *)
let check_program_liveness ~what (p : Pvir.Prog.t) =
  List.iter
    (fun (fn : Pvir.Func.t) ->
      check_liveness
        ~what:(Printf.sprintf "%s @%s" what fn.Pvir.Func.name)
        ~nregs:fn.Pvir.Func.next_reg (pvir_ref_blocks fn)
        (Pvopt.Cfg.liveness fn))
    p.Pvir.Prog.funcs;
  let layout = Pvvm.Image.layout p in
  List.iter
    (fun (machine : Pvmach.Machine.t) ->
      List.iter
        (fun (fn : Pvir.Func.t) ->
          let mf =
            Pvjit.Lower.run ~machine
              ~resolve_global:(Pvvm.Image.address layout)
              fn
          in
          ignore (Pvjit.Legalize.run mf);
          ignore (Pvjit.Immfold.run mf);
          check_liveness
            ~what:
              (Printf.sprintf "%s @%s on %s" what fn.Pvir.Func.name
                 machine.Pvmach.Machine.name)
            ~nregs:mf.Pvmach.Mir.next_vreg (mir_ref_blocks mf)
            (Pvjit.Regalloc.liveness mf))
        p.Pvir.Prog.funcs)
    Pvmach.Machine.all

let test_liveness_reference () =
  for seed = 1 to 100 do
    List.iter
      (fun (kind, gen) ->
        let raw = gen ~seed in
        let split = Pvir.Prog.copy raw in
        ignore (Pvopt.Passes.offline_split split);
        check_program_liveness ~what:(Printf.sprintf "%s %d raw" kind seed) raw;
        check_program_liveness
          ~what:(Printf.sprintf "%s %d split" kind seed)
          split)
      [
        ("program", Pvcheck.Gen.program);
        ("program_recursive", Pvcheck.Gen.program_recursive);
      ]
  done

(* 250 registers defined before a loop, each read and rewritten inside it
   and read after it: all of them are live around the back edge, so the
   loop's live sets span several bitset words. *)
let test_liveness_wide () =
  let open Pvir in
  let fn = Func.create ~name:"main" ~params:[] ~ret:(Some Types.i64) in
  let reg () = Func.fresh_reg fn Types.i64 in
  let wide = List.init 250 (fun _ -> reg ()) in
  let n = reg () and zero = reg () and one = reg () and acc = reg () in
  let cond = Func.fresh_reg fn Types.i32 in
  let entry = Func.add_block fn and header = Func.add_block fn in
  let body = Func.add_block fn and exit = Func.add_block fn in
  entry.instrs <-
    List.mapi (fun i r -> Instr.Const (r, Value.i64 (Int64.of_int i))) wide
    @ [
        Instr.Const (n, Value.i64 10L);
        Instr.Const (zero, Value.i64 0L);
        Instr.Const (one, Value.i64 1L);
      ];
  entry.term <- Instr.Br header.label;
  header.instrs <- [ Instr.Cmp (Instr.Sgt, cond, n, zero) ];
  header.term <- Instr.Cbr (cond, body.label, exit.label);
  body.instrs <-
    List.map (fun r -> Instr.Binop (Instr.Add, r, r, n)) wide
    @ [ Instr.Binop (Instr.Sub, n, n, one) ];
  body.term <- Instr.Br header.label;
  exit.instrs <-
    Instr.Const (acc, Value.i64 0L)
    :: List.map (fun r -> Instr.Binop (Instr.Add, acc, acc, r)) wide;
  exit.term <- Instr.Ret (Some acc);
  let p = Prog.create "wide_loop" in
  Prog.add_func p fn;
  (* the header is block 1 *)
  check bool_t "at least 200 live into the loop header" true
    (Pvopt.Liveness.cardinal (Pvopt.Cfg.liveness fn).live_in.(1) >= 200);
  check_program_liveness ~what:"wide loop" p

(* ---------------- vectorizer ---------------- *)

let vectorize_src src =
  let p = Core.Splitc.frontend src in
  Pvopt.Passes.cleanup p;
  Pvopt.Passes.licm_all p;
  let results = Pvopt.Vectorize.run p in
  Pvir.Verify.program p;
  (p, results)

let vectorized_count results =
  List.fold_left
    (fun acc (_, (r : Pvopt.Vectorize.result)) ->
      acc + List.length r.Pvopt.Vectorize.vectorized)
    0 results

let first_vf results =
  List.find_map
    (fun (_, (r : Pvopt.Vectorize.result)) ->
      match r.Pvopt.Vectorize.vectorized with (_, vf) :: _ -> Some vf | [] -> None)
    results

let test_vectorize_simple_map () =
  let src =
    {|
f32 a[128]; f32 b[128]; f32 c[128];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; } }
|}
  in
  let p, results = vectorize_src src in
  check int_t "one loop vectorized" 1 (vectorized_count results);
  check bool_t "vf = 4" true (first_vf results = Some 4);
  (* semantics: vectorized == interpreter on original *)
  let p0 = Core.Splitc.frontend src in
  let before = observe p0 "f" [ Pvir.Value.i64 100L ] in
  let after = observe p "f" [ Pvir.Value.i64 100L ] in
  check bool_t "results equal (incl. remainder)" true
    (same_observation before after)

let test_vectorize_bytes_vf16 () =
  let src =
    {|
u8 a[256]; u8 b[256];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { b[i] = a[i] + b[i]; } }
|}
  in
  let _, results = vectorize_src src in
  check bool_t "vf = 16" true (first_vf results = Some 16)

let test_vectorize_reduction () =
  let src =
    {|
u16 a[256];
u32 f(i64 n) { u32 s = 0; for (i64 i = 0; i < n; i = i + 1) { s = s + (u32)a[i]; } return s; }
|}
  in
  let p, results = vectorize_src src in
  check int_t "reduction vectorized" 1 (vectorized_count results);
  let p0 = Core.Splitc.frontend src in
  (* 203 exercises the scalar remainder loop too *)
  let before = observe p0 "f" [ Pvir.Value.i64 203L ] in
  let after = observe p "f" [ Pvir.Value.i64 203L ] in
  check bool_t "reduction result equal" true (same_observation before after)

let test_vectorize_bails_on_alias () =
  (* pointer params without a no-alias guarantee must not vectorize *)
  let src =
    "void f(f32* a, f32* b, i64 n) { for (i64 i = 0; i < n; i = i + 1) { b[i] = a[i]; } }"
  in
  let _, results = vectorize_src src in
  check int_t "bailed" 0 (vectorized_count results)

let test_vectorize_accepts_noalias_params () =
  let src =
    "void f(f32* a, f32* b, i64 n) { for (i64 i = 0; i < n; i = i + 1) { b[i] = a[i]; } }"
  in
  let p = Core.Splitc.frontend src in
  let fn = Pvir.Prog.find_func_exn p "f" in
  Pvir.Func.add_annot fn Pvir.Annot.key_no_alias (Pvir.Annot.Bool true);
  Pvopt.Passes.cleanup p;
  Pvopt.Passes.licm_all p;
  let results = Pvopt.Vectorize.run p in
  check int_t "vectorized with restrict" 1 (vectorized_count results)

let test_vectorize_bails_on_call () =
  let src =
    {|
f32 a[64];
void g() { }
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { a[i] = 1.0; g(); } }
|}
  in
  let _, results = vectorize_src src in
  check int_t "call bails" 0 (vectorized_count results)

let test_vectorize_bails_on_stride () =
  let src =
    {|
f32 a[256];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { a[i * 2] = 1.0; } }
|}
  in
  let _, results = vectorize_src src in
  check int_t "non-unit stride bails" 0 (vectorized_count results)

let test_vectorize_bails_on_float_sum () =
  (* float add reduction reassociates: requires fast-math *)
  let src =
    {|
f32 a[64];
f32 f(i64 n) { f32 s = 0.0; for (i64 i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }
|}
  in
  let _, results = vectorize_src src in
  check int_t "float sum bails" 0 (vectorized_count results)

let test_vectorize_float_sum_fast_math () =
  (* ... but vectorizes under the fast-math annotation *)
  let src =
    {|
f32 a[64];
f32 f(i64 n) { f32 s = 0.0; for (i64 i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }
|}
  in
  let p = Core.Splitc.frontend src in
  let fn = Pvir.Prog.find_func_exn p "f" in
  Pvir.Func.add_annot fn "pv.fast_math" (Pvir.Annot.Bool true);
  Pvopt.Passes.cleanup p;
  Pvopt.Passes.licm_all p;
  let results = Pvopt.Vectorize.run p in
  check int_t "fast-math float sum vectorized" 1 (vectorized_count results)

let test_vectorize_float_max_ok () =
  (* float min/max reductions are exact and must vectorize *)
  let src =
    {|
f32 a[64];
f32 f(i64 n) { f32 m = 0.0; for (i64 i = 0; i < n; i = i + 1) { m = __max(m, a[i]); } return m; }
|}
  in
  let p, results = vectorize_src src in
  check int_t "float max vectorized" 1 (vectorized_count results);
  let p0 = Core.Splitc.frontend src in
  let before = observe p0 "f" [ Pvir.Value.i64 60L ] in
  let after = observe p "f" [ Pvir.Value.i64 60L ] in
  check bool_t "max equal" true (same_observation before after)

let test_vectorize_bails_iv_as_data () =
  let src =
    {|
i32 a[64];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { a[i] = (i32)i; } }
|}
  in
  let _, results = vectorize_src src in
  check int_t "iv-as-data bails" 0 (vectorized_count results)


let test_vectorize_2d_stencil () =
  (* inner loop of a 2D kernel: addresses are affine in x with an
     invariant row term; distinct globals make the dependence test pass *)
  let src =
    {|
u8 img_in[1056];
u8 img_out[1056];
void scale(i64 w, i64 h) {
  for (i64 y = 0; y < h; y++) {
    i64 row = y * 33;
    for (i64 x = 0; x < w; x++) {
      img_out[row + x] = img_in[row + x] / 2;
    }
  }
}
|}
  in
  let p, results = vectorize_src src in
  check int_t "inner loop vectorized" 1 (vectorized_count results);
  let p0 = Core.Splitc.frontend src in
  let before = observe p0 "scale" [ Pvir.Value.i64 33L; Pvir.Value.i64 32L ] in
  let after = observe p "scale" [ Pvir.Value.i64 33L; Pvir.Value.i64 32L ] in
  check bool_t "2d results equal" true (same_observation before after)

let test_vectorize_2d_inplace_bails () =
  (* same array read at a different row and written: possible loop-carried
     dependence through the dynamic row offsets -> must bail *)
  let src =
    {|
u8 img[1056];
void smear(i64 w, i64 h) {
  for (i64 y = 1; y < h; y++) {
    i64 row = y * 33;
    i64 prev = (y - 1) * 33;
    for (i64 x = 0; x < w; x++) {
      img[row + x] = img[prev + x];
    }
  }
}
|}
  in
  let _, results = vectorize_src src in
  check int_t "in-place 2d bails" 0 (vectorized_count results)

let test_vectorize_annotations_present () =
  let src =
    {|
u8 a[64];
void f(i64 n) { for (i64 i = 0; i < n; i = i + 1) { a[i] = a[i] + 1; } }
|}
  in
  let p, _ = vectorize_src src in
  let fn = Pvir.Prog.find_func_exn p "f" in
  check bool_t "pv.vectorized set" true
    (Pvir.Annot.find_int Pvir.Annot.key_vectorized fn.Pvir.Func.annots = Some 16)


(* ---------------- if-conversion ---------------- *)

let test_ifconv_half_diamond () =
  let src =
    "i64 main(i64 a, i64 b) { i64 m = a; if (b > a) { m = b; } return m; }"
  in
  let p =
    preserved ~args:[ Pvir.Value.i64 3L; Pvir.Value.i64 9L ] src (fun fn ->
        ignore (Pvopt.Copyprop.run fn);
        Pvopt.Ifconv.run fn)
  in
  (* the branch is gone *)
  let has_cbr =
    count_matching p (fun _ -> false) = -1
    || List.exists
         (fun (fn : Pvir.Func.t) ->
           List.exists
             (fun (b : Pvir.Func.block) ->
               match b.Pvir.Func.term with Pvir.Instr.Cbr _ -> true | _ -> false)
             fn.Pvir.Func.blocks)
         p.Pvir.Prog.funcs
  in
  check bool_t "branch removed" false has_cbr

let test_ifconv_full_diamond () =
  let src =
    "i64 main(i64 a, i64 b) { i64 r = 0; if (a > b) { r = a * 2; } else { r = b * 3; } return r; }"
  in
  List.iter
    (fun args ->
      ignore
        (preserved ~args src (fun fn ->
             ignore (Pvopt.Copyprop.run fn);
             Pvopt.Ifconv.run fn)))
    [ [ Pvir.Value.i64 5L; Pvir.Value.i64 2L ];
      [ Pvir.Value.i64 2L; Pvir.Value.i64 5L ] ]

let test_ifconv_skips_effects () =
  (* stores and calls must not be speculated *)
  let src =
    {|
i32 g = 0;
i64 main(i64 a) { if (a > 0) { g = 1; } return (i64)g; }
|}
  in
  let p = Core.Splitc.frontend src in
  List.iter (fun fn -> ignore (Pvopt.Copyprop.run fn)) p.Pvir.Prog.funcs;
  let changed =
    List.exists (fun fn -> Pvopt.Ifconv.run fn) p.Pvir.Prog.funcs
  in
  check bool_t "store arm untouched" false changed

let test_ifconv_skips_division () =
  (* a guarded division must not be hoisted past its guard *)
  let src =
    "i64 main(i64 a, i64 b) { i64 r = 0; if (b != 0) { r = a / b; } return r; }"
  in
  let p = Core.Splitc.frontend src in
  List.iter (fun fn -> ignore (Pvopt.Copyprop.run fn)) p.Pvir.Prog.funcs;
  List.iter (fun fn -> ignore (Pvopt.Ifconv.run fn)) p.Pvir.Prog.funcs;
  (* whatever happened, dividing by zero must still be safe *)
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create img in
  match Pvvm.Interp.run it "main" [ Pvir.Value.i64 10L; Pvir.Value.i64 0L ] with
  | Some v -> check bool_t "guard held" true (Pvir.Value.equal v (Pvir.Value.i64 0L))
  | None -> Alcotest.fail "no result"

let test_ifconv_enables_vectorization () =
  (* the headline: an if-based max reduction becomes vectorizable through
     ifconv -> select -> idiom -> umax *)
  let src =
    {|
u8 ic_a[256];
u8 f(i64 n) {
  u8 m = 0;
  for (i64 i = 0; i < n; i = i + 1) {
    if (ic_a[i] > m) { m = ic_a[i]; }
  }
  return m;
}
|}
  in
  let p, results = vectorize_src src in
  check int_t "if-max vectorized" 1 (vectorized_count results);
  let p0 = Core.Splitc.frontend src in
  let before = observe p0 "f" [ Pvir.Value.i64 200L ] in
  let after = observe p "f" [ Pvir.Value.i64 200L ] in
  check bool_t "if-max equal" true (same_observation before after)

(* ---------------- regalloc annotations ---------------- *)

let test_regalloc_annotate () =
  let src =
    {|
i32 a[64];
void f(i64 n, i32 k) {
  for (i64 i = 0; i < n; i = i + 1) { a[i] = a[i] * k; }
}
|}
  in
  let p = Core.Splitc.frontend src in
  Pvopt.Passes.cleanup p;
  Pvopt.Regalloc_annotate.run p;
  let fn = Pvir.Prog.find_func_exn p "f" in
  (match Pvopt.Regalloc_annotate.decode_spill_order fn with
  | Some order ->
    check bool_t "order non-empty" true (order <> []);
    (* costs must be sorted ascending (cheapest spill first) *)
    let costs = List.map snd order in
    check bool_t "sorted" true (List.sort compare costs = costs)
  | None -> Alcotest.fail "no spill order annotation");
  check bool_t "pressure recorded" true
    (Pvir.Annot.find_int Pvir.Annot.key_pressure fn.Pvir.Func.annots <> None)

(* ---------------- full pipelines ---------------- *)

(* pvopt's printed output, pinned: [Passes.offline_split] over the kernels
   (each compiled under its own name) and seeds 1-300 of both program
   generators, [Gen.program_recursive] included, which no other digest
   covers.  Every pass that reads [Census] counts shows up here. *)
let test_offline_split_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let emit name p =
    let p = Pvir.Prog.copy p in
    ignore (Pvopt.Passes.offline_split p);
    Buffer.add_string buf name;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Pvir.Pp.program_to_string p)
  in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      emit k.name (Core.Splitc.frontend ~name:k.name k.source))
    Pvkernels.Kernels.all;
  for seed = 1 to 300 do
    emit (Printf.sprintf "gen-%d" seed) (Pvcheck.Gen.program ~seed);
    emit (Printf.sprintf "rec-%d" seed) (Pvcheck.Gen.program_recursive ~seed)
  done;
  check int_t "bytes" 1_060_095 (Buffer.length buf);
  check Alcotest.string "md5" "2c7e9549969c277b0fcddcd4a7a1a872"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_pipeline_split_preserves () =
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let p = Core.Splitc.frontend k.Pvkernels.Kernels.source in
      let args = Pvkernels.Harness.args k 100 in
      let before = observe p k.Pvkernels.Kernels.entry args in
      let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
      let after = observe off.Core.Splitc.prog k.Pvkernels.Kernels.entry args in
      check bool_t (k.Pvkernels.Kernels.name ^ " preserved") true
        (same_observation before after))
    Pvkernels.Kernels.all

let test_pipeline_shrinks_code () =
  (* the cleanup pipeline should never grow a straight-line program *)
  let src =
    "i64 main() { i64 a = 1 + 2; i64 b = a; i64 c = b * 1; return c + 0; }"
  in
  let p = Core.Splitc.frontend src in
  let n0 = instr_count p in
  Pvopt.Passes.cleanup p;
  check bool_t "shrinks" true (instr_count p < n0)

let () =
  Alcotest.run "pvopt"
    [
      ( "constfold",
        [
          Alcotest.test_case "folds" `Quick test_constfold_folds;
          Alcotest.test_case "branch folding" `Quick test_constfold_branch;
          Alcotest.test_case "algebraic" `Quick test_constfold_algebraic;
          Alcotest.test_case "keeps trapping div" `Quick test_constfold_keeps_div_by_zero;
        ] );
      ( "copyprop/dce",
        [
          Alcotest.test_case "movs removed" `Quick test_copyprop_removes_movs;
          Alcotest.test_case "dead removed" `Quick test_dce_removes_dead;
          Alcotest.test_case "effects kept" `Quick test_dce_keeps_stores_and_calls;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedupes" `Quick test_cse_dedupes;
          Alcotest.test_case "store invalidates" `Quick test_cse_invalidated_by_store;
        ] );
      ( "simplify_cfg",
        [
          Alcotest.test_case "merges blocks" `Quick test_simplify_merges;
          Alcotest.test_case "prunes unreachable" `Quick test_prune_unreachable;
        ] );
      ( "idiom",
        [
          Alcotest.test_case "min/max fusion" `Quick test_idiom_minmax;
          Alcotest.test_case "unsigned variant" `Quick test_idiom_unsigned;
          Alcotest.test_case "fusion across blocks" `Quick
            test_idiom_across_blocks;
        ] );
      ( "licm",
        [
          Alcotest.test_case "hoists invariant" `Quick test_licm_hoists;
          Alcotest.test_case "respects stores" `Quick test_licm_does_not_hoist_load_past_store;
          Alcotest.test_case "nested preheader" `Quick test_licm_nested_preheader;
        ] );
      ( "strength",
        [ Alcotest.test_case "removes loop mul" `Quick test_strength_removes_loop_mul ] );
      ( "inline",
        [
          Alcotest.test_case "small callee" `Quick test_inline_small_callee;
          Alcotest.test_case "recursion kept" `Quick test_inline_respects_recursion;
        ] );
      ( "loops",
        [
          Alcotest.test_case "detection" `Quick test_loop_detection;
          Alcotest.test_case "induction variables" `Quick test_induction_variables;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "liveness" `Quick test_liveness_param;
          Alcotest.test_case "liveness = reference" `Quick
            test_liveness_reference;
          Alcotest.test_case "liveness over 250 registers" `Quick
            test_liveness_wide;
        ] );
      ( "vectorize",
        [
          Alcotest.test_case "simple map" `Quick test_vectorize_simple_map;
          Alcotest.test_case "bytes vf16" `Quick test_vectorize_bytes_vf16;
          Alcotest.test_case "reduction" `Quick test_vectorize_reduction;
          Alcotest.test_case "alias bail" `Quick test_vectorize_bails_on_alias;
          Alcotest.test_case "restrict params" `Quick test_vectorize_accepts_noalias_params;
          Alcotest.test_case "call bail" `Quick test_vectorize_bails_on_call;
          Alcotest.test_case "stride bail" `Quick test_vectorize_bails_on_stride;
          Alcotest.test_case "float sum bail" `Quick test_vectorize_bails_on_float_sum;
          Alcotest.test_case "float sum fast-math" `Quick test_vectorize_float_sum_fast_math;
          Alcotest.test_case "float max ok" `Quick test_vectorize_float_max_ok;
          Alcotest.test_case "iv as data bail" `Quick test_vectorize_bails_iv_as_data;
          Alcotest.test_case "annotations" `Quick test_vectorize_annotations_present;
          Alcotest.test_case "2d stencil" `Quick test_vectorize_2d_stencil;
          Alcotest.test_case "2d in-place bail" `Quick test_vectorize_2d_inplace_bails;
        ] );
      ( "ifconv",
        [
          Alcotest.test_case "half diamond" `Quick test_ifconv_half_diamond;
          Alcotest.test_case "full diamond" `Quick test_ifconv_full_diamond;
          Alcotest.test_case "skips effects" `Quick test_ifconv_skips_effects;
          Alcotest.test_case "skips division" `Quick test_ifconv_skips_division;
          Alcotest.test_case "enables vectorization" `Quick test_ifconv_enables_vectorization;
        ] );
      ( "regalloc_annotate",
        [ Alcotest.test_case "spill order" `Quick test_regalloc_annotate ] );
      ( "pipelines",
        [
          Alcotest.test_case "split preserves kernels" `Quick test_pipeline_split_preserves;
          Alcotest.test_case "cleanup shrinks" `Quick test_pipeline_shrinks_code;
          Alcotest.test_case "offline_split output pinned" `Quick
            test_offline_split_pinned;
        ] );
    ]
