(* Differential tests pinning the threaded (pre-decoded) execution
   engines to the tree-walking reference engines.

   The pre-decode pass in Pvvm.Decode/Pvvm.Mdecode must be invisible:
   for any program, the threaded interpreter and simulator must produce
   the same result, the same printed output, the *exact* same
   cycle/instruction (and, for the simulator, spill-op) counts, and the
   same trap message at the same point as the tree-walkers.  Random
   programs cover the well-formed path; hand-built functions cover the
   run-time traps the frontend never emits.  Decoding is total on
   verified PVIR and on well-shaped MIR: code that is neither is refused
   with [Invalid_argument] when it is decoded, never replayed through a
   tree-walker. *)

let seeded_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------------- random MiniC programs ---------------- *)

(* Expressions over three i64 variables; division/shift guarded so the
   generated programs differ in values, not in traps (trap parity has
   its own dedicated cases below). *)
type rexpr =
  | Rlit of int
  | Rvar of int
  | Rbin of string * rexpr * rexpr
  | Rsel of rexpr * rexpr * rexpr

let rec rexpr_to_src = function
  | Rlit n -> Printf.sprintf "%d" n
  | Rvar v -> [| "a"; "b"; "c" |].(v mod 3)
  | Rbin ("/", e1, e2) ->
    Printf.sprintf "(%s / ((%s) | 1))" (rexpr_to_src e1) (rexpr_to_src e2)
  | Rbin ("%", e1, e2) ->
    Printf.sprintf "(%s %% ((%s) | 1))" (rexpr_to_src e1) (rexpr_to_src e2)
  | Rbin (">>", e1, e2) ->
    Printf.sprintf "(%s >> ((%s) & 15))" (rexpr_to_src e1) (rexpr_to_src e2)
  | Rbin ("<<", e1, e2) ->
    Printf.sprintf "(%s << ((%s) & 15))" (rexpr_to_src e1) (rexpr_to_src e2)
  | Rbin (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (rexpr_to_src e1) op (rexpr_to_src e2)
  | Rsel (c, t, f) ->
    Printf.sprintf "((%s) > 0 ? %s : %s)" (rexpr_to_src c) (rexpr_to_src t)
      (rexpr_to_src f)

let rexpr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [
                map (fun i -> Rlit (i - 50)) (int_bound 100);
                map (fun v -> Rvar v) (int_bound 2);
              ]
          else
            let sub = self (n / 2) in
            frequency
              [
                (2, map (fun i -> Rlit (i - 50)) (int_bound 100));
                (2, map (fun v -> Rvar v) (int_bound 2));
                ( 6,
                  map3
                    (fun op e1 e2 -> Rbin (op, e1, e2))
                    (oneofl
                       [ "+"; "-"; "*"; "&"; "|"; "^"; "/"; "%"; "<<"; ">>" ])
                    sub sub );
                (1, map3 (fun a b c -> Rsel (a, b, c)) sub sub sub);
              ])
        (min n 10))

(* Straight-line assignments followed by a short loop; prints the
   accumulator so the output channel is exercised too. *)
let rprog_gen =
  let open QCheck.Gen in
  map3
    (fun e1 e2 e3 ->
      Printf.sprintf
        {|
i64 main() {
  i64 a = 3;
  i64 b = -7;
  i64 c = 11;
  a = %s;
  b = %s;
  c = %s;
  i64 s = 0;
  for (i64 i = 0; i < 6; i = i + 1) {
    s = s + a - b + (c ^ i);
  }
  print_i64(s);
  return s;
}
|}
        (rexpr_to_src e1) (rexpr_to_src e2) (rexpr_to_src e3))
    rexpr_gen rexpr_gen rexpr_gen

let rprog_arb = QCheck.make rprog_gen ~print:(fun s -> s)

(* Loops over a global array: exercises the memory fast paths (all
   scalar widths via u16/u32 elements) and, on uchost, heavy spilling. *)
let rloop_gen =
  let open QCheck.Gen in
  map3
    (fun e1 e2 n ->
      Printf.sprintf
        {|
u16 arr[64];
i64 main() {
  for (i64 i = 0; i < 64; i++) { arr[i] = (u16)(i * 7 + 3); }
  i64 a = 1;
  i64 b = 2;
  i64 c = 3;
  for (i64 i = 0; i < %d; i++) {
    a = (i64)arr[i];
    b = %s;
    c = %s;
    arr[i] = (u16)(a + b + c);
  }
  i64 out = 0;
  for (i64 i = 0; i < 64; i++) { out = out + (i64)arr[i]; }
  return out;
}
|}
        n (rexpr_to_src e1) (rexpr_to_src e2))
    rexpr_gen rexpr_gen (int_bound 64)

let rloop_arb = QCheck.make rloop_gen ~print:(fun s -> s)

(* ---------------- observations ---------------- *)

(* Everything the engines must agree on, including the trap message when
   execution traps. *)
type 'a outcome = Value of 'a | Trapped of string

let run_interp ~engine src =
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create ~engine img in
  let r =
    match Pvvm.Interp.run it "main" [] with
    | v -> Value v
    | exception Pvvm.Vm.Trap m -> Trapped m
  in
  ( r,
    Pvvm.Interp.output it,
    it.Pvvm.Interp.stats.Pvvm.Interp.cycles,
    it.Pvvm.Interp.stats.Pvvm.Interp.instrs )

let interp_agree src =
  let r0, o0, c0, i0 = run_interp ~engine:Pvvm.Interp.Tree_walk src in
  let r1, o1, c1, i1 = run_interp ~engine:Pvvm.Interp.Threaded src in
  let same_r =
    match (r0, r1) with
    | Value (Some a), Value (Some b) -> Pvir.Value.equal a b
    | Value None, Value None -> true
    | Trapped a, Trapped b -> String.equal a b
    | _ -> false
  in
  same_r && String.equal o0 o1 && Int64.equal c0 c1 && Int64.equal i0 i1

let run_sim ~engine ~machine src =
  let _, on =
    Core.Splitc.run_source ~mode:Core.Splitc.Split ~machine ~engine src
  in
  let sim = on.Core.Splitc.sim in
  let r =
    match Pvvm.Sim.run sim "main" [] with
    | v -> Value v
    | exception Pvvm.Vm.Trap m -> Trapped m
  in
  ( r,
    Pvvm.Sim.output sim,
    sim.Pvvm.Sim.stats.Pvvm.Sim.cycles,
    sim.Pvvm.Sim.stats.Pvvm.Sim.instrs,
    sim.Pvvm.Sim.stats.Pvvm.Sim.spill_ops )

let sim_agree ~machine src =
  let r0, o0, c0, i0, s0 = run_sim ~engine:Pvvm.Sim.Tree_walk ~machine src in
  let r1, o1, c1, i1, s1 = run_sim ~engine:Pvvm.Sim.Threaded ~machine src in
  let same_r =
    match (r0, r1) with
    | Value (Some a), Value (Some b) -> Pvir.Value.equal a b
    | Value None, Value None -> true
    | Trapped a, Trapped b -> String.equal a b
    | _ -> false
  in
  same_r && String.equal o0 o1 && Int64.equal c0 c1 && Int64.equal i0 i1
  && Int64.equal s0 s1

let prop_interp_engines_agree src = interp_agree src
let prop_sim_engines_agree_x86 src = sim_agree ~machine:Pvmach.Machine.x86ish src

(* uchost has few registers, so the allocator spills: the spill_ops
   counter must match between engines, not just cycles *)
let prop_sim_engines_agree_uchost src =
  sim_agree ~machine:Pvmach.Machine.uchost src

(* ---------------- trap parity on ill-formed code ---------------- *)

let check = Alcotest.check Alcotest.bool

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The frontend never emits a read of a never-written register, so build
   the PVIR by hand: the verifier only checks types, and both engines
   must raise the same Trap at runtime. *)
let test_uninitialized_register () =
  let run engine =
    let p = Pvir.Prog.create "t" in
    let fn = Pvir.Func.create ~name:"main" ~params:[] ~ret:(Some Pvir.Types.i64) in
    let d = Pvir.Func.fresh_reg fn Pvir.Types.i64 in
    let a = Pvir.Func.fresh_reg fn Pvir.Types.i64 in
    let b = Pvir.Func.add_block fn in
    b.Pvir.Func.instrs <- [ Pvir.Instr.Binop (Pvir.Instr.Add, d, a, a) ];
    b.Pvir.Func.term <- Pvir.Instr.Ret (Some d);
    Pvir.Prog.add_func p fn;
    let it = Pvvm.Interp.create ~engine (Pvvm.Image.load p) in
    match Pvvm.Interp.run it "main" [] with
    | _ -> Alcotest.fail "uninitialized read did not trap"
    | exception Pvvm.Vm.Trap m -> m
  in
  let m0 = run Pvvm.Interp.Tree_walk and m1 = run Pvvm.Interp.Threaded in
  check "same message" true (String.equal m0 m1);
  check "mentions uninitialized" true (contains_sub m0 "uninitialized register")

(* A one-block MIR function [name] on x86ish, returning virtual
   register 0, registered in a fresh simulator running [engine]. *)
let mir_sim ~engine name (insts : Pvmach.Mir.inst list) =
  let p = Core.Splitc.frontend "i64 main() { return 0; }" in
  let sim =
    Pvvm.Sim.create ~engine (Pvvm.Image.load p) Pvmach.Machine.x86ish
  in
  let vreg_ty = Hashtbl.create 4 in
  Hashtbl.replace vreg_ty 0 Pvir.Types.i64;
  Pvvm.Sim.add_func sim
    {
      Pvmach.Mir.mname = name;
      mparams = [];
      marg_slots = [];
      mret = Some Pvir.Types.i64;
      mblocks =
        [
          {
            Pvmach.Mir.mlabel = 0;
            insts;
            mterm = Pvmach.Mir.Tret (Some (Pvmach.Mir.V 0));
          };
        ];
      frame_size = 8;
      vreg_ty;
      next_vreg = 1;
      target = Pvmach.Machine.x86ish;
      mblock_index = None;
    };
  sim

let test_empty_spill_slot () =
  let run engine =
    (* a function that reloads spill slot 0 without ever storing it *)
    let sim =
      mir_sim ~engine "spilly"
        [
          Pvmach.Mir.inst ~dst:(Pvmach.Mir.V 0) (Pvmach.Mir.Mframe_ld 0)
            Pvir.Types.i64;
        ]
    in
    match Pvvm.Sim.run sim "spilly" [] with
    | _ -> Alcotest.fail "empty spill reload did not trap"
    | exception Pvvm.Vm.Trap m -> m
  in
  let m0 = run Pvvm.Sim.Tree_walk and m1 = run Pvvm.Sim.Threaded in
  check "same message" true (String.equal m0 m1);
  check "mentions spill slot" true (contains_sub m0 "spill slot")

(* MIR the JIT never emits — here an [Mli] with no destination — is
   refused when it is decoded, under the threaded engine and under AOT
   (whose code generator hands it to the threaded decoder). *)
let test_malformed_mir_rejected () =
  Pvaot.install ();
  List.iter
    (fun engine ->
      let sim =
        mir_sim ~engine "nodst"
          [ Pvmach.Mir.inst (Pvmach.Mir.Mli (Pvir.Value.i64 1L)) Pvir.Types.i64 ]
      in
      match Pvvm.Sim.run sim "nodst" [] with
      | _ -> Alcotest.failf "%s ran malformed MIR" (Pvvm.Vm.engine_name engine)
      | exception Invalid_argument m ->
        check
          (Pvvm.Vm.engine_name engine ^ " names the missing destination")
          true
          (contains_sub m "lacks a destination"))
    [ Pvvm.Sim.Threaded; Pvvm.Sim.Aot ]

(* Every engine, selected the way the tools select it: its command-line
   spelling parses back to it. *)
let test_fuel_exhaustion () =
  Pvaot.install ();
  let run engine =
    let p = Core.Splitc.frontend "i64 main() { for (;;) { } return 0; }" in
    let it = Pvvm.Interp.create ~engine ~fuel:10_000L (Pvvm.Image.load p) in
    match Pvvm.Interp.run it "main" [] with
    | _ -> Alcotest.fail "infinite loop terminated"
    | exception Pvvm.Vm.Trap m ->
      (m, it.Pvvm.Interp.stats.Pvvm.Interp.instrs)
  in
  let runs =
    List.map
      (fun e ->
        let spelling = Pvvm.Vm.cli_name e in
        match Core.Cli.engine_of_string spelling with
        | Ok parsed ->
          check (spelling ^ " parses back") true (parsed = e);
          run parsed
        | Error m -> Alcotest.fail m)
      Pvvm.Vm.engines
  in
  let m0, i0 = List.hd runs in
  List.iter
    (fun (m, i) ->
      check "same message" true (String.equal m0 m);
      (* the trap must fire after the exact same number of instructions *)
      check "same trap point" true (Int64.equal i0 i))
    runs

let test_division_by_zero_parity () =
  let src = "i64 main() { i64 z = 0; print_i64(7); return 5 / z; }" in
  check "interp engines agree on div-by-zero" true (interp_agree src);
  check "sim engines agree on div-by-zero" true
    (sim_agree ~machine:Pvmach.Machine.x86ish src)

(* ---------------- exact kernel cycle parity ---------------- *)

let test_kernel_cycle_parity () =
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let obs0, cyc0 =
        Pvkernels.Harness.run_interp ~engine:Pvvm.Interp.Tree_walk k
      in
      let obs1, cyc1 =
        Pvkernels.Harness.run_interp ~engine:Pvvm.Interp.Threaded k
      in
      check (k.Pvkernels.Kernels.name ^ " interp obs") true
        (Pvkernels.Harness.observation_equal obs0 obs1);
      check (k.Pvkernels.Kernels.name ^ " interp cycles") true
        (Int64.equal cyc0 cyc1);
      let r0 =
        Pvkernels.Harness.run_jit ~engine:Pvvm.Sim.Tree_walk
          ~mode:Core.Splitc.Split ~machine:Pvmach.Machine.x86ish k
      in
      let r1 =
        Pvkernels.Harness.run_jit ~engine:Pvvm.Sim.Threaded
          ~mode:Core.Splitc.Split ~machine:Pvmach.Machine.x86ish k
      in
      check (k.Pvkernels.Kernels.name ^ " sim obs") true
        (Pvkernels.Harness.observation_equal r0.Pvkernels.Harness.obs
           r1.Pvkernels.Harness.obs);
      check (k.Pvkernels.Kernels.name ^ " sim cycles") true
        (Int64.equal r0.Pvkernels.Harness.cycles r1.Pvkernels.Harness.cycles))
    Pvkernels.Kernels.table1

(* ---------------- registration ---------------- *)

let () =
  Alcotest.run "engines"
    [
      ( "differential",
        [
          seeded_test ~count:60 "interpreter engines agree" rprog_arb
            prop_interp_engines_agree;
          seeded_test ~count:40 "interpreter engines agree (array loops)"
            rloop_arb prop_interp_engines_agree;
          seeded_test ~count:25 "simulator engines agree (x86ish)" rprog_arb
            prop_sim_engines_agree_x86;
          seeded_test ~count:20 "simulator engines agree (uchost, spills)"
            rloop_arb prop_sim_engines_agree_uchost;
        ] );
      ( "trap parity",
        [
          Alcotest.test_case "uninitialized register" `Quick
            test_uninitialized_register;
          Alcotest.test_case "empty spill slot" `Quick test_empty_spill_slot;
          Alcotest.test_case "malformed MIR rejected at decode" `Quick
            test_malformed_mir_rejected;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "division by zero" `Quick
            test_division_by_zero_parity;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "table-1 kernels: exact cycle parity" `Quick
            test_kernel_cycle_parity;
        ] );
    ]
