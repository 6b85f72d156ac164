(* Differential tests pinning the threaded (pre-decoded) execution
   engines to the tree-walking reference engines.

   The pre-decode pass in Pvvm.Decode/Pvvm.Mdecode must be invisible:
   for any program, the threaded interpreter and simulator must produce
   the same result, the same printed output, the *exact* same
   cycle/instruction (and calls for the interpreter, spill ops for the
   simulator) counts, the same stack pointer, and the same trap message
   at the same point as the tree-walkers.  Random programs cover the
   well-formed path; hand-built functions cover the run-time traps the
   frontend never emits, and a trap two frames deep is checked on all
   three engines, AOT included.  Decoding is total on verified PVIR and
   on well-shaped MIR: code that is neither is refused with
   [Invalid_argument] when it is decoded, never replayed through a
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

(* Everything the engines must agree on: the result or the trap message,
   the printed output, every counter, and the stack pointer the run
   leaves behind — after a trap too. *)
type outcome = Value of Pvir.Value.t option | Trapped of string

let same_outcome a b =
  match (a, b) with
  | Value (Some a), Value (Some b) -> Pvir.Value.equal a b
  | Value None, Value None -> true
  | Trapped a, Trapped b -> String.equal a b
  | _ -> false

let outcome_of run =
  match run () with v -> Value v | exception Pvvm.Vm.Trap m -> Trapped m

type interp_obs = {
  ir : outcome;
  iout : string;
  icycles : int64;
  iinstrs : int64;
  icalls : int;
  isp : int;
}

(* Run [name] with [args] on an existing interpreter and observe what the
   VM holds afterwards (counters and output are cumulative). *)
let interp_observe it ir =
  let st = it.Pvvm.Interp.stats in
  {
    ir;
    iout = Pvvm.Interp.output it;
    icycles = st.Pvvm.Interp.cycles;
    iinstrs = st.Pvvm.Interp.instrs;
    icalls = st.Pvvm.Interp.calls;
    isp = it.Pvvm.Interp.sp;
  }

let interp_run it name args =
  interp_observe it (outcome_of (fun () -> Pvvm.Interp.run it name args))

let interp_obs_equal a b =
  same_outcome a.ir b.ir && String.equal a.iout b.iout
  && Int64.equal a.icycles b.icycles
  && Int64.equal a.iinstrs b.iinstrs
  && a.icalls = b.icalls && a.isp = b.isp

let run_interp ~engine src =
  let it =
    Pvvm.Interp.create ~engine (Pvvm.Image.load (Core.Splitc.frontend src))
  in
  interp_run it "main" []

let interp_agree src =
  interp_obs_equal
    (run_interp ~engine:Pvvm.Interp.Tree_walk src)
    (run_interp ~engine:Pvvm.Interp.Threaded src)

type sim_obs = {
  sr : outcome;
  sout : string;
  scycles : int64;
  sinstrs : int64;
  sspills : int64;
  ssp : int;
}

let sim_run sim name args =
  let sr = outcome_of (fun () -> Pvvm.Sim.run sim name args) in
  let st = sim.Pvvm.Sim.stats in
  {
    sr;
    sout = Pvvm.Sim.output sim;
    scycles = st.Pvvm.Sim.cycles;
    sinstrs = st.Pvvm.Sim.instrs;
    sspills = st.Pvvm.Sim.spill_ops;
    ssp = sim.Pvvm.Sim.sp;
  }

let sim_obs_equal a b =
  same_outcome a.sr b.sr && String.equal a.sout b.sout
  && Int64.equal a.scycles b.scycles
  && Int64.equal a.sinstrs b.sinstrs
  && Int64.equal a.sspills b.sspills
  && a.ssp = b.ssp

let split_sim ~engine ~machine src =
  let _, on =
    Core.Splitc.run_source ~mode:Core.Splitc.Split ~machine ~engine src
  in
  on.Core.Splitc.sim

let run_sim ~engine ~machine src =
  sim_run (split_sim ~engine ~machine src) "main" []

let sim_agree ~machine src =
  sim_obs_equal
    (run_sim ~engine:Pvvm.Sim.Tree_walk ~machine src)
    (run_sim ~engine:Pvvm.Sim.Threaded ~machine src)

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
    interp_run (Pvvm.Interp.create ~engine (Pvvm.Image.load p)) "main" []
  in
  let o0 = run Pvvm.Interp.Tree_walk and o1 = run Pvvm.Interp.Threaded in
  check "same message, counters and sp" true (interp_obs_equal o0 o1);
  match o0.ir with
  | Trapped m ->
    check "mentions uninitialized" true (contains_sub m "uninitialized register")
  | Value _ -> Alcotest.fail "uninitialized read did not trap"

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
    sim_run sim "spilly" []
  in
  let o0 = run Pvvm.Sim.Tree_walk and o1 = run Pvvm.Sim.Threaded in
  check "same message, counters and sp" true (sim_obs_equal o0 o1);
  match o0.sr with
  | Trapped m -> check "mentions spill slot" true (contains_sub m "spill slot")
  | Value _ -> Alcotest.fail "empty spill reload did not trap"

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
    match interp_run it "main" [] with
    | { ir = Trapped m; _ } as o -> (m, o)
    | _ -> Alcotest.fail "infinite loop terminated"
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
  let m0, o0 = List.hd runs in
  check "canonical fuel message" true
    (String.equal m0 Pvvm.Interp.fuel_exhausted_msg);
  List.iter
    (fun (_, o) ->
      (* the trap must fire after the exact same number of instructions,
         and leave the same counters and sp *)
      check "same trap point and state" true (interp_obs_equal o0 o))
    runs

let test_division_by_zero_parity () =
  let src = "i64 main() { i64 z = 0; print_i64(7); return 5 / z; }" in
  check "interp engines agree on div-by-zero" true (interp_agree src);
  check "sim engines agree on div-by-zero" true
    (sim_agree ~machine:Pvmach.Machine.x86ish src)

(* ---------------- VM state after a trap ---------------- *)

(* [main(z)] calls [f(z)], which calls [g(z)]; each keeps a local array
   on the stack, and [g]'s loop divides by [z].  A trap two frames deep
   releases the stack its frames took, so [sp] returns to its entry
   value, while the counters keep the work done.  Counters and [sp]
   reach the VM once, when the activation ends, and every engine must
   leave the same ones — and a next run on the same VM starts from
   them. *)
let nested_src =
  {|
i64 g(i64 z) {
  i64 a[4];
  i64 s = 0;
  for (i64 i = 0; i < 400; i++) {
    a[i & 3] = i;
    s = s + a[i & 3] / z;
  }
  return s;
}
i64 f(i64 z) {
  i64 b[4];
  b[0] = g(z);
  b[1] = z;
  return b[0] + b[1];
}
i64 main(i64 z) {
  i64 c[4];
  c[0] = f(z);
  print_i64(c[0]);
  return c[0] + 1;
}
|}

let nested_interp ?fuel engine =
  Pvvm.Interp.create ?fuel ~engine
    (Pvvm.Image.load (Core.Splitc.frontend nested_src))

let nested_sim ?fuel ~machine engine =
  let sim = split_sim ~engine ~machine nested_src in
  Option.iter (fun f -> sim.Pvvm.Sim.fuel <- f) fuel;
  sim

(* [main z] for each of [zs], one after another on one VM *)
let interp_runs ?fuel zs engine =
  let it = nested_interp ?fuel engine in
  List.map (fun z -> interp_run it "main" [ Pvir.Value.i64 z ]) zs

let sim_runs ?fuel ~machine zs engine =
  let sim = nested_sim ?fuel ~machine engine in
  List.map (fun z -> sim_run sim "main" [ Pvir.Value.i64 z ]) zs

(* Every engine of [Vm.engines] observes, run after run, what the first
   one does; returns those observations. *)
let all_agree what equal runs =
  let obs = List.map (fun e -> (e, runs e)) Pvvm.Vm.engines in
  let reference = snd (List.hd obs) in
  List.iter
    (fun (e, o) ->
      check
        (Printf.sprintf "%s: %s leaves the same state" what
           (Pvvm.Vm.engine_name e))
        true
        (List.for_all2 equal reference o))
    obs;
  reference

let trapped what msg = function
  | Trapped m -> check (what ^ " traps with " ^ msg) true (String.equal m msg)
  | Value _ -> Alcotest.failf "%s did not trap" what

let completed what = function
  | Value (Some _) -> ()
  | _ -> Alcotest.failf "%s did not return a value" what

let test_trap_state_interp () =
  Pvaot.install ();
  (* a full z = 1 run: the initial sp, and a budget that runs out about
     halfway through g's loop *)
  let it = nested_interp Pvvm.Interp.Threaded in
  let sp0 = it.Pvvm.Interp.sp in
  let full = interp_run it "main" [ Pvir.Value.i64 1L ] in
  completed "interp z=1" full.ir;
  (match all_agree "interp div" interp_obs_equal (interp_runs [ 0L; 1L ]) with
  | [ t; r ] ->
    trapped "interp z=0" "division by zero" t.ir;
    check "interp: main, f and g were called" true (t.icalls = 3);
    check "interp: the trap released its frames' stack" true (t.isp = sp0);
    completed "interp z=1 after the trap" r.ir;
    check "interp: z=1 returns to the entry sp" true (r.isp = sp0)
  | _ -> assert false);
  let fuel = Int64.div full.iinstrs 2L in
  match
    all_agree "interp fuel" interp_obs_equal (interp_runs ~fuel [ 1L; 1L ])
  with
  | [ t; again ] ->
    trapped "interp fuel" Pvvm.Interp.fuel_exhausted_msg t.ir;
    check "interp: fuel ran out inside g" true (t.icalls = 3);
    check "interp: the fuel trap released its frames' stack" true
      (t.isp = sp0);
    trapped "interp rerun" Pvvm.Interp.fuel_exhausted_msg again.ir
  | _ -> assert false

let test_trap_state_sim () =
  Pvaot.install ();
  List.iter
    (fun (machine : Pvmach.Machine.t) ->
      let what k = Printf.sprintf "sim %s %s" machine.Pvmach.Machine.name k in
      let sim = nested_sim ~machine Pvvm.Sim.Threaded in
      let sp0 = sim.Pvvm.Sim.sp in
      let full = sim_run sim "main" [ Pvir.Value.i64 1L ] in
      completed (what "z=1") full.sr;
      (match
         all_agree (what "div") sim_obs_equal (sim_runs ~machine [ 0L; 1L ])
       with
      | [ t; r ] ->
        trapped (what "z=0") "division by zero" t.sr;
        check (what "trap released its frames' stack") true (t.ssp = sp0);
        completed (what "z=1 after the trap") r.sr;
        check (what "z=1 returns to the entry sp") true (r.ssp = sp0)
      | _ -> assert false);
      let fuel = Int64.div full.sinstrs 2L in
      match
        all_agree (what "fuel") sim_obs_equal
          (sim_runs ~fuel ~machine [ 1L; 1L ])
      with
      | [ t; again ] ->
        trapped (what "fuel") Pvvm.Sim.fuel_exhausted_msg t.sr;
        check (what "fuel trap released its frames' stack") true
          (t.ssp = sp0);
        trapped (what "rerun") Pvvm.Sim.fuel_exhausted_msg again.sr
      | _ -> assert false)
    [ Pvmach.Machine.x86ish; Pvmach.Machine.uchost ]

(* A snapshot taken inside [g] during [main 0], three frames deep, and
   resumed on a fresh VM traps where the unmigrated run does and leaves
   its state: the same counters and output, and [sp] back at the VM's
   initial value (the suspended activation's entry [sp], not the [sp]
   captured inside [g]). *)
let test_resumed_trap_state () =
  Pvaot.install ();
  let prog = Core.Splitc.frontend nested_src in
  let z0 = [ Pvir.Value.i64 0L ] in
  List.iter
    (fun engine ->
      let what k =
        Printf.sprintf "interp %s %s" (Pvvm.Vm.engine_name engine) k
      in
      let direct = interp_run (nested_interp engine) "main" z0 in
      trapped (what "z=0") "division by zero" direct.ir;
      (* the first safepoint inside g *)
      let rec inside_g at =
        match Pvvm.Snapshot.run_until (nested_interp engine) "main" z0 ~at with
        | Pvvm.Snapshot.Checkpointed s
          when List.length s.Pvir.Ckpt.ck_frames = 3 ->
          s
        | Pvvm.Snapshot.Checkpointed _ -> inside_g (Int64.add at 1L)
        | Pvvm.Snapshot.Completed _ -> Alcotest.failf "%s" (what "completed")
      in
      let snap = inside_g 0L in
      let fresh = Pvvm.Snapshot.interp_for ~engine prog snap in
      let sp0 = fresh.Pvvm.Interp.sp in
      check (what "captured below the entry sp") true
        (snap.Pvir.Ckpt.ck_gsp < sp0);
      let resumed =
        interp_observe fresh
          (outcome_of (fun () -> Pvvm.Snapshot.resume fresh snap))
      in
      trapped (what "resumed") "division by zero" resumed.ir;
      check (what "resumed trap: sp back at the VM's initial value") true
        (resumed.isp = sp0);
      check (what "resumed trap leaves the unmigrated run's state") true
        (interp_obs_equal direct resumed))
    Pvvm.Vm.engines

(* 20,000 traps two calls deep on one VM take more stack than it has,
   were the trapped frames' stack kept; each trap releases it, so a
   [main 1] afterwards still returns its value, on every engine of both
   executors. *)
let test_traps_release_stack () =
  Pvaot.install ();
  let traps = 20_000 in
  let on_one_vm what run sp =
    let sp0 = sp () in
    for k = 1 to traps do
      match run 0L with
      | Trapped "division by zero" -> ()
      | Trapped m -> Alcotest.failf "%s: trap %d raised %S" what k m
      | Value _ -> Alcotest.failf "%s: main 0 returned" what
    done;
    check (what ^ ": sp back at its entry value") true (sp () = sp0);
    completed (what ^ ": main 1 after the traps") (run 1L)
  in
  List.iter
    (fun engine ->
      let it = nested_interp engine in
      on_one_vm
        ("interp " ^ Pvvm.Vm.engine_name engine)
        (fun z ->
          outcome_of (fun () -> Pvvm.Interp.run it "main" [ Pvir.Value.i64 z ]))
        (fun () -> it.Pvvm.Interp.sp);
      let sim = nested_sim ~machine:Pvmach.Machine.x86ish engine in
      on_one_vm
        ("sim " ^ Pvvm.Vm.engine_name engine)
        (fun z ->
          outcome_of (fun () -> Pvvm.Sim.run sim "main" [ Pvir.Value.i64 z ]))
        (fun () -> sim.Pvvm.Sim.sp))
    Pvvm.Vm.engines

(* ---------------- memory committed on first use ---------------- *)

(* [main] reads an initialized global, an uninitialized one and a word
   far from both, then writes globals and reads them back. *)
let first_use_src =
  {|
i64 init[4] = {11, 22, 33, 44};
i64 zero[8];
i64 main() {
  i64 s = 0;
  for (i64 i = 0; i < 8; i++) { s = s + zero[i]; }
  i64* far = (i64*)(i64)65536;
  s = s + *far;
  for (i64 i = 0; i < 4; i++) { zero[i] = init[i] * 2; }
  for (i64 i = 0; i < 8; i++) { s = s + zero[i]; }
  return init[0] * 1000 + init[3] + s;
}
|}

let uncommitted (mem : Pvvm.Memory.t) = Bytes.length mem.Pvvm.Memory.bytes = 0

(* Loading commits no memory; the first activation on each of the six
   engines commits it, and sees the initializers and zeros. *)
let test_first_activation () =
  Pvaot.install ();
  let expected = Value (Some (Pvir.Value.i64 11264L)) in
  List.iter
    (fun engine ->
      let what k = Printf.sprintf "%s %s" (Pvvm.Vm.engine_name engine) k in
      let img = Pvvm.Image.load (Core.Splitc.frontend first_use_src) in
      check (what "interp: loaded uncommitted") true
        (uncommitted img.Pvvm.Image.mem);
      let it = Pvvm.Interp.create ~engine img in
      let o = interp_run it "main" [] in
      check (what "interp: first run") true (same_outcome o.ir expected);
      let sim =
        split_sim ~engine ~machine:Pvmach.Machine.x86ish first_use_src
      in
      check (what "sim: loaded uncommitted") true
        (uncommitted sim.Pvvm.Sim.img.Pvvm.Image.mem);
      let o = sim_run sim "main" [] in
      check (what "sim: first run") true (same_outcome o.sr expected))
    Pvvm.Vm.engines

(* A snapshot restored onto a fresh, uncommitted image resumes exactly as
   the unmigrated run: same outcome, counters and final globals.  It is
   taken in the last loop, so its memory carries the globals written. *)
let test_restore_onto_fresh_image () =
  Pvaot.install ();
  let prog = Core.Splitc.frontend first_use_src in
  List.iter
    (fun engine ->
      let what k = Printf.sprintf "%s %s" (Pvvm.Vm.engine_name engine) k in
      let fresh () = Pvvm.Interp.create ~engine (Pvvm.Image.load prog) in
      let it = fresh () in
      let direct = interp_run it "main" [] in
      let at = Int64.div (Int64.mul direct.iinstrs 7L) 8L in
      let snap =
        match Pvvm.Snapshot.run_until (fresh ()) "main" [] ~at with
        | Pvvm.Snapshot.Checkpointed s -> s
        | Pvvm.Snapshot.Completed _ -> Alcotest.failf "%s" (what "completed")
      in
      let zero = Pvvm.Image.global_address it.Pvvm.Interp.img "zero" in
      check (what "the snapshot carries a written global") true
        (String.get_int64_le snap.Pvir.Ckpt.ck_mem zero = 22L);
      let moved = Pvvm.Snapshot.interp_for ~engine prog snap in
      check (what "fresh image uncommitted") true
        (uncommitted moved.Pvvm.Interp.img.Pvvm.Image.mem);
      let resumed =
        interp_observe moved
          (outcome_of (fun () -> Pvvm.Snapshot.resume moved snap))
      in
      check (what "resumes as the unmigrated run") true
        (interp_obs_equal direct resumed);
      check (what "same final globals") true
        (Array.for_all2 Pvir.Value.equal
           (Pvvm.Image.read_global it.Pvvm.Interp.img "zero")
           (Pvvm.Image.read_global moved.Pvvm.Interp.img "zero")))
    Pvvm.Vm.engines

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
          Alcotest.test_case "nested trap state (interpreter)" `Quick
            test_trap_state_interp;
          Alcotest.test_case "nested trap state (simulator)" `Quick
            test_trap_state_sim;
          Alcotest.test_case "traps release the stack" `Quick
            test_traps_release_stack;
          Alcotest.test_case "resumed trap state" `Quick
            test_resumed_trap_state;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "table-1 kernels: exact cycle parity" `Quick
            test_kernel_cycle_parity;
        ] );
      ( "first use",
        [
          Alcotest.test_case "first activation on every engine" `Quick
            test_first_activation;
          Alcotest.test_case "snapshot restored onto a fresh image" `Quick
            test_restore_onto_fresh_image;
        ] );
    ]
