(** Cycle-counting simulator for MIR — the stand-in for real silicon.

    Executes the native code the JIT produced against the VM memory and a
    per-target register file, accumulating cycles from the {!Pvmach.Cost}
    model.  Values flow through the same {!Pvir.Value} representation as
    the interpreter, so JIT-compiled code can be checked for bit-exact
    equality with interpreted bytecode.

    Two host-side execution engines implement the same observable
    semantics (results, printed output, cycle/instruction/spill
    accounting and trap messages are bit-identical):

    - [Tree_walk] — the original engine: walks the [Mir.func] CFG
      directly, recomputing [Cost.of_inst] and chasing operand lists and
      register/slot hash tables on every executed instruction.  Kept as
      the reference for differential testing and the old-vs-new
      benchmark.
    - [Threaded] (default) — pre-decodes each registered function once
      with {!Mdecode} into a flat array form (labels → indices, costs
      precomputed, operands resolved, spill slots and virtual registers
      renumbered into arrays) and dispatches over it with an index-driven
      loop.  Decoded code lives in the code cache next to its MIR, so
      re-registering a function with {!add_func} re-decodes it.
      Decoding is total on the instruction shapes the JIT emits, so the
      loop has one case per decoded instruction and no run-time replay
      of the tree-walker; a malformed shape raises [Invalid_argument]
      when its function is first decoded.

    Like {!Interp}'s, every engine keeps the run contract of {!Vm}: one
    {!Vm.Trap}, one intrinsic dispatcher, one engine vocabulary.  And
    like {!Interp}'s, all three run an activation on one {!Aotabi.ctx}:
    {!call_untraced} {!enter}s it once, every engine charges cycles,
    instructions and spill ops and moves [sp] on it, and {!leave} writes
    it back into [stats] and [sp] when the activation ends. *)

open Pvmach

(** Canonical fuel-exhaustion message: the tools classify a {!Vm.Trap}
    carrying this text as a *resource limit* rather than a guest
    error. *)
let fuel_exhausted_msg = "simulation fuel exhausted (infinite loop?)"

type engine = Vm.engine = Tree_walk | Threaded | Aot

type stats = {
  mutable cycles : int64;
  mutable instrs : int64;
  mutable spill_ops : int64;  (** executed spill stores + reloads *)
}

(** A code-cache entry: the registered MIR plus its lazily built decoded
    form (dropped whenever {!add_func} replaces the entry). *)
type centry = { cfn : Mir.func; mutable cdec : Mdecode.dfunc option }

type t = {
  img : Image.t;
  code : (string, centry) Hashtbl.t;  (** compiled code cache *)
  machine : Machine.t;
  mutable sp : int;
  out : Buffer.t;
  stats : stats;
  mutable fuel : int64;  (** adjustable after creation, like [engine] *)
  mutable engine : engine;
  mutable tr : Pvtrace.Trace.t option;
      (** telemetry sink: spans are emitted only at the public entry
          points (never inside the dispatch loop), so tracing costs
          nothing per simulated instruction *)
  mutable aot : Aotabi.outcome option;
      (** the AOT backend's prepared code for the current [code] cache
          (see [lib/pvaot]); {!add_func} drops it *)
}

let create ?(fuel = 2_000_000_000L) ?(engine = Threaded) ?tr img machine =
  {
    img;
    code = Hashtbl.create 16;
    machine;
    sp = Image.initial_sp img;
    out = Buffer.create 64;
    stats = { cycles = 0L; instrs = 0L; spill_ops = 0L };
    fuel;
    engine;
    tr;
    aot = None;
  }

let set_trace t tr = t.tr <- tr

let add_func t (fn : Mir.func) =
  Hashtbl.replace t.code fn.Mir.mname { cfn = fn; cdec = None };
  t.aot <- None

let output t = Buffer.contents t.out
let cycles t = t.stats.cycles

(* ---------------- the activation context ---------------- *)

let fuel_exn = Vm.Trap fuel_exhausted_msg

(** Seed an activation's context from [t]: counters, [sp] and the fuel
    budget clamped to an [int], after committing the image's memory, so
    no engine sees it uncommitted.  Only the public entry points enter;
    activations do not nest. *)
let enter t : Aotabi.ctx =
  Memory.commit t.img.Image.mem;
  {
    Aotabi.mem = t.img.Image.mem;
    globals_end = t.img.Image.layout.globals_end;
    sp = t.sp;
    cycles = Int64.to_int t.stats.cycles;
    instrs = Int64.to_int t.stats.instrs;
    spills = Int64.to_int t.stats.spill_ops;
    calls = 0;
    fuel = Vm.clamp t.fuel;
    fuel_exn;
    out = t.out;
  }

(** Write an activation's counters and [sp] back into [t], whether it
    returned or trapped. *)
let leave t (c : Aotabi.ctx) =
  t.stats.cycles <- Int64.of_int c.cycles;
  t.stats.instrs <- Int64.of_int c.instrs;
  t.stats.spill_ops <- Int64.of_int c.spills;
  t.sp <- c.sp

(* Charge one instruction of [n] cycles.  Defined here, not shared with
   {!Interp}: dune's default profile compiles this library [-opaque], so
   a charge from another module would be an indirect call through that
   module's block on every instruction. *)
let charge (c : Aotabi.ctx) n =
  c.cycles <- c.cycles + n;
  c.instrs <- c.instrs + 1;
  if c.instrs > c.fuel then raise c.fuel_exn

(* Register state: physical files per class plus a spill-free virtual
   environment (so pre-RA MIR can be simulated in tests). *)
type regfile = {
  gpr : Pvir.Value.t option array;
  fpr : Pvir.Value.t option array;
  vec : Pvir.Value.t option array;
  virt : (int, Pvir.Value.t) Hashtbl.t;
}

let new_regfile (m : Machine.t) =
  {
    (* size generously; the RA respects the machine's allocatable counts,
       and the simulator checks that indices stay within them *)
    gpr = Array.make (max 1 m.int_regs) None;
    fpr = Array.make (max 1 m.fp_regs) None;
    vec = Array.make (max 1 m.vec_regs) None;
    virt = Hashtbl.create 64;
  }

let class_file rf = function
  | Mir.Gpr -> rf.gpr
  | Mir.Fpr -> rf.fpr
  | Mir.Vec -> rf.vec

let get_reg rf (r : Mir.reg) =
  match r with
  | Mir.V v -> (
    match Hashtbl.find_opt rf.virt v with
    | Some x -> x
    | None -> Vm.trap "read of uninitialized virtual register v%d" v)
  | Mir.P (cls, i) -> (
    let file = class_file rf cls in
    if i < 0 || i >= Array.length file then
      Vm.trap "physical register index %d out of range" i;
    match file.(i) with
    | Some x -> x
    | None -> Vm.trap "read of uninitialized register %s" (Mir.reg_to_string r))

let set_reg rf (r : Mir.reg) v =
  match r with
  | Mir.V vr -> Hashtbl.replace rf.virt vr v
  | Mir.P (cls, i) ->
    let file = class_file rf cls in
    if i < 0 || i >= Array.length file then
      Vm.trap "physical register index %d out of range" i;
    file.(i) <- Some v

type frame = {
  rf : regfile;
  fp : int;  (** frame base address *)
  slots : (int, Pvir.Value.t) Hashtbl.t;  (** spill slots *)
  fn : Mir.func;
}

(* ---------------- tree-walking engine (reference) ---------------- *)

let rec tw_call t (c : Aotabi.ctx) (fn : Mir.func) (args : Pvir.Value.t list)
    : Pvir.Value.t option =
  charge c t.machine.Machine.call_cost;
  let n_reg = List.length fn.mparams in
  if List.length args <> n_reg + List.length fn.marg_slots then
    Vm.trap "arity mismatch calling %s" fn.mname;
  let saved_sp = c.sp in
  c.sp <- c.sp - fn.frame_size;
  if c.sp < c.globals_end then Vm.trap "stack overflow in %s" fn.mname;
  let frame =
    { rf = new_regfile t.machine; fp = c.sp; slots = Hashtbl.create 16; fn }
  in
  (* calling convention: leading args in registers, the rest in the
     callee's argument frame slots *)
  let reg_args = List.filteri (fun i _ -> i < n_reg) args in
  let stack_args = List.filteri (fun i _ -> i >= n_reg) args in
  List.iter2 (fun r v -> set_reg frame.rf r v) fn.mparams reg_args;
  List.iter2
    (fun (slot, _) v -> Hashtbl.replace frame.slots slot v)
    fn.marg_slots stack_args;
  let result = exec_block t c frame (Mir.entry fn) in
  c.sp <- saved_sp;
  result

and exec_block t (c : Aotabi.ctx) frame (blk : Mir.block) : Pvir.Value.t option
    =
  List.iter (exec_inst t c frame) blk.insts;
  charge c (Cost.of_term t.machine blk.mterm);
  match blk.mterm with
  | Mir.Tbr l -> exec_block t c frame (Mir.find_block frame.fn l)
  | Mir.Tcbr (r, l1, l2) ->
    let target =
      if Pvir.Value.to_bool (get_reg frame.rf r) then l1 else l2
    in
    exec_block t c frame (Mir.find_block frame.fn target)
  | Mir.Tret None -> None
  | Mir.Tret (Some r) -> Some (get_reg frame.rf r)

and exec_inst t (c : Aotabi.ctx) frame (i : Mir.inst) : unit =
  charge c (Cost.of_inst t.machine i);
  (match i.Mir.op with
  | Mir.Mframe_ld _ | Mir.Mframe_st _ -> c.spills <- c.spills + 1
  | _ -> ());
  let rf = frame.rf in
  let v r = get_reg rf r in
  let dst () =
    match i.dst with
    | Some d -> d
    | None ->
      Vm.trap "instruction %s lacks a destination" (Mir.inst_to_string i)
  in
  (* operands: the immediate, when present, is always the last operand *)
  let operand k =
    let n_regs = List.length i.srcs in
    if k < n_regs then v (List.nth i.srcs k)
    else
      match i.imm with
      | Some value when k = n_regs -> value
      | _ -> Vm.trap "instruction %s lacks operand %d" (Mir.inst_to_string i) k
  in
  let src1 () = operand 0 in
  let src2 () = operand 1 in
  match i.op with
  | Mir.Mli value -> set_reg rf (dst ()) value
  | Mir.Mmov -> set_reg rf (dst ()) (src1 ())
  | Mir.Mbin op -> (
    try set_reg rf (dst ()) (Pvir.Eval.binop op (src1 ()) (src2 ()))
    with Pvir.Eval.Division_by_zero -> Vm.trap "division by zero")
  | Mir.Mun op -> set_reg rf (dst ()) (Pvir.Eval.unop op (src1 ()))
  | Mir.Mconv kind -> set_reg rf (dst ()) (Pvir.Eval.conv kind i.ty (src1 ()))
  | Mir.Mcmp op -> set_reg rf (dst ()) (Pvir.Eval.cmp op (src1 ()) (src2 ()))
  | Mir.Msel ->
    set_reg rf (dst ()) (Pvir.Eval.select (operand 0) (operand 1) (operand 2))
  | Mir.Mload off ->
    let addr = Int64.to_int (Pvir.Value.to_int64 (src1 ())) + off in
    set_reg rf (dst ()) (Memory.load t.img.mem addr i.ty)
  | Mir.Mstore off ->
    (* store operands are (value, base); with a folded immediate the value
       is the immediate and the base is the remaining register *)
    let value, base =
      match (i.srcs, i.imm) with
      | [ s; b ], None -> (v s, v b)
      | [ b ], Some value -> (value, v b)
      | _ -> Vm.trap "store expects (value, base)"
    in
    let addr = Int64.to_int (Pvir.Value.to_int64 base) + off in
    Memory.store t.img.mem addr value
  | Mir.Mframe_addr off ->
    set_reg rf (dst ()) (Pvir.Value.i64 (Int64.of_int (frame.fp + off)))
  | Mir.Mframe_ld slot -> (
    match Hashtbl.find_opt frame.slots slot with
    | Some value -> set_reg rf (dst ()) value
    | None -> Vm.trap "reload of empty spill slot %d in %s" slot frame.fn.mname)
  | Mir.Mframe_st slot -> Hashtbl.replace frame.slots slot (src1 ())
  | Mir.Msplat -> (
    match i.ty with
    | Pvir.Types.Vector (_, n) ->
      set_reg rf (dst ()) (Pvir.Eval.splat n (src1 ()))
    | _ -> Vm.trap "splat at non-vector type")
  | Mir.Mextract lane -> set_reg rf (dst ()) (Pvir.Eval.extract (src1 ()) lane)
  | Mir.Mreduce op -> set_reg rf (dst ()) (Pvir.Eval.reduce op (src1 ()))
  | Mir.Mcall name -> (
    let argv = List.map v i.srcs in
    let result =
      match Hashtbl.find_opt t.code name with
      | Some ce -> tw_call t c ce.cfn argv
      | None -> Vm.intrinsic t.out name argv
    in
    match (i.dst, result) with
    | None, _ -> ()
    | Some d, Some value -> set_reg rf d value
    | Some _, None -> Vm.trap "call to %s produced no value" name)

(* ---------------- direct-threaded engine ---------------- *)

(* Frames of the threaded engine: virtual registers and spill slots in
   plain arrays (indexed by {!Mdecode}'s dense renumbering); an unwritten
   slot holds {!Vm.uninit}. *)

type sframe = {
  sgpr : Pvir.Value.t array;
  sfpr : Pvir.Value.t array;
  svec : Pvir.Value.t array;
  svirt : Pvir.Value.t array;
  sslots : Pvir.Value.t array;
  sfp : int;
  sdf : Mdecode.dfunc;
}

let sclass_file frame = function
  | Mir.Gpr -> frame.sgpr
  | Mir.Fpr -> frame.sfpr
  | Mir.Vec -> frame.svec

let sget frame (r : Mir.reg) =
  match r with
  | Mir.V v ->
    let x = Array.unsafe_get frame.svirt v in
    if x == Vm.uninit then
      Vm.trap "read of uninitialized virtual register v%d" v
    else x
  | Mir.P (cls, i) ->
    let file = sclass_file frame cls in
    if i < 0 || i >= Array.length file then
      Vm.trap "physical register index %d out of range" i;
    let x = file.(i) in
    if x == Vm.uninit then
      Vm.trap "read of uninitialized register %s" (Mir.reg_to_string r)
    else x

let sset frame (r : Mir.reg) v =
  match r with
  | Mir.V vr -> Array.unsafe_set frame.svirt vr v
  | Mir.P (cls, i) ->
    let file = sclass_file frame cls in
    if i < 0 || i >= Array.length file then
      Vm.trap "physical register index %d out of range" i;
    file.(i) <- v

(* Operand read: a register or a decode-time-folded immediate. *)
let sopnd frame = function
  | Mdecode.R r -> sget frame r
  | Mdecode.I v -> v

(* address operand: the common [Int] shape inline, [Value.to_int64]'s
   exact error otherwise *)
let saddr = function
  | Pvir.Value.Int (_, x) -> Int64.to_int x
  | v -> Int64.to_int (Pvir.Value.to_int64 v)

(** Look up (or build) the decoded form of a code-cache entry. *)
let decoded t (ce : centry) : Mdecode.dfunc =
  match ce.cdec with
  | Some df when df.Mdecode.ssrc == ce.cfn -> df
  | _ ->
    let df = Mdecode.func ~machine:t.machine ce.cfn in
    ce.cdec <- Some df;
    df

(* calling convention: the leading arguments to the parameter
   registers, the rest to the stack-passed argument slots
   [sarg_idx.(k)..] (arities checked) *)
let rec sbind frame params k (args : Pvir.Value.t list) =
  match (params, args) with
  | r :: params, v :: args ->
    sset frame r v;
    sbind frame params k args
  | [], v :: args ->
    frame.sslots.(frame.sdf.Mdecode.sarg_idx.(k)) <- v;
    sbind frame [] (k + 1) args
  | _, [] -> ()

let rec scall t (c : Aotabi.ctx) (df : Mdecode.dfunc)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  charge c t.machine.Machine.call_cost;
  let n_reg = df.Mdecode.snreg in
  if List.length args <> n_reg + Array.length df.Mdecode.sarg_idx then
    Vm.trap "arity mismatch calling %s" df.Mdecode.sname;
  let saved_sp = c.sp in
  c.sp <- c.sp - df.Mdecode.sframe_size;
  if c.sp < c.globals_end then
    Vm.trap "stack overflow in %s" df.Mdecode.sname;
  let frame =
    {
      sgpr = Array.make (max 1 t.machine.Machine.int_regs) Vm.uninit;
      sfpr = Array.make (max 1 t.machine.Machine.fp_regs) Vm.uninit;
      svec = Array.make (max 1 t.machine.Machine.vec_regs) Vm.uninit;
      svirt = Array.make df.Mdecode.snvirt Vm.uninit;
      sslots = Array.make df.Mdecode.snslots Vm.uninit;
      sfp = c.sp;
      sdf = df;
    }
  in
  sbind frame df.Mdecode.sparams 0 args;
  if Array.length df.Mdecode.sblocks = 0 then
    invalid_arg
      (Printf.sprintf "Mir.entry: %s has no blocks" df.Mdecode.sname);
  let result = sexec_block t c frame 0 in
  c.sp <- saved_sp;
  result

and sexec_block t (c : Aotabi.ctx) frame idx : Pvir.Value.t option =
  let blk = frame.sdf.Mdecode.sblocks.(idx) in
  let insts = blk.Mdecode.dinsts in
  for i = 0 to Array.length insts - 1 do
    sexec_inst t c frame (Array.unsafe_get insts i)
  done;
  charge c blk.Mdecode.dtcost;
  match blk.Mdecode.dterm with
  | Mdecode.SBr j -> sexec_block t c frame j
  | Mdecode.SCbr (r, j1, j2) ->
    let cond =
      match sget frame r with
      | Pvir.Value.Int (_, x) -> x <> 0L
      | v -> Pvir.Value.to_bool v
    in
    sexec_block t c frame (if cond then j1 else j2)
  | Mdecode.SRet None -> None
  | Mdecode.SRet (Some r) -> Some (sget frame r)

and sexec_inst t (c : Aotabi.ctx) frame (i : Mdecode.dinst) : unit =
  match i with
  | Mdecode.SLi { cost; d; v } ->
    charge c cost;
    sset frame d v
  | Mdecode.SMov { cost; d; a } ->
    charge c cost;
    sset frame d (sopnd frame a)
  | Mdecode.SBin { cost; f; d; a; b } -> (
    charge c cost;
    (* operand reads in the tree-walker's (right-to-left) order, so that
       multi-operand uninitialized reads trap on the same register *)
    let vb = sopnd frame b in
    let va = sopnd frame a in
    try sset frame d (f va vb)
    with Pvir.Eval.Division_by_zero -> Vm.trap "division by zero")
  | Mdecode.SUn { cost; op; d; a } ->
    charge c cost;
    sset frame d (Pvir.Eval.unop op (sopnd frame a))
  | Mdecode.SConv { cost; f; d; a } ->
    charge c cost;
    sset frame d (f (sopnd frame a))
  | Mdecode.SCmp { cost; f; d; a; b } ->
    charge c cost;
    let vb = sopnd frame b in
    let va = sopnd frame a in
    sset frame d (f va vb)
  | Mdecode.SSel { cost; d; c = cond; a; b } ->
    charge c cost;
    let vb = sopnd frame b in
    let va = sopnd frame a in
    let vc = sopnd frame cond in
    sset frame d (Pvir.Eval.select vc va vb)
  | Mdecode.SLoad { cost; ty; size; d; base; off } ->
    charge c cost;
    let addr = saddr (sopnd frame base) + off in
    sset frame d (Memory.load_sized t.img.mem addr size ty)
  | Mdecode.SStore { cost; value; base; off } ->
    charge c cost;
    let vbase = sget frame base in
    let v = sopnd frame value in
    let addr = saddr vbase + off in
    Memory.store t.img.mem addr v
  | Mdecode.SFrameAddr { cost; d; off } ->
    charge c cost;
    sset frame d (Pvir.Value.i64 (Int64.of_int (frame.sfp + off)))
  | Mdecode.SFrameLd { cost; d; idx; slot } ->
    charge c cost;
    c.spills <- c.spills + 1;
    let value = Array.unsafe_get frame.sslots idx in
    if value == Vm.uninit then
      Vm.trap "reload of empty spill slot %d in %s" slot frame.sdf.Mdecode.sname
    else sset frame d value
  | Mdecode.SFrameSt { cost; idx; src } ->
    charge c cost;
    c.spills <- c.spills + 1;
    Array.unsafe_set frame.sslots idx (sopnd frame src)
  | Mdecode.SSplat { cost; d; a; n } ->
    charge c cost;
    sset frame d (Pvir.Eval.splat n (sopnd frame a))
  | Mdecode.SExtract { cost; d; a; lane } ->
    charge c cost;
    sset frame d (Pvir.Eval.extract (sopnd frame a) lane)
  | Mdecode.SReduce { cost; op; d; a } ->
    charge c cost;
    sset frame d (Pvir.Eval.reduce op (sopnd frame a))
  | Mdecode.SCall { cost; d; name; srcs } -> (
    charge c cost;
    (* left-to-right, like the tree-walker's [List.map] *)
    let n = Array.length srcs in
    let rec argv i =
      if i = n then []
      else
        let v = sget frame (Array.unsafe_get srcs i) in
        v :: argv (i + 1)
    in
    let argv = argv 0 in
    let result =
      match Hashtbl.find_opt t.code name with
      | Some ce -> scall t c (decoded t ce) argv
      | None -> Vm.intrinsic t.out name argv
    in
    match (d, result) with
    | None, _ -> ()
    | Some d, Some value -> sset frame d value
    | Some _, None -> Vm.trap "call to %s produced no value" name)

(* ---------------- public entry points ---------------- *)

(** The threaded engine on an entered context.  A function not in the
    code cache is decoded on the fly (uncached). *)
let threaded t c (fn : Mir.func) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  let df =
    match Hashtbl.find_opt t.code fn.Mir.mname with
    | Some ce when ce.cfn == fn -> decoded t ce
    | _ -> Mdecode.func ~machine:t.machine fn
  in
  scall t c df args

(** Inversion point for the AOT backend (lib/pvaot): [Pvaot.install]
    replaces this hook with a runner that compiles the code cache to a
    native plugin and runs it on the activation's context, falling back
    to {!threaded} on the same context when that is not possible.
    Default: the threaded engine itself, so [Aot] without the backend
    installed degrades silently to identical behaviour. *)
let aot_hook :
    (t -> Aotabi.ctx -> Mir.func -> Pvir.Value.t list -> Pvir.Value.t option)
    ref =
  ref threaded

(* One activation: {!enter}, run, and {!leave} on every exit.  A
   returning activation has popped its frames.  An exception (a trap,
   fuel exhaustion included) releases the stack of the frames it
   unwound: [sp] goes back to the entry [sp], which [t.sp] still holds,
   and the counters keep the work done. *)
let call_untraced t (fn : Mir.func) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  let c = enter t in
  match
    match t.engine with
    | Tree_walk -> tw_call t c fn args
    | Threaded -> threaded t c fn args
    | Aot -> !aot_hook t c fn args
  with
  | r ->
    leave t c;
    r
  | exception e ->
    c.sp <- t.sp;
    leave t c;
    raise e

(* one {!Vm.span} per top-level activation *)
let traced t name f =
  Vm.span t.tr ~clock:cycles t ~engine:t.engine ~kind:"sim" name f

(** Call [fn] with [args] under the configured engine.  A function not in
    the code cache is decoded on the fly (uncached).  With a trace sink
    attached, the activation becomes a span on the VM track. *)
let call t (fn : Mir.func) (args : Pvir.Value.t list) : Pvir.Value.t option =
  match t.tr with
  | None -> call_untraced t fn args
  | Some _ -> traced t fn.Mir.mname (fun () -> call_untraced t fn args)

let run_untraced t name args =
  match Hashtbl.find_opt t.code name with
  | Some ce -> call_untraced t ce.cfn args
  | None -> Vm.trap "no compiled code for %s" name

(** Run compiled function [name].  All callees it reaches must have been
    registered with {!add_func} (the cache models the JIT's code cache). *)
let run t name args =
  match t.tr with
  | None -> run_untraced t name args
  | Some _ -> traced t name (fun () -> run_untraced t name args)

(** Absorb this simulator's counters into a metrics registry:
    cycles/instructions/spill traffic plus fuel and allocation headroom.
    Purely observational — reads the stats the engines already keep. *)
let observe_metrics t (m : Pvtrace.Metrics.t) : unit =
  Pvtrace.Metrics.inc m "sim.cycles" t.stats.cycles;
  Pvtrace.Metrics.inc m "sim.instrs" t.stats.instrs;
  Pvtrace.Metrics.inc m "sim.spill_ops" t.stats.spill_ops;
  Pvtrace.Metrics.set m "sim.fuel_headroom" (Int64.sub t.fuel t.stats.instrs);
  Pvtrace.Metrics.seti m "sim.mem_bytes" (Memory.size t.img.mem);
  Pvtrace.Metrics.seti m "sim.alloc_headroom"
    (Memory.alloc_headroom t.img.mem)
