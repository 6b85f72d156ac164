(** PVIR bytecode interpreter.

    This is the "first virtual machines only had an interpreter" baseline
    from §2.1 of the paper: correct on every target, no compilation cost,
    but a dispatch penalty on every instruction.  It doubles as the
    reference semantics — every optimization and every JIT backend is
    tested for result-equality against it.

    Two host-side execution engines implement the same observable
    semantics (results, printed output, cycle/instruction accounting and
    trap messages are bit-identical):

    - [Tree_walk] — the original engine: walks the [Pvir.Func.t] CFG
      directly, resolving branch labels and instruction costs on every
      executed instruction.  Kept as the reference for differential
      testing and for the old-vs-new benchmark.
    - [Threaded] (default) — pre-decodes each function once with
      {!Decode} into a flat array form (labels → indices, costs
      precomputed, types resolved) and dispatches over it with an
      index-driven loop and unboxed cycle counters.  Decoded functions
      are cached per function identity, so repeated [run]/[call]
      invocations decode nothing.  Decoding is total on the verified
      programs an {!Image} holds, so the loop has one case per
      instruction and no run-time replay of the tree-walker; a function
      the verifier would reject raises [Invalid_argument] when it is
      first decoded.

    Both engines, and the AOT engine behind {!aot_hook}, keep the run
    contract of {!Vm}: they raise its one {!Vm.Trap}, call its intrinsic
    dispatcher and share its engine vocabulary.

    Cost model: each interpreted instruction costs [dispatch_cost] cycles
    of decode/dispatch plus the work of the operation itself (vector
    builtins are scalarized lane by lane, as a portable interpreter
    would). *)

(** Canonical fuel-exhaustion message: the tools classify a {!Vm.Trap}
    carrying this text as a *resource limit* rather than a guest
    error. *)
let fuel_exhausted_msg = "interpreter fuel exhausted (infinite loop?)"

(** Internal unwind of a tripped safepoint: carries the guest call stack
    under construction, innermost frame first.  Each active call the
    unwind crosses appends its own frame; {!call_untraced} (or the resume
    driver) converts the completed stack into a snapshot and re-raises as
    {!Checkpointed}. *)
exception Ckpt_capture of Pvir.Ckpt.frame list ref

(** A requested checkpoint completed.  The snapshot is waiting in
    {!take_snapshot}; the interpreter's memory, stack pointer and output
    buffer are left exactly as captured (the activation did not run to
    completion). *)
exception Checkpointed

type engine = Vm.engine = Tree_walk | Threaded | Aot

type stats = {
  mutable cycles : int64;
  mutable instrs : int64;
  mutable calls : int;
}

type t = {
  img : Image.t;
  mutable sp : int;
  out : Buffer.t;  (** captured output of the print intrinsics *)
  stats : stats;
  dispatch_cost : int;
  profile : Profile.t option;
  fuel : int64;  (** execution budget; {!Vm.Trap} when exhausted *)
  mutable engine : engine;
  mutable tr : Pvtrace.Trace.t option;
      (** telemetry sink: spans are emitted only at the public entry
          points (never inside the dispatch loop), so tracing costs
          nothing per executed instruction *)
  dcache : (string, Decode.dfunc) Hashtbl.t;
      (** decoded-code cache of the threaded engine, keyed by function
          name and validated against the function's identity *)
  mutable ckpt_at : int64;
      (** checkpoint request: capture a snapshot at the first safepoint
          (block boundary) once [stats.instrs >= ckpt_at].  [-1L] means
          no request; the engines' fast paths stay exception-free and
          catch-free while unarmed. *)
  mutable ckpt_snap : Pvir.Ckpt.t option;  (** last captured snapshot *)
  mutable pdigest : string option;
      (** memoized [Ckpt.prog_digest] of the loaded program *)
  mutable sampler : Pvprof.t option;
      (** sampling profiler: polled at block entries (the checkpoint
          safepoints) against the cycle clock, so profiled and
          unprofiled runs are bit-identical in results, output and
          accounting *)
  mutable sample_at : int64;
      (** cached [Pvprof.next_at] of the sampler; [Int64.max_int] when
          no sampler is armed, so the per-block poll is one compare
          that never fires on the fast path *)
  mutable sstack : string list;
      (** shadow activation stack for the sampler (function names,
          innermost first); maintained only while a sampler is armed *)
  mutable aot : Aotabi.outcome option;
      (** the AOT backend's prepared code for [img] (see [lib/pvaot]) *)
}

let create ?(dispatch_cost = 8) ?profile ?sampler ?(fuel = 1_000_000_000L)
    ?(engine = Threaded) ?tr img =
  {
    img;
    sp = Image.initial_sp img;
    out = Buffer.create 64;
    stats = { cycles = 0L; instrs = 0L; calls = 0 };
    dispatch_cost;
    profile;
    fuel;
    engine;
    tr;
    dcache = Hashtbl.create 16;
    ckpt_at = -1L;
    ckpt_snap = None;
    pdigest = None;
    sampler;
    sample_at =
      (match sampler with
      | Some s -> Pvprof.next_at s
      | None -> Int64.max_int);
    sstack = [];
    aot = None;
  }

(** Arm a sampling profiler (or re-arm after {!create} without one). *)
let set_sampler t s =
  t.sampler <- Some s;
  t.sample_at <- Pvprof.next_at s

(* Record one sample at a block-entry safepoint.  [t.stats.cycles] must
   be current (the threaded engine flushes its unboxed counters first). *)
let take_sample t fname label =
  match t.sampler with
  | None -> ()
  | Some s ->
    Pvprof.sample s ~cycles:t.stats.cycles ~stack:t.sstack ~fn:fname
      ~block:label;
    t.sample_at <- Pvprof.next_at s

let set_trace t tr = t.tr <- tr

let output t = Buffer.contents t.out
let cycles t = t.stats.cycles

let charge t n =
  t.stats.cycles <- Int64.add t.stats.cycles (Int64.of_int n);
  t.stats.instrs <- Int64.add t.stats.instrs 1L;
  if Int64.compare t.stats.instrs t.fuel > 0 then
    raise (Vm.Trap fuel_exhausted_msg)

(* ---------------- checkpoint requests ---------------- *)

let ckpt_armed t = Int64.compare t.ckpt_at 0L >= 0
let ckpt_due t = ckpt_armed t && Int64.compare t.stats.instrs t.ckpt_at >= 0

(** Request a checkpoint at the first safepoint reached once the
    instruction counter is at least [at].  Safepoints are block entries —
    the one execution point where all engines agree bit-for-bit on
    counters and register state — so every engine armed with the same
    [at] on the same program captures the identical snapshot. *)
let arm_checkpoint t ~at =
  if Int64.compare at 0L < 0 then
    invalid_arg "Interp.arm_checkpoint: negative threshold";
  t.ckpt_at <- at

let disarm_checkpoint t = t.ckpt_at <- -1L

(** Claim the snapshot produced by the last {!Checkpointed}. *)
let take_snapshot t =
  let s = t.ckpt_snap in
  t.ckpt_snap <- None;
  s

let prog_digest t =
  match t.pdigest with
  | Some d -> d
  | None ->
    let d = Pvir.Ckpt.prog_digest t.img.Image.prog in
    t.pdigest <- Some d;
    d

(* Assemble the snapshot once the unwind has collected the whole call
   stack.  Counters are read *after* the unwind, so the threaded engine's
   [Fun.protect] flush has already landed them. *)
let finish_capture t (frames : Pvir.Ckpt.frame list) : 'a =
  let snap =
    {
      Pvir.Ckpt.ck_prog = prog_digest t;
      ck_mem = Memory.contents t.img.Image.mem;
      ck_gsp = t.sp;
      ck_cycles = t.stats.cycles;
      ck_instrs = t.stats.instrs;
      ck_calls = t.stats.calls;
      ck_fuel = Int64.sub t.fuel t.stats.instrs;
      ck_output = Buffer.contents t.out;
      ck_frames = frames;
    }
  in
  t.ckpt_snap <- Some snap;
  t.ckpt_at <- -1L;
  raise Checkpointed

type frame = {
  regs : Pvir.Value.t option array;
  fn : Pvir.Func.t;
  fsp : int;  (** stack pointer to restore when this frame returns *)
}

(* Snapshot view of a live tree-walk frame: initialized registers only,
   ascending — the canonical order the codec requires. *)
let tw_ckpt_frame (frame : frame) block ip dst : Pvir.Ckpt.frame =
  let regs = ref [] in
  for i = Array.length frame.regs - 1 downto 0 do
    match frame.regs.(i) with
    | Some v -> regs := (i, v) :: !regs
    | None -> ()
  done;
  {
    Pvir.Ckpt.ck_fn = frame.fn.Pvir.Func.name;
    ck_block = block;
    ck_ip = ip;
    ck_dst = dst;
    ck_regs = !regs;
    ck_sp = frame.fsp;
  }

let reg_value frame r =
  match frame.regs.(r) with
  | Some v -> v
  | None -> Vm.trap "read of uninitialized register r%d in %s" r frame.fn.name

let set_reg frame r v = frame.regs.(r) <- Some v

(* ---------------- tree-walking engine (reference) ---------------- *)

let rec list_drop n l =
  if n <= 0 then l
  else match l with [] -> [] | _ :: tl -> list_drop (n - 1) tl

let rec tw_call t (fn : Pvir.Func.t) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  t.stats.calls <- t.stats.calls + 1;
  Option.iter (fun p -> Profile.enter p fn.name) t.profile;
  if List.length args <> List.length fn.params then
    Vm.trap "arity mismatch calling %s" fn.name;
  let frame = { regs = Array.make fn.next_reg None; fn; fsp = t.sp } in
  List.iter2 (fun r v -> set_reg frame r v) fn.params args;
  (* shadow stack for the sampler; exceptional unwinds are repaired at
     the public entry points, so no per-call protect is needed *)
  if t.sampler <> None then t.sstack <- fn.name :: t.sstack;
  let result = exec_block t frame (Pvir.Func.entry fn) in
  t.sp <- frame.fsp;
  (match t.sstack with
  | _ :: tl when t.sampler <> None -> t.sstack <- tl
  | _ -> ());
  result

and exec_block t frame blk = exec_block_from t frame blk ~ip:0

(** Execute [blk] from instruction index [ip] onward (ip > 0 only when
    resuming a snapshot mid-block), then its terminator.  The block entry
    ([ip = 0]) is the safepoint: a due checkpoint request captures here,
    before any of the block's instructions and before the block-end
    dispatch charge — the exact point where all engines' counters
    agree. *)
and exec_block_from t frame (blk : Pvir.Func.block) ~ip : Pvir.Value.t option =
  (* sample poll first, then checkpoint poll — both engines keep this
     order, so a block entry that trips both stays deterministic *)
  if ip = 0 && Int64.compare t.stats.cycles t.sample_at >= 0 then
    take_sample t frame.fn.Pvir.Func.name blk.label;
  if ckpt_armed t then begin
    if ip = 0 && ckpt_due t then
      raise (Ckpt_capture (ref [ tw_ckpt_frame frame blk.label 0 None ]));
    exec_armed t frame blk.label ip (list_drop ip blk.instrs)
  end
  else
    List.iter (exec_instr t frame)
      (if ip = 0 then blk.instrs else list_drop ip blk.instrs);
  charge t t.dispatch_cost;
  Option.iter
    (fun p -> Profile.block p frame.fn.name blk.label)
    t.profile;
  match blk.term with
  | Pvir.Instr.Br l -> exec_block t frame (Pvir.Func.find_block frame.fn l)
  | Pvir.Instr.Cbr (c, l1, l2) ->
    let target = if Pvir.Value.to_bool (reg_value frame c) then l1 else l2 in
    exec_block t frame (Pvir.Func.find_block frame.fn target)
  | Pvir.Instr.Ret None -> None
  | Pvir.Instr.Ret (Some r) -> Some (reg_value frame r)

and exec_instr t frame (i : Pvir.Instr.t) : unit =
  let v = reg_value frame in
  let lanes_of r = Pvir.Types.lanes (Pvir.Value.ty (v r)) in
  (match i with
  | Pvir.Instr.Binop (_, _, a, _) -> charge t (t.dispatch_cost + lanes_of a)
  | Pvir.Instr.Load (ty, _, _, _) | Pvir.Instr.Store (ty, _, _, _) ->
    charge t (t.dispatch_cost + Pvir.Types.lanes ty)
  | _ -> charge t (t.dispatch_cost + 1));
  match i with
  | Pvir.Instr.Const (d, value) -> set_reg frame d value
  | Pvir.Instr.Mov (d, a) -> set_reg frame d (v a)
  | Pvir.Instr.Gaddr (d, g) ->
    set_reg frame d (Pvir.Value.i64 (Int64.of_int (Image.global_address t.img g)))
  | Pvir.Instr.Binop (op, d, a, b) -> (
    try set_reg frame d (Pvir.Eval.binop op (v a) (v b))
    with Pvir.Eval.Division_by_zero -> Vm.trap "division by zero")
  | Pvir.Instr.Unop (op, d, a) -> set_reg frame d (Pvir.Eval.unop op (v a))
  | Pvir.Instr.Conv (kind, d, a) ->
    let dst_ty = Pvir.Func.reg_type frame.fn d in
    set_reg frame d (Pvir.Eval.conv kind dst_ty (v a))
  | Pvir.Instr.Cmp (op, d, a, b) ->
    set_reg frame d (Pvir.Eval.cmp op (v a) (v b))
  | Pvir.Instr.Select (d, c, a, b) ->
    set_reg frame d (Pvir.Eval.select (v c) (v a) (v b))
  | Pvir.Instr.Load (ty, d, base, off) ->
    let addr = Int64.to_int (Pvir.Value.to_int64 (v base)) + off in
    set_reg frame d (Memory.load t.img.mem addr ty)
  | Pvir.Instr.Store (_, src, base, off) ->
    let addr = Int64.to_int (Pvir.Value.to_int64 (v base)) + off in
    Memory.store t.img.mem addr (v src)
  | Pvir.Instr.Alloca (d, bytes) ->
    t.sp <- t.sp - bytes;
    if t.sp < t.img.layout.globals_end then Vm.trap "stack overflow";
    set_reg frame d (Pvir.Value.i64 (Int64.of_int t.sp))
  | Pvir.Instr.Call (d, name, args) -> (
    let argv = List.map v args in
    let result =
      match Image.find_func t.img name with
      | Some callee -> tw_call t callee argv
      | None -> Vm.intrinsic t.out name argv
    in
    match (d, result) with
    | None, _ -> ()
    | Some d, Some r -> set_reg frame d r
    | Some _, None -> Vm.trap "call to %s produced no value" name)
  | Pvir.Instr.Splat (d, a) ->
    let n =
      match Pvir.Func.reg_type frame.fn d with
      | Pvir.Types.Vector (_, n) -> n
      | _ -> Vm.trap "splat destination is not a vector"
    in
    set_reg frame d (Pvir.Eval.splat n (v a))
  | Pvir.Instr.Extract (d, a, lane) ->
    set_reg frame d (Pvir.Eval.extract (v a) lane)
  | Pvir.Instr.Reduce (op, d, a) ->
    set_reg frame d (Pvir.Eval.reduce op (v a))

(* Armed instruction loop: identical semantics to the [List.iter] fast
   path, but indexed, and appending this frame to a [Ckpt_capture]
   unwinding out of a callee (only a [Call] can raise one — the nested
   activation trips its own block-entry safepoint).  [ip - 1] then names
   the pending call, which is what resume needs to re-inject its
   result. *)
and exec_armed t frame label i = function
  | [] -> ()
  | ins :: tl ->
    (try exec_instr t frame ins
     with Ckpt_capture frames ->
       let dst = match ins with Pvir.Instr.Call (d, _, _) -> d | _ -> None in
       frames := !frames @ [ tw_ckpt_frame frame label (i + 1) dst ];
       raise (Ckpt_capture frames));
    exec_armed t frame label (i + 1) tl

(* ---------------- direct-threaded engine ---------------- *)

(* Unboxed cycle/instruction counters for one [run]/[call] activation.
   The seed engine pays two boxed Int64 updates per executed instruction;
   here counters are plain ints, flushed back into [stats] when the
   activation ends (normally or by exception). *)
type ectx = {
  mutable ecycles : int;
  mutable einstrs : int;
  efuel : int;
  eckpt : int;
      (** unboxed checkpoint threshold: [max_int] while unarmed, so the
          per-block safepoint poll is a single int compare that never
          fires on the fast path *)
  mutable esample : int;
      (** unboxed sampling threshold against [ecycles], same discipline
          as [eckpt]; mutable because it re-arms after every sample *)
}

let ectx_of t =
  {
    ecycles = Int64.to_int t.stats.cycles;
    einstrs = Int64.to_int t.stats.instrs;
    efuel = Vm.clamp t.fuel;
    eckpt = (if ckpt_armed t then Vm.clamp t.ckpt_at else max_int);
    esample = Vm.clamp t.sample_at;
  }

let flush_ectx t ec =
  t.stats.cycles <- Int64.of_int ec.ecycles;
  t.stats.instrs <- Int64.of_int ec.einstrs

let dcharge ec n =
  ec.ecycles <- ec.ecycles + n;
  ec.einstrs <- ec.einstrs + 1;
  if ec.einstrs > ec.efuel then
    raise (Vm.Trap fuel_exhausted_msg)

(* Registers of the threaded engine live in a plain [Value.t array]; an
   unwritten slot holds {!Vm.uninit}. *)

type dframe = {
  dregs : Pvir.Value.t array;
  dfn : Pvir.Func.t;
  dsp : int;  (** stack pointer to restore when this frame returns *)
}

(* Snapshot view of a live threaded frame; [Vm.uninit] slots (physical
   identity) are exactly the registers the tree-walker holds as [None],
   so both engines emit the same canonical register list. *)
let d_ckpt_frame (frame : dframe) block ip dst : Pvir.Ckpt.frame =
  let regs = ref [] in
  for i = Array.length frame.dregs - 1 downto 0 do
    let v = Array.unsafe_get frame.dregs i in
    if v != Vm.uninit then regs := (i, v) :: !regs
  done;
  {
    Pvir.Ckpt.ck_fn = frame.dfn.Pvir.Func.name;
    ck_block = block;
    ck_ip = ip;
    ck_dst = dst;
    ck_regs = !regs;
    ck_sp = frame.dsp;
  }

let dtrap_uninit frame r =
  Vm.trap "read of uninitialized register r%d in %s" r frame.dfn.Pvir.Func.name

(* unchecked register access: sound because {!Decode} validates every
   register of a function — parameters, instruction and terminator
   operands — against [0, next_reg), the register file's exact length *)
let dreg frame r =
  let v = Array.unsafe_get frame.dregs r in
  if v == Vm.uninit then dtrap_uninit frame r else v

let dset frame r v = Array.unsafe_set frame.dregs r v

(* address operand: the common [Int] shape inline, [Value.to_int64]'s
   exact error otherwise *)
let daddr frame r =
  match dreg frame r with
  | Pvir.Value.Int (_, x) -> Int64.to_int x
  | v -> Int64.to_int (Pvir.Value.to_int64 v)

(* branch condition: [Value.to_bool] with the [Int] shape inline *)
let dbool frame c =
  match dreg frame c with
  | Pvir.Value.Int (_, x) -> x <> 0L
  | v -> Pvir.Value.to_bool v

(** Look up (or build) the decoded form of [fn].  Keyed by name and
    validated against the function value itself, so replacing a function
    in the program re-decodes while repeated calls hit the cache. *)
let decoded t (fn : Pvir.Func.t) : Decode.dfunc =
  match Hashtbl.find_opt t.dcache fn.Pvir.Func.name with
  | Some df when df.Decode.dsrc == fn -> df
  | _ ->
    let df = Decode.func ~dispatch_cost:t.dispatch_cost ~img:t.img fn in
    Hashtbl.replace t.dcache fn.Pvir.Func.name df;
    df

let rec dcall t ec (df : Decode.dfunc) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  t.stats.calls <- t.stats.calls + 1;
  Option.iter (fun p -> Profile.enter p df.Decode.dname) t.profile;
  if List.length args <> df.Decode.dnparams then
    Vm.trap "arity mismatch calling %s" df.Decode.dname;
  let frame =
    {
      dregs = Array.make df.Decode.dnext_reg Vm.uninit;
      dfn = df.Decode.dsrc;
      dsp = t.sp;
    }
  in
  List.iter2 (fun r v -> dset frame r v) df.Decode.dparams args;
  if Array.length df.Decode.dblocks = 0 then
    invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" df.Decode.dname);
  (* shadow stack for the sampler, mirroring [tw_call] *)
  if t.sampler <> None then t.sstack <- df.Decode.dname :: t.sstack;
  let result = dexec_block t ec df frame 0 in
  t.sp <- frame.dsp;
  (match t.sstack with
  | _ :: tl when t.sampler <> None -> t.sstack <- tl
  | _ -> ());
  result

and dexec_block t ec df frame idx = dexec_block_from t ec df frame idx ~ip:0

(** Same contract as the tree-walker's [exec_block_from]: block entry
    ([ip = 0]) is the safepoint; [ip > 0] only when resuming a snapshot
    mid-block. *)
and dexec_block_from t ec (df : Decode.dfunc) frame idx ~ip :
    Pvir.Value.t option =
  let blk = df.Decode.dblocks.(idx) in
  let insts = blk.Decode.dinstrs in
  (* sample poll first, then checkpoint poll — the tree-walker's order.
     Sampling flushes the unboxed counters (so the sampler sees the
     canonical Int64 cycle count) but never forces the armed
     per-instruction loop: samples only fire at block entries. *)
  if ip = 0 && ec.ecycles >= ec.esample then begin
    flush_ectx t ec;
    take_sample t df.Decode.dname blk.Decode.dlabel;
    ec.esample <- Vm.clamp t.sample_at
  end;
  if ip = 0 && ec.einstrs >= ec.eckpt then
    raise (Ckpt_capture (ref [ d_ckpt_frame frame blk.Decode.dlabel 0 None ]));
  if ec.eckpt = max_int then
    for i = ip to Array.length insts - 1 do
      dexec_instr t ec frame (Array.unsafe_get insts i)
    done
  else dexec_armed t ec frame blk.Decode.dlabel insts ip;
  dcharge ec t.dispatch_cost;
  (match t.profile with
  | Some p -> Profile.block p df.Decode.dname blk.Decode.dlabel
  | None -> ());
  match blk.Decode.dterm with
  | Decode.DBr j -> dexec_block t ec df frame j
  | Decode.DCbr (c, j1, j2) ->
    dexec_block t ec df frame (if dbool frame c then j1 else j2)
  | Decode.DRet None -> None
  | Decode.DRet (Some r) -> Some (dreg frame r)

and dexec_instr t ec frame (i : Decode.dinstr) : unit =
  match i with
  | Decode.DConst { cost; d; v } ->
    dcharge ec cost;
    dset frame d v
  | Decode.DMov { cost; d; a } ->
    dcharge ec cost;
    dset frame d (dreg frame a)
  | Decode.DGaddr { cost; d; v } ->
    dcharge ec cost;
    dset frame d v
  | Decode.DBinop { cost; f; d; a; b } -> (
    (* read [a] before charging, as the tree-walker's cost computation
       does: an uninitialized operand must trap before the charge lands *)
    let va = dreg frame a in
    dcharge ec cost;
    let vb = dreg frame b in
    try dset frame d (f va vb)
    with Pvir.Eval.Division_by_zero -> Vm.trap "division by zero")
  | Decode.DUnop { cost; op; d; a } ->
    dcharge ec cost;
    dset frame d (Pvir.Eval.unop op (dreg frame a))
  | Decode.DConv { cost; f; d; a } ->
    dcharge ec cost;
    dset frame d (f (dreg frame a))
  | Decode.DCmp { cost; f; d; a; b } ->
    dcharge ec cost;
    (* operand reads in the tree-walker's (right-to-left) order, so that
       multi-operand uninitialized reads trap on the same register *)
    let vb = dreg frame b in
    let va = dreg frame a in
    dset frame d (f va vb)
  | Decode.DSelect { cost; d; c; a; b } ->
    dcharge ec cost;
    let vb = dreg frame b in
    let va = dreg frame a in
    let vc = dreg frame c in
    dset frame d (Pvir.Eval.select vc va vb)
  | Decode.DLoad { cost; ty; size; d; base; off } ->
    dcharge ec cost;
    let addr = daddr frame base + off in
    dset frame d (Memory.load_sized t.img.mem addr size ty)
  | Decode.DStore { cost; src; base; off } ->
    dcharge ec cost;
    let addr = daddr frame base + off in
    Memory.store t.img.mem addr (dreg frame src)
  | Decode.DAlloca { cost; d; bytes } ->
    dcharge ec cost;
    t.sp <- t.sp - bytes;
    if t.sp < t.img.layout.globals_end then Vm.trap "stack overflow";
    dset frame d (Pvir.Value.i64 (Int64.of_int t.sp))
  | Decode.DCall { cost; d; name; callee; args } -> (
    dcharge ec cost;
    (* left-to-right, like the tree-walker's [List.map] *)
    let n = Array.length args in
    let rec argv i =
      if i = n then []
      else
        let v = dreg frame (Array.unsafe_get args i) in
        v :: argv (i + 1)
    in
    let argv = argv 0 in
    let result =
      match callee with
      | Some fn -> dcall t ec (decoded t fn) argv
      | None -> Vm.intrinsic t.out name argv
    in
    match (d, result) with
    | None, _ -> ()
    | Some d, Some r -> dset frame d r
    | Some _, None -> Vm.trap "call to %s produced no value" name)
  | Decode.DSplat { cost; d; a; n } ->
    dcharge ec cost;
    dset frame d (Pvir.Eval.splat n (dreg frame a))
  | Decode.DExtract { cost; d; a; lane } ->
    dcharge ec cost;
    dset frame d (Pvir.Eval.extract (dreg frame a) lane)
  | Decode.DReduce { cost; op; d; a } ->
    dcharge ec cost;
    dset frame d (Pvir.Eval.reduce op (dreg frame a))

(* Armed counterpart of the unsafe-indexed fast loop (the tree-walker's
   [exec_armed], in flat-array form). *)
and dexec_armed t ec frame label (insts : Decode.dinstr array) i =
  if i < Array.length insts then begin
    (let ins = Array.unsafe_get insts i in
     try dexec_instr t ec frame ins
     with Ckpt_capture frames ->
       let dst = match ins with Decode.DCall { d; _ } -> d | _ -> None in
       frames := !frames @ [ d_ckpt_frame frame label (i + 1) dst ];
       raise (Ckpt_capture frames));
    dexec_armed t ec frame label insts (i + 1)
  end

(* ---------------- public entry points ---------------- *)

let threaded_call t (fn : Pvir.Func.t) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  let ec = ectx_of t in
  Fun.protect
    ~finally:(fun () -> flush_ectx t ec)
    (fun () -> dcall t ec (decoded t fn) args)

(** Inversion point for the AOT backend (lib/pvaot): [Pvaot.install]
    replaces this hook with a runner that looks up (or builds) compiled
    code for the image and falls back to {!threaded_call} whenever the
    program, the arguments or the host toolchain are outside what the
    code generator supports.  The default is the threaded engine itself,
    so selecting [Aot] without the backend installed degrades silently to
    identical observable behaviour. *)
let aot_hook : (t -> Pvir.Func.t -> Pvir.Value.t list -> Pvir.Value.t option) ref
    =
  ref (fun t fn args -> threaded_call t fn args)

let call_untraced t (fn : Pvir.Func.t) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  (* an exceptional unwind (trap, checkpoint) skips the per-call shadow
     stack pops; one restore here keeps the sampler's stack honest *)
  let saved_stack = t.sstack in
  try
    match t.engine with
    | Tree_walk -> tw_call t fn args
    | Threaded -> threaded_call t fn args
    | Aot -> !aot_hook t fn args
  with
  | Ckpt_capture frames ->
    t.sstack <- saved_stack;
    finish_capture t !frames
  | e ->
    t.sstack <- saved_stack;
    raise e

(** Call [fn] with [args] under the configured engine.  With a trace sink
    attached, the whole activation becomes a {!Vm.span}. *)
let call t (fn : Pvir.Func.t) (args : Pvir.Value.t list) : Pvir.Value.t option =
  Vm.span t.tr ~clock:cycles t ~engine:t.engine ~kind:"interp"
    fn.Pvir.Func.name (fun () -> call_untraced t fn args)

(** Run function [name] with [args].  Returns the result value (if any)
    and leaves cycle/instruction counts in [stats]. *)
let run t name args =
  match Image.find_func t.img name with
  | Some fn -> call t fn args
  | None -> Vm.trap "no function %s" name

(* ---------------- resuming a snapshot ---------------- *)

(* The resume loop below rebuilds live frames from snapshot frames and runs
   each one's continuation: the innermost frame first, its result
   injected into the next frame's pending-call destination, and so on
   outward.  It assumes {!Snapshot.restore} has already validated the
   snapshot against the image and installed memory/sp/counters/output —
   every lookup here is therefore total.  A still-armed checkpoint
   request re-captures normally: the not-yet-resumed outer frames are
   appended verbatim (a suspended frame's state cannot change while its
   callee runs). *)

(* Result-into-caller injection, replicating the call-return checks of
   the normal path (including the no-value trap, blamed on the callee). *)
let inject_of (nf : Pvir.Ckpt.frame) callee_name result =
  match (nf.Pvir.Ckpt.ck_dst, result) with
  | None, _ -> None
  | Some d, Some v -> Some (d, v)
  | Some _, None -> Vm.trap "call to %s produced no value" callee_name

(* [run_frame f inject] is the engine's step: rebuild frame [f] in its
   own form, write the pending call's result, run from
   [(ck_block, ck_ip)] and return the frame's result. *)
let rec resume_with t run_frame inject (frames : Pvir.Ckpt.frame list) :
    Pvir.Value.t option =
  match frames with
  | [] -> invalid_arg "Interp.resume: empty frame stack"
  | f :: rest ->
    let result =
      try run_frame f inject
      with Ckpt_capture captured ->
        captured := !captured @ rest;
        raise (Ckpt_capture captured)
    in
    t.sp <- f.Pvir.Ckpt.ck_sp;
    (match t.sstack with
    | _ :: tl when t.sampler <> None -> t.sstack <- tl
    | _ -> ());
    (match rest with
    | [] -> result
    | nf :: _ ->
      resume_with t run_frame (inject_of nf f.Pvir.Ckpt.ck_fn result) rest)

let tw_run_frame t (f : Pvir.Ckpt.frame) inject =
  let fn = Option.get (Image.find_func t.img f.Pvir.Ckpt.ck_fn) in
  let frame =
    {
      regs = Array.make fn.Pvir.Func.next_reg None;
      fn;
      fsp = f.Pvir.Ckpt.ck_sp;
    }
  in
  List.iter (fun (r, v) -> set_reg frame r v) f.Pvir.Ckpt.ck_regs;
  Option.iter (fun (d, v) -> set_reg frame d v) inject;
  exec_block_from t frame
    (Pvir.Func.find_block fn f.Pvir.Ckpt.ck_block)
    ~ip:f.Pvir.Ckpt.ck_ip

let d_run_frame t ec (f : Pvir.Ckpt.frame) inject =
  let fn = Option.get (Image.find_func t.img f.Pvir.Ckpt.ck_fn) in
  let df = decoded t fn in
  let frame =
    {
      dregs = Array.make df.Decode.dnext_reg Vm.uninit;
      dfn = fn;
      dsp = f.Pvir.Ckpt.ck_sp;
    }
  in
  List.iter (fun (r, v) -> frame.dregs.(r) <- v) f.Pvir.Ckpt.ck_regs;
  Option.iter (fun (d, v) -> dset frame d v) inject;
  let rec idx i =
    if i >= Array.length df.Decode.dblocks then
      invalid_arg "Interp.resume: no such block"
    else if df.Decode.dblocks.(i).Decode.dlabel = f.Pvir.Ckpt.ck_block then i
    else idx (i + 1)
  in
  dexec_block_from t ec df frame (idx 0) ~ip:f.Pvir.Ckpt.ck_ip

(** Resume a restored call stack under the configured engine.  The AOT
    engine resumes through its threaded fallback: compiled activations
    cannot be entered mid-block, and the two are proven observation- and
    accounting-identical (the AOT smoke suite), so the snapshot contract
    holds regardless.  Raises {!Checkpointed} if a (re-)armed checkpoint
    trips during the resumed run. *)
let resume_frames t (frames : Pvir.Ckpt.frame list) : Pvir.Value.t option =
  (* seed the sampler's shadow stack with the restored call stack (the
     snapshot frames are innermost first, exactly the stack shape) *)
  if t.sampler <> None then
    t.sstack <- List.map (fun f -> f.Pvir.Ckpt.ck_fn) frames;
  let finish_stack () = if t.sampler <> None then t.sstack <- [] in
  try
    let r =
      match t.engine with
      | Tree_walk -> resume_with t (tw_run_frame t) None frames
      | Threaded | Aot ->
        let ec = ectx_of t in
        Fun.protect
          ~finally:(fun () -> flush_ectx t ec)
          (fun () -> resume_with t (d_run_frame t ec) None frames)
    in
    finish_stack ();
    r
  with
  | Ckpt_capture frames ->
    finish_stack ();
    finish_capture t !frames
  | e ->
    finish_stack ();
    raise e

(** Absorb this interpreter's counters into a metrics registry:
    cycles/instructions/calls plus fuel and allocation headroom.  Purely
    observational — reads the stats the engines already keep. *)
let observe_metrics t (m : Pvtrace.Metrics.t) : unit =
  Pvtrace.Metrics.inc m "interp.cycles" t.stats.cycles;
  Pvtrace.Metrics.inc m "interp.instrs" t.stats.instrs;
  Pvtrace.Metrics.inci m "interp.calls" t.stats.calls;
  Pvtrace.Metrics.set m "interp.fuel_headroom"
    (Int64.sub t.fuel t.stats.instrs);
  Pvtrace.Metrics.seti m "interp.mem_bytes" (Memory.size t.img.mem);
  Pvtrace.Metrics.seti m "interp.alloc_headroom"
    (Memory.alloc_headroom t.img.mem)
