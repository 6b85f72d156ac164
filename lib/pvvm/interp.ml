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
      index-driven loop.  Decoded functions are cached per function
      identity, so repeated [run]/[call] invocations decode nothing.
      Decoding is total on the verified programs an {!Image} holds, so
      the loop has one case per instruction and no run-time replay of
      the tree-walker; a function the verifier would reject raises
      [Invalid_argument] when it is first decoded.

    Both engines, and the AOT engine behind {!aot_hook}, keep the run
    contract of {!Vm}: they raise its one {!Vm.Trap}, call its intrinsic
    dispatcher and share its engine vocabulary.  All three run an
    activation on one {!Aotabi.ctx}: {!call_untraced} (or
    {!resume_frames}) {!enter}s it once, every engine charges cycles,
    instructions and calls and moves [sp] on it, and {!leave} writes it
    back into [stats] and [sp] when the activation ends.

    Cost model: each interpreted instruction costs {!Decode.dispatch_cost}
    cycles of decode/dispatch plus the work of the operation itself
    (vector builtins are scalarized lane by lane, as a portable
    interpreter would). *)

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
  mutable ckpt_at : int;
      (** checkpoint request: capture a snapshot at the first safepoint
          (block boundary) once the instruction count reaches [ckpt_at].
          [max_int] means no request, so the per-block poll is one
          compare that never fires, and the engines' fast paths stay
          exception-free and catch-free. *)
  mutable ckpt_snap : Pvir.Ckpt.t option;  (** last captured snapshot *)
  mutable pdigest : string option;
      (** memoized [Ckpt.prog_digest] of the loaded program *)
  mutable sampler : Pvprof.t option;
      (** sampling profiler: polled at block entries (the checkpoint
          safepoints) against the cycle clock, so profiled and
          unprofiled runs are bit-identical in results, output and
          accounting *)
  mutable sample_at : int;
      (** cached [Pvprof.next_at] of the sampler, clamped to an [int];
          [max_int] when no sampler is armed, so the per-block poll is
          one compare that never fires on the fast path *)
  mutable sstack : string list;
      (** shadow activation stack for the sampler (function names,
          innermost first); maintained only while a sampler is armed *)
  mutable aot : Aotabi.outcome option;
      (** the AOT backend's prepared code for [img] (see [lib/pvaot]) *)
}

let create ?profile ?sampler ?(fuel = 1_000_000_000L) ?(engine = Threaded) ?tr
    img =
  {
    img;
    sp = Image.initial_sp img;
    out = Buffer.create 64;
    stats = { cycles = 0L; instrs = 0L; calls = 0 };
    profile;
    fuel;
    engine;
    tr;
    dcache = Hashtbl.create 16;
    ckpt_at = max_int;
    ckpt_snap = None;
    pdigest = None;
    sampler;
    sample_at =
      (match sampler with
      | Some s -> Vm.clamp (Pvprof.next_at s)
      | None -> max_int);
    sstack = [];
    aot = None;
  }

(** Arm a sampling profiler (or re-arm after {!create} without one). *)
let set_sampler t s =
  t.sampler <- Some s;
  t.sample_at <- Vm.clamp (Pvprof.next_at s)

(* Record one sample at a block-entry safepoint, at the activation's
   current cycle count. *)
let take_sample t (c : Aotabi.ctx) fname label =
  match t.sampler with
  | None -> ()
  | Some s ->
    Pvprof.sample s ~cycles:(Int64.of_int c.cycles) ~stack:t.sstack ~fn:fname
      ~block:label;
    t.sample_at <- Vm.clamp (Pvprof.next_at s)

let set_trace t tr = t.tr <- tr

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
    spills = 0;
    calls = t.stats.calls;
    fuel = Vm.clamp t.fuel;
    fuel_exn;
    out = t.out;
  }

(** Write an activation's counters and [sp] back into [t], whether it
    returned, trapped or checkpointed. *)
let leave t (c : Aotabi.ctx) =
  t.stats.cycles <- Int64.of_int c.cycles;
  t.stats.instrs <- Int64.of_int c.instrs;
  t.stats.calls <- c.calls;
  t.sp <- c.sp

(* Charge one instruction of [n] cycles.  Defined here, not shared with
   {!Sim}: dune's default profile compiles this library [-opaque], so a
   charge from another module would be an indirect call through that
   module's block on every instruction. *)
let charge (c : Aotabi.ctx) n =
  c.cycles <- c.cycles + n;
  c.instrs <- c.instrs + 1;
  if c.instrs > c.fuel then raise c.fuel_exn

(* ---------------- checkpoint requests ---------------- *)

let ckpt_armed t = t.ckpt_at <> max_int

(** Request a checkpoint at the first safepoint reached once the
    instruction counter is at least [at].  Safepoints are block entries —
    the one execution point where all engines agree bit-for-bit on
    counters and register state — so every engine armed with the same
    [at] on the same program captures the identical snapshot. *)
let arm_checkpoint t ~at =
  if Int64.compare at 0L < 0 then
    invalid_arg "Interp.arm_checkpoint: negative threshold";
  t.ckpt_at <- Vm.clamp at

let disarm_checkpoint t = t.ckpt_at <- max_int

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
   stack.  Counters and [sp] are read *after* the unwind, when {!leave}
   has already written them back. *)
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
  t.ckpt_at <- max_int;
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

let rec tw_call t (c : Aotabi.ctx) (fn : Pvir.Func.t)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  c.calls <- c.calls + 1;
  Option.iter (fun p -> Profile.enter p fn.name) t.profile;
  if List.length args <> List.length fn.params then
    Vm.trap "arity mismatch calling %s" fn.name;
  let frame = { regs = Array.make fn.next_reg None; fn; fsp = c.sp } in
  List.iter2 (fun r v -> set_reg frame r v) fn.params args;
  (* shadow stack for the sampler; exceptional unwinds are repaired at
     the public entry points, so no per-call protect is needed *)
  if t.sampler <> None then t.sstack <- fn.name :: t.sstack;
  let result = exec_block t c frame (Pvir.Func.entry fn) in
  c.sp <- frame.fsp;
  (match t.sstack with
  | _ :: tl when t.sampler <> None -> t.sstack <- tl
  | _ -> ());
  result

and exec_block t c frame blk = exec_block_from t c frame blk ~ip:0

(** Execute [blk] from instruction index [ip] onward (ip > 0 only when
    resuming a snapshot mid-block), then its terminator.  The block entry
    ([ip = 0]) is the safepoint: a due checkpoint request captures here,
    before any of the block's instructions and before the block-end
    dispatch charge — the exact point where all engines' counters
    agree. *)
and exec_block_from t (c : Aotabi.ctx) frame (blk : Pvir.Func.block) ~ip :
    Pvir.Value.t option =
  (* sample poll first, then checkpoint poll — both engines keep this
     order, so a block entry that trips both stays deterministic *)
  if ip = 0 && c.cycles >= t.sample_at then
    take_sample t c frame.fn.Pvir.Func.name blk.label;
  if ckpt_armed t then begin
    if ip = 0 && c.instrs >= t.ckpt_at then
      raise (Ckpt_capture (ref [ tw_ckpt_frame frame blk.label 0 None ]));
    exec_armed t c frame blk.label ip (list_drop ip blk.instrs)
  end
  else
    List.iter (exec_instr t c frame)
      (if ip = 0 then blk.instrs else list_drop ip blk.instrs);
  charge c Decode.dispatch_cost;
  Option.iter
    (fun p -> Profile.block p frame.fn.name blk.label)
    t.profile;
  match blk.term with
  | Pvir.Instr.Br l -> exec_block t c frame (Pvir.Func.find_block frame.fn l)
  | Pvir.Instr.Cbr (r, l1, l2) ->
    let target = if Pvir.Value.to_bool (reg_value frame r) then l1 else l2 in
    exec_block t c frame (Pvir.Func.find_block frame.fn target)
  | Pvir.Instr.Ret None -> None
  | Pvir.Instr.Ret (Some r) -> Some (reg_value frame r)

and exec_instr t (c : Aotabi.ctx) frame (i : Pvir.Instr.t) : unit =
  let v = reg_value frame in
  let lanes_of r = Pvir.Types.lanes (Pvir.Value.ty (v r)) in
  (match i with
  | Pvir.Instr.Binop (_, _, a, _) ->
    charge c (Decode.dispatch_cost + lanes_of a)
  | Pvir.Instr.Load (ty, _, _, _) | Pvir.Instr.Store (ty, _, _, _) ->
    charge c (Decode.dispatch_cost + Pvir.Types.lanes ty)
  | _ -> charge c (Decode.dispatch_cost + 1));
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
  | Pvir.Instr.Select (d, cond, a, b) ->
    set_reg frame d (Pvir.Eval.select (v cond) (v a) (v b))
  | Pvir.Instr.Load (ty, d, base, off) ->
    let addr = Int64.to_int (Pvir.Value.to_int64 (v base)) + off in
    set_reg frame d (Memory.load t.img.mem addr ty)
  | Pvir.Instr.Store (_, src, base, off) ->
    let addr = Int64.to_int (Pvir.Value.to_int64 (v base)) + off in
    Memory.store t.img.mem addr (v src)
  | Pvir.Instr.Alloca (d, bytes) ->
    c.sp <- c.sp - bytes;
    if c.sp < c.globals_end then Vm.trap "stack overflow";
    set_reg frame d (Pvir.Value.i64 (Int64.of_int c.sp))
  | Pvir.Instr.Call (d, name, args) -> (
    let argv = List.map v args in
    let result =
      match Image.find_func t.img name with
      | Some callee -> tw_call t c callee argv
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
and exec_armed t c frame label i = function
  | [] -> ()
  | ins :: tl ->
    (try exec_instr t c frame ins
     with Ckpt_capture frames ->
       let dst = match ins with Pvir.Instr.Call (d, _, _) -> d | _ -> None in
       frames := !frames @ [ tw_ckpt_frame frame label (i + 1) dst ];
       raise (Ckpt_capture frames));
    exec_armed t c frame label (i + 1) tl

(* ---------------- direct-threaded engine ---------------- *)

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
    let df = Decode.func ~img:t.img fn in
    Hashtbl.replace t.dcache fn.Pvir.Func.name df;
    df

(* bind the arguments to the parameter registers (arities checked) *)
let rec dbind frame params (args : Pvir.Value.t list) =
  match (params, args) with
  | r :: params, v :: args ->
    dset frame r v;
    dbind frame params args
  | _ -> ()

let rec dcall t (c : Aotabi.ctx) (df : Decode.dfunc)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  c.calls <- c.calls + 1;
  (match t.profile with
  | Some p -> Profile.enter p df.Decode.dname
  | None -> ());
  if List.length args <> df.Decode.dnparams then
    Vm.trap "arity mismatch calling %s" df.Decode.dname;
  let frame =
    {
      dregs = Array.make df.Decode.dnext_reg Vm.uninit;
      dfn = df.Decode.dsrc;
      dsp = c.sp;
    }
  in
  dbind frame df.Decode.dparams args;
  if Array.length df.Decode.dblocks = 0 then
    invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" df.Decode.dname);
  (* shadow stack for the sampler, mirroring [tw_call] *)
  if t.sampler <> None then t.sstack <- df.Decode.dname :: t.sstack;
  let result = dexec_block t c df frame 0 in
  c.sp <- frame.dsp;
  (match t.sstack with
  | _ :: tl when t.sampler <> None -> t.sstack <- tl
  | _ -> ());
  result

and dexec_block t c df frame idx = dexec_block_from t c df frame idx ~ip:0

(** Same contract as the tree-walker's [exec_block_from]: block entry
    ([ip = 0]) is the safepoint; [ip > 0] only when resuming a snapshot
    mid-block. *)
and dexec_block_from t (c : Aotabi.ctx) (df : Decode.dfunc) frame idx ~ip :
    Pvir.Value.t option =
  let blk = df.Decode.dblocks.(idx) in
  let insts = blk.Decode.dinstrs in
  (* sample poll first, then checkpoint poll — the tree-walker's order.
     Samples only fire at block entries, so sampling never forces the
     armed per-instruction loop. *)
  if ip = 0 && c.cycles >= t.sample_at then
    take_sample t c df.Decode.dname blk.Decode.dlabel;
  if ip = 0 && c.instrs >= t.ckpt_at then
    raise (Ckpt_capture (ref [ d_ckpt_frame frame blk.Decode.dlabel 0 None ]));
  if t.ckpt_at = max_int then
    for i = ip to Array.length insts - 1 do
      dexec_instr t c frame (Array.unsafe_get insts i)
    done
  else dexec_armed t c frame blk.Decode.dlabel insts ip;
  charge c Decode.dispatch_cost;
  (match t.profile with
  | Some p -> Profile.block p df.Decode.dname blk.Decode.dlabel
  | None -> ());
  match blk.Decode.dterm with
  | Decode.DBr j -> dexec_block t c df frame j
  | Decode.DCbr (r, j1, j2) ->
    dexec_block t c df frame (if dbool frame r then j1 else j2)
  | Decode.DRet None -> None
  | Decode.DRet (Some r) -> Some (dreg frame r)

and dexec_instr t (c : Aotabi.ctx) frame (i : Decode.dinstr) : unit =
  match i with
  | Decode.DConst { cost; d; v } ->
    charge c cost;
    dset frame d v
  | Decode.DMov { cost; d; a } ->
    charge c cost;
    dset frame d (dreg frame a)
  | Decode.DGaddr { cost; d; v } ->
    charge c cost;
    dset frame d v
  | Decode.DBinop { cost; f; d; a; b } -> (
    (* read [a] before charging, as the tree-walker's cost computation
       does: an uninitialized operand must trap before the charge lands *)
    let va = dreg frame a in
    charge c cost;
    let vb = dreg frame b in
    try dset frame d (f va vb)
    with Pvir.Eval.Division_by_zero -> Vm.trap "division by zero")
  | Decode.DUnop { cost; op; d; a } ->
    charge c cost;
    dset frame d (Pvir.Eval.unop op (dreg frame a))
  | Decode.DConv { cost; f; d; a } ->
    charge c cost;
    dset frame d (f (dreg frame a))
  | Decode.DCmp { cost; f; d; a; b } ->
    charge c cost;
    (* operand reads in the tree-walker's (right-to-left) order, so that
       multi-operand uninitialized reads trap on the same register *)
    let vb = dreg frame b in
    let va = dreg frame a in
    dset frame d (f va vb)
  | Decode.DSelect { cost; d; c = cond; a; b } ->
    charge c cost;
    let vb = dreg frame b in
    let va = dreg frame a in
    let vc = dreg frame cond in
    dset frame d (Pvir.Eval.select vc va vb)
  | Decode.DLoad { cost; ty; size; d; base; off } ->
    charge c cost;
    let addr = daddr frame base + off in
    dset frame d (Memory.load_sized t.img.mem addr size ty)
  | Decode.DStore { cost; src; base; off } ->
    charge c cost;
    let addr = daddr frame base + off in
    Memory.store t.img.mem addr (dreg frame src)
  | Decode.DAlloca { cost; d; bytes } ->
    charge c cost;
    c.sp <- c.sp - bytes;
    if c.sp < c.globals_end then Vm.trap "stack overflow";
    dset frame d (Pvir.Value.i64 (Int64.of_int c.sp))
  | Decode.DCall { cost; d; name; callee; args } -> (
    charge c cost;
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
      | Some fn -> dcall t c (decoded t fn) argv
      | None -> Vm.intrinsic t.out name argv
    in
    match (d, result) with
    | None, _ -> ()
    | Some d, Some r -> dset frame d r
    | Some _, None -> Vm.trap "call to %s produced no value" name)
  | Decode.DSplat { cost; d; a; n } ->
    charge c cost;
    dset frame d (Pvir.Eval.splat n (dreg frame a))
  | Decode.DExtract { cost; d; a; lane } ->
    charge c cost;
    dset frame d (Pvir.Eval.extract (dreg frame a) lane)
  | Decode.DReduce { cost; op; d; a } ->
    charge c cost;
    dset frame d (Pvir.Eval.reduce op (dreg frame a))

(* Armed counterpart of the unsafe-indexed fast loop (the tree-walker's
   [exec_armed], in flat-array form). *)
and dexec_armed t c frame label (insts : Decode.dinstr array) i =
  if i < Array.length insts then begin
    (let ins = Array.unsafe_get insts i in
     try dexec_instr t c frame ins
     with Ckpt_capture frames ->
       let dst = match ins with Decode.DCall { d; _ } -> d | _ -> None in
       frames := !frames @ [ d_ckpt_frame frame label (i + 1) dst ];
       raise (Ckpt_capture frames));
    dexec_armed t c frame label insts (i + 1)
  end

(* ---------------- public entry points ---------------- *)

(** The threaded engine on an entered context. *)
let threaded t c (fn : Pvir.Func.t) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  dcall t c (decoded t fn) args

(** Inversion point for the AOT backend (lib/pvaot): [Pvaot.install]
    replaces this hook with a runner that looks up (or builds) compiled
    code for the image and runs it on the activation's context, falling
    back to {!threaded} on the same context whenever the program, the
    arguments or the host toolchain are outside what the code generator
    supports.  The default is the threaded engine itself, so selecting
    [Aot] without the backend installed degrades silently to identical
    observable behaviour. *)
let aot_hook :
    (t -> Aotabi.ctx -> Pvir.Func.t -> Pvir.Value.t list -> Pvir.Value.t option)
    ref =
  ref threaded

(* One activation: {!enter}, run, and {!leave} on every exit.  A return
   and a checkpoint keep the context's [sp]: a returning activation has
   popped its frames, and a checkpoint keeps them for the snapshot.  Any
   other exception (a trap, fuel exhaustion included) releases the
   stack of the frames it unwound: [sp] goes back to the entry [sp],
   which [t.sp] still holds, and the counters keep the work done. *)
let call_untraced t (fn : Pvir.Func.t) (args : Pvir.Value.t list) :
    Pvir.Value.t option =
  (* an exceptional unwind (trap, checkpoint) skips the per-call shadow
     stack pops; one restore here keeps the sampler's stack honest *)
  let saved_stack = t.sstack in
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
  | exception Ckpt_capture frames ->
    leave t c;
    t.sstack <- saved_stack;
    finish_capture t !frames
  | exception e ->
    c.sp <- t.sp;
    leave t c;
    t.sstack <- saved_stack;
    raise e

(** Call [fn] with [args] under the configured engine.  With a trace sink
    attached, the whole activation becomes a {!Vm.span}. *)
let call t (fn : Pvir.Func.t) (args : Pvir.Value.t list) : Pvir.Value.t option =
  match t.tr with
  | None -> call_untraced t fn args
  | Some _ ->
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
let rec resume_with t (c : Aotabi.ctx) run_frame inject
    (frames : Pvir.Ckpt.frame list) : Pvir.Value.t option =
  match frames with
  | [] -> invalid_arg "Interp.resume: empty frame stack"
  | f :: rest ->
    let result =
      try run_frame f inject
      with Ckpt_capture captured ->
        captured := !captured @ rest;
        raise (Ckpt_capture captured)
    in
    c.sp <- f.Pvir.Ckpt.ck_sp;
    (match t.sstack with
    | _ :: tl when t.sampler <> None -> t.sstack <- tl
    | _ -> ());
    (match rest with
    | [] -> result
    | nf :: _ ->
      resume_with t c run_frame (inject_of nf f.Pvir.Ckpt.ck_fn result) rest)

let tw_run_frame t c (f : Pvir.Ckpt.frame) inject =
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
  exec_block_from t c frame
    (Pvir.Func.find_block fn f.Pvir.Ckpt.ck_block)
    ~ip:f.Pvir.Ckpt.ck_ip

let d_run_frame t c (f : Pvir.Ckpt.frame) inject =
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
  dexec_block_from t c df frame (idx 0) ~ip:f.Pvir.Ckpt.ck_ip

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
  (* the suspended activation's entry sp: its outermost frame's *)
  let entry_sp =
    match List.rev frames with f :: _ -> f.Pvir.Ckpt.ck_sp | [] -> t.sp
  in
  let c = enter t in
  match
    match t.engine with
    | Tree_walk -> resume_with t c (tw_run_frame t c) None frames
    | Threaded | Aot -> resume_with t c (d_run_frame t c) None frames
  with
  | r ->
    leave t c;
    finish_stack ();
    r
  | exception Ckpt_capture frames ->
    leave t c;
    finish_stack ();
    finish_capture t !frames
  | exception e ->
    c.sp <- entry_sp;
    leave t c;
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
