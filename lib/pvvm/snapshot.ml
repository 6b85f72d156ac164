(** Checkpoint/restore of running interpreter activations.

    The VM-level face of {!Pvir.Ckpt}: arm a checkpoint request on an
    {!Interp.t}, catch {!Interp.Checkpointed}, and later validate a
    snapshot against a freshly-loaded image and resume it — under any
    engine, on any host.  This is the mechanism behind kernel migration
    (checkpoint on the dying accelerator's host VM, restore on the
    survivor's) and behind [pvrun --checkpoint]/[--restore].

    Trust model: a snapshot arriving over the migration channel is
    untrusted.  {!Pvir.Ckpt.decode} already guarantees structural
    well-formedness; {!validate} re-checks every field against the image
    it is being restored into — program digest, memory geometry, stack
    pointers, frame linkage (each outer frame must be suspended at a call
    to the next inner frame's function), register indices and types — so
    a snapshot that validates cannot make the VM crash or corrupt host
    state.  A forged-but-well-formed snapshot can of course compute a
    wrong *guest* result; the digest check pins it to the exact program,
    which is as far as bytes alone can take trust. *)

(** A snapshot that does not belong to this image/VM configuration. *)
exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate (t : Interp.t) (snap : Pvir.Ckpt.t) : unit =
  let img = t.Interp.img in
  let own = Interp.prog_digest t in
  if not (String.equal snap.Pvir.Ckpt.ck_prog own) then
    invalid "snapshot is of program %s, image holds %s" snap.Pvir.Ckpt.ck_prog
      own;
  let msize = Memory.size img.Image.mem in
  if String.length snap.ck_mem <> msize then
    invalid "snapshot memory is %d bytes, VM memory is %d"
      (String.length snap.ck_mem) msize;
  let sp_ok sp = sp >= img.Image.layout.globals_end && sp <= msize in
  if not (sp_ok snap.ck_gsp) then
    invalid "stack pointer %d outside the stack region [%d, %d]" snap.ck_gsp
      img.Image.layout.globals_end msize;
  if Int64.compare t.Interp.fuel (Int64.add snap.ck_instrs snap.ck_fuel) <> 0
  then
    invalid "fuel budget mismatch: snapshot implies %Ld, VM created with %Ld"
      (Int64.add snap.ck_instrs snap.ck_fuel)
      t.Interp.fuel;
  let rec check_frames i callee = function
    | [] -> ()
    | (f : Pvir.Ckpt.frame) :: rest ->
      let fn =
        match Image.find_func img f.ck_fn with
        | Some fn -> fn
        | None -> invalid "frame %d: no function %s in program" i f.ck_fn
      in
      let blk =
        match
          List.find_opt
            (fun (b : Pvir.Func.block) -> b.label = f.ck_block)
            fn.Pvir.Func.blocks
        with
        | Some b -> b
        | None -> invalid "frame %d: no block L%d in %s" i f.ck_block f.ck_fn
      in
      let nintrs = List.length blk.instrs in
      (match callee with
      | None ->
        (* innermost: captured at a block entry, nothing pending *)
        if f.ck_ip <> 0 then
          invalid "frame %d: innermost frame resumes mid-block at %d" i
            f.ck_ip;
        if f.ck_dst <> None then
          invalid "frame %d: innermost frame has a pending call" i
      | Some callee_name ->
        if f.ck_ip < 1 || f.ck_ip > nintrs then
          invalid "frame %d: resume index %d outside block of %d instructions"
            i f.ck_ip nintrs;
        (* the instruction being waited on must be a call to the next
           inner frame's function, with the recorded destination — this
           is what makes result injection sound *)
        (match List.nth blk.instrs (f.ck_ip - 1) with
        | Pvir.Instr.Call (d, name, _) ->
          if not (String.equal name callee_name) then
            invalid "frame %d: suspended at a call to %s, inner frame is %s" i
              name callee_name;
          if d <> f.ck_dst then
            invalid "frame %d: pending-call destination mismatch" i
        | _ -> invalid "frame %d: instruction %d is not a call" i (f.ck_ip - 1)));
      if not (sp_ok f.ck_sp) then
        invalid "frame %d: saved stack pointer %d outside [%d, %d]" i f.ck_sp
          img.Image.layout.globals_end msize;
      List.iter
        (fun (r, v) ->
          if r < 0 || r >= fn.Pvir.Func.next_reg then
            invalid "frame %d: register r%d outside %s's register file" i r
              f.ck_fn;
          if not (Pvir.Func.declared fn r) then
            invalid "frame %d: register r%d not declared in %s" i r f.ck_fn
          else
            let ty = Pvir.Func.reg_type fn r in
            let vty = Pvir.Value.ty v in
            (* pointer registers hold plain i64 addresses at runtime
               (Gaddr/Alloca produce [Value.i64]) *)
            let compatible =
              Pvir.Types.equal vty ty
              ||
              match ty with
              | Pvir.Types.Ptr _ ->
                Pvir.Types.equal vty (Pvir.Types.Scalar Pvir.Types.I64)
              | _ -> false
            in
            if not compatible then
              invalid "frame %d: register r%d holds a %s, declared %s" i r
                (Pvir.Types.to_string vty) (Pvir.Types.to_string ty))
        f.ck_regs;
      check_frames (i + 1) (Some f.ck_fn) rest
  in
  check_frames 0 None snap.ck_frames

(** Validate [snap] against [t]'s image and install its state: memory,
    stack pointer, counters, fuel position and captured output.  Does not
    execute anything — {!resume} does.
    @raise Invalid if the snapshot does not belong to this VM. *)
let restore (t : Interp.t) (snap : Pvir.Ckpt.t) : unit =
  validate t snap;
  Memory.overwrite t.Interp.img.Image.mem snap.ck_mem;
  t.Interp.sp <- snap.ck_gsp;
  t.Interp.stats.Interp.cycles <- snap.ck_cycles;
  t.Interp.stats.Interp.instrs <- snap.ck_instrs;
  t.Interp.stats.Interp.calls <- snap.ck_calls;
  Buffer.clear t.Interp.out;
  Buffer.add_string t.Interp.out snap.ck_output

(** Restore [snap] into [t] and run the suspended activation to
    completion under [t]'s engine, returning what the original
    activation's entry function returns.  Raises {!Interp.Checkpointed}
    if a newly armed checkpoint trips during the resumed run, and
    {!Vm.Trap} exactly where the unmigrated run would. *)
let resume (t : Interp.t) (snap : Pvir.Ckpt.t) : Pvir.Value.t option =
  restore t snap;
  Interp.resume_frames t snap.ck_frames

(** Create an interpreter that [snap] validates against: same memory
    size the snapshot was taken under, fuel budget reconstructed from
    the snapshot's consumed + remaining fuel. *)
let interp_for ?(engine = Interp.Threaded) ?tr (prog : Pvir.Prog.t)
    (snap : Pvir.Ckpt.t) : Interp.t =
  let img =
    Image.load ~mem_size:(String.length snap.ck_mem) prog
  in
  let fuel = Int64.add snap.ck_instrs snap.ck_fuel in
  Interp.create ~fuel ~engine ?tr img

(** Outcome of an execution that may checkpoint. *)
type outcome =
  | Completed of Pvir.Value.t option
  | Checkpointed of Pvir.Ckpt.t

(** Run [name](args) with a checkpoint armed at instruction count [at].
    Either the run finishes first, or the first safepoint at/after [at]
    yields a snapshot. *)
let run_until (t : Interp.t) name args ~at : outcome =
  Interp.arm_checkpoint t ~at;
  match Interp.run t name args with
  | v ->
    Interp.disarm_checkpoint t;
    Completed v
  | exception Interp.Checkpointed -> (
    match Interp.take_snapshot t with
    | Some s -> Checkpointed s
    | None -> assert false (* Checkpointed always deposits a snapshot *))

(** {!resume} with a fresh checkpoint armed at [at] — the double-
    migration building block. *)
let resume_until (t : Interp.t) (snap : Pvir.Ckpt.t) ~at : outcome =
  Interp.arm_checkpoint t ~at;
  match resume t snap with
  | v ->
    Interp.disarm_checkpoint t;
    Completed v
  | exception Interp.Checkpointed -> (
    match Interp.take_snapshot t with
    | Some s -> Checkpointed s
    | None -> assert false)
