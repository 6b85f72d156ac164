(** One-time pre-decoding of PVIR functions for the interpreter.

    A [Pvir.Func.t] is a CFG of instruction *lists* with label-addressed
    branches: executing it directly pays a [find_block] scan per branch, a
    [Hashtbl] type lookup per [Conv]/[Splat], and a cost computation per
    instruction.  [func] compiles it once into a flat array form in which
    block labels are array indices, per-instruction dispatch cost is a
    precomputed constant, and conversion/splat destination types are
    resolved — the direct-threaded dispatch loop in {!Interp} then runs
    over arrays only.

    Decoding is total on verified programs: {!Image.load} runs
    [Pvir.Verify] first, so every register is declared and lies in
    [\[0, next_reg)], every global and callee exists, and every splat
    destination is a vector.  Anything else raises [Invalid_argument] at
    decode time; nothing is deferred to execution.  The register-range
    check is what lets the executor use unchecked array access on the
    register file. *)

type dinstr =
  | DConst of { cost : int; d : int; v : Pvir.Value.t }
  | DMov of { cost : int; d : int; a : int }
  | DGaddr of { cost : int; d : int; v : Pvir.Value.t }
      (** the resolved address as a ready-made value (addresses are
          immutable i64s, so sharing one is unobservable) *)
  | DBinop of {
      cost : int;  (** dispatch + lanes of the (static) operand type *)
      f : Pvir.Value.t -> Pvir.Value.t -> Pvir.Value.t;
          (** {!Fastop.binop}-specialized; may raise
              [Pvir.Eval.Division_by_zero] *)
      d : int;
      a : int;
      b : int;
    }
  | DUnop of { cost : int; op : Pvir.Instr.unop; d : int; a : int }
  | DConv of {
      cost : int;
      f : Pvir.Value.t -> Pvir.Value.t;  (** {!Fastop.conv}-specialized *)
      d : int;
      a : int;
    }
  | DCmp of {
      cost : int;
      f : Pvir.Value.t -> Pvir.Value.t -> Pvir.Value.t;
          (** {!Fastop.cmp}-specialized *)
      d : int;
      a : int;
      b : int;
    }
  | DSelect of { cost : int; d : int; c : int; a : int; b : int }
  | DLoad of {
      cost : int;
      ty : Pvir.Types.t;
      size : int;  (** [Types.size ty], precomputed *)
      d : int;
      base : int;
      off : int;
    }
  | DStore of { cost : int; src : int; base : int; off : int }
  | DAlloca of { cost : int; d : int; bytes : int }
  | DCall of {
      cost : int;
      d : int option;
      name : string;
      callee : Pvir.Func.t option;  (** [None] = intrinsic (or unknown) *)
      args : int array;
    }
  | DSplat of { cost : int; d : int; a : int; n : int }
  | DExtract of { cost : int; d : int; a : int; lane : int }
  | DReduce of { cost : int; op : Pvir.Instr.redop; d : int; a : int }

type dterm =
  | DBr of int  (** block array index *)
  | DCbr of int * int * int  (** condition register, then-index, else-index *)
  | DRet of int option

type dblock = {
  dlabel : int;  (** original label, for the profiler hook *)
  dinstrs : dinstr array;
  dterm : dterm;
}

type dfunc = {
  dname : string;
  dnparams : int;
  dparams : int list;
  dnext_reg : int;
  dblocks : dblock array;
  dsrc : Pvir.Func.t;  (** identity key: re-decode when replaced *)
}

(** Cycles the interpreter charges to decode and dispatch one instruction
    or one block's terminator, on top of the operation's own work.  Every
    engine charges it: this decoder folds it into each decoded cost, the
    tree-walker and the AOT generator add it themselves. *)
let dispatch_cost = 8

let decode_instr ~img ~(fn : Pvir.Func.t) (i : Pvir.Instr.t) : dinstr =
  let reg_ty = Pvir.Func.reg_type fn in
  let base = dispatch_cost + 1 in
  match i with
  | Pvir.Instr.Const (d, v) -> DConst { cost = base; d; v }
  | Pvir.Instr.Mov (d, a) -> DMov { cost = base; d; a }
  | Pvir.Instr.Gaddr (d, g) ->
    let addr = Image.global_address img g in
    DGaddr { cost = base; d; v = Pvir.Value.i64 (Int64.of_int addr) }
  | Pvir.Instr.Binop (op, d, a, b) ->
    let ty = reg_ty a in
    DBinop
      {
        cost = dispatch_cost + Pvir.Types.lanes ty;
        f = Fastop.binop op ty;
        d;
        a;
        b;
      }
  | Pvir.Instr.Unop (op, d, a) -> DUnop { cost = base; op; d; a }
  | Pvir.Instr.Conv (kind, d, a) ->
    DConv { cost = base; f = Fastop.conv kind (reg_ty d); d; a }
  | Pvir.Instr.Cmp (op, d, a, b) ->
    DCmp { cost = base; f = Fastop.cmp op (reg_ty a); d; a; b }
  | Pvir.Instr.Select (d, c, a, b) -> DSelect { cost = base; d; c; a; b }
  | Pvir.Instr.Load (ty, d, base_r, off) ->
    DLoad
      {
        cost = dispatch_cost + Pvir.Types.lanes ty;
        ty;
        size = Pvir.Types.size ty;
        d;
        base = base_r;
        off;
      }
  | Pvir.Instr.Store (ty, src, base_r, off) ->
    DStore { cost = dispatch_cost + Pvir.Types.lanes ty; src; base = base_r; off }
  | Pvir.Instr.Alloca (d, bytes) -> DAlloca { cost = base; d; bytes }
  | Pvir.Instr.Call (d, name, args) ->
    DCall
      {
        cost = base;
        d;
        name;
        callee = Image.find_func img name;
        args = Array.of_list args;
      }
  | Pvir.Instr.Splat (d, a) -> (
    match reg_ty d with
    | Pvir.Types.Vector (_, n) -> DSplat { cost = base; d; a; n }
    | _ ->
      invalid_arg
        (Printf.sprintf "Decode: splat destination r%d is not a vector in %s" d
           fn.Pvir.Func.name))
  | Pvir.Instr.Extract (d, a, lane) -> DExtract { cost = base; d; a; lane }
  | Pvir.Instr.Reduce (op, d, a) -> DReduce { cost = base; op; d; a }

(** [func ~img fn] pre-decodes [fn] for execution against [img].  Raises
    [Invalid_argument] on anything the verifier rejects: a register
    outside [\[0, next_reg)] or without a type, an unknown global, a
    terminator targeting a missing block. *)
let func ~(img : Image.t) (fn : Pvir.Func.t) : dfunc =
  let blocks = Array.of_list fn.Pvir.Func.blocks in
  let idx_of = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Pvir.Func.block) ->
      if not (Hashtbl.mem idx_of b.Pvir.Func.label) then
        Hashtbl.add idx_of b.Pvir.Func.label i)
    blocks;
  let target l =
    match Hashtbl.find_opt idx_of l with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Func.find_block: no block %d in %s" l fn.Pvir.Func.name)
  in
  (* every register the executor touches — parameters, instruction
     operands, terminator operands — indexes the register file unchecked *)
  let check r =
    if r < 0 || r >= fn.Pvir.Func.next_reg then
      invalid_arg
        (Printf.sprintf "Decode: register r%d outside [0, %d) in %s" r
           fn.Pvir.Func.next_reg fn.Pvir.Func.name)
  in
  List.iter check fn.Pvir.Func.params;
  let decode_block (b : Pvir.Func.block) =
    let decode i =
      Option.iter check (Pvir.Instr.def i);
      List.iter check (Pvir.Instr.uses i);
      decode_instr ~img ~fn i
    in
    List.iter check (Pvir.Instr.term_uses b.Pvir.Func.term);
    {
      dlabel = b.Pvir.Func.label;
      dinstrs = Array.of_list (List.map decode b.Pvir.Func.instrs);
      dterm =
        (match b.Pvir.Func.term with
        | Pvir.Instr.Br l -> DBr (target l)
        | Pvir.Instr.Cbr (c, l1, l2) -> DCbr (c, target l1, target l2)
        | Pvir.Instr.Ret r -> DRet r);
    }
  in
  {
    dname = fn.Pvir.Func.name;
    dnparams = List.length fn.Pvir.Func.params;
    dparams = fn.Pvir.Func.params;
    dnext_reg = fn.Pvir.Func.next_reg;
    dblocks = Array.map decode_block blocks;
    dsrc = fn;
  }
