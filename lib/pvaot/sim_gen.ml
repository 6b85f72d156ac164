(** MIR → OCaml code generation for the AOT simulator engine.

    One OCaml function per code-cache entry, basic blocks as a
    tail-recursive nest of local functions, registers and spill slots as
    [let]-bound [Pvir.Value.t ref]s sharing the engines' uninitialized
    sentinel ({!Pvvm.Vm.uninit}, recognized by physical identity).  Values
    stay boxed and all arithmetic delegates to {!Pvir.Eval} — the same
    code both simulator engines run — so results are bit-identical by
    construction.

    Unlike the interpreter backend, accounting is charged *immediately*
    per executed instruction (the {!Pvmach.Cost} numbers are baked into
    the generated source as constants), so cycles, instructions and
    spill traffic match the tree-walk and threaded engines on every
    outcome — fuel exhaustion included.  The differential oracle
    therefore compares simulator-AOT accounting unconditionally.

    Calls are resolved statically against a snapshot of the simulator's
    code cache: a callee in the snapshot becomes a direct call to its
    generated function, anything else goes to the shared intrinsic
    dispatcher {!Pvvm.Vm.intrinsic} — exactly the dynamic
    [Hashtbl.find_opt] split of the engines, valid because the runner
    re-validates the snapshot (by physical identity) before reusing
    compiled code.

    Like the interpreter backend, generated code polls no safepoints —
    checkpoint and sampling thresholds are block-entry concerns of the
    interpreting engines, and activations that need them run threaded
    via the runner's fallback (see [pvaot.ml]).

    Anything the generator cannot prove it can compile exactly —
    malformed instruction shapes, statically out-of-range physical
    registers, branches to unknown labels — raises {!Unsupported}; the
    caller falls back to the threaded engine, which owns the runtime
    trap messages for those cases. *)

open Pvmach
module Value = Pvir.Value

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Literal rendering is shared with the interpreter backend; its
   [Unsupported] (empty vector constants) is also ours to raise. *)
let value_lit (v : Value.t) =
  try Interp_gen.value_lit v
  with Interp_gen.Unsupported m -> unsupported "%s" m

let ty_lit = Interp_gen.ty_lit

(* ------------------------------------------------------------------ *)
(* Registers and slots                                                 *)

let reg_name (r : Mir.reg) =
  match r with
  | Mir.V v -> Printf.sprintf "rv_%d" v
  | Mir.P (Mir.Gpr, i) -> Printf.sprintf "rg_%d" i
  | Mir.P (Mir.Fpr, i) -> Printf.sprintf "rf_%d" i
  | Mir.P (Mir.Vec, i) -> Printf.sprintf "rx_%d" i

let slot_name slot = Printf.sprintf "sl_%d" slot

(* The engines size physical files as [max 1 count] and range-check
   indices against the array length; an index the check would reject is
   compiled by falling back (the threaded engine owns the trap). *)
let check_reg (m : Machine.t) (r : Mir.reg) =
  match r with
  | Mir.V _ -> ()
  | Mir.P (cls, i) ->
    let count =
      match cls with
      | Mir.Gpr -> max 1 m.Machine.int_regs
      | Mir.Fpr -> max 1 m.Machine.fp_regs
      | Mir.Vec -> max 1 m.Machine.vec_regs
    in
    if i < 0 || i >= count then
      unsupported "physical register index %d out of range" i

(* Read of register [r] as an expression: the uninitialized sentinel
   raises the engines' exact trap message. *)
let reg_read (r : Mir.reg) =
  let msg =
    match r with
    | Mir.V v -> Printf.sprintf "read of uninitialized virtual register v%d" v
    | Mir.P _ ->
      Printf.sprintf "read of uninitialized register %s" (Mir.reg_to_string r)
  in
  Printf.sprintf
    "(let x_ = !%s in if x_ == uninit_ then raise (VM.Trap %S) else x_)"
    (reg_name r) msg

(* ------------------------------------------------------------------ *)
(* Per-function generation state                                       *)

type st = {
  buf : Buffer.t;
  fn : Mir.func;
  machine : Machine.t;
  fnindex : (string, int) Hashtbl.t;  (** snapshot name → index *)
  mutable ind : string;
}

let line st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.buf st.ind;
      Buffer.add_string st.buf s;
      Buffer.add_char st.buf '\n')
    fmt

(* Operand [k] of [i]: a register read or the folded immediate (always
   the last operand). *)
let operand st (i : Mir.inst) k =
  let n = List.length i.Mir.srcs in
  if k < n then begin
    let r = List.nth i.Mir.srcs k in
    check_reg st.machine r;
    reg_read r
  end
  else
    match i.Mir.imm with
    | Some v when k = n -> value_lit v
    | _ -> unsupported "instruction lacks operand %d" k

let dst st (i : Mir.inst) =
  match i.Mir.dst with
  | Some d ->
    check_reg st.machine d;
    d
  | None -> unsupported "instruction lacks a destination"

let set st d expr = line st "%s := %s;" (reg_name d) expr

(* ------------------------------------------------------------------ *)
(* Instruction emission                                                *)

(* Multi-operand reads happen right-to-left (function-application order
   of the tree-walker, explicit in the threaded engine), so that
   uninitialized-read traps pick the same register. *)
let emit_inst st (i : Mir.inst) =
  line st "chg_ ctx %d;" (Cost.of_inst st.machine i);
  (match i.Mir.op with
  | Mir.Mframe_ld _ | Mir.Mframe_st _ ->
    line st "ctx.A.spills <- ctx.A.spills + 1;"
  | _ -> ());
  match i.Mir.op with
  | Mir.Mli v -> set st (dst st i) (value_lit v)
  | Mir.Mmov -> set st (dst st i) (operand st i 0)
  | Mir.Mbin op ->
    let d = dst st i in
    line st "let o1_ = %s in" (operand st i 1);
    line st "let o0_ = %s in" (operand st i 0);
    line st
      "(try %s := Ev.binop %s o0_ o1_ with Ev.Division_by_zero -> raise \
       (VM.Trap \"division by zero\"));"
      (reg_name d)
      (Interp_gen.binop_ctor op)
  | Mir.Mun op ->
    set st (dst st i)
      (Printf.sprintf "Ev.unop %s %s" (Interp_gen.unop_ctor op)
         (operand st i 0))
  | Mir.Mconv kind ->
    set st (dst st i)
      (Printf.sprintf "Ev.conv %s %s %s" (Interp_gen.conv_ctor kind)
         (ty_lit i.Mir.ty) (operand st i 0))
  | Mir.Mcmp op ->
    let d = dst st i in
    line st "let o1_ = %s in" (operand st i 1);
    line st "let o0_ = %s in" (operand st i 0);
    set st d
      (Printf.sprintf "Ev.cmp %s o0_ o1_" (Interp_gen.relop_ctor op))
  | Mir.Msel ->
    let d = dst st i in
    line st "let o2_ = %s in" (operand st i 2);
    line st "let o1_ = %s in" (operand st i 1);
    line st "let o0_ = %s in" (operand st i 0);
    set st d "Ev.select o0_ o1_ o2_"
  | Mir.Mload off ->
    let d = dst st i in
    line st "let a_ = Int64.to_int (V.to_int64 %s) + %d in" (operand st i 0)
      off;
    set st d (Printf.sprintf "M.load mem_ a_ %s" (ty_lit i.Mir.ty))
  | Mir.Mstore off ->
    (* (value, base) with the base read first, like both engines *)
    let value, base =
      match (i.Mir.srcs, i.Mir.imm) with
      | [ s; b ], None ->
        check_reg st.machine s;
        check_reg st.machine b;
        (reg_read s, b)
      | [ b ], Some v ->
        check_reg st.machine b;
        (value_lit v, b)
      | _ -> unsupported "store expects (value, base)"
    in
    line st "let b_ = %s in" (reg_read base);
    line st "let v_ = %s in" value;
    line st "M.store mem_ (Int64.to_int (V.to_int64 b_) + %d) v_;" off
  | Mir.Mframe_addr off ->
    set st (dst st i) (Printf.sprintf "V.i64 (Int64.of_int (fp_ + %d))" off)
  | Mir.Mframe_ld slot ->
    let d = dst st i in
    line st "let x_ = !%s in" (slot_name slot);
    line st "if x_ == uninit_ then raise (VM.Trap %S);"
      (Printf.sprintf "reload of empty spill slot %d in %s" slot
         st.fn.Mir.mname);
    set st d "x_"
  | Mir.Mframe_st slot ->
    line st "%s := %s;" (slot_name slot) (operand st i 0)
  | Mir.Msplat -> (
    match i.Mir.ty with
    | Pvir.Types.Vector (_, n) ->
      set st (dst st i) (Printf.sprintf "Ev.splat %d %s" n (operand st i 0))
    | _ -> unsupported "splat at non-vector type")
  | Mir.Mextract lane ->
    set st (dst st i)
      (Printf.sprintf "Ev.extract %s %d" (operand st i 0) lane)
  | Mir.Mreduce op ->
    set st (dst st i)
      (Printf.sprintf "Ev.reduce %s %s" (Interp_gen.redop_ctor op)
         (operand st i 0))
  | Mir.Mcall name -> (
    List.iter (check_reg st.machine) i.Mir.srcs;
    (* arguments left-to-right, like the engines' [List.map] *)
    List.iteri
      (fun k r -> line st "let a%d_ = %s in" k (reg_read r))
      i.Mir.srcs;
    let argv =
      String.concat "; " (List.mapi (fun k _ -> Printf.sprintf "a%d_" k) i.Mir.srcs)
    in
    let call_expr =
      match Hashtbl.find_opt st.fnindex name with
      | Some k -> Printf.sprintf "f_%d ctx [ %s ]" k argv
      | None -> Printf.sprintf "VM.intrinsic ctx.A.out %S [ %s ]" name argv
    in
    match i.Mir.dst with
    | None -> line st "ignore (%s : V.t option);" call_expr
    | Some d ->
      check_reg st.machine d;
      line st
        "(match %s with Some x_ -> %s := x_ | None -> raise (VM.Trap %S));"
        call_expr (reg_name d)
        (Printf.sprintf "call to %s produced no value" name))

(* ------------------------------------------------------------------ *)
(* Function emission                                                   *)

let emit_function buf machine fnindex ~first idx (fn : Mir.func) =
  let st = { buf; fn; machine; fnindex; ind = "" } in
  let blocks = Array.of_list fn.Mir.mblocks in
  (* label → index of its first block, like [Mir.block_table] *)
  let label_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Mir.block) ->
      if not (Hashtbl.mem label_tbl b.Mir.mlabel) then
        Hashtbl.add label_tbl b.Mir.mlabel i)
    blocks;
  let target l =
    match Hashtbl.find_opt label_tbl l with
    | Some j -> j
    | None -> unsupported "branch to unknown block %d" l
  in
  (* every register and spill slot appearing anywhere in the function *)
  let regs = Hashtbl.create 32 and slots = Hashtbl.create 8 in
  let note_reg r =
    check_reg machine r;
    Hashtbl.replace regs (reg_name r) r
  in
  let note_slot s = Hashtbl.replace slots s () in
  List.iter note_reg fn.Mir.mparams;
  List.iter (fun (s, _) -> note_slot s) fn.Mir.marg_slots;
  Array.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          Option.iter note_reg i.Mir.dst;
          List.iter note_reg i.Mir.srcs;
          match i.Mir.op with
          | Mir.Mframe_ld s | Mir.Mframe_st s -> note_slot s
          | _ -> ())
        b.Mir.insts;
      List.iter note_reg (Mir.term_uses b.Mir.mterm))
    blocks;
  let kw = if first then "let rec" else "and" in
  line st "%s f_%d (ctx : A.ctx) (args_ : V.t list) : V.t option =" kw idx;
  st.ind <- "  ";
  line st "chg_ ctx %d;" machine.Machine.call_cost;
  let n_reg = List.length fn.Mir.mparams in
  let n_args = n_reg + List.length fn.Mir.marg_slots in
  let pat =
    if n_args = 0 then "[]"
    else
      "[ "
      ^ String.concat "; " (List.init n_args (Printf.sprintf "p%d_"))
      ^ " ]"
  in
  line st "match args_ with";
  line st "| %s ->" pat;
  st.ind <- "    ";
  line st "let saved_sp_ = ctx.A.sp in";
  line st "ctx.A.sp <- ctx.A.sp - %d;" fn.Mir.frame_size;
  line st "if ctx.A.sp < ctx.A.globals_end then raise (VM.Trap %S);"
    (Printf.sprintf "stack overflow in %s" fn.Mir.mname);
  if Array.length blocks = 0 then
    (* [Mir.entry]'s exact no-blocks error, an [Invalid_argument] rather
       than a trap, raised after the sp adjustment like both engines *)
    line st "invalid_arg %S"
      (Printf.sprintf "Mir.entry: %s has no blocks" fn.Mir.mname)
  else begin
    line st "let fp_ = ctx.A.sp in";
    line st "let mem_ = ctx.A.mem in";
    line st "ignore fp_; ignore mem_;";
    (* leading args in registers, the rest in argument frame slots *)
    let params = Array.of_list fn.Mir.mparams in
    Array.iteri
      (fun k r -> line st "let %s = ref p%d_ in" (reg_name r) k)
      params;
    List.iteri
      (fun k (slot, _) ->
        line st "let %s = ref p%d_ in" (slot_name slot) (n_reg + k))
      fn.Mir.marg_slots;
    let bound = Hashtbl.create 16 in
    Array.iter (fun r -> Hashtbl.replace bound (reg_name r) ()) params;
    Hashtbl.iter
      (fun name _ ->
        if not (Hashtbl.mem bound name) then
          line st "let %s = ref uninit_ in" name)
      regs;
    let arg_slots =
      List.fold_left (fun acc (s, _) -> s :: acc) [] fn.Mir.marg_slots
    in
    Hashtbl.iter
      (fun s () ->
        if not (List.mem s arg_slots) then
          line st "let %s = ref uninit_ in" (slot_name s))
      slots;
    Array.iteri
      (fun bi (b : Mir.block) ->
        let kw = if bi = 0 then "let rec" else "and" in
        line st "%s b_%d () : V.t option =" kw bi;
        st.ind <- "      ";
        List.iter (emit_inst st) b.Mir.insts;
        line st "chg_ ctx %d;" (Cost.of_term machine b.Mir.mterm);
        (match b.Mir.mterm with
        | Mir.Tbr l -> line st "b_%d ()" (target l)
        | Mir.Tcbr (c, l1, l2) ->
          check_reg machine c;
          line st "if V.to_bool %s then b_%d () else b_%d ()" (reg_read c)
            (target l1) (target l2)
        | Mir.Tret None -> line st "None"
        | Mir.Tret (Some r) ->
          check_reg machine r;
          line st "Some %s" (reg_read r));
        st.ind <- "    ")
      blocks;
    line st "in";
    (* normal return restores sp; a trap leaves it, like the engines *)
    line st "let r_ = b_0 () in";
    line st "ctx.A.sp <- saved_sp_;";
    line st "r_"
  end;
  st.ind <- "  ";
  line st "| _ -> raise (VM.Trap %S)"
    (Printf.sprintf "arity mismatch calling %s" fn.Mir.mname)

(* ------------------------------------------------------------------ *)
(* Program emission                                                    *)

let header =
  String.concat "\n"
    [
      "(* Generated by pvaot (simulator backend); do not edit. *)";
      (* Mangled-unit aliases for the same reason as the interpreter
         backend: a [Pvvm.Aotabi] alias would import the pure-alias
         [Pvvm] wrapper implementation, which hosts drop at link time. *)
      "module V = Pvir__Value";
      "module Ty = Pvir__Types";
      "module Ev = Pvir__Eval";
      "module A = Pvvm__Aotabi";
      "module M = Pvvm__Memory";
      "module VM = Pvvm__Vm";
      "";
      "let uninit_ = VM.uninit";
      "";
      "let chg_ (ctx : A.ctx) n =";
      "  ctx.A.cycles <- ctx.A.cycles + n;";
      "  ctx.A.instrs <- ctx.A.instrs + 1;";
      "  if ctx.A.instrs > ctx.A.fuel then raise ctx.A.fuel_exn";
      "";
    ]

(* Everything the baked costs and calling convention depend on (the
   machine name alone would not survive a descriptor edit).  Shared with
   the service cache key, so both sides agree on what "same machine"
   means. *)
let machine_dump = Machine.descriptor_dump

(* [Mir.func_to_string] covers blocks, types, offsets and immediates but
   not the calling convention; append it. *)
let func_dump (fn : Mir.func) =
  Printf.sprintf "%sparams=%s slots=%s\n" (Mir.func_to_string fn)
    (String.concat "," (List.map Mir.reg_to_string fn.Mir.mparams))
    (String.concat ","
       (List.map
          (fun (s, ty) -> Printf.sprintf "%d:%s" s (Pvir.Types.to_string ty))
          fn.Mir.marg_slots))

(** Generate plugin source for a code-cache snapshot (sorted by name for
    a deterministic digest).  Returns [(digest, src_digest, source)]
    where [src_digest] identifies the generated body (the loader's
    staleness check); raises {!Unsupported} (or a [Cost] error) when
    exact compilation is not possible — callers treat every exception as
    "fall back". *)
let generate (machine : Machine.t)
    (snapshot : (string * Mir.func) list) : string * string * string =
  let snapshot =
    List.sort (fun (a, _) (b, _) -> String.compare a b) snapshot
  in
  let digest =
    Build.digest_of_dump
      (Printf.sprintf "sim\x00%s\x00%s" (machine_dump machine)
         (String.concat "\x00"
            (List.map (fun (_, fn) -> func_dump fn) snapshot)))
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf header;
  let fnindex = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace fnindex name i) snapshot;
  List.iteri
    (fun i (_, fn) -> emit_function buf machine fnindex ~first:(i = 0) i fn)
    snapshot;
  (* staleness guard: digest of the body so far, re-derived by the
     loader from the current generator and checked against what the
     plugin registers (see [Pvvm.Aotabi.register_src]) *)
  let src_digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.add_string buf "\nlet () =\n";
  Buffer.add_string buf
    (Printf.sprintf "  A.register_src %S ~src:%S\n" digest src_digest);
  let entries =
    List.mapi
      (fun i (name, _) -> Printf.sprintf "(%S, f_%d)" name i)
      snapshot
  in
  Buffer.add_string buf ("    [ " ^ String.concat "; " entries ^ " ]\n");
  (digest, src_digest, Buffer.contents buf)
