(** One-time pre-decoding of MIR functions for the cycle simulator.

    Executing [Mir.func] directly pays, per executed instruction, a
    [Cost.of_inst] computation, [List.nth]/[List.length] operand access
    and [Hashtbl] lookups for virtual registers and spill slots, plus a
    [find_block] scan per branch.  [func] compiles a function once into a
    flat array form: per-instruction cost is a precomputed constant,
    operands are resolved to direct register/immediate slots, spill slots
    are renumbered into a dense array index space, and branch targets are
    block array indices.

    Pre-decoding is semantics-preserving down to trap messages and trap
    *order* on every instruction shape the JIT emits.  A malformed shape —
    a missing destination or operand, a store that is not (value, base), a
    splat at a non-vector type — raises [Invalid_argument] at decode time;
    nothing replays the tree-walking engine at run time. *)

open Pvmach

(** A resolved operand: a register read or a folded immediate. *)
type dopnd = R of Mir.reg | I of Pvir.Value.t

type dinst =
  | SLi of { cost : int; d : Mir.reg; v : Pvir.Value.t }
  | SMov of { cost : int; d : Mir.reg; a : dopnd }
  | SBin of {
      cost : int;
      f : Pvir.Value.t -> Pvir.Value.t -> Pvir.Value.t;
          (** {!Fastop.binop}-specialized on the instruction's operating
              type; may raise [Pvir.Eval.Division_by_zero] *)
      d : Mir.reg;
      a : dopnd;
      b : dopnd;
    }
  | SUn of { cost : int; op : Pvir.Instr.unop; d : Mir.reg; a : dopnd }
  | SConv of {
      cost : int;
      f : Pvir.Value.t -> Pvir.Value.t;  (** {!Fastop.conv}-specialized *)
      d : Mir.reg;
      a : dopnd;
    }
  | SCmp of {
      cost : int;
      f : Pvir.Value.t -> Pvir.Value.t -> Pvir.Value.t;
          (** {!Fastop.cmp}-specialized *)
      d : Mir.reg;
      a : dopnd;
      b : dopnd;
    }
  | SSel of { cost : int; d : Mir.reg; c : dopnd; a : dopnd; b : dopnd }
  | SLoad of {
      cost : int;
      ty : Pvir.Types.t;
      size : int;  (** [Types.size ty], precomputed *)
      d : Mir.reg;
      base : dopnd;
      off : int;
    }
  | SStore of { cost : int; value : dopnd; base : Mir.reg; off : int }
  | SFrameAddr of { cost : int; d : Mir.reg; off : int }
  | SFrameLd of { cost : int; d : Mir.reg; idx : int; slot : int }
      (** [idx] = dense slot index; [slot] = original id (trap message) *)
  | SFrameSt of { cost : int; idx : int; src : dopnd }
  | SSplat of { cost : int; d : Mir.reg; a : dopnd; n : int }
  | SExtract of { cost : int; d : Mir.reg; a : dopnd; lane : int }
  | SReduce of { cost : int; op : Pvir.Instr.redop; d : Mir.reg; a : dopnd }
  | SCall of { cost : int; d : Mir.reg option; name : string; srcs : Mir.reg array }

type dterm =
  | SBr of int
  | SCbr of Mir.reg * int * int
  | SRet of Mir.reg option

type dblock = { dinsts : dinst array; dtcost : int; dterm : dterm }

type dfunc = {
  sname : string;
  snreg : int;  (** number of register-passed parameters *)
  sparams : Mir.reg list;
  sarg_idx : int array;  (** dense slot indices of the stack-passed args *)
  snvirt : int;  (** size of the virtual register array *)
  snslots : int;  (** size of the dense spill-slot array *)
  sframe_size : int;
  sblocks : dblock array;
  ssrc : Mir.func;  (** identity key: re-decode when replaced *)
}

(* Dense renumbering of spill-slot ids (frame byte offsets in practice),
   so the executed frame keeps slots in a plain array. *)
let collect_slots (fn : Mir.func) =
  let slot_idx = Hashtbl.create 16 in
  let touch s =
    if not (Hashtbl.mem slot_idx s) then
      Hashtbl.add slot_idx s (Hashtbl.length slot_idx)
  in
  List.iter (fun (s, _) -> touch s) fn.Mir.marg_slots;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          match i.Mir.op with
          | Mir.Mframe_ld s | Mir.Mframe_st s -> touch s
          | _ -> ())
        b.Mir.insts)
    fn.Mir.mblocks;
  slot_idx

let max_vreg (fn : Mir.func) =
  let m = ref fn.Mir.next_vreg in
  let touch = function Mir.V v -> if v >= !m then m := v + 1 | Mir.P _ -> () in
  List.iter touch fn.Mir.mparams;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          Option.iter touch i.Mir.dst;
          List.iter touch i.Mir.srcs)
        b.Mir.insts;
      List.iter touch (Mir.term_uses b.Mir.mterm))
    fn.Mir.mblocks;
  !m

let decode_inst ~(machine : Machine.t) ~slot_idx ~fname (i : Mir.inst) : dinst =
  let cost = Cost.of_inst machine i in
  let malformed what =
    invalid_arg
      (Printf.sprintf "Mdecode: instruction %s %s in %s" (Mir.inst_to_string i)
         what fname)
  in
  let d () =
    match i.Mir.dst with Some d -> d | None -> malformed "lacks a destination"
  in
  (* the immediate, when present, is always the last operand *)
  let n_regs = List.length i.Mir.srcs in
  let operand k =
    if k < n_regs then R (List.nth i.Mir.srcs k)
    else
      match i.Mir.imm with
      | Some v when k = n_regs -> I v
      | _ -> malformed (Printf.sprintf "lacks operand %d" k)
  in
  let a () = operand 0 and b () = operand 1 in
  match i.Mir.op with
  | Mir.Mli v -> SLi { cost; d = d (); v }
  | Mir.Mmov -> SMov { cost; d = d (); a = a () }
  | Mir.Mbin op ->
    SBin { cost; f = Fastop.binop op i.Mir.ty; d = d (); a = a (); b = b () }
  | Mir.Mun op -> SUn { cost; op; d = d (); a = a () }
  | Mir.Mconv kind ->
    SConv { cost; f = Fastop.conv kind i.Mir.ty; d = d (); a = a () }
  | Mir.Mcmp op ->
    SCmp { cost; f = Fastop.cmp op i.Mir.ty; d = d (); a = a (); b = b () }
  | Mir.Msel ->
    SSel { cost; d = d (); c = operand 0; a = operand 1; b = operand 2 }
  | Mir.Mload off ->
    SLoad
      {
        cost;
        ty = i.Mir.ty;
        size = Pvir.Types.size i.Mir.ty;
        d = d ();
        base = a ();
        off;
      }
  | Mir.Mstore off -> (
    match (i.Mir.srcs, i.Mir.imm) with
    | [ s; b ], None -> SStore { cost; value = R s; base = b; off }
    | [ b ], Some v -> SStore { cost; value = I v; base = b; off }
    | _ -> malformed "is not a (value, base) store")
  | Mir.Mframe_addr off -> SFrameAddr { cost; d = d (); off }
  | Mir.Mframe_ld slot ->
    SFrameLd { cost; d = d (); idx = Hashtbl.find slot_idx slot; slot }
  | Mir.Mframe_st slot ->
    SFrameSt { cost; idx = Hashtbl.find slot_idx slot; src = a () }
  | Mir.Msplat -> (
    match i.Mir.ty with
    | Pvir.Types.Vector (_, n) -> SSplat { cost; d = d (); a = a (); n }
    | _ -> malformed "splats at a non-vector type")
  | Mir.Mextract lane -> SExtract { cost; d = d (); a = a (); lane }
  | Mir.Mreduce op -> SReduce { cost; op; d = d (); a = a () }
  | Mir.Mcall name ->
    SCall { cost; d = i.Mir.dst; name; srcs = Array.of_list i.Mir.srcs }

(** [func ~machine fn] pre-decodes [fn] for simulation on [machine].
    Raises [Invalid_argument] on a malformed instruction shape or a branch
    to a missing block. *)
let func ~(machine : Machine.t) (fn : Mir.func) : dfunc =
  let slot_idx = collect_slots fn in
  let blocks = Array.of_list fn.Mir.mblocks in
  let idx_of = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Mir.block) ->
      if not (Hashtbl.mem idx_of b.Mir.mlabel) then
        Hashtbl.add idx_of b.Mir.mlabel i)
    blocks;
  let target l =
    match Hashtbl.find_opt idx_of l with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Mir.find_block: no block %d in %s" l fn.Mir.mname)
  in
  let decode_block (b : Mir.block) =
    {
      dinsts =
        Array.of_list
          (List.map
             (decode_inst ~machine ~slot_idx ~fname:fn.Mir.mname)
             b.Mir.insts);
      dtcost = Cost.of_term machine b.Mir.mterm;
      dterm =
        (match b.Mir.mterm with
        | Mir.Tbr l -> SBr (target l)
        | Mir.Tcbr (c, l1, l2) -> SCbr (c, target l1, target l2)
        | Mir.Tret r -> SRet r);
    }
  in
  {
    sname = fn.Mir.mname;
    snreg = List.length fn.Mir.mparams;
    sparams = fn.Mir.mparams;
    sarg_idx =
      Array.of_list
        (List.map (fun (s, _) -> Hashtbl.find slot_idx s) fn.Mir.marg_slots);
    snvirt = max_vreg fn;
    snslots = Hashtbl.length slot_idx;
    sframe_size = fn.Mir.frame_size;
    sblocks = Array.map decode_block blocks;
    ssrc = fn;
  }
