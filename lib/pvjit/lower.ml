(** Online lowering: PVIR bytecode to MIR for a concrete target.

    This is the mechanical part of the JIT — a single linear scan over the
    bytecode.  PVIR virtual registers map one-to-one onto MIR virtual
    registers (same numbering), which is what makes offline annotations
    keyed by register number directly consumable online.  Global addresses
    become immediates (they are load-time constants) and allocas become
    frame offsets. *)

open Pvmach

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(** [run ?account ~machine ~resolve_global fn] lowers one function. *)
let run ?account ~(machine : Machine.t) ~(resolve_global : string -> int)
    (fn : Pvir.Func.t) : Mir.func =
  Pvir.Account.charge_opt account ~pass:"jit.lower" (Pvir.Func.instr_count fn);
  let vreg_ty = Hashtbl.create 32 in
  Pvir.Func.fold_regs (fun r ty () -> Hashtbl.replace vreg_ty r ty) fn ();
  let frame_cursor = ref 0 in
  (* calling convention: the first [arg_regs] parameters arrive in
     registers, the rest in frame slots *)
  let n_reg_args = Machine.arg_regs machine in
  let reg_params, stack_params =
    List.mapi (fun i r -> (i, r)) fn.params
    |> List.partition (fun (i, _) -> i < n_reg_args)
  in
  let marg_slots =
    List.map
      (fun (_, r) ->
        let ty = Pvir.Func.reg_type fn r in
        let slot = !frame_cursor in
        frame_cursor := !frame_cursor + ((Pvir.Types.size ty + 7) land lnot 7);
        (r, slot, ty))
      stack_params
  in
  let mf =
    {
      Mir.mname = fn.name;
      mparams = List.map (fun (_, r) -> Mir.V r) reg_params;
      marg_slots = List.map (fun (_, slot, ty) -> (slot, ty)) marg_slots;
      mret = fn.ret;
      mblocks = [];
      frame_size = 0;
      vreg_ty;
      next_vreg = fn.next_reg;
      target = machine;
      mblock_index = None;
    }
  in
  let alloca_offsets = Hashtbl.create 4 in
  (* pre-assign alloca slots so the frame size is known per function *)
  Pvir.Func.iter_instrs
    (fun _ i ->
      match i with
      | Pvir.Instr.Alloca (d, bytes) ->
        if not (Hashtbl.mem alloca_offsets d) then begin
          Hashtbl.replace alloca_offsets d !frame_cursor;
          frame_cursor := !frame_cursor + ((bytes + 7) land lnot 7)
        end
      | _ -> ())
    fn;
  mf.frame_size <- !frame_cursor;
  let v r = Mir.V r in
  let lower_instr (i : Pvir.Instr.t) : Mir.inst list =
    match i with
    | Pvir.Instr.Const (d, value) ->
      [ Mir.inst ~dst:(v d) (Mir.Mli value) (Pvir.Value.ty value) ]
    | Pvir.Instr.Mov (d, a) ->
      [ Mir.inst ~dst:(v d) ~srcs:[ v a ] Mir.Mmov (Pvir.Func.reg_type fn d) ]
    | Pvir.Instr.Gaddr (d, g) ->
      let addr = resolve_global g in
      [
        Mir.inst ~dst:(v d)
          (Mir.Mli (Pvir.Value.i64 (Int64.of_int addr)))
          Pvir.Types.i64;
      ]
    | Pvir.Instr.Binop (op, d, a, b) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a; v b ] (Mir.Mbin op)
          (Pvir.Func.reg_type fn d);
      ]
    | Pvir.Instr.Unop (op, d, a) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a ] (Mir.Mun op)
          (Pvir.Func.reg_type fn d);
      ]
    | Pvir.Instr.Conv (kind, d, a) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a ] (Mir.Mconv kind)
          (Pvir.Func.reg_type fn d);
      ]
    | Pvir.Instr.Cmp (op, d, a, b) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a; v b ] (Mir.Mcmp op)
          (Pvir.Func.reg_type fn a);
      ]
    | Pvir.Instr.Select (d, c, a, b) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v c; v a; v b ] Mir.Msel
          (Pvir.Func.reg_type fn d);
      ]
    | Pvir.Instr.Load (ty, d, base, off) ->
      [ Mir.inst ~dst:(v d) ~srcs:[ v base ] (Mir.Mload off) ty ]
    | Pvir.Instr.Store (ty, src, base, off) ->
      [ Mir.inst ~srcs:[ v src; v base ] (Mir.Mstore off) ty ]
    | Pvir.Instr.Alloca (d, _) ->
      let off =
        match Hashtbl.find_opt alloca_offsets d with
        | Some o -> o
        | None -> fail "alloca slot vanished"
      in
      [ Mir.inst ~dst:(v d) (Mir.Mframe_addr off) Pvir.Types.i64 ]
    | Pvir.Instr.Call (d, name, args) ->
      let ty =
        match d with
        | Some d -> Pvir.Func.reg_type fn d
        | None -> Pvir.Types.i32
      in
      [
        Mir.inst ?dst:(Option.map v d) ~srcs:(List.map v args)
          (Mir.Mcall name) ty;
      ]
    | Pvir.Instr.Splat (d, a) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a ] Mir.Msplat
          (Pvir.Func.reg_type fn d);
      ]
    | Pvir.Instr.Extract (d, a, lane) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a ] (Mir.Mextract lane)
          (Pvir.Func.reg_type fn a);
      ]
    | Pvir.Instr.Reduce (op, d, a) ->
      [
        Mir.inst ~dst:(v d) ~srcs:[ v a ] (Mir.Mreduce op)
          (Pvir.Func.reg_type fn a);
      ]
  in
  let lower_term (t : Pvir.Instr.term) : Mir.term =
    match t with
    | Pvir.Instr.Br l -> Mir.Tbr l
    | Pvir.Instr.Cbr (c, l1, l2) -> Mir.Tcbr (v c, l1, l2)
    | Pvir.Instr.Ret r -> Mir.Tret (Option.map v r)
  in
  let blocks =
    List.map
      (fun (b : Pvir.Func.block) ->
        {
          Mir.mlabel = b.label;
          insts = List.concat_map lower_instr b.instrs;
          mterm = lower_term b.term;
        })
      fn.blocks
  in
  (* The arg-slot loads below and the allocator's stores of spilled
     parameters go at the top of [Mir.entry], so that block must run once
     per call.  When some block branches to the entry block, a fresh empty
     block that jumps to it becomes the entry.  Its label is one past the
     largest label, not [fn.next_label]: decoded bytecode supplies that
     counter, and the verifier does not check it against the labels. *)
  mf.Mir.mblocks <-
    (match blocks with
    | entry :: _
      when List.exists
             (fun (b : Mir.block) ->
               List.mem entry.Mir.mlabel (Mir.term_successors b.Mir.mterm))
             blocks ->
      let last =
        List.fold_left
          (fun acc (b : Mir.block) -> max acc b.Mir.mlabel)
          entry.Mir.mlabel blocks
      in
      { Mir.mlabel = last + 1; insts = []; mterm = Mir.Tbr entry.Mir.mlabel }
      :: blocks
    | _ -> blocks);
  (* stack-passed parameters: load them from their arg slots on entry *)
  (match mf.Mir.mblocks with
  | entry :: _ ->
    let loads =
      List.map
        (fun (r, slot, ty) -> Mir.inst ~dst:(v r) (Mir.Mframe_ld slot) ty)
        marg_slots
    in
    entry.Mir.insts <- loads @ entry.Mir.insts
  | [] -> ());
  mf
