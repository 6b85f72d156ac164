(** Immediate folding: turn constant register operands into immediate
    operands.

    Hoisted constants (loop steps, masks, scales) otherwise occupy a
    register for the whole loop — on a register-poor target that one
    register is the difference between a clean loop and spill traffic.
    Any virtual register defined exactly once, by an [Mli] of a scalar
    value, is folded into the instructions that use it (binops, compares,
    selects, stores, splats); [Mli]s left without uses are deleted.

    Runs after legalization and before register allocation. *)

open Pvmach

let commutative (op : Pvir.Instr.binop) =
  match op with
  | Pvir.Instr.Add | Pvir.Instr.Mul | Pvir.Instr.And | Pvir.Instr.Or
  | Pvir.Instr.Xor | Pvir.Instr.Min | Pvir.Instr.Max | Pvir.Instr.Umin
  | Pvir.Instr.Umax -> true
  | _ -> false

let run ?account (mf : Mir.func) : int =
  Pvir.Account.charge_opt account ~pass:"jit.immfold" (Mir.size mf);
  (* single-def Mli-of-scalar registers; a parameter's incoming value is a
     definition too, so a parameter with one [Mli] redefinition never
     folds *)
  let def_count = Hashtbl.create 32 in
  let const_of = Hashtbl.create 16 in
  let count_def = function
    | Mir.V v ->
      Hashtbl.replace def_count v
        (1 + try Hashtbl.find def_count v with Not_found -> 0)
    | Mir.P _ -> ()
  in
  List.iter count_def mf.Mir.mparams;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) -> Option.iter count_def i.Mir.dst)
        b.Mir.insts)
    mf.Mir.mblocks;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          match (i.Mir.op, i.Mir.dst) with
          | Mir.Mli (Pvir.Value.Vec _), _ -> ()
          | Mir.Mli value, Some (Mir.V v)
            when (try Hashtbl.find def_count v with Not_found -> 0) = 1 ->
            Hashtbl.replace const_of v value
          | _ -> ())
        b.Mir.insts)
    mf.Mir.mblocks;
  let const_reg r =
    match r with Mir.V v -> Hashtbl.find_opt const_of v | Mir.P _ -> None
  in
  let folded = ref 0 in
  let fold (i : Mir.inst) : Mir.inst =
    if i.Mir.imm <> None then i
    else
      match (i.Mir.op, i.Mir.srcs) with
      | Mir.Mbin op, [ a; b ] -> (
        match (const_reg a, const_reg b) with
        | _, Some value ->
          incr folded;
          { i with Mir.srcs = [ a ]; imm = Some value }
        | Some value, None when commutative op ->
          incr folded;
          { i with Mir.srcs = [ b ]; imm = Some value }
        | _ -> i)
      | Mir.Mcmp _, [ a; b ] -> (
        match const_reg b with
        | Some value ->
          incr folded;
          { i with Mir.srcs = [ a ]; imm = Some value }
        | None -> i)
      | Mir.Mstore _, [ src; base ] -> (
        match const_reg src with
        | Some value ->
          incr folded;
          { i with Mir.srcs = [ base ]; imm = Some value }
        | None -> i)
      | Mir.Msplat, [ a ] -> (
        match const_reg a with
        | Some value ->
          incr folded;
          { i with Mir.srcs = []; imm = Some value }
        | None -> i)
      | _ -> i
  in
  List.iter
    (fun (b : Mir.block) -> b.Mir.insts <- List.map fold b.Mir.insts)
    mf.Mir.mblocks;
  (* delete Mli definitions that no longer have any use *)
  let used = Hashtbl.create 32 in
  let mark r = match r with Mir.V v -> Hashtbl.replace used v () | Mir.P _ -> () in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (fun i -> List.iter mark i.Mir.srcs) b.Mir.insts;
      List.iter mark (Mir.term_uses b.Mir.mterm))
    mf.Mir.mblocks;
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.insts <-
        List.filter
          (fun (i : Mir.inst) ->
            match (i.Mir.op, i.Mir.dst) with
            | Mir.Mli _, Some (Mir.V v) when Hashtbl.mem const_of v ->
              Hashtbl.mem used v
            | _ -> true)
          b.Mir.insts)
    mf.Mir.mblocks;
  !folded
