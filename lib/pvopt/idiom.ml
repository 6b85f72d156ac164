(** Idiom recognition: rewrite compare+select pairs into min/max
    operations.

    The ternary-based `max` kernels of Table 1 lower to
    [c = cmp ugt x, y; d = select c, x, y]; rewriting them to [d = umax x, y]
    (i) produces better scalar code and (ii) turns the reduction into an
    associative operation the vectorizer can handle. *)

open Pvir

let minmax_of (rel : Instr.relop) ~(takes_lhs : bool) : Instr.binop option =
  (* select picks x (the lhs) when the comparison holds *)
  match (rel, takes_lhs) with
  | Instr.Sgt, true | Instr.Sge, true | Instr.Slt, false | Instr.Sle, false ->
    Some Instr.Max
  | Instr.Slt, true | Instr.Sle, true | Instr.Sgt, false | Instr.Sge, false ->
    Some Instr.Min
  | Instr.Ugt, true | Instr.Uge, true | Instr.Ult, false | Instr.Ule, false ->
    Some Instr.Umax
  | Instr.Ult, true | Instr.Ule, true | Instr.Ugt, false | Instr.Uge, false ->
    Some Instr.Umin
  | (Instr.Eq | Instr.Ne), _ -> None

(* [uses] counts the uses of each register in the whole function, to make
   sure the compare result is used only by the select we fuse; a changed
   block is re-tallied, so the next block sees the counts of the function
   as it now stands *)
let run_block (fn : Func.t) (uses : Census.t) (b : Func.block) : bool =
  let changed = ref false in
  (* the compare and its select need not be adjacent (if-conversion puts
     speculated arm code in between): track the last compare defining each
     register, invalidated when any of its registers is redefined *)
  let pending : (Instr.reg, Instr.relop * Instr.reg * Instr.reg) Hashtbl.t =
    Hashtbl.create 4
  in
  let fused_cmps = Hashtbl.create 4 in
  let invalidate d =
    Hashtbl.remove pending d;
    let stale =
      Hashtbl.fold
        (fun c (_, x, y) acc -> if x = d || y = d then c :: acc else acc)
        pending []
    in
    List.iter (Hashtbl.remove pending) stale
  in
  let rewrite i =
    let i' =
      match i with
      | Instr.Select (d, c, a, b') -> (
        match Hashtbl.find_opt pending c with
        | Some (rel, x, y) when Census.count uses c = 1 -> (
          let float_operands = Types.is_float (Func.reg_type fn x) in
          let signed_ok op =
            (* floats only have the ordered predicates; min/max = fmin/fmax *)
            match op with
            | Instr.Umin | Instr.Umax -> not float_operands
            | _ -> true
          in
          let fuse op =
            changed := true;
            Hashtbl.replace fused_cmps c ();
            Instr.Binop (op, d, x, y)
          in
          if a = x && b' = y then
            match minmax_of rel ~takes_lhs:true with
            | Some op when signed_ok op -> fuse op
            | _ -> i
          else if a = y && b' = x then
            match minmax_of rel ~takes_lhs:false with
            | Some op when signed_ok op -> fuse op
            | _ -> i
          else i)
        | _ -> i)
      | _ -> i
    in
    (match Instr.def i' with Some d -> invalidate d | None -> ());
    (match i' with
    | Instr.Cmp (rel, c, x, y) -> Hashtbl.replace pending c (rel, x, y)
    | _ -> ());
    i'
  in
  let before = b.instrs in
  let rewritten = List.map rewrite before in
  (* drop the compares consumed by fusion (their only use is gone) *)
  b.instrs <-
    List.filter
      (fun i ->
        match i with
        | Instr.Cmp (_, c, _, _) -> not (Hashtbl.mem fused_cmps c)
        | _ -> true)
      rewritten;
  if !changed then Census.retally uses ~before ~after:b.instrs;
  !changed

let run ?account (fn : Func.t) : bool =
  Account.charge_opt account ~pass:"idiom" (Func.instr_count fn);
  let uses = Census.uses fn fn.blocks in
  List.fold_left (fun acc b -> run_block fn uses b || acc) false fn.blocks
