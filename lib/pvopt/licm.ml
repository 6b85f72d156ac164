(** Loop-invariant code motion.

    Pure instructions whose operands are loop-invariant move to a
    preheader block inserted on the non-backedge entries of the loop.
    Because PVIR registers are mutable, an instruction is only hoisted if
    its destination has a single definition inside the loop and is not
    live into the loop header from outside (the hoisted def must not
    clobber a value the first iteration still needs). *)

open Pvir

(** Hoist [lp]'s invariants into a fresh preheader; its label, if one was
    created. *)
let hoist_loop (fn : Func.t) (lp : Loops.loop) : int option =
  let cfg = Cfg.build fn in
  (* build/locate the preheader: a fresh block taking every entry edge *)
  let outside_preds =
    List.filter (fun p -> not (Loops.in_loop lp p)) (Cfg.preds cfg lp.header)
  in
  if outside_preds = [] then None
  else begin
    let defs = Loops.defs_in fn lp in
    let live_into_header =
      let pos =
        List.find_index (fun (b : Func.block) -> b.label = lp.header) fn.blocks
      in
      (Cfg.liveness fn).live_in.(Option.get pos)
    in
    let hoistable = ref [] in
    let invariant = Hashtbl.create 16 in
    let is_invariant_reg r =
      Loops.invariant_reg defs r || Hashtbl.mem invariant r
    in
    (* single forward scan over loop blocks in rpo; catches chains in order *)
    let loop_blocks_rpo = List.filter (fun l -> Loops.in_loop lp l) cfg.rpo in
    List.iter
      (fun l ->
        let b = Func.find_block fn l in
        List.iter
          (fun i ->
            match Instr.def i with
            | Some d
              when (not (Instr.has_side_effect i))
                   && (not (Instr.reads_memory i))
                   && List.for_all is_invariant_reg (Instr.uses i)
                   && Census.count defs d = 1
                   && not (Liveness.mem live_into_header d) ->
              Hashtbl.replace invariant d ();
              hoistable := i :: !hoistable
            | _ -> ())
          b.instrs)
      loop_blocks_rpo;
    let hoistable = List.rev !hoistable in
    if hoistable = [] then None
    else begin
      (* create the preheader and retarget outside edges *)
      let pre = Func.add_block fn in
      pre.instrs <- hoistable;
      pre.term <- Instr.Br lp.header;
      List.iter
        (fun p ->
          let pb = Func.find_block fn p in
          pb.term <-
            Instr.map_term_labels
              (fun l -> if l = lp.header then pre.label else l)
              pb.term)
        outside_preds;
      (* remove hoisted instructions from the loop *)
      List.iter
        (fun l ->
          let b = Func.find_block fn l in
          b.instrs <-
            List.filter (fun i -> not (List.memq i hoistable)) b.instrs)
        lp.blocks;
      Some pre.label
    end
  end

let run ?account (fn : Func.t) : bool =
  Account.charge_opt account ~pass:"licm" (3 * Func.instr_count fn);
  let cfg = Cfg.build fn in
  let loops = Loops.find cfg in
  (* innermost first so invariants can bubble outward over repeated runs *)
  let sorted =
    List.sort
      (fun (a : Loops.loop) b -> compare b.depth a.depth)
      loops.Loops.loops
  in
  (* A preheader made for an inner loop lies inside every loop enclosing
     it.  Those loops must see its definitions, or they would take the
     values hoisted into it for invariants and hoist their uses above
     them. *)
  let rec go changed = function
    | [] -> changed
    | (lp : Loops.loop) :: rest -> (
      match hoist_loop fn lp with
      | None -> go changed rest
      | Some pre ->
        go true
          (List.map
             (fun (outer : Loops.loop) ->
               if Loops.in_loop outer lp.header then
                 { outer with blocks = pre :: outer.blocks }
               else outer)
             rest))
  in
  go false sorted
