(** Dead-code elimination.

    A pure instruction whose destination is dead (not live out of the
    instruction) is removed.  Uses block-level liveness plus a backward
    scan inside each block, iterated to a fixpoint so chains of dead
    definitions disappear. *)

open Pvir

let once (fn : Func.t) : bool =
  let lv = Cfg.liveness fn in
  let changed = ref false in
  List.iteri
    (fun bi (b : Func.block) ->
      let live = Liveness.copy lv.live_out.(bi) in
      List.iter (Liveness.add live) (Instr.term_uses b.term);
      (* walk backwards *)
      let keep =
        List.fold_left
          (fun acc i ->
            let dead =
              (not (Instr.has_side_effect i))
              &&
              match Instr.def i with
              | Some d -> not (Liveness.mem live d)
              | None -> true
            in
            if dead then (
              changed := true;
              acc)
            else (
              Option.iter (Liveness.remove live) (Instr.def i);
              List.iter (Liveness.add live) (Instr.uses i);
              i :: acc))
          []
          (List.rev b.instrs)
      in
      b.instrs <- keep)
    fn.blocks;
  !changed

let run ?account (fn : Func.t) : bool =
  let changed = ref false in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 8 do
    incr rounds;
    Account.charge_opt account ~pass:"dce" (2 * Func.instr_count fn);
    if once fn then changed := true else continue_ := false
  done;
  !changed
