(** Register census: how many times each register is defined and used,
    over a whole function or a list of its blocks — the one counter behind
    copy coalescing, idiom fusion, if-conversion, LICM, strength reduction,
    induction-variable detection and the vectorizer.

    Counts are [int array]s over dense registers.  Precondition, as for
    {!Liveness}: every register the counted blocks mention lies in
    [\[0, next_reg)] (the verifier's range rule).  A table is sized by
    [next_reg] when it is taken; passes create registers after that, and
    {!count} reads any register past the table as 0. *)

open Pvir

type t = int array

let count (t : t) r = if r < Array.length t then t.(r) else 0
let bump (t : t) r = t.(r) <- t.(r) + 1

let tally (fn : Func.t) blocks per_block =
  let t = Array.make fn.next_reg 0 in
  List.iter (per_block t) blocks;
  t

(** Definitions in [blocks]. *)
let defs fn blocks =
  tally fn blocks (fun t (b : Func.block) ->
      List.iter (fun i -> Option.iter (bump t) (Instr.def i)) b.instrs)

let add_uses t instrs = List.iter (fun i -> List.iter (bump t) (Instr.uses i)) instrs

(** Uses in [blocks], terminators included. *)
let uses fn blocks =
  tally fn blocks (fun t (b : Func.block) ->
      add_uses t b.instrs;
      List.iter (bump t) (Instr.term_uses b.term))

(** [retally t ~before ~after]: a block's instructions [before] were
    replaced by [after]; move the use counts [t] over with them. *)
let retally (t : t) ~before ~after =
  List.iter
    (fun i -> List.iter (fun r -> t.(r) <- t.(r) - 1) (Instr.uses i))
    before;
  add_uses t after

(** [find tbl r]: register [r]'s entry in a {!single_defs} or {!consts}
    table, [None] past its end. *)
let find tbl r = if r < Array.length tbl then tbl.(r) else None

(** For each register defined exactly once in [fn], that instruction. *)
let single_defs (fn : Func.t) : Instr.t option array =
  let n = defs fn fn.blocks in
  let tbl = Array.make (Array.length n) None in
  Func.iter_instrs
    (fun _ i ->
      match Instr.def i with
      | Some d when n.(d) = 1 -> tbl.(d) <- Some i
      | _ -> ())
    fn;
  tbl

(** The registers that hold a known integer constant, from a function's
    {!single_defs}: those whose one definition is an integer [Const]
    (LICM may have hoisted it out of the loop that reads it). *)
let consts singles : int64 option array =
  Array.map
    (function Some (Instr.Const (_, Value.Int (_, v))) -> Some v | _ -> None)
    singles
