(** Natural-loop detection and loop-level facts (nesting depth, induction
    variables, trip counts).  Feeds LICM, the vectorizer and the offline
    register-allocation annotator. *)

open Pvir

type loop = {
  header : int;
  blocks : int list;  (** labels of all blocks in the loop, header included *)
  latches : int list;  (** sources of back edges *)
  depth : int;  (** nesting depth, outermost = 1 *)
}

type t = { loops : loop list; depth_of : (int, int) Hashtbl.t }

(** Back edge: edge [l -> h] where [h] dominates [l]. *)
let find (cfg : Cfg.t) : t =
  let dom = Cfg.dominators cfg in
  let back_edges =
    List.concat_map
      (fun (b : Func.block) ->
        List.filter_map
          (fun s ->
            if Cfg.reachable cfg b.label && Cfg.dominates dom s b.label then
              Some (b.label, s)
            else None)
          (Cfg.succs cfg b.label))
      cfg.fn.blocks
  in
  (* natural loop of a back edge (l, h): h plus all blocks reaching l
     without passing through h *)
  let loop_of_edges h latches =
    let body = Hashtbl.create 8 in
    Hashtbl.replace body h ();
    let rec pull l =
      if not (Hashtbl.mem body l) then (
        Hashtbl.replace body l ();
        List.iter pull (Cfg.preds cfg l))
    in
    List.iter pull latches;
    Hashtbl.fold (fun l () acc -> l :: acc) body []
  in
  (* group back edges by header *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (l, h) ->
      let old = try Hashtbl.find by_header h with Not_found -> [] in
      Hashtbl.replace by_header h (l :: old))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun h latches acc ->
        { header = h; blocks = loop_of_edges h latches; latches; depth = 1 }
        :: acc)
      by_header []
  in
  (* nesting depth: number of loops whose body contains the block *)
  let depth_of = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      let d =
        List.length (List.filter (fun lp -> List.mem b.label lp.blocks) loops)
      in
      Hashtbl.replace depth_of b.label d)
    cfg.fn.blocks;
  let loops =
    List.map
      (fun lp -> { lp with depth = (try Hashtbl.find depth_of lp.header with Not_found -> 1) })
      loops
  in
  { loops; depth_of }

let depth_of_block (t : t) l =
  match Hashtbl.find_opt t.depth_of l with Some d -> d | None -> 0

let in_loop lp l = List.mem l lp.blocks

(** How many times each register is defined inside the loop. *)
let defs_in (fn : Func.t) (lp : loop) =
  Census.defs fn (List.map (Func.find_block fn) lp.blocks)

(** Is register [r] invariant in [lp] (never defined inside), by
    [lp]'s {!defs_in}? *)
let invariant_reg defs r = Census.count defs r = 0

(** Induction variable: a register [i] with exactly one definition inside
    the loop, of the shape [i = add i, c] with [c] a constant; returns
    [(i, step, increment_block)] candidates. *)
let induction_variables (fn : Func.t) (lp : loop) :
    (Instr.reg * int64 * int) list =
  let consts = Census.consts (Census.single_defs fn) in
  let const_of r = Census.find consts r in
  let candidates = ref [] in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          match i with
          | Instr.Binop (Instr.Add, d, a, b') when d = a -> (
            match const_of b' with
            | Some step -> candidates := (d, step, l) :: !candidates
            | None -> ())
          | Instr.Binop (Instr.Add, d, a, b') when d = b' -> (
            match const_of a with
            | Some step -> candidates := (d, step, l) :: !candidates
            | None -> ())
          | _ -> ())
        (Func.find_block fn l).instrs)
    lp.blocks;
  (* exactly one def inside the loop: the increment itself (the Const
     feeding the step counts separately) *)
  let defs = defs_in fn lp in
  List.filter (fun (r, _, _) -> Census.count defs r = 1) !candidates
