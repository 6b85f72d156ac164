(** Offline half of split register allocation (Diouf et al. [18], §4 of the
    paper).

    The offline compiler can afford a global analysis the JIT cannot: it
    computes, for every virtual register, a *dynamic spill cost* — the
    number of extra memory operations the program would execute if that
    register lived in memory, weighted by loop nesting depth (10^depth, the
    classic Chaitin weight).  Registers sorted by increasing cost form the
    {!Pvir.Annot.key_spill_order} annotation: under pressure, the online
    linear-scan allocator simply spills the earliest entries — a
    linear-time decision with near-offline quality, instead of the blind
    interval-length heuristic it must otherwise fall back on.

    The annotation is compact (a few bytes per register, measured in
    experiment E5) and purely advisory: a JIT that ignores it still
    produces correct code. *)

open Pvir

(** Per-register offline spill costs: [(reg, cost)].

    The cost of spilling a register is the dynamic memory traffic it
    creates — loop-depth-weighted definitions + uses (a spilled def is a
    store, a spilled use a reload) — divided by the *extent* of its live
    range, because evicting a register frees its slot only for that
    extent.  A loop-carried pointer (long range, few ops) is a far better
    victim than a chain temporary (two ops but a two-instruction range,
    evicting it relieves nothing).  This ratio is exactly what a
    linear-scan allocator wants and exactly what it cannot afford to
    compute online. *)
let spill_costs (fn : Func.t) : (Instr.reg * float) list =
  let cfg = Cfg.build fn in
  let loops = Loops.find cfg in
  let costs = Hashtbl.create 32 in
  let first_pos = Hashtbl.create 32 in
  let last_pos = Hashtbl.create 32 in
  let bump r w =
    Hashtbl.replace costs r (w +. try Hashtbl.find costs r with Not_found -> 0.)
  in
  let touch r pos =
    if not (Hashtbl.mem first_pos r) then Hashtbl.replace first_pos r pos;
    Hashtbl.replace last_pos r pos
  in
  List.iter (fun r -> touch r 0) fn.params;
  let pos = ref 0 in
  List.iter
    (fun (b : Func.block) ->
      let depth = Loops.depth_of_block loops b.label in
      let w = 10. ** float_of_int depth in
      List.iter
        (fun i ->
          incr pos;
          Option.iter
            (fun d ->
              bump d w;
              touch d !pos)
            (Instr.def i);
          List.iter
            (fun u ->
              bump u w;
              touch u !pos)
            (Instr.uses i))
        b.instrs;
      incr pos;
      List.iter
        (fun u ->
          bump u w;
          touch u !pos)
        (Instr.term_uses b.term))
    fn.blocks;
  Hashtbl.fold
    (fun r c acc ->
      let span =
        float_of_int
          (1 + Hashtbl.find last_pos r - Hashtbl.find first_pos r)
      in
      (r, c /. span) :: acc)
    costs []

(** Maximum register pressure (simultaneously live registers) across the
    function, per block boundary — a cheap offline estimate the JIT can use
    to skip allocation effort entirely when pressure is low. *)
let max_pressure (fn : Func.t) : int =
  let lv = Cfg.liveness fn in
  let peak = ref 0 in
  (* a block's estimate is its live-out set plus every register it
     touches; the set only grows, so its final size is the block's peak *)
  List.iteri
    (fun bi (b : Func.block) ->
      let live = Liveness.copy lv.live_out.(bi) in
      List.iter
        (fun i ->
          Option.iter (Liveness.add live) (Instr.def i);
          List.iter (Liveness.add live) (Instr.uses i))
        b.instrs;
      peak := max !peak (Liveness.cardinal live))
    fn.blocks;
  !peak

(** Annotate [fn] with its spill order and pressure estimate. *)
let run_func ?account (fn : Func.t) : unit =
  (* global analysis: liveness + loop forest + a sort — the expensive,
     offline-only part *)
  let n = Func.instr_count fn in
  Account.charge_opt account ~pass:"regalloc.offline_analysis" (6 * n);
  let costs = spill_costs fn in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) costs in
  (* exclude parameters? no — spilling a parameter is fine; exclude nothing *)
  let order =
    (* costs are ratios; fixed-point x100 keeps the annotation integral *)
    List.map
      (fun (r, c) ->
        Annot.List
          [ Annot.Int r; Annot.Int (int_of_float (Float.min (100. *. c) 1e9)) ])
      sorted
  in
  Func.add_annot fn Annot.key_spill_order (Annot.List order);
  Func.add_annot fn Annot.key_pressure (Annot.Int (max_pressure fn))

let run ?account (p : Prog.t) : unit =
  List.iter (fun fn -> run_func ?account fn) p.funcs

(** Decode the spill-order annotation: registers cheapest-to-spill first.
    Used by the online allocator ([Pvjit.Regalloc]) in split mode. *)
let decode_spill_order (fn : Func.t) : (Instr.reg * int) list option =
  match Annot.find_list Annot.key_spill_order fn.annots with
  | None -> None
  | Some entries ->
    let decode = function
      | Annot.List [ Annot.Int r; Annot.Int c ] -> Some (r, c)
      | _ -> None
    in
    let decoded = List.filter_map decode entries in
    if List.length decoded = List.length entries then Some decoded else None
