(** If-conversion: turn short, side-effect-free branch diamonds into
    straight-line selects.

    The common source shape

    {v  if (a[i] > m) { m = a[i]; }  v}

    lowers to a two-armed CFG diamond that defeats the vectorizer (its
    loops must be straight-line).  This pass rewrites a diamond

    {v
        A: ... cbr c, B, C          A: ...
        B: pure instrs, br D   ->      <B's instrs, renamed>
        C: pure instrs, br D            <C's instrs, renamed>
        D: ...                          r := select c, rB, rC   (per def)
                                        br D
    v}

    by executing *both* arms speculatively and selecting the results.
    Only legal when both arms are short and every instruction is
    speculation-safe: pure, non-trapping, no loads (a guarded load may
    protect against a fault), no divisions (trap on zero).  After this
    pass, {!Idiom} fuses compare+select into min/max, and loops that
    expressed reductions with [if] become vectorizable. *)

open Pvir

let max_arm_instrs = 8

(* structural value equality through single-definition chains: two
   registers provably hold the same value when their defining expressions
   match (constants, global addresses, pure operator trees).  Used to
   recognize an arm load as a *re*-load of an address already dereferenced
   in the dominating block.  [singles] is [fn]'s {!Census.single_defs}. *)
let same_value (fn : Func.t) singles =
  let rec same a b =
    a = b
    ||
    match (Census.find singles a, Census.find singles b) with
    | Some (Instr.Gaddr (_, g1)), Some (Instr.Gaddr (_, g2)) ->
      String.equal g1 g2
    | Some (Instr.Const (_, v1)), Some (Instr.Const (_, v2)) ->
      Value.equal v1 v2
    | Some (Instr.Mov (_, x)), Some _ -> same x b
    | Some _, Some (Instr.Mov (_, y)) -> same a y
    | Some (Instr.Binop (op1, _, x1, y1)), Some (Instr.Binop (op2, _, x2, y2))
      -> op1 = op2 && same x1 x2 && same y1 y2
    | Some (Instr.Conv (k1, _, x1)), Some (Instr.Conv (k2, _, x2)) ->
      k1 = k2 && same x1 x2
      && Types.equal (Func.reg_type fn a) (Func.reg_type fn b)
    | _ -> false
  in
  same

(* a load in an arm is speculation-safe when the same location was already
   loaded in the dominating block [a] and nothing in [a] writes memory *)
let arm_load_safe fn singles (a : Func.block) =
  let writes =
    List.exists
      (fun i -> match i with Instr.Store _ | Instr.Call _ -> true | _ -> false)
      a.instrs
  in
  fun (ty : Types.t) base off ->
    (not writes)
    && List.exists
         (fun i ->
           match i with
           | Instr.Load (ty', _, base', off') ->
             Types.equal ty ty' && off = off'
             && same_value fn (Lazy.force singles) base base'
           | _ -> false)
         a.instrs

let speculation_safe ~load_safe (i : Instr.t) =
  match i with
  | Instr.Const _ | Instr.Mov _ | Instr.Gaddr _ | Instr.Unop _ | Instr.Conv _
  | Instr.Cmp _ | Instr.Select _ | Instr.Splat _ | Instr.Extract _
  | Instr.Reduce _ -> true
  | Instr.Binop (op, _, _, _) -> (
    match op with
    | Instr.Div | Instr.Udiv | Instr.Rem | Instr.Urem -> false  (* traps *)
    | _ -> true)
  | Instr.Load (ty, _, base, off) ->
    (* only when it provably re-loads an address the dominating block
       already dereferenced *)
    load_safe ty base off
  | Instr.Store _ | Instr.Alloca _ | Instr.Call _ -> false

(* self-referential updates (d = add d, x) cannot be cloned with the
   simple def-renaming below *)
let self_referential (i : Instr.t) =
  match Instr.def i with
  | Some d -> List.mem d (Instr.uses i)
  | None -> false

(* registers used anywhere outside the arm blocks (these are the ones
   whose merged value needs a select; arm-local temps stay dead and are
   cleaned by DCE) *)
let used_outside (fn : Func.t) ~(arms : int list) =
  let uses =
    Census.uses fn
      (List.filter (fun (blk : Func.block) -> not (List.mem blk.label arms)) fn.blocks)
  in
  fun r -> Census.count uses r > 0

(* clone an arm's instructions, renaming every def to a fresh register;
   returns (cloned instrs, def map old->new) *)
let clone_arm (fn : Func.t) (instrs : Instr.t list) =
  let map = Hashtbl.create 8 in
  let cloned =
    List.map
      (fun i ->
        let d = Instr.def i in
        let i' =
          Instr.map_regs
            (fun r ->
              if Some r = d then r  (* defs handled below *)
              else match Hashtbl.find_opt map r with Some r' -> r' | None -> r)
            i
        in
        match d with
        | Some d ->
          let d' = Func.fresh_reg fn (Func.reg_type fn d) in
          Hashtbl.replace map d d';
          Instr.map_regs (fun r -> if r = d then d' else r) i'
        | None -> i')
      instrs
  in
  (cloned, map)

(* try to convert the diamond rooted at block [a]; true if converted.  [fn]
   changes only then, so [singles], its {!Census.single_defs}, holds until
   a conversion *)
let convert_at (fn : Func.t) (cfg : Cfg.t) singles (a : Func.block) : bool =
  match a.term with
  | Instr.Cbr (c, bl, cl) when bl <> cl -> (
    let b = Func.find_block fn bl and cb = Func.find_block fn cl in
    let speculation_safe =
      speculation_safe ~load_safe:(arm_load_safe fn singles a)
    in
    let single_pred (blk : Func.block) =
      match Cfg.preds cfg blk.label with [ p ] -> p = a.label | _ -> false
    in
    match (b.term, cb.term) with
    | Instr.Br d1, Instr.Br d2
      when d1 = d2 && d1 <> a.label && d1 <> bl && d1 <> cl
           && single_pred b && single_pred cb
           && List.length b.instrs <= max_arm_instrs
           && List.length cb.instrs <= max_arm_instrs
           && List.for_all speculation_safe b.instrs
           && List.for_all speculation_safe cb.instrs
           && (not (List.exists self_referential b.instrs))
           && not (List.exists self_referential cb.instrs) ->
      let live = used_outside fn ~arms:[ bl; cl ] in
      let cloned_b, map_b = clone_arm fn b.instrs in
      let cloned_c, map_c = clone_arm fn cb.instrs in
      (* registers defined by either arm get a select *)
      let defs = Hashtbl.create 8 in
      let note map = Hashtbl.iter (fun d _ -> Hashtbl.replace defs d ()) map in
      note map_b;
      note map_c;
      let selects =
        Hashtbl.fold
          (fun d () acc ->
            if not (live d) then acc
            else
              let vb = match Hashtbl.find_opt map_b d with Some r -> r | None -> d in
              let vc = match Hashtbl.find_opt map_c d with Some r -> r | None -> d in
              Instr.Select (d, c, vb, vc) :: acc)
          defs []
        (* deterministic order for reproducible bytecode *)
        |> List.sort compare
      in
      a.instrs <- a.instrs @ cloned_b @ cloned_c @ selects;
      a.term <- Instr.Br d1;
      fn.blocks <-
        List.filter (fun (x : Func.block) -> x.label <> bl && x.label <> cl) fn.blocks;
      true
    | Instr.Br d1, _
      when d1 = cl && single_pred b
           && List.length b.instrs <= max_arm_instrs
           && List.for_all speculation_safe b.instrs
           && not (List.exists self_referential b.instrs) ->
      (* half diamond: cbr c, B, D with B -> D (an if without else) *)
      let live = used_outside fn ~arms:[ bl ] in
      let cloned_b, map_b = clone_arm fn b.instrs in
      let selects =
        Hashtbl.fold
          (fun d d' acc ->
            if live d then Instr.Select (d, c, d', d) :: acc else acc)
          map_b []
        |> List.sort compare
      in
      a.instrs <- a.instrs @ cloned_b @ selects;
      a.term <- Instr.Br d1;
      fn.blocks <- List.filter (fun (x : Func.block) -> x.label <> bl) fn.blocks;
      true
    | _, Instr.Br d2
      when d2 = bl && single_pred cb
           && List.length cb.instrs <= max_arm_instrs
           && List.for_all speculation_safe cb.instrs
           && not (List.exists self_referential cb.instrs) ->
      (* mirrored half diamond: cbr c, D, C with C -> D *)
      let live = used_outside fn ~arms:[ cl ] in
      let cloned_c, map_c = clone_arm fn cb.instrs in
      let selects =
        Hashtbl.fold
          (fun d d' acc ->
            if live d then Instr.Select (d, c, d, d') :: acc else acc)
          map_c []
        |> List.sort compare
      in
      a.instrs <- a.instrs @ cloned_c @ selects;
      a.term <- Instr.Br d2;
      fn.blocks <- List.filter (fun (x : Func.block) -> x.label <> cl) fn.blocks;
      true
    | _ -> false)
  | _ -> false

let run ?account (fn : Func.t) : bool =
  Account.charge_opt account ~pass:"ifconv" (2 * Func.instr_count fn);
  let changed = ref false in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 8 do
    incr rounds;
    let cfg = Cfg.build fn in
    let singles = lazy (Census.single_defs fn) in
    let did = List.exists (fun b -> convert_at fn cfg singles b) fn.blocks in
    if did then changed := true else continue_ := false
  done;
  !changed
