(** Strength reduction on derived induction variables.

    The frontend addresses [a\[i\]] as [base + i * esz], leaving a multiply
    and an add in every loop iteration.  For a unit-step induction
    variable [i], each such address is itself an induction variable:

    {v
    loop:  m = mul i, c            preheader: t = mul i, c
           addr = add base, m  ->             addr = add base, t
           ...                      loop:     ...
           i = add i, step                    i = add i, step
                                              addr = add addr, c*step
    v}

    The [c = 1] case ([addr = add base, i], byte-indexed arrays) is
    handled the same way.  The dead multiply is left for DCE.  Runs
    *after* vectorization (the vectorizer wants the affine form) and
    benefits scalar and vector loops alike — keeping the Table-1 scalar
    baseline honest. *)

open Pvir

(* the increment must be the last instruction of the unique latch so the
   derived-IV updates can be appended after it *)
let latch_increment (fn : Func.t) (lp : Loops.loop) ivs =
  match lp.latches with
  | [ latch ] -> (
    let b = Func.find_block fn latch in
    match List.rev b.instrs with
    | Instr.Binop (Instr.Add, d, _, _) :: _ ->
      List.find_opt (fun (iv, _, _) -> iv = d) ivs
      |> Option.map (fun (iv, step, _) -> (latch, iv, step))
    | _ -> None)
  | _ -> None

let run_loop (fn : Func.t) (cfg : Cfg.t) (lp : Loops.loop) : bool =
  let defs = Loops.defs_in fn lp in
  let consts = Census.consts (Census.single_defs fn) in
  let ivs = Loops.induction_variables fn lp in
  match latch_increment fn lp ivs with
  | None -> false
  | Some (latch, iv, step) ->
    let outside_preds =
      List.filter (fun p -> not (Loops.in_loop lp p)) (Cfg.preds cfg lp.header)
    in
    if outside_preds = [] then false
    else begin
      (* registers used outside the loop must not become derived IVs *)
      let used_outside =
        Census.uses fn
          (List.filter
             (fun (b : Func.block) -> not (Loops.in_loop lp b.label))
             fn.blocks)
      in
      (* muls of the IV by a constant, defined inside the loop *)
      let scaled = Hashtbl.create 4 in
      List.iter
        (fun l ->
          List.iter
            (fun i ->
              match i with
              | Instr.Binop (Instr.Mul, m, a, b) when a = iv || b = iv -> (
                let other = if a = iv then b else a in
                match Census.find consts other with
                | Some c -> Hashtbl.replace scaled m c
                | None -> ())
              | _ -> ())
            (Func.find_block fn l).instrs)
        lp.blocks;
      (* scale of an operand feeding an address add: the IV itself has
         scale 1, a scaled multiply has its constant *)
      let scale_of r =
        if r = iv then Some 1L else Hashtbl.find_opt scaled r
      in
      let pre = ref [] in
      let post_incr = ref [] in
      let changed = ref false in
      List.iter
        (fun l ->
          let b = Func.find_block fn l in
          b.instrs <-
            List.filter
              (fun i ->
                match i with
                (* only registers with a single definition in the loop *)
                | Instr.Binop (Instr.Add, addr, x, y)
                  when addr <> iv
                       && Census.count used_outside addr = 0
                       && Census.count defs addr = 1 -> (
                  let classify inv idx =
                    if
                      Loops.invariant_reg defs inv
                      && (not (Types.is_float (Func.reg_type fn addr)))
                    then Option.map (fun s -> (inv, s)) (scale_of idx)
                    else None
                  in
                  let hit =
                    match (classify x y, classify y x) with
                    | Some h, _ -> Some h
                    | None, (Some _ as h) -> h
                    | None, None -> None
                  in
                  match hit with
                  | Some (base, scale) ->
                    changed := true;
                    (* preheader: addr = base + iv*scale *)
                    (if Int64.equal scale 1L then
                       pre := !pre @ [ Instr.Binop (Instr.Add, addr, base, iv) ]
                     else begin
                       let sc = Func.fresh_reg fn Types.i64 in
                       let t = Func.fresh_reg fn Types.i64 in
                       pre :=
                         !pre
                         @ [
                             Instr.Const (sc, Value.i64 scale);
                             Instr.Binop (Instr.Mul, t, iv, sc);
                             Instr.Binop (Instr.Add, addr, base, t);
                           ]
                     end);
                    (* latch: addr += scale*step *)
                    let inc = Func.fresh_reg fn Types.i64 in
                    post_incr :=
                      !post_incr
                      @ [
                          Instr.Const (inc, Value.i64 (Int64.mul scale step));
                          Instr.Binop (Instr.Add, addr, addr, inc);
                        ];
                    false  (* drop the in-loop add *)
                  | None -> true)
                | _ -> true)
              b.instrs)
        lp.blocks;
      if not !changed then false
      else begin
        (* install the preheader *)
        let preb = Func.add_block fn in
        preb.instrs <- !pre;
        preb.term <- Instr.Br lp.header;
        List.iter
          (fun p ->
            let pb = Func.find_block fn p in
            pb.term <-
              Instr.map_term_labels
                (fun l -> if l = lp.header then preb.label else l)
                pb.term)
          outside_preds;
        (* derived-IV updates after the increment *)
        let lb = Func.find_block fn latch in
        lb.instrs <- lb.instrs @ !post_incr;
        true
      end
    end

let run ?account (fn : Func.t) : bool =
  Account.charge_opt account ~pass:"strength" (2 * Func.instr_count fn);
  let cfg = Cfg.build fn in
  let loops = Loops.find cfg in
  List.fold_left
    (fun acc lp -> run_loop fn cfg lp || acc)
    false loops.Loops.loops
