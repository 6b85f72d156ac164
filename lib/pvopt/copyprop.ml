(** Copy propagation and copy coalescing.

    The frontend's lowering of mutable MiniC locals produces many
    [t = op ...; mov x, t] pairs and [mov]-forwarded reads.  Two local
    rewrites clean this up:

    + forward propagation: after [mov d, s], uses of [d] read [s] instead,
      until either register is redefined (within a block);
    + backward coalescing: [t = op ...] immediately followed by [mov x, t]
      where [t] has no other use in the function rewrites the op to define
      [x] directly. *)

open Pvir

let forward_block (b : Func.block) : bool =
  let changed = ref false in
  (* current copy map: dst -> src *)
  let map = Hashtbl.create 8 in
  let resolve r =
    match Hashtbl.find_opt map r with
    | Some s ->
      changed := true;
      s
    | None -> r
  in
  let kill r =
    Hashtbl.remove map r;
    (* remove entries whose source is r *)
    let stale =
      Hashtbl.fold (fun d s acc -> if s = r then d :: acc else acc) map []
    in
    List.iter (Hashtbl.remove map) stale
  in
  let rewrite i =
    let i' =
      (* rewrite uses only; leave defs in place *)
      match i with
      | Instr.Mov (d, a) -> Instr.Mov (d, resolve a)
      | Instr.Binop (op, d, a, b') -> Instr.Binop (op, d, resolve a, resolve b')
      | Instr.Unop (op, d, a) -> Instr.Unop (op, d, resolve a)
      | Instr.Conv (c, d, a) -> Instr.Conv (c, d, resolve a)
      | Instr.Cmp (op, d, a, b') -> Instr.Cmp (op, d, resolve a, resolve b')
      | Instr.Select (d, c, a, b') ->
        Instr.Select (d, resolve c, resolve a, resolve b')
      | Instr.Load (ty, d, base, off) -> Instr.Load (ty, d, resolve base, off)
      | Instr.Store (ty, s, base, off) ->
        Instr.Store (ty, resolve s, resolve base, off)
      | Instr.Call (d, name, args) -> Instr.Call (d, name, List.map resolve args)
      | Instr.Splat (d, a) -> Instr.Splat (d, resolve a)
      | Instr.Extract (d, a, lane) -> Instr.Extract (d, resolve a, lane)
      | Instr.Reduce (op, d, a) -> Instr.Reduce (op, d, resolve a)
      | Instr.Const _ | Instr.Gaddr _ | Instr.Alloca _ -> i
    in
    (match Instr.def i' with Some d -> kill d | None -> ());
    (match i' with
    | Instr.Mov (d, a) when d <> a -> Hashtbl.replace map d a
    | _ -> ());
    i'
  in
  b.instrs <- List.map rewrite b.instrs;
  b.term <- Instr.map_term_regs resolve b.term;
  !changed

let backward_coalesce (fn : Func.t) : bool =
  let uses = Census.uses fn fn.blocks in
  let changed = ref false in
  Func.iter_blocks
    (fun b ->
      let rec go = function
        | i :: Instr.Mov (x, t) :: rest
          when Instr.def i = Some t
               && Census.count uses t = 1
               && t <> x
               && not (List.mem t (Instr.uses i))
               && Types.equal (Func.reg_type fn t) (Func.reg_type fn x) ->
          changed := true;
          let retarget r = if r = t then x else r in
          (* only the def is t here, and t is not among the uses *)
          Instr.map_regs retarget i :: go rest
        | i :: rest -> i :: go rest
        | [] -> []
      in
      b.instrs <- go b.instrs)
    fn;
  !changed

(** Run copy propagation to a fixpoint (bounded).  Returns true if the
    function changed. *)
let run ?account (fn : Func.t) : bool =
  let changed = ref false in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 8 do
    incr rounds;
    Account.charge_opt account ~pass:"copyprop" (Func.instr_count fn);
    let fwd =
      List.fold_left
        (fun acc b -> forward_block b || acc)
        false fn.blocks
    in
    let bwd = backward_coalesce fn in
    if fwd || bwd then changed := true else continue_ := false
  done;
  !changed
