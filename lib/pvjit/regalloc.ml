(** Online register allocation: linear scan with spilling.

    This is the linear-time online half of split register allocation
    (experiment E3).  Interval construction and the scan itself are cheap;
    what the JIT cannot afford is a good *spill choice*.  Three qualities
    are available:

    - [`Heuristic`] — no information: under pressure, evict the interval
      that ends furthest away (Poletto-Sarkar).  Blind to loops: it
      happily spills a hot accumulator whose interval spans the loop.
    - [`Weights w`] — spill costs are known (offline annotation in split
      mode, or recomputed online at full price in pure-online mode): evict
      the *cheapest* live interval instead.
    - spill code is the classic spill-everywhere form: a store after every
      definition, a reload before every use; the allocator then reruns
      with the tiny intervals (never re-spilled).  A spilled parameter is
      stored at the top of [Mir.entry], which {!Lower.run} guarantees runs
      once per call.

    Intervals come from block-level liveness of the virtual registers,
    computed by {!Pvopt.Liveness}, the solver pvopt's passes use too.

    Dynamic spill traffic is what the paper's 40 % claim is about; the
    simulator counts executed [Mframe_ld]/[Mframe_st] operations so E3 can
    report it. *)

open Pvmach

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type quality = Heuristic | Weights of (int -> float)

type stats = {
  mutable spilled_regs : int;
  mutable spill_instrs : int;  (** static count of inserted reload/store ops *)
  mutable rounds : int;
}

(* ---------------- liveness over MIR virtual registers ---------------- *)

let vregs_of_reg = function Mir.V v -> Some v | Mir.P _ -> None

(** Block-level liveness of [mf]'s virtual registers by
    {!Pvopt.Liveness.solve}: live sets are indexed by position in
    [mf.mblocks]. *)
let liveness (mf : Mir.func) : Pvopt.Liveness.t =
  let vreg f r = Option.iter f (vregs_of_reg r) in
  Pvopt.Liveness.solve ~nregs:mf.Mir.next_vreg
    ~label:(fun (b : Mir.block) -> b.Mir.mlabel)
    ~succs:(fun (b : Mir.block) -> Mir.term_successors b.Mir.mterm)
    ~scan:(fun (b : Mir.block) ~use ~def ->
      List.iter
        (fun i ->
          List.iter (vreg use) (Mir.inst_uses i);
          Option.iter (vreg def) (Mir.inst_def i))
        b.Mir.insts;
      List.iter (vreg use) (Mir.term_uses b.Mir.mterm))
    mf.Mir.mblocks

(* ---------------- intervals ---------------- *)

type interval = {
  vreg : int;
  cls : Mir.reg_class;
  mutable istart : int;
  mutable iend : int;
}

(* The order of the returned list matters.  [scan_class]'s stable sort
   keeps it between intervals with equal [(istart, iend)], so it decides
   which physical register each one gets, and register numbers are part
   of the rendered artifact bytes.  That order is [Hashtbl.fold]'s over
   [tbl], which follows the order in which registers are first touched;
   any change to it renumbers registers and moves the serve artifact
   digest pinned in test_pvserve. *)
let build_intervals (mf : Mir.func) =
  let lv = liveness mf in
  let tbl : (int, interval) Hashtbl.t = Hashtbl.create 32 in
  let touch v pos =
    match Hashtbl.find_opt tbl v with
    | Some iv ->
      iv.istart <- min iv.istart pos;
      iv.iend <- max iv.iend pos
    | None ->
      let ty =
        match Hashtbl.find_opt mf.Mir.vreg_ty v with
        | Some ty -> ty
        | None -> fail "no type for virtual register v%d" v
      in
      Hashtbl.replace tbl v
        { vreg = v; cls = Mir.class_of_type ty; istart = pos; iend = pos }
  in
  (* parameters are live from position 0 *)
  List.iter
    (fun r -> match vregs_of_reg r with Some v -> touch v 0 | None -> ())
    mf.Mir.mparams;
  let pos = ref 0 in
  List.iteri
    (fun bi (b : Mir.block) ->
      let bstart = !pos in
      let touch_reg r p =
        match vregs_of_reg r with Some v -> touch v p | None -> ()
      in
      Pvopt.Liveness.iter (fun v -> touch v bstart) lv.live_in.(bi);
      List.iter
        (fun i ->
          incr pos;
          List.iter (fun r -> touch_reg r !pos) (Mir.inst_uses i);
          Option.iter (fun r -> touch_reg r !pos) (Mir.inst_def i))
        b.Mir.insts;
      incr pos;
      List.iter (fun r -> touch_reg r !pos) (Mir.term_uses b.Mir.mterm);
      let bend = !pos in
      Pvopt.Liveness.iter (fun v -> touch v bend) lv.live_out.(bi);
      incr pos)
    mf.Mir.mblocks;
  Hashtbl.fold (fun _ iv acc -> iv :: acc) tbl []

(* ---------------- the scan ---------------- *)

(* result of one scan round: either a complete assignment or a set of
   vregs to spill *)
type round_result =
  | Assigned of (int, Mir.reg_class * int) Hashtbl.t
  | Spill of int list

let scan_class (machine : Machine.t) ~quality ~unspillable intervals cls
    (assignment : (int, Mir.reg_class * int) Hashtbl.t) : int list =
  let nregs =
    match cls with
    | Mir.Gpr -> machine.Machine.int_regs
    | Mir.Fpr -> machine.Machine.fp_regs
    | Mir.Vec -> machine.Machine.vec_regs
  in
  let of_cls =
    List.filter (fun iv -> iv.cls = cls) intervals
    |> List.sort (fun a b -> compare (a.istart, a.iend) (b.istart, b.iend))
  in
  if of_cls = [] then []
  else if nregs = 0 then
    fail "register class exhausted: machine %s has no registers for it"
      machine.Machine.name
  else begin
    let free = Queue.create () in
    for i = 0 to nregs - 1 do
      Queue.add i free
    done;
    let active : (interval * int) list ref = ref [] in
    let spills = ref [] in
    let weight iv =
      if Hashtbl.mem unspillable iv.vreg then infinity
      else
        match quality with
        | Heuristic -> float_of_int iv.iend  (* furthest end = cheapest *)
        | Weights w -> w iv.vreg
    in
    let expire pos =
      let expired, still =
        List.partition (fun (iv, _) -> iv.iend < pos) !active
      in
      List.iter (fun (_, r) -> Queue.add r free) expired;
      active := still
    in
    List.iter
      (fun cur ->
        expire cur.istart;
        if not (Queue.is_empty free) then begin
          let r = Queue.take free in
          Hashtbl.replace assignment cur.vreg (cls, r);
          active := (cur, r) :: !active
        end
        else begin
          (* choose a victim among active + cur: cheapest to spill;
             Heuristic mode prefers the interval ending furthest *)
          let candidates =
            List.filter
              (fun (iv, _) -> not (Hashtbl.mem unspillable iv.vreg))
              ((cur, -1) :: !active)
          in
          let victim, vreg_assigned =
            match candidates with
            | [] ->
              fail "irreducible register pressure on %s" machine.Machine.name
            | first :: rest ->
              List.fold_left
                (fun ((best, _) as acc) ((iv, _) as item) ->
                  let better =
                    match quality with
                    | Heuristic -> iv.iend > best.iend
                    | Weights _ ->
                      let wb = weight best and wi = weight iv in
                      wi < wb || (wi = wb && iv.iend > best.iend)
                  in
                  if better then item else acc)
                first rest
          in
          spills := victim.vreg :: !spills;
          if victim.vreg = cur.vreg then ()
          else begin
            (* steal the victim's register for cur *)
            Hashtbl.remove assignment victim.vreg;
            Hashtbl.replace assignment cur.vreg (cls, vreg_assigned);
            active :=
              (cur, vreg_assigned)
              :: List.filter (fun (iv, _) -> iv.vreg <> victim.vreg) !active
          end
        end)
      of_cls;
    !spills
  end

let run_round machine ~quality ~unspillable (mf : Mir.func) : round_result =
  let intervals = build_intervals mf in
  let assignment = Hashtbl.create 64 in
  let spills =
    List.concat_map
      (fun cls -> scan_class machine ~quality ~unspillable intervals cls assignment)
      [ Mir.Gpr; Mir.Fpr; Mir.Vec ]
  in
  if spills = [] then Assigned assignment else Spill spills

(* ---------------- spill rewriting ---------------- *)

let rewrite_spills (mf : Mir.func) ~unspillable ~(stats : stats) spills =
  let slot_of = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let ty =
        match Hashtbl.find_opt mf.Mir.vreg_ty v with
        | Some ty -> ty
        | None -> fail "spilling untyped v%d" v
      in
      let size = (Pvir.Types.size ty + 7) land lnot 7 in
      Hashtbl.replace slot_of v (mf.Mir.frame_size, ty);
      mf.Mir.frame_size <- mf.Mir.frame_size + size;
      stats.spilled_regs <- stats.spilled_regs + 1)
    spills;
  let is_spilled r =
    match r with
    | Mir.V v -> Hashtbl.find_opt slot_of v
    | Mir.P _ -> None
  in
  let rewrite_inst (i : Mir.inst) : Mir.inst list =
    (* reload spilled sources *)
    let reloads = ref [] in
    let seen = Hashtbl.create 4 in
    let srcs =
      List.map
        (fun r ->
          match is_spilled r with
          | None -> r
          | Some (slot, ty) -> (
            match Hashtbl.find_opt seen r with
            | Some t -> t
            | None ->
              let t = Mir.fresh_vreg mf ty in
              (* invariant: [Mir.fresh_vreg] always returns a [V] *)
              Hashtbl.replace unspillable
                (match t with Mir.V v -> v | _ -> assert false)
                ();
              reloads := Mir.inst ~dst:t (Mir.Mframe_ld slot) ty :: !reloads;
              stats.spill_instrs <- stats.spill_instrs + 1;
              Hashtbl.replace seen r t;
              t))
        i.Mir.srcs
    in
    let stores = ref [] in
    let dst =
      match i.Mir.dst with
      | Some d -> (
        match is_spilled d with
        | None -> Some d
        | Some (slot, ty) ->
          let t = Mir.fresh_vreg mf ty in
          Hashtbl.replace unspillable
            (match t with Mir.V v -> v | _ -> assert false)
            ();
          stores := [ Mir.inst ~srcs:[ t ] (Mir.Mframe_st slot) ty ];
          stats.spill_instrs <- stats.spill_instrs + 1;
          Some t)
      | None -> None
    in
    List.rev !reloads @ [ { i with Mir.srcs; dst } ] @ !stores
  in
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.insts <- List.concat_map rewrite_inst b.Mir.insts;
      (* spilled register used by the terminator: reload it just before *)
      let term_srcs = Mir.term_uses b.Mir.mterm in
      let extra = ref [] in
      let map_term r =
        match is_spilled r with
        | None -> r
        | Some (slot, ty) ->
          let t = Mir.fresh_vreg mf ty in
          Hashtbl.replace unspillable
            (match t with Mir.V v -> v | _ -> assert false)
            ();
          extra := Mir.inst ~dst:t (Mir.Mframe_ld slot) ty :: !extra;
          stats.spill_instrs <- stats.spill_instrs + 1;
          t
      in
      if term_srcs <> [] then begin
        b.Mir.mterm <- Mir.map_term_regs map_term b.Mir.mterm;
        b.Mir.insts <- b.Mir.insts @ List.rev !extra
      end)
    mf.Mir.mblocks;
  (* spilled parameters: store them on entry *)
  let entry = Mir.entry mf in
  let param_stores =
    List.filter_map
      (fun p ->
        match is_spilled p with
        | Some (slot, ty) ->
          stats.spill_instrs <- stats.spill_instrs + 1;
          Some (Mir.inst ~srcs:[ p ] (Mir.Mframe_st slot) ty)
        | None -> None)
      mf.Mir.mparams
  in
  entry.Mir.insts <- param_stores @ entry.Mir.insts

(* ---------------- driver ---------------- *)

(** Allocate registers for [mf] in place: after this call every register
    is physical ([P]) and spill code is explicit. *)
let run ?account ~(quality : quality) (mf : Mir.func) : stats =
  let machine = mf.Mir.target in
  let stats = { spilled_regs = 0; spill_instrs = 0; rounds = 0 } in
  let unspillable = Hashtbl.create 16 in
  let rec go budget =
    if budget = 0 then fail "register allocation did not converge";
    stats.rounds <- stats.rounds + 1;
    (* linear scan is linear in code size + n log n on intervals *)
    Pvir.Account.charge_opt account ~pass:"jit.regalloc" (2 * Mir.size mf);
    match run_round machine ~quality ~unspillable mf with
    | Assigned assignment ->
      let map r =
        match r with
        | Mir.P _ -> r
        | Mir.V v -> (
          match Hashtbl.find_opt assignment v with
          | Some (cls, idx) -> Mir.P (cls, idx)
          | None ->
            (* defined but never used and never live: give it any register *)
            let ty =
              match Hashtbl.find_opt mf.Mir.vreg_ty v with
              | Some ty -> ty
              | None -> fail "unassigned untyped v%d" v
            in
            Mir.P (Mir.class_of_type ty, 0))
      in
      List.iter
        (fun (b : Mir.block) ->
          b.Mir.insts <- List.map (Mir.map_inst_regs map) b.Mir.insts;
          b.Mir.mterm <- Mir.map_term_regs map b.Mir.mterm)
        mf.Mir.mblocks;
      mf.Mir.mparams <- List.map map mf.Mir.mparams
    | Spill spills ->
      Pvir.Account.charge_opt account ~pass:"jit.spill" (Mir.size mf);
      rewrite_spills mf ~unspillable ~stats spills;
      go (budget - 1)
  in
  go 24;
  stats
