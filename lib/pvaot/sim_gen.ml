(** MIR → OCaml code generation for the AOT simulator engine.

    One OCaml function per code-cache entry, basic blocks as a
    tail-recursive nest of local functions, emitted through the
    {!Emit} core the interpreter backend uses too: unboxed storage
    classes, inline operation bodies, must-assign guards and batched
    charging with exact fuel rewind.  This module keeps only what is
    specific to MIR:

    - {b Typing.}  MIR records no type for a physical register, and the
      allocator reuses one register for values of different widths.  The
      generator therefore splits each register and spill slot into
      def-use {e webs} (the definitions reaching a common use, joined),
      and types each web with a forward dataflow over its definitions:
      [inst.ty] for conversions and loads, the tag of an [Mli] value, the
      left operand's tag for arithmetic (the threaded engine takes the
      width from it), the value a spill store put in the slot, and the
      callee's return tag for calls.  A web whose definitions disagree
      stays boxed, as does everything of unknown shape; operations on
      boxed operands delegate to {!Pvir.Eval}, the engines' own code, so
      unboxing happens only where the dataflow proves the tag.  Vector
      webs of narrow-int or float lanes live in unboxed lane arrays,
      handled by the host-side {!Lanes} loops.
    - {b Parameter shapes.}  A register-passed parameter's shape is the
      type its uses expect (joined with what every in-snapshot call site
      passes, to a fixpoint across the snapshot), and a stack-passed
      one's is its declared slot type.  Internal calls pass exactly those
      shapes by construction; {!generate} returns an [accepts] check the
      runner applies to host-supplied arguments, running mismatched
      calls threaded.
    - {b Frames, spills and the calling convention}: leading arguments in
      registers and the rest in argument frame slots, the frame carved
      off [sp] with the engines' overflow check, spill traffic counted in
      the same batches as cycles and instructions.

    Accounting is bit-identical to the tree-walk and threaded engines on
    every outcome, fuel exhaustion included, so the differential oracle
    compares simulator-AOT cycles, instructions and spill operations
    unconditionally.

    Calls are resolved statically against a snapshot of the simulator's
    code cache: a callee in the snapshot becomes a direct call to its
    generated function, anything else goes to the shared intrinsic
    dispatcher {!Pvvm.Vm.intrinsic} — exactly the dynamic
    [Hashtbl.find_opt] split of the engines, valid because prepared code
    is dropped whenever {!Pvvm.Sim.add_func} changes the cache.

    Like the interpreter backend, generated code polls no safepoints.
    Anything the generator cannot prove it can compile exactly —
    malformed instruction shapes, statically out-of-range physical
    registers, branches to unknown labels — raises
    {!Emit.Unsupported}; the caller falls back to the threaded engine,
    which owns the runtime trap messages for those cases. *)

open Pvmach
module Types = Pvir.Types
module Value = Pvir.Value
module IntSet = Emit.IntSet
open Emit


(* ------------------------------------------------------------------ *)
(* Value tags                                                          *)

(** What a web is proven to hold: nothing yet, one scalar shape, a
    vector of [n] lanes of one scalar shape, or anything. *)
type tag = Bot | S of Types.scalar | L of Types.scalar * int | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | x, y -> if x = y then x else Top

(* A value's tag; payloads that break the width-normalization invariant
   (hand-built constants) get [Top] and stay boxed. *)
let rec tag_of_value (v : Value.t) =
  match v with
  | Value.Int (s, x) ->
    if Types.is_float_scalar s || not (Int64.equal (Value.normalize s x) x) then
      Top
    else S s
  | Value.Float (s, x) ->
    if
      Types.is_float_scalar s
      && Int64.equal
           (Int64.bits_of_float (Value.normalize_float s x))
           (Int64.bits_of_float x)
    then S s
    else Top
  | Value.Vec es -> (
    if Array.length es = 0 then Top
    else
      match tag_of_value es.(0) with
      | S s when Array.for_all (fun e -> tag_of_value e = S s) es ->
        L (s, Array.length es)
      | _ -> Top)

let tag_of_type (ty : Types.t) =
  match ty with
  | Types.Scalar s -> S s
  | Types.Ptr _ -> S Types.I64
  | Types.Vector (s, n) -> L (s, n)

let cls_of_tag = function
  | S s -> cls_of_type (Types.Scalar s)
  | L (s, n) -> cls_of_type (Types.Vector (s, n))
  | Bot | Top -> KBox

(* ------------------------------------------------------------------ *)
(* Webs                                                                *)

type loc = LReg of Mir.reg | LSlot of int

type winst = {
  i : Mir.inst;
  srcw : int array;  (** web of each register of [i.srcs] *)
  slotw : int;  (** [Mframe_ld]: web of the slot read; -1 otherwise *)
  defw : int;  (** web defined ([dst], or the slot of [Mframe_st]); -1 if none *)
}

type wblock = {
  reach : bool;
  wins : winst array;
  termw : int array;  (** webs of [Mir.term_uses] *)
  succ : int list;  (** distinct successor block indices *)
  targets : int list;  (** branch targets in terminator order *)
  mterm : Mir.term;
}

type wfunc = {
  fn : Mir.func;
  wblocks : wblock array;
  nwebs : int;
  web_loc : loc array;
  entryw : int array;  (** webs of the register params, then the arg slots *)
}

(* The engines size physical files as [max 1 count] and range-check
   indices against the array length; an index the check would reject is
   compiled by falling back (the threaded engine owns the trap). *)
let check_reg (m : Machine.t) (r : Mir.reg) =
  match r with
  | Mir.V _ -> ()
  | Mir.P (cls, i) ->
    let count =
      match cls with
      | Mir.Gpr -> max 1 m.Machine.int_regs
      | Mir.Fpr -> max 1 m.Machine.fp_regs
      | Mir.Vec -> max 1 m.Machine.vec_regs
    in
    if i < 0 || i >= count then
      unsupported "physical register index %d out of range" i

(* What an instruction defines: its destination register, or the slot of
   a spill store.  Stores define nothing; every other operation but a
   call needs a destination (the decoder rejects it otherwise). *)
let def_of (i : Mir.inst) : loc option =
  match (i.Mir.op, i.Mir.dst) with
  | Mir.Mframe_st s, _ -> Some (LSlot s)
  | Mir.Mstore _, _ -> None
  | _, Some d -> Some (LReg d)
  | Mir.Mcall _, None -> None
  | _, None -> unsupported "instruction %s lacks a destination" (Mir.inst_to_string i)

let uses_of (i : Mir.inst) : loc list =
  List.map (fun r -> LReg r) i.Mir.srcs
  @ match i.Mir.op with Mir.Mframe_ld s -> [ LSlot s ] | _ -> []

(** Split [fn]'s registers and spill slots into webs: reaching
    definitions over the reachable blocks, then union-find over the
    definitions reaching each use.  Uses no definition reaches share one
    never-assigned web per location. *)
let webs (machine : Machine.t) (fn : Mir.func) : wfunc =
  let blocks = Array.of_list fn.Mir.mblocks in
  let nb = Array.length blocks in
  let label_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Mir.block) ->
      if not (Hashtbl.mem label_tbl b.Mir.mlabel) then
        Hashtbl.add label_tbl b.Mir.mlabel i)
    blocks;
  let target l =
    match Hashtbl.find_opt label_tbl l with
    | Some j -> j
    | None -> unsupported "branch to unknown block %d" l
  in
  let succ =
    Array.map
      (fun (b : Mir.block) -> List.map target (Mir.term_successors b.Mir.mterm))
      blocks
  in
  let reach = Array.make nb false in
  let rec visit i =
    if not reach.(i) then begin
      reach.(i) <- true;
      List.iter visit succ.(i)
    end
  in
  if nb > 0 then visit 0;
  (* locations and definition sites *)
  let loc_ids = Hashtbl.create 32 in
  let locs = ref [] in
  let loc_id l =
    (match l with LReg r -> check_reg machine r | LSlot _ -> ());
    match Hashtbl.find_opt loc_ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length loc_ids in
      Hashtbl.add loc_ids l i;
      locs := l :: !locs;
      i
  in
  let def_locs = ref [] and ndefs = ref 0 in
  let new_def l =
    let d = !ndefs in
    def_locs := loc_id l :: !def_locs;
    incr ndefs;
    d
  in
  let entry_defs =
    List.map (fun r -> new_def (LReg r)) fn.Mir.mparams
    @ List.map (fun (s, _) -> new_def (LSlot s)) fn.Mir.marg_slots
  in
  (* per reachable instruction: (use locations, def id or -1) *)
  let shape =
    Array.mapi
      (fun bi (b : Mir.block) ->
        if not reach.(bi) then [||]
        else
          Array.of_list
            (List.map
               (fun (i : Mir.inst) ->
                 let us = List.map loc_id (uses_of i) in
                 let d = match def_of i with Some l -> new_def l | None -> -1 in
                 (us, d))
               b.Mir.insts))
      blocks
  in
  let term_locs =
    Array.map
      (fun (b : Mir.block) ->
        List.map (fun r -> loc_id (LReg r)) (Mir.term_uses b.Mir.mterm))
      blocks
  in
  let ndefs = !ndefs and nlocs = Hashtbl.length loc_ids in
  let def_loc = Array.of_list (List.rev !def_locs) in
  let loc_of = Array.of_list (List.rev !locs) in
  (* reaching definitions *)
  let gen_kill bi =
    let last = Hashtbl.create 8 in
    Array.iter
      (fun (_, d) -> if d >= 0 then Hashtbl.replace last def_loc.(d) d)
      shape.(bi);
    ( Hashtbl.fold (fun _ d s -> IntSet.add d s) last IntSet.empty,
      Hashtbl.fold (fun l _ s -> IntSet.add l s) last IntSet.empty )
  in
  let gk =
    Array.init nb (fun bi ->
        if reach.(bi) then gen_kill bi else (IntSet.empty, IntSet.empty))
  in
  let in_ = Array.make nb IntSet.empty in
  if nb > 0 then in_.(0) <- IntSet.of_list entry_defs;
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = 0 to nb - 1 do
      if reach.(bi) then begin
        let gen, kill = gk.(bi) in
        let out =
          IntSet.union gen
            (IntSet.filter (fun d -> not (IntSet.mem def_loc.(d) kill)) in_.(bi))
        in
        List.iter
          (fun si ->
            let next = IntSet.union in_.(si) out in
            if not (IntSet.equal next in_.(si)) then begin
              in_.(si) <- next;
              changed := true
            end)
          succ.(bi)
      end
    done
  done;
  (* union-find over def ids, plus one never-assigned id per location *)
  let parent = Array.init (ndefs + nlocs) Fun.id in
  let rec find x = if parent.(x) = x then x else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let cur = Array.make nlocs IntSet.empty in
  let use l =
    let ds = cur.(l) in
    match IntSet.min_elt_opt ds with
    | None -> ndefs + l
    | Some d0 ->
      IntSet.iter (union d0) ds;
      d0
  in
  let use_reps =
    Array.mapi
      (fun bi steps ->
        if not reach.(bi) then ([||], [])
        else begin
          Array.fill cur 0 nlocs IntSet.empty;
          IntSet.iter
            (fun d -> cur.(def_loc.(d)) <- IntSet.add d cur.(def_loc.(d)))
            in_.(bi);
          let reps =
            Array.map
              (fun (us, d) ->
                let r = List.map use us in
                if d >= 0 then cur.(def_loc.(d)) <- IntSet.singleton d;
                r)
              steps
          in
          (reps, List.map use term_locs.(bi))
        end)
      shape
  in
  (* dense web numbering *)
  let web_of = Hashtbl.create 64 and web_locs = ref [] in
  let web x =
    let r = find x in
    match Hashtbl.find_opt web_of r with
    | Some w -> w
    | None ->
      let w = Hashtbl.length web_of in
      Hashtbl.add web_of r w;
      web_locs := loc_of.(if r < ndefs then def_loc.(r) else r - ndefs) :: !web_locs;
      w
  in
  let entryw = Array.of_list (List.map web entry_defs) in
  let wblocks =
    Array.mapi
      (fun bi (b : Mir.block) ->
        let reps, treps = use_reps.(bi) in
        let wins =
          if not reach.(bi) then [||]
          else
            Array.of_list
              (List.mapi
                 (fun k (i : Mir.inst) ->
                   let us = Array.of_list (List.map web reps.(k)) in
                   let nsrc = List.length i.Mir.srcs in
                   {
                     i;
                     srcw = Array.sub us 0 nsrc;
                     slotw = (if Array.length us > nsrc then us.(nsrc) else -1);
                     defw =
                       (let _, d = shape.(bi).(k) in
                        if d >= 0 then web d else -1);
                   })
                 b.Mir.insts)
        in
        {
          reach = reach.(bi);
          wins;
          termw = Array.of_list (List.map web treps);
          succ = succ.(bi);
          targets =
            (match b.Mir.mterm with
            | Mir.Tbr l -> [ target l ]
            | Mir.Tcbr (_, l1, l2) -> [ target l1; target l2 ]
            | Mir.Tret _ -> []);
          mterm = b.Mir.mterm;
        })
      blocks
  in
  {
    fn;
    wblocks;
    nwebs = Hashtbl.length web_of;
    web_loc = Array.of_list (List.rev !web_locs);
    entryw;
  }

(* ------------------------------------------------------------------ *)
(* Typing                                                              *)

let opnd_tag (tags : tag array) (wi : winst) k =
  let n = Array.length wi.srcw in
  if k < n then tags.(wi.srcw.(k))
  else match wi.i.Mir.imm with Some v when k = n -> tag_of_value v | _ -> Bot

(* The tag of what [wi] defines, from its operands' tags: exactly the
   shape {!Pvir.Eval} (or the engine) produces when the operation
   completes. *)
let def_tag ~ret_of (tags : tag array) (wi : winst) =
  let a () = opnd_tag tags wi 0 in
  match wi.i.Mir.op with
  | Mir.Mli v -> tag_of_value v
  | Mir.Mmov | Mir.Mbin _ | Mir.Mun _ | Mir.Mframe_st _ -> a ()
  | Mir.Mconv _ | Mir.Mload _ -> tag_of_type wi.i.Mir.ty
  | Mir.Mcmp _ -> S Types.I32
  | Mir.Msel -> join (opnd_tag tags wi 1) (opnd_tag tags wi 2)
  | Mir.Mstore _ -> Bot
  | Mir.Mframe_addr _ -> S Types.I64
  | Mir.Mframe_ld _ -> tags.(wi.slotw)
  | Mir.Msplat -> (
    match (a (), wi.i.Mir.ty) with
    | S s, Types.Vector (_, n) -> L (s, n)
    | Bot, _ -> Bot
    | _ -> Top)
  | Mir.Mextract lane -> (
    match a () with
    | L (s, n) when lane >= 0 && lane < n -> S s
    | Top -> Top
    | _ -> Bot)
  | Mir.Mreduce _ -> (match a () with L (s, _) -> S s | Top -> Top | _ -> Bot)
  | Mir.Mcall name -> ret_of name

(** Local fixpoint: web tags of [wf] given its entry shapes. *)
let infer ~ret_of (wf : wfunc) (shapes : tag array) : tag array =
  let tags = Array.make wf.nwebs Bot in
  Array.iteri (fun k w -> tags.(w) <- join tags.(w) shapes.(k)) wf.entryw;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        Array.iter
          (fun wi ->
            if wi.defw >= 0 then begin
              let t = join tags.(wi.defw) (def_tag ~ret_of tags wi) in
              if t <> tags.(wi.defw) then begin
                tags.(wi.defw) <- t;
                changed := true
              end
            end)
          b.wins)
      wf.wblocks
  done;
  tags

(* The shape an entry value's uses expect: the operating type of the
   arithmetic, moves, spills and stored values that read it, and i64
   for memory bases. *)
let entry_hints (wf : wfunc) : tag array =
  let hint = Array.make wf.nwebs Bot in
  let note w ty = hint.(w) <- join hint.(w) ty in
  Array.iter
    (fun b ->
      Array.iter
        (fun wi ->
          let ty = tag_of_type wi.i.Mir.ty in
          let src k t =
            if k >= 0 && k < Array.length wi.srcw then note wi.srcw.(k) t
          in
          match wi.i.Mir.op with
          | Mir.Mmov | Mir.Mbin _ | Mir.Mun _ | Mir.Mframe_st _ -> src 0 ty
          | Mir.Mcmp _ ->
            src 0 ty;
            src 1 ty
          | Mir.Msel ->
            src 1 ty;
            src 2 ty
          | Mir.Mstore _ ->
            (* (value, base), or (base) under a folded value *)
            if wi.i.Mir.imm = None then src 0 ty;
            src (Array.length wi.srcw - 1) (S Types.I64)
          | Mir.Mload _ -> src 0 (S Types.I64)
          | Mir.Msplat -> src 0 (S (Types.elem wi.i.Mir.ty))
          | _ -> ())
        b.wins)
    wf.wblocks;
  let nreg = List.length wf.fn.Mir.mparams in
  Array.mapi
    (fun k w ->
      if k < nreg then hint.(w)
      else tag_of_type (snd (List.nth wf.fn.Mir.marg_slots (k - nreg))))
    wf.entryw

(** Interprocedural fixpoint over a snapshot: each function's entry
    shapes (its use hints joined with every in-snapshot call site's
    arguments) and return tag, then its web tags.  An entry nothing
    informs is boxed, and the fixpoint re-runs from there, so return and
    argument tags always agree with the final shapes. *)
let type_snapshot (wfs : (string * wfunc) array) :
    tag array array * tag array array =
  let n = Array.length wfs in
  let index = Hashtbl.create 16 in
  Array.iteri (fun k (name, _) -> Hashtbl.replace index name k) wfs;
  let shapes = Array.map (fun (_, wf) -> entry_hints wf) wfs in
  let rets = Array.make n Bot in
  let ret_of name =
    match Hashtbl.find_opt index name with Some k -> rets.(k) | None -> Top
  in
  let tags = Array.make n [||] in
  let changed = ref true in
  (* join [t] into [arr.(i)], noting growth *)
  let bump arr i t =
    let t' = join arr.(i) t in
    if t' <> arr.(i) then begin
      arr.(i) <- t';
      changed := true
    end
  in
  let sweep k (_, wf) =
    let t = infer ~ret_of wf shapes.(k) in
    tags.(k) <- t;
    Array.iter
      (fun b ->
        (match b.mterm with
        | Mir.Tret (Some _) when b.reach -> bump rets k t.(b.termw.(0))
        | _ -> ());
        Array.iter
          (fun wi ->
            match wi.i.Mir.op with
            | Mir.Mcall name -> (
              match Hashtbl.find_opt index name with
              | Some c when Array.length shapes.(c) = Array.length wi.srcw ->
                Array.iteri (fun j w -> bump shapes.(c) j t.(w)) wi.srcw
              | _ -> ())
            | _ -> ())
          b.wins)
      wf.wblocks
  in
  let rec settle () =
    changed := true;
    while !changed do
      changed := false;
      Array.iteri sweep wfs
    done;
    if Array.exists (Array.exists (( = ) Bot)) shapes then begin
      Array.iter
        (fun sh -> Array.iteri (fun j s -> if s = Bot then sh.(j) <- Top) sh)
        shapes;
      settle ()
    end
  in
  settle ();
  (shapes, tags)

(* ------------------------------------------------------------------ *)
(* Instruction emission                                                *)

type gen = {
  e : Emit.st;
  wf : wfunc;
  machine : Machine.t;
  fnindex : (string, int) Hashtbl.t;  (** snapshot name → index *)
}

type opnd = W of int | I of Value.t

(* Operand [k] of [wi]: a register's web or the folded immediate (always
   the last operand). *)
let operand (wi : winst) k =
  let n = Array.length wi.srcw in
  if k < n then W wi.srcw.(k)
  else
    match wi.i.Mir.imm with
    | Some v when k = n -> I v
    | _ -> unsupported "instruction %s lacks operand %d" (Mir.inst_to_string wi.i) k

let webs_of ops = List.filter_map (function W w -> Some w | I _ -> None) ops

(* Immediate vectors stay boxed: lane paths take register operands only. *)
let ocls g = function
  | W w -> cls g.e w
  | I v -> ( match cls_of_tag (tag_of_value v) with KLanes _ -> KBox | c -> c)

(* Raw expression of a scalar-class operand. *)
let raw g o =
  match o with
  | W w -> rd g.e w
  | I v -> (
    match raw_lit (ocls g o) v with
    | Some e -> e
    | None -> unsupported "immediate without a raw form")

let obox g = function W w -> boxed g.e w | I v -> value_lit v

(* Assign operand [o] to web [d]. *)
let assign g d o =
  let st = g.e in
  match o with
  | W w -> emit_copy st d w
  | I v -> (
    match raw_lit (cls st d) v with
    | Some e -> emit_set st d e
    | None -> (
      match cls st d with
      | KBox -> emit_set st d (value_lit v)
      | KLanes _ -> emit_store_value st d (value_lit v)
      | _ -> unsupported "immediate of another class"))

(* Truth of a condition operand, and whether computing it can raise. *)
let cond_expr g c =
  let cc = ocls g c in
  if is_scalar_cls cc then (truth_expr cc (raw g c), false)
  else (Printf.sprintf "(V.to_bool %s)" (obox g c), true)

(* Byte address [a_] from a base operand, like the engines' [saddr]. *)
let emit_base_addr g base off =
  let st = g.e in
  match (ocls g base, base) with
  | ((KNarrow _ | KWide) as c), _ -> emit_addr st c (raw g base) off
  | _ -> line st "let a_ = Int64.to_int (V.to_int64 %s) + %d in" (obox g base) off

(* The generic path: box the operands, evaluate with [Pvir.Eval] (the
   engines' own semantics, exceptions included), store the result. *)
let generic g d ~reads expr =
  flush g.e;
  List.iter (emit_guard g.e) reads;
  emit_store_value g.e d (expr ())

let emit_inst g (wi : winst) =
  let st = g.e in
  let i = wi.i in
  let spill =
    match i.Mir.op with Mir.Mframe_ld _ | Mir.Mframe_st _ -> true | _ -> false
  in
  add_charge ~spill st (Cost.of_inst g.machine i);
  let d () =
    if wi.defw < 0 then unsupported "instruction lacks a destination" else wi.defw
  in
  let op k = operand wi k in
  match i.Mir.op with
  | Mir.Mli v ->
    let d = d () in
    assign g d (I v);
    mark_def st d
  | Mir.Mmov ->
    let d = d () and a = op 0 in
    guard_reads st (webs_of [ a ]);
    assign g d a;
    mark_def st d
  | Mir.Mbin bop ->
    let d = d () and a = op 0 and b = op 1 in
    let reads = webs_of [ b; a ] in
    let ca = ocls g a in
    let cd = cls st d in
    (match ca with
    | (KNarrow _ | KWide | KFloat _)
      when ca = ocls g b
           && (cd = ca || cd = KBox)
           && (match ca with KFloat _ -> float_binop_ok bop | _ -> true) ->
      if is_div_op bop then flush st;
      guard_reads st reads;
      emit_store st d ca (binop_expr bop ca (raw g a) (raw g b))
    | KLanes (s, _)
      when ca = ocls g b && cd = ca && (lane_int s || float_binop_ok bop) ->
      if is_div_op bop then flush st;
      guard_reads st reads;
      line st "%s %s %s %s %s;" (lane_fn "bin" s) (binop_ctor bop) (rd st d) (raw g a)
        (raw g b)
    | _ ->
      generic g d ~reads (fun () ->
          Printf.sprintf
            "(try Ev.binop %s %s %s with Ev.Division_by_zero -> raise \
             (VM.Trap \"division by zero\"))"
            (binop_ctor bop) (obox g a) (obox g b)));
    mark_def st d
  | Mir.Mun uop ->
    let d = d () and a = op 0 in
    let reads = webs_of [ a ] in
    let ca = ocls g a and cd = cls st d in
    let inline =
      if is_scalar_cls ca && (cd = ca || cd = KBox) then
        try Some (unop_expr uop ca (raw g a)) with Unsupported _ -> None
      else None
    in
    (match (inline, ca) with
    | Some e, _ ->
      guard_reads st reads;
      emit_store st d ca e
    | None, KLanes (s, _) when cd = ca && (lane_int s || uop = Pvir.Instr.Neg) ->
      guard_reads st reads;
      line st "%s %s %s;"
        (lane_fn (if uop = Pvir.Instr.Neg then "neg" else "not") s)
        (rd st d) (raw g a)
    | _ ->
      generic g d ~reads (fun () ->
          Printf.sprintf "(Ev.unop %s %s)" (unop_ctor uop) (obox g a)));
    mark_def st d
  | Mir.Mconv kind ->
    let d = d () and a = op 0 in
    let reads = webs_of [ a ] in
    let ca = ocls g a and cd = cls st d in
    let ct = cls_of_type i.Mir.ty in
    let inline =
      if is_scalar_cls ca && is_scalar_cls ct && (cd = ct || cd = KBox) then
        try Some (conv_expr kind ~ca ~cd:ct (raw g a)) with Unsupported _ -> None
      else None
    in
    (match (inline, ca, ct) with
    | Some e, _, _ ->
      guard_reads st reads;
      emit_store st d ct e
    | None, KLanes (sa, n), KLanes (sd, n')
      when n = n' && cd = ct && lane_int sa && lane_int sd
           && (kind = Pvir.Instr.Zext || kind = Pvir.Instr.Sext
              || kind = Pvir.Instr.Trunc) ->
      guard_reads st reads;
      if kind = Pvir.Instr.Zext then
        line st "L.zext_i %d %d %s %s;" (lane_sh sa) (lane_sh sd) (rd st d) (raw g a)
      else line st "L.sext_i %d %s %s;" (lane_sh sd) (rd st d) (raw g a)
    | _ ->
      generic g d ~reads (fun () ->
          Printf.sprintf "(Ev.conv %s %s %s)" (conv_ctor kind) (ty_lit i.Mir.ty)
            (obox g a)));
    mark_def st d
  | Mir.Mcmp rop ->
    let d = d () and a = op 0 and b = op 1 in
    let reads = webs_of [ b; a ] in
    let ca = ocls g a in
    let inline =
      if is_scalar_cls ca && ca = ocls g b then
        try Some (cmp_expr rop ca (raw g a) (raw g b)) with Unsupported _ -> None
      else None
    in
    (match inline with
    | Some e ->
      guard_reads st reads;
      emit_store st d (KNarrow Types.I32) (Printf.sprintf "(if %s then 1 else 0)" e)
    | None ->
      generic g d ~reads (fun () ->
          Printf.sprintf "(Ev.cmp %s %s %s)" (relop_ctor rop) (obox g a) (obox g b)));
    mark_def st d
  | Mir.Msel ->
    let d = d () and c = op 0 and a = op 1 and b = op 2 in
    let reads = webs_of [ b; a; c ] in
    let ca = ocls g a and cd = cls st d in
    let cond, raises = cond_expr g c in
    if raises then flush st;
    guard_reads st reads;
    (match ca with
    | (KNarrow _ | KWide | KFloat _) when ca = ocls g b && (cd = ca || cd = KBox) ->
      emit_store st d ca
        (Printf.sprintf "(if %s then %s else %s)" cond (raw g a) (raw g b))
    | KLanes _ when ca = ocls g b && cd = ca ->
      line st "L.copy (if %s then %s else %s) %s;" cond (raw g a) (raw g b) (rd st d)
    | _ ->
      emit_store_value st d
        (Printf.sprintf "(if %s then %s else %s)" cond (obox g a) (obox g b)));
    mark_def st d
  | Mir.Mload off ->
    let d = d () and base = op 0 in
    flush st;
    guard_reads st (webs_of [ base ]);
    emit_base_addr g base off;
    emit_load st d i.Mir.ty;
    mark_def st d
  | Mir.Mstore off ->
    (* (value, base) with the base read first, like both engines *)
    let value, base =
      match (wi.srcw, i.Mir.imm) with
      | [| s; b |], None -> (W s, W b)
      | [| b |], Some v -> (I v, W b)
      | _ -> unsupported "store expects (value, base)"
    in
    flush st;
    guard_reads st (webs_of [ base; value ]);
    emit_base_addr g base off;
    let cv = ocls g value in
    emit_store_mem st cv (if cv = KBox then obox g value else raw g value)
  | Mir.Mframe_addr off ->
    let d = d () in
    emit_store st d KWide (Printf.sprintf "(Int64.of_int (fp_ + %d))" off);
    mark_def st d
  | Mir.Mframe_ld _ ->
    let d = d () in
    guard_reads st [ wi.slotw ];
    emit_copy st d wi.slotw;
    mark_def st d
  | Mir.Mframe_st _ ->
    let d = d () and a = op 0 in
    guard_reads st (webs_of [ a ]);
    assign g d a;
    mark_def st d
  | Mir.Msplat ->
    let d = d () and a = op 0 in
    let n =
      match i.Mir.ty with
      | Types.Vector (_, n) -> n
      | _ -> unsupported "splat at non-vector type"
    in
    let reads = webs_of [ a ] in
    (match (cls st d, ocls g a) with
    | KLanes (s, _), ca when ca = cls_of_type (Types.Scalar s) ->
      guard_reads st reads;
      line st "%s %s %s;" (lane_fn "splat" s) (rd st d) (raw g a)
    | _ ->
      generic g d ~reads (fun () -> Printf.sprintf "(Ev.splat %d %s)" n (obox g a)));
    mark_def st d
  | Mir.Mextract lane ->
    let d = d () and a = op 0 in
    let reads = webs_of [ a ] in
    (match (ocls g a, a) with
    | KLanes (s, n), W w when lane >= 0 && lane < n ->
      guard_reads st reads;
      emit_store st d
        (cls_of_type (Types.Scalar s))
        (Printf.sprintf "(Array.unsafe_get %s %d)" (rd st w) lane)
    | _ ->
      generic g d ~reads (fun () ->
          Printf.sprintf "(Ev.extract %s %d)" (obox g a) lane));
    mark_def st d
  | Mir.Mreduce rop ->
    let d = d () and a = op 0 in
    let reads = webs_of [ a ] in
    (match (ocls g a, a) with
    | KLanes (s, _), W w
      when lane_int s || not (rop = Pvir.Instr.Rumin || rop = Pvir.Instr.Rumax) ->
      guard_reads st reads;
      emit_store st d
        (cls_of_type (Types.Scalar s))
        (Printf.sprintf "(%s %s %s)" (lane_fn "red" s) (redop_ctor rop) (rd st w))
    | _ ->
      generic g d ~reads (fun () ->
          Printf.sprintf "(Ev.reduce %s %s)" (redop_ctor rop) (obox g a)));
    mark_def st d
  | Mir.Mcall name ->
    flush st;
    (* arguments left-to-right, like the engines' [List.map] *)
    Array.iter (emit_guard st) wi.srcw;
    let argv = String.concat "; " (Array.to_list (Array.map (boxed st) wi.srcw)) in
    let call_expr =
      match Hashtbl.find_opt g.fnindex name with
      | Some k -> Printf.sprintf "(f_%d ctx [ %s ])" k argv
      | None -> Printf.sprintf "(VM.intrinsic ctx.A.out %S [ %s ])" name argv
    in
    let d = if wi.defw >= 0 then Some wi.defw else None in
    emit_call_result st d name call_expr;
    Option.iter (mark_def st) d

(* ------------------------------------------------------------------ *)
(* Function emission                                                   *)

let emit_terminator g (b : wblock) =
  let st = g.e in
  add_charge st (Cost.of_term g.machine b.mterm);
  flush st;
  match (b.mterm, b.targets) with
  | Mir.Tbr _, [ j ] -> line st "b_%d ()" j
  | Mir.Tcbr _, [ j1; j2 ] ->
    let c = b.termw.(0) in
    emit_guard st c;
    let cond, _ = cond_expr g (W c) in
    line st "if %s then b_%d () else b_%d ()" cond j1 j2
  | Mir.Tret None, _ -> line st "(ctx.A.sp <- saved_sp_; None)"
  | Mir.Tret (Some _), _ ->
    let r = b.termw.(0) in
    emit_guard st r;
    line st "(let rv_ = %s in ctx.A.sp <- saved_sp_; Some rv_)" (boxed st r)
  | _ -> unsupported "malformed terminator"

let guard_msg (wf : wfunc) w =
  match wf.web_loc.(w) with
  | LReg (Mir.V v) -> Printf.sprintf "read of uninitialized virtual register v%d" v
  | LReg r -> Printf.sprintf "read of uninitialized register %s" (Mir.reg_to_string r)
  | LSlot s -> Printf.sprintf "reload of empty spill slot %d in %s" s wf.fn.Mir.mname

let emit_function buf machine fnindex ~first idx (wf : wfunc) (tags : tag array) =
  let fn = wf.fn in
  let ablocks =
    Array.map
      (fun b ->
        {
          steps =
            Array.to_list
              (Array.map
                 (fun wi ->
                   ( (Array.to_list wi.srcw
                     @ if wi.slotw >= 0 then [ wi.slotw ] else []),
                     if wi.defw >= 0 then Some wi.defw else None ))
                 b.wins);
          term_reads = Array.to_list b.termw;
          succs = (if b.reach then b.succ else []);
        })
      wf.wblocks
  in
  let cls_of w = cls_of_tag tags.(w) in
  let entry_defs = Array.to_list wf.entryw in
  let a =
    analyze ablocks ~entry_defs ~lets_ok:(fun w ->
        match cls_of w with KLanes _ -> false | _ -> true)
  in
  let st, nwide, nfloat = Emit.create buf a ~cls_of ~guard_msg:(guard_msg wf) in
  let g = { e = st; wf; machine; fnindex } in
  let kw = if first then "let rec" else "and" in
  line st "%s f_%d (ctx : A.ctx) (args_ : V.t list) : V.t option =" kw idx;
  st.ind <- "  ";
  add_charge st machine.Machine.call_cost;
  flush st;
  let n_args = Array.length wf.entryw in
  let pat =
    if n_args = 0 then "[]"
    else "[ " ^ String.concat "; " (List.init n_args (Printf.sprintf "p%d_")) ^ " ]"
  in
  line st "match args_ with";
  line st "| %s ->" pat;
  st.ind <- "    ";
  line st "let saved_sp_ = ctx.A.sp in";
  line st "ctx.A.sp <- saved_sp_ - %d;" fn.Mir.frame_size;
  line st "if ctx.A.sp < ctx.A.globals_end then raise (VM.Trap %S);"
    (Printf.sprintf "stack overflow in %s" fn.Mir.mname);
  if Array.length wf.wblocks = 0 then
    (* [Mir.entry]'s exact no-blocks error, an [Invalid_argument] rather
       than a trap, raised after the sp adjustment like both engines *)
    line st "invalid_arg %S"
      (Printf.sprintf "Mir.entry: %s has no blocks" fn.Mir.mname)
  else begin
    line st "let fp_ = ctx.A.sp in";
    line st "let mem_ = ctx.A.mem in";
    line st "let buf_ = mem_.M.bytes in";
    line st "let ng_ = mem_.M.null_guard in";
    line st "let sz_ = mem_.M.size in";
    line st "ignore fp_; ignore buf_; ignore ng_; ignore sz_;";
    (* leading args in registers, the rest in argument frame slots, in
       order (a repeated register keeps the last) *)
    emit_frame st a ~nwide ~nfloat
      ~params:(List.mapi (fun k w -> (w, Printf.sprintf "p%d_" k)) entry_defs);
    let first_block = ref true in
    Array.iteri
      (fun bi b ->
        match a.in_.(bi) with
        | None -> ()
        | Some inb ->
          line st "%s b_%d () : V.t option ="
            (if !first_block then "let rec" else "and")
            bi;
          first_block := false;
          st.ind <- "      ";
          st.assigned <- inb;
          st.pending <- [];
          Array.iter (emit_inst g) b.wins;
          emit_terminator g b;
          st.ind <- "    ")
      wf.wblocks;
    line st "in";
    line st "b_0 ()"
  end;
  st.ind <- "  ";
  line st "| _ -> raise (VM.Trap %S)"
    (Printf.sprintf "arity mismatch calling %s" fn.Mir.mname)

(* ------------------------------------------------------------------ *)
(* Program emission                                                    *)

(* Everything the baked costs and calling convention depend on (the
   machine name alone would not survive a descriptor edit).  Shared with
   the service cache key, so both sides agree on what "same machine"
   means. *)
let machine_dump = Machine.descriptor_dump

(* [Mir.func_to_string] covers blocks, types, offsets and immediates but
   not the calling convention; append it. *)
let func_dump (fn : Mir.func) =
  Printf.sprintf "%sparams=%s slots=%s\n" (Mir.func_to_string fn)
    (String.concat "," (List.map Mir.reg_to_string fn.Mir.mparams))
    (String.concat ","
       (List.map
          (fun (s, ty) -> Printf.sprintf "%d:%s" s (Pvir.Types.to_string ty))
          fn.Mir.marg_slots))

type generated = {
  digest : string;  (** cache key: machine descriptor + every function *)
  src_digest : string;  (** digest of the generated body (staleness guard) *)
  source : string;
  accepts : (string * (Value.t list -> bool)) list;
      (** per function: do host-supplied arguments fit its entry shapes?
          Arity mismatches are accepted (the plugin raises the engines'
          arity trap). *)
}

(** Generate plugin source for a code-cache snapshot (sorted by name for
    a deterministic digest).  Raises {!Emit.Unsupported} (or a [Cost] error)
    when exact compilation is not possible — callers treat every
    exception as "fall back". *)
let generate (machine : Machine.t) (snapshot : (string * Mir.func) list) : generated =
  let snapshot = List.sort (fun (a, _) (b, _) -> String.compare a b) snapshot in
  let digest =
    Build.digest_of_dump
      (Printf.sprintf "sim\x00%s\x00%s" (machine_dump machine)
         (String.concat "\x00" (List.map (fun (_, fn) -> func_dump fn) snapshot)))
  in
  let wfs =
    Array.of_list (List.map (fun (name, fn) -> (name, webs machine fn)) snapshot)
  in
  let shapes, tags = type_snapshot wfs in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (header ~backend:"simulator");
  let fnindex = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace fnindex name i) snapshot;
  Array.iteri
    (fun i (_, wf) -> emit_function buf machine fnindex ~first:(i = 0) i wf tags.(i))
    wfs;
  (* staleness guard: digest of the body so far, re-derived by the
     loader from the current generator and checked against what the
     plugin registers (see [Pvvm.Aotabi.register_src]) *)
  let src_digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.add_string buf "\nlet () =\n";
  Buffer.add_string buf
    (Printf.sprintf "  A.register_src %S ~src:%S\n" digest src_digest);
  let entries =
    List.mapi (fun i (name, _) -> Printf.sprintf "(%S, f_%d)" name i) snapshot
  in
  Buffer.add_string buf ("    [ " ^ String.concat "; " entries ^ " ]\n");
  (* a typed entry web needs an argument of exactly its tag *)
  let accepts =
    Array.to_list
      (Array.mapi
         (fun k (name, wf) ->
           let need =
             Array.mapi
               (fun j w ->
                 if cls_of_tag tags.(k).(w) = KBox then None else Some shapes.(k).(j))
               wf.entryw
           in
           let fits args =
             List.length args <> Array.length need
             || List.for_all2
                  (fun n v ->
                    match n with None -> true | Some t -> tag_of_value v = t)
                  (Array.to_list need) args
           in
           (name, fits))
         wfs)
  in
  { digest; src_digest; source = Buffer.contents buf; accepts }
