(** Offline auto-vectorizer — the paper's flagship split optimization
    (Table 1, ref [42]).

    The expensive half runs here, offline: canonical-loop recognition,
    induction-variable and stride analysis, dependence tests, reduction
    detection, and the profitability decision.  The result is *portable*:
    loops are rewritten to the vector builtins of PVIR
    (vector-typed loads/stores/arithmetic, [Splat], [Reduce]) at a
    target-independent vector factor, and the function is annotated with
    {!Pvir.Annot.key_vectorized}.  The cheap half runs online: a JIT with
    SIMD hardware emits vector instructions directly, a JIT without simply
    scalarizes the builtins (see [Pvjit.Legalize]) — "with no or little
    penalty", which is experiment E1.

    Loop shape accepted (exactly what the MiniC frontend emits for
    counted [for] loops after copy-prop/const-fold/idiom cleanup):

    {v
    preheader:  ... i = 0 ...
    header:     c = cmp slt i, n        ; n loop-invariant
                cbr c, body, exit
    body:       straight-line code, br step (or br header)
    step:       i = add i, 1, br header
    v}

    Vector factor: [target_vector_bytes / smallest element size] in the
    loop, i.e. 16 lanes for byte kernels, 4 for f32 — matching the SSE
    register width the paper's x86 JIT targets, while remaining a plain
    number in the bytecode that any other JIT may reinterpret. *)

open Pvir

(** Width in bytes of the portable vector register file assumed by the
    offline vectorizer (one SSE-class register). *)
let target_vector_bytes = 16

type reduction = {
  acc : Instr.reg;  (** accumulator register *)
  op : Instr.binop;  (** associative update operation *)
  vacc : Instr.reg;  (** vector accumulator (filled during transform) *)
}

type memop = {
  base : Instr.reg;  (** loop-invariant base register *)
  origin : origin;  (** what the base points to, for dependence tests *)
  offset_reg : Instr.reg option;  (** the [mul i, esz] register, if any *)
  static_off : int;
  dyn_off : Instr.reg list;
      (** loop-invariant dynamic addends inside the index (e.g. the [y*W]
          of a 2D row), sorted — part of the location identity *)
  esz : int;  (** element size implied by the address arithmetic *)
}

and origin = Oglobal of string | Oparam of int | Ounknown

(* ------------------------------------------------------------------ *)

type loop_info = {
  header : int;
  body_blocks : int list;  (** loop blocks except the header, in order *)
  exit : int;
  iv : Instr.reg;
  bound : Instr.reg;  (** n in [i < n] *)
  cmp_reg : Instr.reg;
  preheaders : int list;  (** outside predecessors of the header *)
}

exception Bail of string

let bail fmt = Printf.ksprintf (fun s -> raise (Bail s)) fmt

(* recognize the canonical counted loop; raises Bail otherwise *)
let recognize (fn : Func.t) (cfg : Cfg.t) (lp : Loops.loop) : loop_info =
  let header_blk = Func.find_block fn lp.header in
  let cmp_reg, iv, bound, body_l, exit_l =
    match (header_blk.instrs, header_blk.term) with
    | [ Instr.Cmp (Instr.Slt, c, i, n) ], Instr.Cbr (c', bt, bf) when c = c'
      -> (c, i, n, bt, bf)
    | _ -> bail "header is not a simple `i < n` guard"
  in
  if Loops.in_loop lp exit_l then bail "unexpected exit structure";
  if not (Loops.in_loop lp body_l) then bail "body is outside the loop";
  (* loop body: walk from body_l back to header, straight line *)
  let rec walk l acc =
    if l = lp.header then List.rev acc
    else
      let b = Func.find_block fn l in
      match b.term with
      | Instr.Br next ->
        if List.mem l acc then bail "cyclic body" else walk next (l :: acc)
      | _ -> bail "control flow inside loop body"
  in
  let body_blocks = walk body_l [] in
  if List.sort compare (lp.header :: body_blocks) <> List.sort compare lp.blocks
  then bail "loop contains blocks outside the straight-line body";
  let ivs = Loops.induction_variables fn lp in
  (match List.find_opt (fun (r, step, _) -> r = iv && Int64.equal step 1L) ivs with
  | Some _ -> ()
  | None -> bail "guard variable is not a unit-step induction variable");
  let defs = Loops.defs_in fn lp in
  if not (Loops.invariant_reg defs bound) then bail "loop bound varies";
  if not (Types.equal (Func.reg_type fn iv) Types.i64) then
    bail "induction variable is not i64";
  let preheaders =
    List.filter (fun p -> not (Loops.in_loop lp p)) (Cfg.preds cfg lp.header)
  in
  if preheaders = [] then bail "no preheader edge";
  {
    header = lp.header;
    body_blocks;
    exit = exit_l;
    iv;
    bound;
    cmp_reg;
    preheaders;
  }

(* ------------------------------------------------------------------ *)
(* classification of the loop body *)

type klass =
  | Kaddress  (** scalar address arithmetic on the induction variable *)
  | Kvector  (** computes a per-lane value; becomes vector code *)
  | Kuniform  (** same value every lane; stays scalar / hoisted *)
  | Kivstep  (** the i = i + 1 increment *)
  | Kreduction of Instr.binop

type body_info = {
  instrs : (Instr.t * klass) list;
  reductions : reduction list;
  memops : (Instr.t * memop) list;  (** loads and stores with their shape *)
  min_esz : int;  (** smallest element size touched *)
}

(* The definitions [classify_body] counts once, for all the memory
   operations of a loop: the function's and the loop's. *)
type census = {
  fn_defs : Census.t;
  singles : Instr.t option array;  (** {!Census.single_defs} *)
  consts : int64 option array;  (** {!Census.consts} *)
  loop_defs : Census.t;  (** {!Loops.defs_in} *)
}

(* the unique reaching definition of [base] outside the loop, best effort *)
let origin_of (fn : Func.t) (cs : census) (base : Instr.reg) : origin =
  if not (Loops.invariant_reg cs.loop_defs base) then Ounknown
  else if Census.count cs.fn_defs base = 0 then (
    (* never defined: must be a parameter *)
    match List.find_opt (fun p -> p = base) fn.params with
    | Some p ->
      let rec index_of i = function
        | [] -> Ounknown
        | x :: _ when x = p -> Oparam i
        | _ :: tl -> index_of (i + 1) tl
      in
      index_of 0 fn.params
    | None -> Ounknown)
  else
    match Census.find cs.singles base with
    | Some (Instr.Gaddr (_, g)) -> Oglobal g
    | _ -> Ounknown

(** Decompose the address register of a load/store into
    [base + (mul iv esz) + static] form. *)
let memop_shape (fn : Func.t) (cs : census) (body : Instr.t list) ~iv ~addr
    ~(access_ty : Types.t) ~static_off : memop =
  let access_esz = Types.scalar_size (Types.elem access_ty) in
  (* find the in-body definition of a register *)
  let find_def r =
    List.find_opt (fun i -> Instr.def i = Some r) body
  in
  let invariant r = Loops.invariant_reg cs.loop_defs r in
  let const_def c = Option.map Int64.to_int (Census.find cs.consts c) in
  (* r = iv + k + (sum of loop-invariant registers); returns
     (k, sorted invariant addends).  Handles 2D row indexing like
     [y*W + x + 1] where [y*W] is invariant in the inner loop. *)
  let rec iv_affine r =
    if r = iv then Some (0, [])
    else
      match find_def r with
      | Some (Instr.Binop (Instr.Add, _, a, b)) -> (
        let addend other (k, ds) =
          match const_def other with
          | Some c -> Some (k + c, ds)
          | None ->
            if invariant other then Some (k, List.sort compare (other :: ds))
            else None
        in
        match iv_affine a with
        | Some acc -> addend b acc
        | None -> (
          match iv_affine b with
          | Some acc -> addend a acc
          | None -> None))
      | Some (Instr.Binop (Instr.Sub, _, a, b)) -> (
        (* (iv + ...) - const *)
        match (iv_affine a, const_def b) with
        | Some (k, ds), Some c -> Some (k - c, ds)
        | _ -> None)
      | _ -> None
  in
  (* r = (iv + k + dyn) * scale; returns (scale, k*scale, dyn, chain reg) *)
  let as_iv_times r =
    match iv_affine r with
    | Some (k, ds) -> Some (1, k, ds, if r = iv then None else Some r)
    | None -> (
      match find_def r with
      | Some (Instr.Binop (Instr.Mul, _, a, b)) -> (
        let shifted x c =
          match (iv_affine x, const_def c) with
          | Some (k, ds), Some scale -> Some (scale, k * scale, ds, Some r)
          | _ -> None
        in
        match shifted a b with Some s -> Some s | None -> shifted b a)
      | _ -> None)
  in
  match find_def addr with
  | Some (Instr.Binop (Instr.Add, _, x, y)) -> (
    let classify base off =
      if not (invariant base) then bail "base pointer varies in loop";
      match as_iv_times off with
      | Some (scale, shift_bytes, dyn_off, offset_reg) ->
        if scale <> access_esz then
          bail "non-unit stride (scale %d, element %d)" scale access_esz;
        {
          base;
          origin = origin_of fn cs base;
          offset_reg;
          static_off = static_off + shift_bytes;
          dyn_off;
          esz = access_esz;
        }
      | None -> bail "address is not affine in the induction variable"
    in
    if invariant x then classify x y
    else if invariant y then classify y x
    else bail "no invariant base in address")
  | _ ->
    if invariant addr then
      (* invariant address: a[0]-style access; treat as uniform scalar *)
      bail "loop-invariant memory access (not vectorizable profitably)"
    else bail "address is not an add"

let classify_body (fn : Func.t) (info : loop_info) lp : body_info =
  (* classification leaves [fn] as it is, so one census serves it all *)
  let singles = Census.single_defs fn in
  let cs =
    {
      fn_defs = Census.defs fn fn.blocks;
      singles;
      consts = Census.consts singles;
      loop_defs = Loops.defs_in fn lp;
    }
  in
  let body_blocks = List.map (Func.find_block fn) info.body_blocks in
  let body = List.concat_map (fun (b : Func.block) -> b.instrs) body_blocks in
  (* registers used after the loop (outside loop blocks) *)
  let used_after =
    Census.uses fn
      (List.filter
         (fun (b : Func.block) -> not (Loops.in_loop lp b.label))
         fn.blocks)
  in
  (* i-dependence: fixpoint over body *)
  let idep = Hashtbl.create 16 in
  Hashtbl.replace idep info.iv ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        match Instr.def i with
        | Some d when not (Hashtbl.mem idep d) ->
          if List.exists (fun u -> Hashtbl.mem idep u) (Instr.uses i)
             || Instr.reads_memory i
          then (
            Hashtbl.replace idep d ();
            changed := true)
        | _ -> ())
      body
  done;
  (* detect reductions: acc defined exactly once in body as
     acc = op(acc, x) with op associative, acc live after the loop or
     used in the loop only by this op *)
  let assoc_op = function
    | Instr.Add | Instr.Min | Instr.Max | Instr.Umin | Instr.Umax -> true
    | _ -> false
  in
  let body_defs = Census.defs fn body_blocks in
  let reductions = ref [] in
  List.iter
    (fun i ->
      match i with
      | Instr.Binop (op, d, a, b) when assoc_op op && (d = a || d = b) ->
        (* float *sums* reassociate, so they need the fast-math opt-in;
           float min/max and all integer reductions are exact *)
        let reassociation_safe =
          (not (Types.is_float (Func.reg_type fn d)))
          || (match op with Instr.Min | Instr.Max -> true | _ -> false)
          || Annot.has_flag "pv.fast_math" fn.annots
        in
        if
          Census.count body_defs d = 1
          && d <> info.iv && reassociation_safe
        then reductions := { acc = d; op; vacc = -1 } :: !reductions
      | _ -> ())
    body;
  let is_reduction r = List.exists (fun red -> red.acc = r) !reductions in
  (* memory operations *)
  let memops = ref [] in
  let min_esz = ref max_int in
  List.iter
    (fun i ->
      match i with
      | Instr.Load (ty, _, base, off) ->
        if Types.is_vector ty then bail "loop is already vectorized";
        let m =
          memop_shape fn cs body ~iv:info.iv ~addr:base ~access_ty:ty
            ~static_off:off
        in
        min_esz := min !min_esz m.esz;
        memops := (i, m) :: !memops
      | Instr.Store (ty, _, base, off) ->
        if Types.is_vector ty then bail "loop is already vectorized";
        let m =
          memop_shape fn cs body ~iv:info.iv ~addr:base ~access_ty:ty
            ~static_off:off
        in
        min_esz := min !min_esz m.esz;
        memops := (i, m) :: !memops
      | Instr.Call _ -> bail "call inside loop"
      | Instr.Alloca _ -> bail "alloca inside loop"
      | _ -> ())
    body;
  if !memops = [] then bail "no memory traffic (nothing to vectorize)";
  (* address registers: those feeding load/store base positions, plus
     their whole i-dependent computation chains (shifted indices like
     [i + 1] introduce intermediate adds) *)
  let address_regs = Hashtbl.create 8 in
  List.iter
    (fun (i, m) ->
      (match i with
      | Instr.Load (_, _, base, _) | Instr.Store (_, _, base, _) ->
        Hashtbl.replace address_regs base ()
      | _ -> ());
      Option.iter (fun r -> Hashtbl.replace address_regs r ()) m.offset_reg)
    !memops;
  let addr_changed = ref true in
  while !addr_changed do
    addr_changed := false;
    List.iter
      (fun i ->
        match Instr.def i with
        | Some d when Hashtbl.mem address_regs d ->
          List.iter
            (fun u ->
              if
                u <> info.iv
                && Hashtbl.mem idep u
                && not (Hashtbl.mem address_regs u)
              then begin
                Hashtbl.replace address_regs u ();
                addr_changed := true
              end)
            (Instr.uses i)
        | _ -> ())
      body
  done;
  (* classify each body instruction *)
  let classify i : klass =
    match i with
    | Instr.Binop (Instr.Add, d, a, b) when d = info.iv && (a = info.iv || b = info.iv)
      -> Kivstep
    | _ -> (
      match Instr.def i with
      | Some d when is_reduction d -> (
        match i with
        | Instr.Binop (op, _, _, _) -> Kreduction op
        | _ -> bail "reduction accumulator redefined strangely")
      | Some d when Hashtbl.mem address_regs d -> (
        (* address arithmetic stays scalar, but it must not feed vector
           computations *)
        match i with
        | Instr.Load _ -> bail "indirect addressing (loaded value as index)"
        | _ -> Kaddress)
      | Some d when Hashtbl.mem idep d -> Kvector
      | Some _ -> Kuniform
      | None -> (
        match i with
        | Instr.Store _ -> Kvector
        | _ -> bail "unsupported effectful instruction in loop"))
  in
  let classified = List.map (fun i -> (i, classify i)) body in
  (* sanity: address regs must not be used by vector instructions, and
     vector regs must not leak into addresses *)
  List.iter
    (fun (i, k) ->
      match k with
      | Kvector -> (
        match i with
        | Instr.Load _ | Instr.Store _ -> ()
        | _ ->
          List.iter
            (fun u ->
              if Hashtbl.mem address_regs u && u <> info.iv then
                bail "address value used in vector computation")
            (Instr.uses i))
      | Kaddress ->
        List.iter
          (fun u ->
            if Hashtbl.mem idep u && u <> info.iv
               && not (Hashtbl.mem address_regs u)
            then bail "vector value used in address computation")
          (Instr.uses i)
      | _ -> ())
    classified;
  (* values defined in the loop must not be observed after it, except
     reductions and the induction variable *)
  Array.iteri
    (fun d n ->
      if n > 0 && Census.count used_after d > 0 && d <> info.iv
         && not (is_reduction d)
      then bail "loop value r%d observed after the loop" d)
    cs.loop_defs;
  (* the induction variable itself may appear only in addresses and its own
     increment (a use as data would need an iota vector) *)
  List.iter
    (fun (i, k) ->
      match k with
      | Kvector | Kreduction _ ->
        if List.mem info.iv (Instr.uses i) then
          bail "induction variable used as data"
      | _ -> ())
    classified;
  { instrs = classified; reductions = !reductions; memops = !memops;
    min_esz = (if !min_esz = max_int then 8 else !min_esz) }

(* dependence test over the recognized memops *)
let check_dependences (fn : Func.t) (body : body_info) =
  let stores =
    List.filter (fun (i, _) -> match i with Instr.Store _ -> true | _ -> false)
      body.memops
  in
  let noalias_params = Annot.has_flag Annot.key_no_alias fn.annots in
  let same_location (a : memop) (b : memop) =
    a.base = b.base && a.static_off = b.static_off && a.esz = b.esz
    && a.dyn_off = b.dyn_off
  in
  let provably_distinct (a : memop) (b : memop) =
    match (a.origin, b.origin) with
    | Oglobal g1, Oglobal g2 -> not (String.equal g1 g2)
    | Oparam p1, Oparam p2 -> noalias_params && p1 <> p2
    | Oglobal _, Oparam _ | Oparam _, Oglobal _ -> noalias_params
    | _ -> false
  in
  List.iter
    (fun (_, sm) ->
      List.iter
        (fun (oi, om) ->
          let is_self = same_location sm om in
          match oi with
          | Instr.Load _ | Instr.Store _ ->
            if not (is_self || provably_distinct sm om) then
              bail "possible aliasing between loop memory accesses"
          | _ -> ())
        body.memops)
    stores

(* ------------------------------------------------------------------ *)
(* transformation *)

let identity_value (op : Instr.binop) (s : Types.scalar) : Value.t =
  if Types.is_float_scalar s then
    match op with
    | Instr.Add -> Value.float s 0.0
    | Instr.Min -> Value.float s infinity
    | Instr.Max -> Value.float s neg_infinity
    | _ -> bail "no identity for float op"
  else
    let bits = Types.scalar_size s * 8 in
    match op with
    | Instr.Add -> Value.int s 0L
    | Instr.Min ->
      (* identity of min is the maximum value *)
      Value.int s (Int64.sub (Int64.shift_left 1L (bits - 1)) 1L)
    | Instr.Max -> Value.int s (Int64.neg (Int64.shift_left 1L (bits - 1)))
    | Instr.Umin -> Value.int s (-1L) (* all ones *)
    | Instr.Umax -> Value.int s 0L
    | _ -> bail "no identity for op"

(** Rewrite one recognized loop.  Returns the vector factor used. *)
let transform (fn : Func.t) (info : loop_info) (body : body_info) : int =
  let vf = target_vector_bytes / body.min_esz in
  if vf < 2 then bail "vector factor below 2";
  let vec_ty_of r =
    let s = Types.elem (Func.reg_type fn r) in
    Types.vec s vf
  in
  (* fresh blocks *)
  let vpre = Func.add_block fn in
  let vheader = Func.add_block fn in
  let vbody = Func.add_block fn in
  let vexit = Func.add_block fn in
  (* retarget original entry edges into vpre *)
  List.iter
    (fun p ->
      let pb = Func.find_block fn p in
      pb.term <-
        Instr.map_term_labels
          (fun l -> if l = info.header then vpre.label else l)
          pb.term)
    info.preheaders;
  let pre = ref [] in
  let emit_pre i = pre := i :: !pre in
  (* n_vec = n & ~(vf-1) *)
  let mask = Func.fresh_reg fn Types.i64 in
  emit_pre (Instr.Const (mask, Value.i64 (Int64.lognot (Int64.of_int (vf - 1)))));
  let n_vec = Func.fresh_reg fn Types.i64 in
  emit_pre (Instr.Binop (Instr.And, n_vec, info.bound, mask));
  (* vector accumulators *)
  let reductions =
    List.map
      (fun red ->
        let s = Types.elem (Func.reg_type fn red.acc) in
        let idv = Func.fresh_reg fn (Types.Scalar s) in
        emit_pre (Instr.Const (idv, identity_value red.op s));
        let vacc = Func.fresh_reg fn (Types.vec s vf) in
        emit_pre (Instr.Splat (vacc, idv));
        { red with vacc })
      body.reductions
  in
  let reduction_of r = List.find_opt (fun red -> red.acc = r) reductions in
  (* uniform cloning memo: body-defined uniform values recomputed in vpre *)
  let body_def r =
    List.find_opt (fun (i, _) -> Instr.def i = Some r) body.instrs
  in
  let clone_memo = Hashtbl.create 8 in
  let cloning = Hashtbl.create 8 in
  let rec clone_uniform r =
    match Hashtbl.find_opt clone_memo r with
    | Some r' -> r'
    | None -> (
      match body_def r with
      | None -> r (* defined outside the loop: already invariant *)
      | Some (i, Kuniform) ->
        (* a def reachable from its own operands (r3 = r3 | 0) cannot be
           recomputed in the preheader: leave the loop scalar *)
        if Hashtbl.mem cloning r then
          bail "cyclic uniform definition of r%d" r;
        Hashtbl.replace cloning r ();
        let operands = Instr.uses i in
        let mapped = List.map clone_uniform operands in
        let d = Func.fresh_reg fn (Func.reg_type fn r) in
        let remap u =
          (* positional rewrite via map_regs: replace each use *)
          match List.assoc_opt u (List.combine operands mapped) with
          | Some m -> m
          | None -> u
        in
        let i' =
          Instr.map_regs (fun x -> if x = r then d else remap x) i
        in
        emit_pre i';
        Hashtbl.replace clone_memo r d;
        d
      | Some _ -> bail "vector value where uniform expected")
  in
  (* splat memo for scalar operands of vector instructions *)
  let splat_memo = Hashtbl.create 8 in
  let splat_of r =
    match Hashtbl.find_opt splat_memo r with
    | Some v -> v
    | None ->
      let scalar = clone_uniform r in
      let v = Func.fresh_reg fn (vec_ty_of r) in
      emit_pre (Instr.Splat (v, scalar));
      Hashtbl.replace splat_memo r v;
      v
  in
  (* map from scalar body register to its vector counterpart *)
  let vreg_memo = Hashtbl.create 16 in
  let is_vector_def r =
    match body_def r with
    | Some (_, Kvector) -> true
    | Some (_, Kreduction _) -> true
    | _ -> false
  in
  let vreg_of r =
    match Hashtbl.find_opt vreg_memo r with
    | Some v -> v
    | None ->
      let v = Func.fresh_reg fn (vec_ty_of r) in
      Hashtbl.replace vreg_memo r v;
      v
  in
  (* vector operand: vector reg if defined as vector in body, the vector
     accumulator for reductions, a splat otherwise *)
  let vop r =
    match reduction_of r with
    | Some red -> red.vacc
    | None -> if is_vector_def r then vreg_of r else splat_of r
  in
  (* build the vector body.  Scalar instructions kept in the vector body
     (addresses, uniforms) are cloned onto fresh registers so the two
     loops stay register-disjoint (the scalar remainder loop still runs
     afterwards, and later passes treat the bodies independently). *)
  let vinstrs = ref [] in
  let emit_v i = vinstrs := i :: !vinstrs in
  let sreg_map = Hashtbl.create 8 in
  let sreg r = match Hashtbl.find_opt sreg_map r with Some r' -> r' | None -> r in
  let clone_scalar i =
    (* invariant: only def-carrying instructions are classified Kscalar by
       the analysis above — a def-less instruction never reaches here *)
    let d = match Instr.def i with Some d -> d | None -> assert false in
    let d' = Func.fresh_reg fn (Func.reg_type fn d) in
    let i' = Instr.map_regs (fun x -> if x = d then d' else sreg x) i in
    Hashtbl.replace sreg_map d d';
    emit_v i'
  in
  List.iter
    (fun (i, k) ->
      match k with
      | Kaddress | Kuniform -> clone_scalar i  (* scalar, once per vector step *)
      | Kivstep -> ()  (* re-emitted below with step = vf *)
      | Kreduction _ -> (
        (* invariant: an instruction is classified [Kreduction] only when
           it is the binop of a recognized reduction chain, so both the
           shape match and the [reduction_of] lookup must succeed *)
        match i with
        | Instr.Binop (op, d, a, b) ->
          let red =
            match reduction_of d with Some r -> r | None -> assert false
          in
          let other = if a = d then b else a in
          emit_v (Instr.Binop (op, red.vacc, red.vacc, vop other))
        | _ -> assert false)
      | Kvector -> (
        match i with
        | Instr.Load (ty, d, base, off) ->
          let s = Types.elem ty in
          emit_v (Instr.Load (Types.vec s vf, vreg_of d, sreg base, off))
        | Instr.Store (ty, src, base, off) ->
          let s = Types.elem ty in
          let vsrc = vop src in
          ignore s;
          emit_v (Instr.Store (Func.reg_type fn vsrc, vsrc, sreg base, off))
        | Instr.Binop (op, d, a, b) ->
          emit_v (Instr.Binop (op, vreg_of d, vop a, vop b))
        | Instr.Unop (op, d, a) -> emit_v (Instr.Unop (op, vreg_of d, vop a))
        | Instr.Conv (kind, d, a) -> emit_v (Instr.Conv (kind, vreg_of d, vop a))
        | Instr.Mov (d, a) -> emit_v (Instr.Mov (vreg_of d, vop a))
        | Instr.Select _ -> bail "select in vector position (no vector select)"
        | Instr.Cmp _ -> bail "compare in vector position"
        | _ -> bail "unsupported instruction in vector body")
      )
    body.instrs;
  (* iv step by vf *)
  let step = Func.fresh_reg fn Types.i64 in
  emit_v (Instr.Const (step, Value.i64 (Int64.of_int vf)));
  emit_v (Instr.Binop (Instr.Add, info.iv, info.iv, step));
  (* assemble blocks *)
  vpre.instrs <- List.rev !pre;
  vpre.term <- Instr.Br vheader.label;
  let vcmp = Func.fresh_reg fn Types.i32 in
  vheader.instrs <- [ Instr.Cmp (Instr.Slt, vcmp, info.iv, n_vec) ];
  vheader.term <- Instr.Cbr (vcmp, vbody.label, vexit.label);
  vbody.instrs <- List.rev !vinstrs;
  vbody.term <- Instr.Br vheader.label;
  (* vexit: fold vector accumulators back into the scalar ones, then enter
     the original (now remainder) loop *)
  vexit.instrs <-
    List.concat_map
      (fun red ->
        let s = Types.elem (Func.reg_type fn red.acc) in
        let partial = Func.fresh_reg fn (Types.Scalar s) in
        let redop =
          match red.op with
          | Instr.Add -> Instr.Radd
          | Instr.Min -> Instr.Rmin
          | Instr.Max -> Instr.Rmax
          | Instr.Umin -> Instr.Rumin
          | Instr.Umax -> Instr.Rumax
          (* invariant: [reduction_of] only accepts these five operators *)
          | _ -> assert false
        in
        [
          Instr.Reduce (redop, partial, red.vacc);
          Instr.Binop (red.op, red.acc, red.acc, partial);
        ])
      reductions;
  vexit.term <- Instr.Br info.header;
  vf

(* ------------------------------------------------------------------ *)

type result = {
  vectorized : (int * int) list;  (** (header label, vector factor) *)
  bailed : (int * string) list;  (** (header label, reason) *)
}

(** Vectorize every eligible innermost loop of [fn].  The work is charged
    to the accountant at offline-analysis rates: this is the expensive
    step the paper moves out of the JIT. *)
let run_func ?account (fn : Func.t) : result =
  let cfg = Cfg.build fn in
  let loops = Loops.find cfg in
  let n = Func.instr_count fn in
  (* loop recognition + dependence testing is the costly part: quadratic in
     the body for the all-pairs dependence test *)
  Account.charge_opt account ~pass:"vectorize.analysis" (8 * n);
  let innermost =
    List.filter
      (fun (lp : Loops.loop) ->
        not
          (List.exists
             (fun (other : Loops.loop) ->
               other.header <> lp.header && List.mem other.header lp.blocks)
             loops.Loops.loops))
      loops.Loops.loops
  in
  let vectorized = ref [] in
  let bailed = ref [] in
  List.iter
    (fun lp ->
      (* [transform] mutates the CFG before its last chance to bail, so
         snapshot the blocks and roll back on Bail to keep the function
         intact for the scalar fallback (and for the remaining loops) *)
      let saved = Func.copy fn in
      match
        let info = recognize fn cfg lp in
        let body = classify_body fn info lp in
        Account.charge_opt account ~pass:"vectorize.dependence"
          (List.length body.memops * List.length body.memops * 4);
        check_dependences fn body;
        Account.charge_opt account ~pass:"vectorize.transform" (2 * n);
        transform fn info body
      with
      | vf ->
        vectorized := (lp.Loops.header, vf) :: !vectorized;
        Func.set_loop_annot fn lp.Loops.header
          (Annot.add Annot.key_unit_stride (Annot.Bool true)
             (Annot.add Annot.key_vector_factor (Annot.Int vf)
                (Func.loop_annot fn lp.Loops.header)))
      | exception Bail reason ->
        fn.Func.blocks <- saved.Func.blocks;
        fn.Func.block_index <- None;
        bailed := (lp.Loops.header, reason) :: !bailed)
    innermost;
  if !vectorized <> [] then
    Func.add_annot fn Annot.key_vectorized
      (Annot.Int (List.fold_left (fun acc (_, vf) -> max acc vf) 0 !vectorized));
  { vectorized = !vectorized; bailed = !bailed }

let run ?account (prog : Prog.t) : (string * result) list =
  List.map (fun (fn : Func.t) -> (fn.name, run_func ?account fn)) prog.funcs
