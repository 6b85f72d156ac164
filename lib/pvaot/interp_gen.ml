(** PVIR → OCaml code generation for the AOT interpreter engine.

    One OCaml function per PVIR function, basic blocks as a tail-recursive
    nest of local functions, registers in one of four storage classes —
    all chosen so the hot paths never allocate:

    - [KNarrow]: I8/I16/I32 scalars as native [int ref]s.  The payload
      invariant of [Value.Int] (always sign-normalized to the scalar
      width) fits a 63-bit [int] with room to spare, and every operation
      re-normalizes exactly like [Value.int] does — with [lsl]/[asr]
      pairs at width 63-w — so results match the engines bit for bit.
      Assigning an immediate [int] to a ref neither allocates nor needs
      a write barrier.
    - [KWide]: I64 scalars and pointers as slots of a per-call int64
      [Bigarray.Array1], accessed with [unsafe_get]/[unsafe_set] on a
      statically-annotated type (indices are generator-assigned
      constants, always in bounds).  The native compiler specializes
      bigarray access of known kind/layout to raw unboxed 64-bit loads
      and stores, so I64 arithmetic chains never box intermediates.  (A
      plain [int64 ref] would allocate a boxed [Int64] per write.)
    - [KFloat]: F32/F64 as slots of a flat [float array], accessed with
      [Array.unsafe_get]/[unsafe_set] (indices are generator-assigned
      constants, always in bounds).  Flat float arrays store unboxed.
    - [KBox]: vectors as [Pvir.Value.t ref]; vector operations delegate
      to [Pvir.Eval] on boxed values, which is the same code the
      interpreter runs.

    Hot scalar operations are emitted inline, mirroring {!Pvir.Eval}'s
    arithmetic *exactly* (including result normalization, unsigned views
    and evaluation order), so results stay bit-identical to both host
    interpreter engines.

    Accounting is batched: per-instruction charges accumulate at *codegen
    time* into a pending (cycles, instrs) pair that is flushed — two
    additions plus one fuel check — before any operation that can raise
    or transfer control, and at every block end.  Because every
    observable effect (store, call, intrinsic, trap check) is a flush
    point, results, output, globals and counters are bit-identical to the
    threaded engine.  That includes fuel traps: the cold branch of a
    flush that overruns the budget rewinds the batch and re-charges its
    static per-instruction costs one at a time, so the trap leaves the
    counters exactly where the threaded engine's per-instruction check
    would.

    Generated code contains {e no safepoint polls}: neither the
    checkpoint threshold nor the sampling-profiler threshold is checked
    at block entries, and no shadow activation stack is maintained.
    Activations that need either (an armed checkpoint or an attached
    {!Pvprof.t} sampler) are delegated whole to the threaded engine by
    the runner in [pvaot.ml] — accounting-identical by construction, so
    snapshots and sampled streams still match every engine bit for bit.

    The input is a verified program, so register types, globals and
    callees always resolve.  Anything the generator cannot prove it can
    compile exactly raises {!Unsupported}; the caller falls back to the
    threaded engine, so this module never needs to be complete — only
    correct. *)

module Types = Pvir.Types
module Instr = Pvir.Instr
module Func = Pvir.Func
module Value = Pvir.Value
module IntSet = Set.Make (Int)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Storage classes                                                     *)

type cls =
  | KNarrow of Types.scalar  (** I8/I16/I32: native [int ref] *)
  | KWide  (** I64/pointer: 8-byte slot in the [ir_] scratch *)
  | KFloat of Types.scalar  (** F32/F64: slot in the [fr_] float array *)
  | KBox  (** vectors: [Value.t ref] *)

let cls_of (ty : Types.t) : cls =
  match ty with
  | Types.Scalar ((Types.I8 | Types.I16 | Types.I32) as s) -> KNarrow s
  | Types.Scalar Types.I64 | Types.Ptr _ -> KWide
  | Types.Scalar ((Types.F32 | Types.F64) as s) -> KFloat s
  | Types.Vector _ -> KBox

let same_cls a b =
  match (a, b) with
  | KNarrow x, KNarrow y -> x = y
  | KWide, KWide -> true
  | KFloat x, KFloat y -> x = y
  | KBox, KBox -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Literal / expression rendering                                      *)

let scalar_lit (s : Types.scalar) =
  match s with
  | Types.I8 -> "Ty.I8"
  | Types.I16 -> "Ty.I16"
  | Types.I32 -> "Ty.I32"
  | Types.I64 -> "Ty.I64"
  | Types.F32 -> "Ty.F32"
  | Types.F64 -> "Ty.F64"

let ty_lit (ty : Types.t) =
  match ty with
  | Types.Scalar s -> Printf.sprintf "(Ty.Scalar %s)" (scalar_lit s)
  | Types.Vector (s, n) ->
    Printf.sprintf "(Ty.Vector (%s, %d))" (scalar_lit s) n
  | Types.Ptr s -> Printf.sprintf "(Ty.Ptr %s)" (scalar_lit s)

let int64_lit (x : int64) = Printf.sprintf "(%LdL)" x

(* Floats are rendered through their bit pattern: exact for every value
   including nans, infinities and signed zeros. *)
let float_lit (x : float) =
  Printf.sprintf "(Int64.float_of_bits %s)" (int64_lit (Int64.bits_of_float x))

let rec value_lit (v : Value.t) =
  match v with
  | Value.Int (s, x) ->
    Printf.sprintf "(V.Int (%s, %s))" (scalar_lit s) (int64_lit x)
  | Value.Float (s, x) ->
    Printf.sprintf "(V.Float (%s, %s))" (scalar_lit s) (float_lit x)
  | Value.Vec elems ->
    if Array.length elems = 0 then unsupported "empty vector constant";
    "(V.Vec [| "
    ^ String.concat "; " (Array.to_list (Array.map value_lit elems))
    ^ " |])"

(* [Value.normalize s] applied to int64 expression [e] (identity at I64). *)
let nrm (s : Types.scalar) e =
  match s with
  | Types.I64 -> e
  | Types.I8 ->
    Printf.sprintf "(Int64.shift_right (Int64.shift_left %s 56) 56)" e
  | Types.I16 ->
    Printf.sprintf "(Int64.shift_right (Int64.shift_left %s 48) 48)" e
  | Types.I32 ->
    Printf.sprintf "(Int64.shift_right (Int64.shift_left %s 32) 32)" e
  | Types.F32 | Types.F64 -> unsupported "normalize of float scalar"

(* [Value.unsigned s] applied to int64 expression [e]. *)
let uns (s : Types.scalar) e =
  match s with
  | Types.I64 -> e
  | Types.I8 -> Printf.sprintf "(Int64.logand %s 0xFFL)" e
  | Types.I16 -> Printf.sprintf "(Int64.logand %s 0xFFFFL)" e
  | Types.I32 -> Printf.sprintf "(Int64.logand %s 0xFFFFFFFFL)" e
  | Types.F32 | Types.F64 -> unsupported "unsigned view of float scalar"

(* [Value.normalize_float s] applied to expression [e]. *)
let fnrm (s : Types.scalar) e =
  match s with
  | Types.F64 -> e
  | Types.F32 -> Printf.sprintf "(Int32.float_of_bits (Int32.bits_of_float %s))" e
  | _ -> unsupported "float-normalize of integer scalar"

(* Narrow-int (native [int]) variants.  A w-bit sign-normalization in a
   63-bit int is [lsl (63-w)] then [asr (63-w)]: the 63-bit wraparound of
   OCaml ints preserves the low w bits of every add/sub/mul exactly, and
   the shift pair recovers the signed value — the same payload
   [Value.int] would compute. *)
let nrm_i (s : Types.scalar) e =
  match s with
  | Types.I8 -> Printf.sprintf "(((%s) lsl 55) asr 55)" e
  | Types.I16 -> Printf.sprintf "(((%s) lsl 47) asr 47)" e
  | Types.I32 -> Printf.sprintf "(((%s) lsl 31) asr 31)" e
  | _ -> unsupported "narrow normalize at wide scalar"

let uns_i (s : Types.scalar) e =
  match s with
  | Types.I8 -> Printf.sprintf "((%s) land 0xFF)" e
  | Types.I16 -> Printf.sprintf "((%s) land 0xFFFF)" e
  | Types.I32 -> Printf.sprintf "((%s) land 0xFFFFFFFF)" e
  | _ -> unsupported "narrow unsigned view at wide scalar"

(* ------------------------------------------------------------------ *)
(* Per-function generation state                                       *)

type st = {
  buf : Buffer.t;
  fn : Func.t;
  dispatch : int;
  classes : (int, cls) Hashtbl.t;
  wide_slot : (int, int) Hashtbl.t;  (** KWide reg → index in ir_ *)
  float_slot : (int, int) Hashtbl.t;  (** KFloat reg → index in fr_ *)
  block_local : IntSet.t;
      (** regs whose every read follows a same-block def: emitted as
          shadowing [let] bindings (kept in machine registers), with no
          persistent storage at all *)
  guarded : IntSet.t;
  fnindex : (string, int) Hashtbl.t;  (** program function name → index *)
  img : Pvvm.Image.t;
  mutable ind : string;  (** current indentation *)
  mutable assigned : IntSet.t;  (** regs provably assigned at this point *)
  mutable pending : int list;
      (** per-instruction costs charged since the last flush, newest first *)
}

let line st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.buf st.ind;
      Buffer.add_string st.buf s;
      Buffer.add_char st.buf '\n')
    fmt

let reg_class st r =
  match Hashtbl.find_opt st.classes r with
  | Some c -> c
  | None ->
    let c = cls_of (Func.reg_type st.fn r) in
    Hashtbl.replace st.classes r c;
    c

(* Deref of register [r]: an expression of the class's raw type ([int],
   [int64], [float] or [V.t]).  Guards have already been emitted. *)
let rd st r =
  if IntSet.mem r st.block_local then Printf.sprintf "t%d_" r
  else
    match reg_class st r with
    | KNarrow _ -> Printf.sprintf "!ri_%d" r
    | KWide ->
      Printf.sprintf "(Bigarray.Array1.unsafe_get ir_ %d)"
        (Hashtbl.find st.wide_slot r)
    | KFloat _ ->
      Printf.sprintf "(Array.unsafe_get fr_ %d)" (Hashtbl.find st.float_slot r)
    | KBox -> Printf.sprintf "!rb_%d" r

(* Assignment of raw expression [e] (of the class's raw type) to [d].
   Block-local regs become shadowing [let] bindings — no store at all. *)
let emit_set st d e =
  if IntSet.mem d st.block_local then line st "let t%d_ = %s in" d e
  else
    match reg_class st d with
    | KNarrow _ -> line st "ri_%d := %s;" d e
    | KWide ->
      line st "Bigarray.Array1.unsafe_set ir_ %d (%s);"
        (Hashtbl.find st.wide_slot d) e
    | KFloat _ ->
      line st "Array.unsafe_set fr_ %d (%s);" (Hashtbl.find st.float_slot d) e
    | KBox -> line st "rb_%d := %s;" d e

(* Box register [r] back into a [Value.t] expression. *)
let boxed st r =
  match reg_class st r with
  | KNarrow s ->
    Printf.sprintf "(V.Int (%s, Int64.of_int %s))" (scalar_lit s) (rd st r)
  | KWide -> Printf.sprintf "(V.Int (Ty.I64, %s))" (rd st r)
  | KFloat s -> Printf.sprintf "(V.Float (%s, %s))" (scalar_lit s) (rd st r)
  | KBox -> rd st r

(* ------------------------------------------------------------------ *)
(* Batched accounting                                                  *)

let add_charge st n = st.pending <- n :: st.pending

(** Materialize pending charges: two additions and one fuel check, whose
    cold branch hands the batch's costs to [fuel_out_] (see {!header}).
    Must run before anything that can raise, call out or branch. *)
let flush st =
  if st.pending <> [] then begin
    let cycles = List.fold_left ( + ) 0 st.pending in
    if cycles > 0 then line st "ctx.A.cycles <- ctx.A.cycles + %d;" cycles;
    line st "ctx.A.instrs <- ctx.A.instrs + %d;" (List.length st.pending);
    line st "if ctx.A.instrs > ctx.A.fuel then fuel_out_ ctx [| %s |];"
      (String.concat "; " (List.rev_map string_of_int st.pending));
    st.pending <- []
  end

(* ------------------------------------------------------------------ *)
(* Uninitialized-register guards                                       *)

let read_may_trap st rs =
  List.exists (fun r -> not (IntSet.mem r st.assigned)) rs

(** Emit the guard-flag check for a read of [r], if the must-assign
    analysis could not discharge it.  The caller has already flushed. *)
let emit_guard st r =
  if not (IntSet.mem r st.assigned) then begin
    if not (IntSet.mem r st.guarded) then
      unsupported "register r%d read outside the guarded set" r;
    line st "if not !gu_%d then raise (VM.Trap %S);" r
      (Printf.sprintf "read of uninitialized register r%d in %s" r
         st.fn.Func.name);
    st.assigned <- IntSet.add r st.assigned
  end

(** Record a definition of [d]; sets the runtime flag for guarded regs. *)
let mark_def st d =
  st.assigned <- IntSet.add d st.assigned;
  if IntSet.mem d st.guarded then line st "gu_%d := true;" d

(* ------------------------------------------------------------------ *)
(* Operand read order (must match the engines' trap order exactly)     *)

let reads_in_order (i : Instr.t) : Instr.reg list =
  match i with
  | Instr.Const _ | Instr.Gaddr _ | Instr.Alloca _ -> []
  | Instr.Mov (_, a)
  | Instr.Unop (_, _, a)
  | Instr.Conv (_, _, a)
  | Instr.Splat (_, a)
  | Instr.Extract (_, a, _)
  | Instr.Reduce (_, _, a) -> [ a ]
  | Instr.Binop (_, _, a, b) -> [ a; b ]
  | Instr.Cmp (_, _, a, b) -> [ b; a ]
  | Instr.Select (_, c, a, b) -> [ b; a; c ]
  | Instr.Load (_, _, base, _) -> [ base ]
  | Instr.Store (_, src, base, _) -> [ base; src ]
  | Instr.Call (_, _, args) -> args

(* ------------------------------------------------------------------ *)
(* Scalar operation bodies (exact mirrors of Pvir.Eval)                *)

let is_div_op (op : Instr.binop) =
  match op with
  | Instr.Div | Instr.Udiv | Instr.Rem | Instr.Urem -> true
  | _ -> false

(** Integer binop at scalar [s] in the boxed-int64 domain (used for
    KWide, where [s] is always I64 so [nrm]/[uns] are identities):
    expression computing the raw [int64] result from operand expressions
    [xa]/[xb].  Mirrors [Eval.int_binop], including the
    [Value.int]-normalization applied to every result.  Division
    operators embed their zero check; the caller must have flushed. *)
let int_binop_expr _st (op : Instr.binop) s xa xb =
  let n e = nrm s e in
  match op with
  | Instr.Add -> n (Printf.sprintf "(Int64.add %s %s)" xa xb)
  | Instr.Sub -> n (Printf.sprintf "(Int64.sub %s %s)" xa xb)
  | Instr.Mul -> n (Printf.sprintf "(Int64.mul %s %s)" xa xb)
  | Instr.Div ->
    Printf.sprintf
      "(if (%s : int64) = 0L then raise (VM.Trap \"division by zero\") \
       else %s)"
      xb
      (n (Printf.sprintf "(Int64.div %s %s)" xa xb))
  | Instr.Udiv ->
    Printf.sprintf
      "(if (%s : int64) = 0L then raise (VM.Trap \"division by zero\") \
       else %s)"
      xb
      (n (Printf.sprintf "(Int64.unsigned_div %s %s)" (uns s xa) (uns s xb)))
  | Instr.Rem ->
    Printf.sprintf
      "(if (%s : int64) = 0L then raise (VM.Trap \"division by zero\") \
       else %s)"
      xb
      (n (Printf.sprintf "(Int64.rem %s %s)" xa xb))
  | Instr.Urem ->
    Printf.sprintf
      "(if (%s : int64) = 0L then raise (VM.Trap \"division by zero\") \
       else %s)"
      xb
      (n (Printf.sprintf "(Int64.unsigned_rem %s %s)" (uns s xa) (uns s xb)))
  | Instr.And -> n (Printf.sprintf "(Int64.logand %s %s)" xa xb)
  | Instr.Or -> n (Printf.sprintf "(Int64.logor %s %s)" xa xb)
  | Instr.Xor -> n (Printf.sprintf "(Int64.logxor %s %s)" xa xb)
  | Instr.Shl ->
    n (Printf.sprintf "(Int64.shift_left %s (Int64.to_int %s land 63))" xa xb)
  | Instr.Lshr ->
    n
      (Printf.sprintf
         "(Int64.shift_right_logical %s (Int64.to_int %s land 63))" (uns s xa)
         xb)
  | Instr.Ashr ->
    n (Printf.sprintf "(Int64.shift_right %s (Int64.to_int %s land 63))" xa xb)
  | Instr.Min ->
    n (Printf.sprintf "(if (%s : int64) <= %s then %s else %s)" xa xb xa xb)
  | Instr.Max ->
    n (Printf.sprintf "(if (%s : int64) >= %s then %s else %s)" xa xb xa xb)
  | Instr.Umin ->
    (* [unsigned_compare a b] is [compare (sub a min_int) (sub b min_int)] *)
    n
      (Printf.sprintf
         "(if Int64.sub %s Int64.min_int <= Int64.sub %s Int64.min_int then \
          %s else %s)"
         (uns s xa) (uns s xb) xa xb)
  | Instr.Umax ->
    n
      (Printf.sprintf
         "(if Int64.sub %s Int64.min_int >= Int64.sub %s Int64.min_int then \
          %s else %s)"
         (uns s xa) (uns s xb) xa xb)

(** Integer binop at narrow scalar [s] in the native-int domain.  All
    payloads are width-normalized (≤ 33 significant bits), so 63-bit
    wraparound preserves the low [w] bits of every result exactly; shift
    amounts are masked [land 63] exactly like the engines' ([lsl]/[lsr]/
    [asr] are specified for counts up to [Sys.int_size] = 63). *)
let narrow_binop_expr (op : Instr.binop) s xa xb =
  let n e = nrm_i s e in
  let u e = uns_i s e in
  match op with
  | Instr.Add -> n (Printf.sprintf "(%s + %s)" xa xb)
  | Instr.Sub -> n (Printf.sprintf "(%s - %s)" xa xb)
  | Instr.Mul -> n (Printf.sprintf "(%s * %s)" xa xb)
  | Instr.Div ->
    Printf.sprintf
      "(if %s = 0 then raise (VM.Trap \"division by zero\") else %s)" xb
      (n (Printf.sprintf "(%s / %s)" xa xb))
  | Instr.Udiv ->
    Printf.sprintf
      "(if %s = 0 then raise (VM.Trap \"division by zero\") else %s)" xb
      (n (Printf.sprintf "(%s / %s)" (u xa) (u xb)))
  | Instr.Rem ->
    Printf.sprintf
      "(if %s = 0 then raise (VM.Trap \"division by zero\") else %s)" xb
      (n (Printf.sprintf "(%s mod %s)" xa xb))
  | Instr.Urem ->
    Printf.sprintf
      "(if %s = 0 then raise (VM.Trap \"division by zero\") else %s)" xb
      (n (Printf.sprintf "(%s mod %s)" (u xa) (u xb)))
  | Instr.And -> n (Printf.sprintf "(%s land %s)" xa xb)
  | Instr.Or -> n (Printf.sprintf "(%s lor %s)" xa xb)
  | Instr.Xor -> n (Printf.sprintf "(%s lxor %s)" xa xb)
  | Instr.Shl -> n (Printf.sprintf "(%s lsl (%s land 63))" xa xb)
  | Instr.Lshr -> n (Printf.sprintf "(%s lsr (%s land 63))" (u xa) xb)
  | Instr.Ashr -> n (Printf.sprintf "(%s asr (%s land 63))" xa xb)
  | Instr.Min ->
    n (Printf.sprintf "(if %s <= %s then %s else %s)" xa xb xa xb)
  | Instr.Max ->
    n (Printf.sprintf "(if %s >= %s then %s else %s)" xa xb xa xb)
  | Instr.Umin ->
    n (Printf.sprintf "(if %s <= %s then %s else %s)" (u xa) (u xb) xa xb)
  | Instr.Umax ->
    n (Printf.sprintf "(if %s >= %s then %s else %s)" (u xa) (u xb) xa xb)

(** Float binop at scalar [s]; mirrors [Eval.float_binop] (every result
    through [Value.float]'s normalization). *)
let float_binop_expr (op : Instr.binop) s xa xb =
  let n e = fnrm s e in
  match op with
  | Instr.Add -> n (Printf.sprintf "(%s +. %s)" xa xb)
  | Instr.Sub -> n (Printf.sprintf "(%s -. %s)" xa xb)
  | Instr.Mul -> n (Printf.sprintf "(%s *. %s)" xa xb)
  | Instr.Div -> n (Printf.sprintf "(%s /. %s)" xa xb)
  | Instr.Min -> n (Printf.sprintf "(Float.min %s %s)" xa xb)
  | Instr.Max -> n (Printf.sprintf "(Float.max %s %s)" xa xb)
  | _ -> unsupported "binop %s on float" (Instr.binop_name op)

let int_cmp_expr (op : Instr.relop) s xa xb =
  (* direct operators at a statically-annotated int64 type compile to
     unboxed compares; [Int64.unsigned_compare a b] is
     [compare (sub a min_int) (sub b min_int)] *)
  let ucmp rel =
    Printf.sprintf "(Int64.sub %s Int64.min_int %s Int64.sub %s Int64.min_int)"
      (uns s xa) rel (uns s xb)
  in
  match op with
  | Instr.Eq -> Printf.sprintf "((%s : int64) = %s)" xa xb
  | Instr.Ne -> Printf.sprintf "((%s : int64) <> %s)" xa xb
  | Instr.Slt -> Printf.sprintf "((%s : int64) < %s)" xa xb
  | Instr.Sle -> Printf.sprintf "((%s : int64) <= %s)" xa xb
  | Instr.Sgt -> Printf.sprintf "((%s : int64) > %s)" xa xb
  | Instr.Sge -> Printf.sprintf "((%s : int64) >= %s)" xa xb
  | Instr.Ult -> ucmp "<"
  | Instr.Ule -> ucmp "<="
  | Instr.Ugt -> ucmp ">"
  | Instr.Uge -> ucmp ">="

(** Comparison at narrow scalar [s] in the native-int domain: normalized
    payloads compare identically to their int64 counterparts. *)
let narrow_cmp_expr (op : Instr.relop) s xa xb =
  let u e = uns_i s e in
  match op with
  | Instr.Eq -> Printf.sprintf "(%s = %s)" xa xb
  | Instr.Ne -> Printf.sprintf "(%s <> %s)" xa xb
  | Instr.Slt -> Printf.sprintf "(%s < %s)" xa xb
  | Instr.Sle -> Printf.sprintf "(%s <= %s)" xa xb
  | Instr.Sgt -> Printf.sprintf "(%s > %s)" xa xb
  | Instr.Sge -> Printf.sprintf "(%s >= %s)" xa xb
  | Instr.Ult -> Printf.sprintf "(%s < %s)" (u xa) (u xb)
  | Instr.Ule -> Printf.sprintf "(%s <= %s)" (u xa) (u xb)
  | Instr.Ugt -> Printf.sprintf "(%s > %s)" (u xa) (u xb)
  | Instr.Uge -> Printf.sprintf "(%s >= %s)" (u xa) (u xb)

let float_cmp_expr (op : Instr.relop) xa xb =
  match op with
  | Instr.Eq -> Printf.sprintf "(%s = %s)" xa xb
  | Instr.Ne -> Printf.sprintf "(%s <> %s)" xa xb
  | Instr.Slt -> Printf.sprintf "(%s < %s)" xa xb
  | Instr.Sle -> Printf.sprintf "(%s <= %s)" xa xb
  | Instr.Sgt -> Printf.sprintf "(%s > %s)" xa xb
  | Instr.Sge -> Printf.sprintf "(%s >= %s)" xa xb
  | _ -> unsupported "unsigned comparison on float"

(* Rendered constructor name for ops delegated to Eval. *)
let binop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.binop_name op)
let relop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.relop_name op)
let unop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.unop_name op)
let conv_ctor k = "Pvir.Instr." ^ String.capitalize_ascii (Instr.conv_name k)
let redop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.redop_name op)

(* ------------------------------------------------------------------ *)
(* Result unboxing for calls / Eval delegations                        *)

(** Emit [RES := <expr : V.t>] where RES is register [d]; shape mismatch
    is unreachable for verified programs. *)
let emit_unbox_value st d expr =
  let e =
    match reg_class st d with
    | KNarrow _ ->
      Printf.sprintf
        "(match %s with V.Int (_, x_) -> Int64.to_int x_ | _ -> assert false)"
        expr
    | KWide ->
      Printf.sprintf "(match %s with V.Int (_, x_) -> x_ | _ -> assert false)"
        expr
    | KFloat _ ->
      Printf.sprintf
        "(match %s with V.Float (_, x_) -> x_ | _ -> assert false)" expr
    | KBox -> expr
  in
  emit_set st d e

(** Emit the result handling for a call producing a [V.t option]. *)
let emit_call_result st (d : Instr.reg option) name call_expr =
  let no_value =
    Printf.sprintf "raise (VM.Trap %S)"
      (Printf.sprintf "call to %s produced no value" name)
  in
  match d with
  | None -> line st "ignore (%s : V.t option);" call_expr
  | Some d ->
    let e =
      match reg_class st d with
      | KNarrow _ ->
        Printf.sprintf
          "(match %s with Some (V.Int (_, x_)) -> Int64.to_int x_ | None -> \
           %s | Some _ -> assert false)"
          call_expr no_value
      | KWide ->
        Printf.sprintf
          "(match %s with Some (V.Int (_, x_)) -> x_ | None -> %s | Some _ \
           -> assert false)"
          call_expr no_value
      | KFloat _ ->
        Printf.sprintf
          "(match %s with Some (V.Float (_, x_)) -> x_ | None -> %s | Some _ \
           -> assert false)"
          call_expr no_value
      | KBox ->
        Printf.sprintf "(match %s with Some v_ -> v_ | None -> %s)" call_expr
          no_value
    in
    emit_set st d e

(* ------------------------------------------------------------------ *)
(* Instruction emission                                                *)

let scalar_size_of s = Types.scalar_size s

(** Emit the inline bounds check + direct byte access prelude for a
    memory operation at [a_] of [sz] bytes.  The slow path re-runs the
    engine's own checker, which raises the exact memory-fault trap. *)
let emit_bounds st sz =
  line st "if a_ < ng_ || a_ + %d > sz_ then M.check mem_ a_ %d;" sz sz

(** Emit [let a_ = <byte address> in] from the base register + offset. *)
let emit_addr st base off =
  match reg_class st base with
  | KNarrow _ -> line st "let a_ = %s + %d in" (rd st base) off
  | KWide -> line st "let a_ = Int64.to_int %s + %d in" (rd st base) off
  | _ -> unsupported "memory base r%d is not an integer register" base

let emit_instr st (i : Instr.t) =
  let d_cost = st.dispatch in
  match i with
  | Instr.Const (d, v) ->
    add_charge st (d_cost + 1);
    (match (reg_class st d, v) with
    | KNarrow s, Value.Int (s', x) when s = s' ->
      (* payloads are width-normalized, so they always fit an int; be
         defensive about hand-built un-normalized constants anyway *)
      if not (Int64.equal (Int64.of_int (Int64.to_int x)) x) then
        unsupported "un-normalized narrow constant for r%d" d;
      emit_set st d (Printf.sprintf "(%d)" (Int64.to_int x))
    | KWide, Value.Int (Types.I64, x) -> emit_set st d (int64_lit x)
    | KFloat s, Value.Float (s', x) when s = s' -> emit_set st d (float_lit x)
    | KBox, (Value.Vec _ as v) -> emit_set st d (value_lit v)
    | _ -> unsupported "constant shape mismatch for r%d" d);
    mark_def st d
  | Instr.Mov (d, a) ->
    add_charge st (d_cost + 1);
    if read_may_trap st [ a ] then flush st;
    emit_guard st a;
    if not (same_cls (reg_class st d) (reg_class st a)) then
      unsupported "mov class mismatch r%d := r%d" d a;
    emit_set st d (rd st a);
    mark_def st d
  | Instr.Gaddr (d, g) ->
    add_charge st (d_cost + 1);
    let addr = Pvvm.Image.global_address st.img g in
    (match reg_class st d with
    | KWide -> emit_set st d (int64_lit (Int64.of_int addr))
    | _ -> unsupported "gaddr into non-i64 register r%d" d);
    mark_def st d
  | Instr.Binop (op, d, a, b) -> (
    (* the engines read [a] (for the lane count) before charging *)
    if read_may_trap st [ a ] then flush st;
    emit_guard st a;
    let cls_a = reg_class st a in
    add_charge st (d_cost + Types.lanes (Func.reg_type st.fn a));
    if
      (not (same_cls cls_a (reg_class st b)))
      || not (same_cls (reg_class st d) cls_a)
    then unsupported "binop class mismatch at r%d" d;
    match cls_a with
    | KNarrow s ->
      if is_div_op op || read_may_trap st [ b ] then flush st;
      emit_guard st b;
      emit_set st d (narrow_binop_expr op s (rd st a) (rd st b));
      mark_def st d
    | KWide ->
      if is_div_op op || read_may_trap st [ b ] then flush st;
      emit_guard st b;
      emit_set st d (int_binop_expr st op Types.I64 (rd st a) (rd st b));
      mark_def st d
    | KFloat s ->
      if read_may_trap st [ b ] then flush st;
      emit_guard st b;
      emit_set st d (float_binop_expr op s (rd st a) (rd st b));
      mark_def st d
    | KBox ->
      flush st;
      emit_guard st b;
      emit_set st d
        (Printf.sprintf
           "(try Ev.binop %s %s %s with Ev.Division_by_zero -> raise \
            (VM.Trap \"division by zero\"))"
           (binop_ctor op) (rd st a) (rd st b));
      mark_def st d)
  | Instr.Unop (op, d, a) -> (
    add_charge st (d_cost + 1);
    if read_may_trap st [ a ] then flush st;
    emit_guard st a;
    if not (same_cls (reg_class st d) (reg_class st a)) then
      unsupported "unop class mismatch at r%d" d;
    match reg_class st a with
    | KNarrow s ->
      let e =
        match op with
        | Instr.Neg -> nrm_i s (Printf.sprintf "(- %s)" (rd st a))
        | Instr.Not -> nrm_i s (Printf.sprintf "(lnot %s)" (rd st a))
      in
      emit_set st d e;
      mark_def st d
    | KWide ->
      let e =
        match op with
        | Instr.Neg -> Printf.sprintf "(Int64.neg %s)" (rd st a)
        | Instr.Not -> Printf.sprintf "(Int64.lognot %s)" (rd st a)
      in
      emit_set st d e;
      mark_def st d
    | KFloat s ->
      (match op with
      | Instr.Neg ->
        emit_set st d (fnrm s (Printf.sprintf "(-. %s)" (rd st a)))
      | Instr.Not -> unsupported "not on float");
      mark_def st d
    | KBox ->
      flush st;
      emit_set st d (Printf.sprintf "(Ev.unop %s %s)" (unop_ctor op) (rd st a));
      mark_def st d)
  | Instr.Conv (kind, d, a) -> (
    add_charge st (d_cost + 1);
    if read_may_trap st [ a ] then flush st;
    emit_guard st a;
    let cd = reg_class st d and ca = reg_class st a in
    match (cd, ca) with
    | KBox, KBox ->
      flush st;
      emit_set st d
        (Printf.sprintf "(Ev.conv %s %s %s)" (conv_ctor kind)
           (ty_lit (Func.reg_type st.fn d))
           (rd st a));
      mark_def st d
    | KBox, _ | _, KBox -> unsupported "mixed scalar/vector conversion"
    | _ ->
      let x = rd st a in
      let e =
        match (kind, ca, cd) with
        (* integer → integer; the int64 mirror is nrm_dst (uns_src x) for
           Zext and nrm_dst x for Sext/Trunc, transported between the
           native-int and int64 domains as needed (Int64.to_int keeps the
           low 63 bits, and every narrow result takes only the low w). *)
        | Instr.Zext, KNarrow sa, KNarrow sd -> nrm_i sd (uns_i sa x)
        | (Instr.Sext | Instr.Trunc), KNarrow _, KNarrow sd -> nrm_i sd x
        | Instr.Zext, KNarrow sa, KWide ->
          Printf.sprintf "(Int64.of_int %s)" (uns_i sa x)
        | (Instr.Sext | Instr.Trunc), KNarrow _, KWide ->
          Printf.sprintf "(Int64.of_int %s)" x
        | (Instr.Zext | Instr.Sext | Instr.Trunc), KWide, KNarrow sd ->
          nrm_i sd (Printf.sprintf "(Int64.to_int %s)" x)
        | (Instr.Zext | Instr.Sext | Instr.Trunc), KWide, KWide -> x
        (* integer → float (exact: narrow magnitudes are < 2^33) *)
        | Instr.Sitofp, KNarrow _, KFloat sd ->
          fnrm sd (Printf.sprintf "(float_of_int %s)" x)
        | Instr.Uitofp, KNarrow sa, KFloat sd ->
          fnrm sd (Printf.sprintf "(float_of_int %s)" (uns_i sa x))
        | Instr.Sitofp, KWide, KFloat sd ->
          fnrm sd (Printf.sprintf "(Int64.to_float %s)" x)
        | Instr.Uitofp, KWide, KFloat sd ->
          fnrm sd
            (Printf.sprintf
               "(let u_ = %s in if Int64.compare u_ 0L >= 0 then \
                Int64.to_float u_ else Int64.to_float u_ +. 0x1p64)"
               x)
        (* float → integer: always through the same Int64.of_float
           primitive the engines use, so even its out-of-range results
           match bit for bit *)
        | Instr.Fptosi, KFloat _, KNarrow sd ->
          nrm_i sd (Printf.sprintf "(Int64.to_int (Int64.of_float %s))" x)
        | Instr.Fptosi, KFloat _, KWide ->
          Printf.sprintf "(Int64.of_float %s)" x
        | Instr.Fptoui, KFloat _, KNarrow sd ->
          nrm_i sd
            (Printf.sprintf
               "(Int64.to_int (let x_ = %s in if x_ >= 0x1p63 then Int64.add \
                Int64.min_int (Int64.of_float (x_ -. 0x1p63)) else \
                Int64.of_float x_))"
               x)
        | Instr.Fptoui, KFloat _, KWide ->
          Printf.sprintf
            "(let x_ = %s in if x_ >= 0x1p63 then Int64.add Int64.min_int \
             (Int64.of_float (x_ -. 0x1p63)) else Int64.of_float x_)"
            x
        | Instr.Fpconv, KFloat _, KFloat sd -> fnrm sd x
        | _ -> unsupported "ill-typed conversion %s" (Instr.conv_name kind)
      in
      emit_set st d e;
      mark_def st d)
  | Instr.Cmp (op, d, a, b) -> (
    add_charge st (d_cost + 1);
    if read_may_trap st [ b; a ] then flush st;
    emit_guard st b;
    emit_guard st a;
    (match reg_class st d with
    | KNarrow Types.I32 -> ()
    | _ -> unsupported "cmp destination r%d is not i32" d);
    let ca = reg_class st a in
    if not (same_cls ca (reg_class st b)) then
      unsupported "cmp class mismatch at r%d" d;
    match ca with
    | KNarrow s ->
      emit_set st d
        (Printf.sprintf "(if %s then 1 else 0)"
           (narrow_cmp_expr op s (rd st a) (rd st b)));
      mark_def st d
    | KWide ->
      emit_set st d
        (Printf.sprintf "(if %s then 1 else 0)"
           (int_cmp_expr op Types.I64 (rd st a) (rd st b)));
      mark_def st d
    | KFloat _ ->
      emit_set st d
        (Printf.sprintf "(if %s then 1 else 0)"
           (float_cmp_expr op (rd st a) (rd st b)));
      mark_def st d
    | KBox ->
      flush st;
      emit_unbox_value st d
        (Printf.sprintf "(Ev.cmp %s %s %s)" (relop_ctor op) (rd st a) (rd st b));
      mark_def st d)
  | Instr.Select (d, c, a, b) ->
    add_charge st (d_cost + 1);
    let cond_boxed = reg_class st c = KBox in
    if cond_boxed || read_may_trap st [ b; a; c ] then flush st;
    emit_guard st b;
    emit_guard st a;
    emit_guard st c;
    if
      (not (same_cls (reg_class st d) (reg_class st a)))
      || not (same_cls (reg_class st a) (reg_class st b))
    then unsupported "select class mismatch at r%d" d;
    let cond =
      match reg_class st c with
      | KNarrow _ -> Printf.sprintf "(%s <> 0)" (rd st c)
      | KWide -> Printf.sprintf "(%s <> 0L)" (rd st c)
      | KFloat _ -> Printf.sprintf "(%s <> 0.0)" (rd st c)
      | KBox -> Printf.sprintf "(V.to_bool %s)" (rd st c)
    in
    emit_set st d
      (Printf.sprintf "(if %s then %s else %s)" cond (rd st a) (rd st b));
    mark_def st d
  | Instr.Load (ty, d, base, off) -> (
    add_charge st (d_cost + Types.lanes ty);
    flush st;
    emit_guard st base;
    emit_addr st base off;
    (match (ty, reg_class st d) with
    | Types.Scalar Types.I8, KNarrow Types.I8 ->
      emit_bounds st 1;
      emit_set st d "(Bytes.get_int8 buf_ a_)"
    | Types.Scalar Types.I16, KNarrow Types.I16 ->
      emit_bounds st 2;
      emit_set st d "(Bytes.get_int16_le buf_ a_)"
    | Types.Scalar Types.I32, KNarrow Types.I32 ->
      emit_bounds st 4;
      emit_set st d "(Int32.to_int (Bytes.get_int32_le buf_ a_))"
    | (Types.Scalar Types.I64 | Types.Ptr _), KWide ->
      emit_bounds st 8;
      emit_set st d "(Bytes.get_int64_le buf_ a_)"
    | Types.Scalar Types.F32, KFloat Types.F32 ->
      emit_bounds st 4;
      emit_set st d "(Int32.float_of_bits (Bytes.get_int32_le buf_ a_))"
    | Types.Scalar Types.F64, KFloat Types.F64 ->
      emit_bounds st 8;
      emit_set st d "(Int64.float_of_bits (Bytes.get_int64_le buf_ a_))"
    | Types.Vector _, KBox ->
      emit_set st d (Printf.sprintf "(M.load mem_ a_ %s)" (ty_lit ty))
    | _ -> unsupported "load type/class mismatch at r%d" d);
    mark_def st d)
  | Instr.Store (ty, src, base, off) ->
    add_charge st (d_cost + Types.lanes ty);
    flush st;
    emit_guard st base;
    emit_addr st base off;
    emit_guard st src;
    (match (ty, reg_class st src) with
    | Types.Scalar Types.I8, KNarrow Types.I8 ->
      emit_bounds st 1;
      line st "Bytes.set_uint8 buf_ a_ (%s land 0xFF);" (rd st src)
    | Types.Scalar Types.I16, KNarrow Types.I16 ->
      emit_bounds st 2;
      line st "Bytes.set_uint16_le buf_ a_ (%s land 0xFFFF);" (rd st src)
    | Types.Scalar Types.I32, KNarrow Types.I32 ->
      emit_bounds st 4;
      line st "Bytes.set_int32_le buf_ a_ (Int32.of_int %s);" (rd st src)
    | (Types.Scalar Types.I64 | Types.Ptr _), KWide ->
      emit_bounds st 8;
      line st "Bytes.set_int64_le buf_ a_ %s;" (rd st src)
    | Types.Scalar Types.F32, KFloat Types.F32 ->
      emit_bounds st 4;
      line st "Bytes.set_int32_le buf_ a_ (Int32.bits_of_float %s);" (rd st src)
    | Types.Scalar Types.F64, KFloat Types.F64 ->
      emit_bounds st 8;
      line st "Bytes.set_int64_le buf_ a_ (Int64.bits_of_float %s);" (rd st src)
    | Types.Vector _, KBox -> line st "M.store mem_ a_ %s;" (rd st src)
    | _ -> unsupported "store type/class mismatch at r%d" src)
  | Instr.Alloca (d, bytes) ->
    add_charge st (d_cost + 1);
    flush st;
    line st "ctx.A.sp <- ctx.A.sp - %d;" bytes;
    line st
      "if ctx.A.sp < ctx.A.globals_end then raise (VM.Trap \"stack \
       overflow\");";
    (match reg_class st d with
    | KWide -> emit_set st d "(Int64.of_int ctx.A.sp)"
    | _ -> unsupported "alloca into non-i64 register r%d" d);
    mark_def st d
  | Instr.Call (d, name, args) ->
    add_charge st (d_cost + 1);
    flush st;
    List.iter (fun r -> emit_guard st r) args;
    let argv = String.concat "; " (List.map (boxed st) args) in
    let call_expr =
      match Hashtbl.find_opt st.fnindex name with
      | Some k -> Printf.sprintf "(f_%d ctx [ %s ])" k argv
      | None -> Printf.sprintf "(VM.intrinsic ctx.A.out %S [ %s ])" name argv
    in
    emit_call_result st d name call_expr;
    (match d with Some d -> mark_def st d | None -> ())
  | Instr.Splat (d, a) -> (
    add_charge st (d_cost + 1);
    match Func.reg_type st.fn d with
    | Types.Vector (_, n) ->
      if read_may_trap st [ a ] then flush st;
      emit_guard st a;
      (match reg_class st d with
      | KBox -> ()
      | _ -> unsupported "splat destination class mismatch at r%d" d);
      emit_set st d
        (Printf.sprintf "(V.Vec (Array.make %d %s))" n (boxed st a));
      mark_def st d
    | _ -> unsupported "splat destination r%d is not a vector" d)
  | Instr.Extract (d, a, lane) ->
    add_charge st (d_cost + 1);
    flush st;
    emit_guard st a;
    (match reg_class st a with
    | KBox -> ()
    | _ -> unsupported "extract source r%d is not a vector register" a);
    emit_unbox_value st d (Printf.sprintf "(Ev.extract %s %d)" (rd st a) lane);
    mark_def st d
  | Instr.Reduce (op, d, a) ->
    add_charge st (d_cost + 1);
    flush st;
    emit_guard st a;
    (match reg_class st a with
    | KBox -> ()
    | _ -> unsupported "reduce source r%d is not a vector register" a);
    emit_unbox_value st d
      (Printf.sprintf "(Ev.reduce %s %s)" (redop_ctor op) (rd st a));
    mark_def st d

(* ------------------------------------------------------------------ *)
(* Must-assign dataflow                                                *)

(** Forward must-analysis over block indices.  [None] = not yet reached
    (⊤).  IN[entry] starts at the parameter set; IN[b] = ∩ OUT[preds].
    Conservative in both directions: a smaller IN set only adds runtime
    guard checks, never changes semantics. *)
let must_assigned (fn : Func.t) (blocks : Func.block array)
    (label_index : int -> int option) : IntSet.t option array =
  let n = Array.length blocks in
  let defs =
    Array.map
      (fun (b : Func.block) ->
        List.fold_left
          (fun s i ->
            match Instr.def i with Some d -> IntSet.add d s | None -> s)
          IntSet.empty b.Func.instrs)
      blocks
  in
  let in_ : IntSet.t option array = Array.make n None in
  if n > 0 then in_.(0) <- Some (IntSet.of_list fn.Func.params);
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = 0 to n - 1 do
      match in_.(bi) with
      | None -> ()
      | Some inb ->
        let outb = IntSet.union inb defs.(bi) in
        List.iter
          (fun l ->
            match label_index l with
            | None -> ()
            | Some si ->
              let next =
                match in_.(si) with
                | None -> outb
                | Some s -> IntSet.inter s outb
              in
              (match in_.(si) with
              | Some cur when IntSet.equal cur next -> ()
              | _ ->
                in_.(si) <- Some next;
                changed := true))
          (Instr.successors blocks.(bi).Func.term)
    done
  done;
  in_

(** Registers with at least one read the analysis cannot prove assigned:
    these get a runtime [bool ref] flag. *)
let guarded_regs (blocks : Func.block array)
    (in_ : IntSet.t option array) : IntSet.t =
  let guarded = ref IntSet.empty in
  Array.iteri
    (fun bi (b : Func.block) ->
      match in_.(bi) with
      | None -> ()
      | Some inb ->
        let set = ref inb in
        let read r =
          if not (IntSet.mem r !set) then begin
            guarded := IntSet.add r !guarded;
            set := IntSet.add r !set
          end
        in
        List.iter
          (fun i ->
            List.iter read (reads_in_order i);
            match Instr.def i with
            | Some d -> set := IntSet.add d !set
            | None -> ())
          b.Func.instrs;
        List.iter read (Instr.term_uses b.Func.term))
    blocks;
  !guarded

(** Registers whose every read is preceded, in the same block, by a def
    in that block.  These need no persistent storage: each def becomes a
    shadowing [let] binding, which the native compiler keeps in machine
    registers.  Params are excluded (their def is the entry unpacking). *)
let block_locals (fn : Func.t) (blocks : Func.block array)
    (in_ : IntSet.t option array) : IntSet.t =
  let nonlocal = ref (IntSet.of_list fn.Func.params) in
  let all = ref IntSet.empty in
  Array.iteri
    (fun bi (b : Func.block) ->
      if in_.(bi) <> None then begin
        let defs = ref IntSet.empty in
        let read r =
          all := IntSet.add r !all;
          if not (IntSet.mem r !defs) then nonlocal := IntSet.add r !nonlocal
        in
        List.iter
          (fun i ->
            List.iter read (reads_in_order i);
            match Instr.def i with
            | Some d ->
              all := IntSet.add d !all;
              defs := IntSet.add d !defs
            | None -> ())
          b.Func.instrs;
        List.iter read (Instr.term_uses b.Func.term)
      end)
    blocks;
  IntSet.diff !all !nonlocal

(* ------------------------------------------------------------------ *)
(* Function emission                                                   *)

let emit_terminator st blocks label_index (term : Instr.term) =
  (* block dispatch costs one charge of [dispatch_cost] cycles *)
  add_charge st st.dispatch;
  flush st;
  let target l =
    match label_index l with
    | Some j when j < Array.length blocks -> j
    | _ -> unsupported "branch to unknown block %d" l
  in
  match term with
  | Instr.Br l -> line st "b_%d ()" (target l)
  | Instr.Cbr (c, l1, l2) ->
    emit_guard st c;
    let cond =
      match reg_class st c with
      | KNarrow _ -> Printf.sprintf "%s <> 0" (rd st c)
      | KWide -> Printf.sprintf "%s <> 0L" (rd st c)
      | KFloat _ -> Printf.sprintf "%s <> 0.0" (rd st c)
      | KBox -> Printf.sprintf "V.to_bool %s" (rd st c)
    in
    line st "if %s then b_%d () else b_%d ()" cond (target l1) (target l2)
  | Instr.Ret None ->
    line st "(ctx.A.sp <- saved_sp_; None)"
  | Instr.Ret (Some r) ->
    emit_guard st r;
    line st "(let rv_ = %s in ctx.A.sp <- saved_sp_; Some rv_)" (boxed st r)

let emit_function buf img fnindex ~dispatch_cost ~first idx (fn : Func.t) =
  let blocks = Array.of_list fn.Func.blocks in
  let label_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Func.block) ->
      if not (Hashtbl.mem label_tbl b.Func.label) then
        Hashtbl.add label_tbl b.Func.label i)
    blocks;
  let label_index l = Hashtbl.find_opt label_tbl l in
  let in_ = must_assigned fn blocks label_index in
  let guarded = guarded_regs blocks in_ in
  let block_local = block_locals fn blocks in_ in
  let st =
    {
      buf;
      fn;
      dispatch = dispatch_cost;
      classes = Hashtbl.create 32;
      wide_slot = Hashtbl.create 16;
      float_slot = Hashtbl.create 16;
      block_local;
      guarded;
      fnindex;
      img;
      ind = "";
      assigned = IntSet.empty;
      pending = [];
    }
  in
  (* Collect every register that appears in reachable code, so that all
     bindings exist before the block bodies reference them. *)
  let appearing = ref (IntSet.of_list fn.Func.params) in
  Array.iteri
    (fun bi (b : Func.block) ->
      if in_.(bi) <> None then begin
        List.iter
          (fun i ->
            List.iter
              (fun r -> appearing := IntSet.add r !appearing)
              (Instr.uses i);
            match Instr.def i with
            | Some d -> appearing := IntSet.add d !appearing
            | None -> ())
          b.Func.instrs;
        List.iter
          (fun r -> appearing := IntSet.add r !appearing)
          (Instr.term_uses b.Func.term)
      end)
    blocks;
  (* Assign storage: KWide regs get indices in the [ir_] scratch,
     KFloat regs get indices in the [fr_] float array.  Block-local regs
     live purely in [let] bindings and get no storage at all. *)
  let nwide = ref 0 and nfloat = ref 0 in
  IntSet.iter
    (fun r ->
      if not (IntSet.mem r block_local) then
        match reg_class st r with
        | KWide ->
          Hashtbl.replace st.wide_slot r !nwide;
          incr nwide
        | KFloat _ ->
          Hashtbl.replace st.float_slot r !nfloat;
          incr nfloat
        | KNarrow _ | KBox -> ())
    !appearing;
  let kw = if first then "let rec" else "and" in
  line st "%s f_%d (ctx : A.ctx) (args_ : V.t list) : V.t option =" kw idx;
  st.ind <- "  ";
  line st "ctx.A.calls <- ctx.A.calls + 1;";
  let nparams = List.length fn.Func.params in
  let pat =
    if nparams = 0 then "[]"
    else
      "[ "
      ^ String.concat "; "
          (List.mapi (fun i _ -> Printf.sprintf "p%d_" i) fn.Func.params)
      ^ " ]"
  in
  line st "match args_ with";
  line st "| %s ->" pat;
  st.ind <- "    ";
  if Array.length blocks = 0 then
    (* dcall's exact no-blocks error, after call count and arity *)
    line st "invalid_arg %S"
      (Printf.sprintf "Func.entry: %s has no blocks" fn.Func.name)
  else begin
    line st "let mem_ = ctx.A.mem in";
    line st "let buf_ = mem_.M.bytes in";
    line st "let ng_ = mem_.M.null_guard in";
    line st "let sz_ = mem_.M.size in";
    line st "let saved_sp_ = ctx.A.sp in";
    line st "ignore buf_; ignore ng_; ignore sz_;";
    if !nwide > 0 then begin
      (* the static type annotation is what lets the compiler specialize
         unsafe_get/unsafe_set to raw unboxed 64-bit access *)
      line st
        "let ir_ : (int64, Bigarray.int64_elt, Bigarray.c_layout) \
         Bigarray.Array1.t =";
      line st
        "  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout %d in"
        !nwide;
      line st "Bigarray.Array1.fill ir_ 0L;"
    end;
    if !nfloat > 0 then line st "let fr_ = Array.make %d 0.0 in" !nfloat;
    (* parameter unpacking into class-typed storage *)
    List.iteri
      (fun i r ->
        match reg_class st r with
        | KNarrow _ ->
          line st
            "let ri_%d = ref (match p%d_ with V.Int (_, x_) -> Int64.to_int \
             x_ | _ -> assert false) in"
            r i
        | KWide ->
          line st
            "Bigarray.Array1.unsafe_set ir_ %d (match p%d_ with V.Int (_, \
             x_) -> x_ | _ -> assert false);"
            (Hashtbl.find st.wide_slot r)
            i
        | KFloat _ ->
          line st
            "Array.unsafe_set fr_ %d (match p%d_ with V.Float (_, x_) -> x_ \
             | _ -> assert false);"
            (Hashtbl.find st.float_slot r)
            i
        | KBox -> line st "let rb_%d = ref p%d_ in" r i)
      fn.Func.params;
    (* remaining ref-class register bindings (wide/float slots are
       already zeroed storage) *)
    let params = IntSet.of_list fn.Func.params in
    IntSet.iter
      (fun r ->
        if not (IntSet.mem r params || IntSet.mem r block_local) then
          match reg_class st r with
          | KNarrow _ -> line st "let ri_%d = ref 0 in" r
          | KBox -> line st "let rb_%d = ref (V.Vec [||]) in" r
          | KWide | KFloat _ -> ())
      !appearing;
    (* guard flags: params start assigned *)
    IntSet.iter
      (fun r ->
        line st "let gu_%d = ref %b in" r (IntSet.mem r params))
      guarded;
    (* block bodies *)
    Array.iteri
      (fun bi (b : Func.block) ->
        match in_.(bi) with
        | None -> ()  (* unreachable: never emitted, never entered *)
        | Some inb ->
          let kw = if bi = 0 then "let rec" else "and" in
          line st "%s b_%d () : V.t option =" kw bi;
          st.ind <- "      ";
          st.assigned <- inb;
          st.pending <- [];
          List.iter (emit_instr st) b.Func.instrs;
          emit_terminator st blocks label_index b.Func.term;
          st.ind <- "    ")
      blocks;
    line st "in b_0 ()"
  end;
  st.ind <- "  ";
  line st "| _ -> raise (VM.Trap %S)"
    (Printf.sprintf "arity mismatch calling %s" fn.Func.name)

(* ------------------------------------------------------------------ *)
(* Program emission                                                    *)

let header =
  String.concat "\n"
    [
      "(* Generated by pvaot (interpreter backend); do not edit. *)";
      (* Aliases name the wrapped units directly: [module A = Pvvm.Aotabi]
         would project from the [Pvvm] wrapper's module block at init
         time, and hosts drop the (pure-alias) wrapper implementation at
         link time — the plugin would fail to load with "no
         implementation available for Pvvm". *)
      "module V = Pvir__Value";
      "module Ty = Pvir__Types";
      "module Ev = Pvir__Eval";
      "module A = Pvvm__Aotabi";
      "module M = Pvvm__Memory";
      "module VM = Pvvm__Vm";
      "";
      "(* A flushed batch overran the fuel budget: undo it and re-charge its";
      "   instructions one at a time, as the threaded engine does, so the";
      "   trap leaves the same counters. *)";
      "let fuel_out_ (ctx : A.ctx) (costs : int array) =";
      "  ctx.A.instrs <- ctx.A.instrs - Array.length costs;";
      "  ctx.A.cycles <- ctx.A.cycles - Array.fold_left ( + ) 0 costs;";
      "  Array.iter";
      "    (fun c ->";
      "      ctx.A.cycles <- ctx.A.cycles + c;";
      "      ctx.A.instrs <- ctx.A.instrs + 1;";
      "      if ctx.A.instrs > ctx.A.fuel then raise ctx.A.fuel_exn)";
      "    costs;";
      "  raise ctx.A.fuel_exn";
      "";
    ]

(** Generate plugin source for every function of the image's program.
    Returns [(digest, src_digest, source)] where [src_digest] identifies
    the generated body (the loader's staleness check); raises
    {!Unsupported} (or any exception out of program introspection) when
    exact compilation is not possible — callers treat every exception as
    "fall back". *)
let generate (img : Pvvm.Image.t) ~dispatch_cost : string * string * string =
  let prog = img.Pvvm.Image.prog in
  (* The pretty-printed program alone under-keys the cache: [Pp] never
     prints global annotations, so two programs differing only in their
     annotation sets would collide.  Fold the canonical annotation dump
     in as its own section. *)
  let digest =
    Build.digest_of_dump
      (Printf.sprintf "interp\x00%d\x00%s\x00annots\x00%s" dispatch_cost
         (Pvir.Pp.program_to_string prog)
         (Pvir.Prog.annotations_dump prog))
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf header;
  let fnindex = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem fnindex f.Func.name) then
        Hashtbl.add fnindex f.Func.name i)
    prog.Pvir.Prog.funcs;
  List.iteri
    (fun i (f : Func.t) ->
      (* duplicate names: only the first is callable, but all are emitted
         so indices stay aligned *)
      emit_function buf img fnindex ~dispatch_cost ~first:(i = 0) i f)
    prog.Pvir.Prog.funcs;
  (* digest of the generated body so far — baked into the plugin's
     registration and re-derived by the loader from the current
     generator's output, so a cached artifact built by an older
     generator is rejected at load time (the staleness guard) *)
  let src_digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.add_string buf "\nlet () =\n";
  Buffer.add_string buf
    (Printf.sprintf "  A.register_src %S ~src:%S\n" digest src_digest);
  (* one entry per distinct name, bound to its first definition *)
  let entries =
    List.filteri
      (fun i (f : Func.t) -> Hashtbl.find_opt fnindex f.Func.name = Some i)
      prog.Pvir.Prog.funcs
    |> List.map (fun (f : Func.t) ->
           Printf.sprintf "(%S, f_%d)" f.Func.name
             (Hashtbl.find fnindex f.Func.name))
  in
  Buffer.add_string buf
    ("    [ " ^ String.concat "; " entries ^ " ]\n");
  (digest, src_digest, Buffer.contents buf)
