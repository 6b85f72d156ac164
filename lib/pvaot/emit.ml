(** The emission core both AOT generators share: {!Interp_gen} (PVIR for
    the interpreter) and {!Sim_gen} (JIT-lowered MIR for the simulator).

    A generator hands the core a function as numbered {e locations} —
    PVIR registers for the interpreter, def-use webs of physical
    registers and spill slots for the simulator — each with a storage
    class, and drives the emission of every operation through it.  The
    core owns everything that makes generated code fast and exact:

    - {b Storage classes}, chosen so hot paths never allocate:
      - [KNarrow]: I8/I16/I32 scalars as native [int ref]s.  The payload
        invariant of [Value.Int] (always sign-normalized to the scalar
        width) fits a 63-bit [int] with room to spare, and every
        operation re-normalizes exactly like [Value.int] does — with
        [lsl]/[asr] pairs at width 63-w — so results match the engines
        bit for bit.
      - [KWide]: I64 scalars and pointers as slots of a per-call int64
        [Bigarray.Array1] accessed with [unsafe_get]/[unsafe_set] on a
        statically-annotated type, which the native compiler specializes
        to raw unboxed 64-bit loads and stores (a plain [int64 ref]
        would allocate a boxed [Int64] per write).
      - [KFloat]: F32/F64 as slots of a flat per-call [float array].
      - [KLanes]: vectors of narrow-int or float lanes as a per-call
        [int array] / [float array]; the lane loops live host-side in
        {!Lanes}, so plugins stay small.
      - [KBox]: everything else as a [Pvir.Value.t ref]; operations on
        boxed values delegate to {!Pvir.Eval}, the engines' own code.

      A location read only after a same-block definition needs no
      storage at all: each definition becomes a shadowing [let].
    - {b Width normalization and inline scalar operation bodies},
      mirroring {!Pvir.Eval}'s arithmetic exactly (result normalization,
      unsigned views, float rounding).
    - {b Must-assign guards}: a forward must-analysis proves most reads
      initialized; the rest get a runtime [bool ref] flag and raise the
      engine's exact uninitialized-read trap.
    - {b Batched charging with exact fuel rewind}: per-instruction
      charges accumulate at codegen time into a pending batch of
      (cycles, spill) pairs, flushed — additions plus one fuel check —
      before anything that can raise, call out or transfer control.
      Every observable effect is a flush point, so counters, results and
      memory are bit-identical to the threaded engines'.  A flush that
      overruns the fuel budget rewinds its batch and re-charges it one
      instruction at a time ({!header}'s [fuel_out_]), so a fuel trap
      leaves cycles, instructions and spill operations exactly where the
      threaded engine's per-instruction check stops them. *)

module Types = Pvir.Types
module Instr = Pvir.Instr
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
  | KLanes of Types.scalar * int
      (** vector of narrow-int (or float) lanes: [int array]
          ([float array]) *)
  | KBox  (** anything else: [Value.t ref] *)

(** Class of a statically known value type. *)
let cls_of_type (ty : Types.t) : cls =
  match ty with
  | Types.Scalar ((Types.I8 | Types.I16 | Types.I32) as s) -> KNarrow s
  | Types.Scalar Types.I64 | Types.Ptr _ -> KWide
  | Types.Scalar ((Types.F32 | Types.F64) as s) -> KFloat s
  | Types.Vector (Types.I64, _) -> KBox
  | Types.Vector (s, n) -> if n >= 1 then KLanes (s, n) else KBox

let is_scalar_cls = function
  | KNarrow _ | KWide | KFloat _ -> true
  | KLanes _ | KBox -> false

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

(** A scalar value as a raw expression of class [c], when it has that
    class's shape. *)
let raw_lit (c : cls) (v : Value.t) =
  match (c, v) with
  | KNarrow s, Value.Int (s', x) when s = s' ->
    (* payloads are width-normalized, so they always fit an int; be
       defensive about hand-built un-normalized constants anyway *)
    if Int64.equal (Int64.of_int (Int64.to_int x)) x then
      Some (Printf.sprintf "(%d)" (Int64.to_int x))
    else None
  | KWide, Value.Int (Types.I64, x) -> Some (int64_lit x)
  | KFloat s, Value.Float (s', x) when s = s' -> Some (float_lit x)
  | _ -> None

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
(* Scalar operation bodies (exact mirrors of Pvir.Eval)                *)

let is_div_op (op : Instr.binop) =
  match op with
  | Instr.Div | Instr.Udiv | Instr.Rem | Instr.Urem -> true
  | _ -> false

let div_guard zero xb e =
  Printf.sprintf
    "(if %s = %s then raise (VM.Trap \"division by zero\") else %s)" xb zero e

(** Integer binop in the boxed-int64 domain (KWide, so [nrm]/[uns] are
    identities at I64): expression computing the raw [int64] result from
    operand expressions [xa]/[xb].  Mirrors [Eval.int_binop].  Division
    operators embed their zero check; the caller must have flushed. *)
let int_binop_expr (op : Instr.binop) s xa xb =
  let n e = nrm s e in
  let xb' = Printf.sprintf "(%s : int64)" xb in
  match op with
  | Instr.Add -> n (Printf.sprintf "(Int64.add %s %s)" xa xb)
  | Instr.Sub -> n (Printf.sprintf "(Int64.sub %s %s)" xa xb)
  | Instr.Mul -> n (Printf.sprintf "(Int64.mul %s %s)" xa xb)
  | Instr.Div -> div_guard "0L" xb' (n (Printf.sprintf "(Int64.div %s %s)" xa xb))
  | Instr.Udiv ->
    div_guard "0L" xb'
      (n (Printf.sprintf "(Int64.unsigned_div %s %s)" (uns s xa) (uns s xb)))
  | Instr.Rem -> div_guard "0L" xb' (n (Printf.sprintf "(Int64.rem %s %s)" xa xb))
  | Instr.Urem ->
    div_guard "0L" xb'
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
  | Instr.Div -> div_guard "0" xb (n (Printf.sprintf "(%s / %s)" xa xb))
  | Instr.Udiv -> div_guard "0" xb (n (Printf.sprintf "(%s / %s)" (u xa) (u xb)))
  | Instr.Rem -> div_guard "0" xb (n (Printf.sprintf "(%s mod %s)" xa xb))
  | Instr.Urem ->
    div_guard "0" xb (n (Printf.sprintf "(%s mod %s)" (u xa) (u xb)))
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

let float_binop_ok (op : Instr.binop) =
  match op with
  | Instr.Add | Instr.Sub | Instr.Mul | Instr.Div | Instr.Min | Instr.Max ->
    true
  | _ -> false

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

(** Binop on two operands of scalar class [c]: the raw result, of class
    [c].  Division operators embed a trapping zero check. *)
let binop_expr (op : Instr.binop) (c : cls) xa xb =
  match c with
  | KNarrow s -> narrow_binop_expr op s xa xb
  | KWide -> int_binop_expr op Types.I64 xa xb
  | KFloat s -> float_binop_expr op s xa xb
  | KLanes _ | KBox -> unsupported "inline binop on a non-scalar class"

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
  | Instr.Eq -> Printf.sprintf "((%s : float) = %s)" xa xb
  | Instr.Ne -> Printf.sprintf "((%s : float) <> %s)" xa xb
  | Instr.Slt -> Printf.sprintf "((%s : float) < %s)" xa xb
  | Instr.Sle -> Printf.sprintf "((%s : float) <= %s)" xa xb
  | Instr.Sgt -> Printf.sprintf "((%s : float) > %s)" xa xb
  | Instr.Sge -> Printf.sprintf "((%s : float) >= %s)" xa xb
  | _ -> unsupported "unsigned comparison on float"

(** Comparison of two operands of scalar class [c], as a [bool]
    expression. *)
let cmp_expr (op : Instr.relop) (c : cls) xa xb =
  match c with
  | KNarrow s -> narrow_cmp_expr op s xa xb
  | KWide -> int_cmp_expr op Types.I64 xa xb
  | KFloat _ -> float_cmp_expr op xa xb
  | KLanes _ | KBox -> unsupported "inline compare on a non-scalar class"

(** [Value.to_bool] of a raw expression of scalar class [c]. *)
let truth_expr (c : cls) x =
  match c with
  | KNarrow _ -> Printf.sprintf "(%s <> 0)" x
  | KWide -> Printf.sprintf "(%s <> 0L)" x
  | KFloat _ -> Printf.sprintf "(%s <> 0.0)" x
  | KLanes _ | KBox -> unsupported "inline truth of a non-scalar class"

(** Unop on a raw operand of scalar class [c]; the result has class [c]. *)
let unop_expr (op : Instr.unop) (c : cls) x =
  match (c, op) with
  | KNarrow s, Instr.Neg -> nrm_i s (Printf.sprintf "(- %s)" x)
  | KNarrow s, Instr.Not -> nrm_i s (Printf.sprintf "(lnot %s)" x)
  | KWide, Instr.Neg -> Printf.sprintf "(Int64.neg %s)" x
  | KWide, Instr.Not -> Printf.sprintf "(Int64.lognot %s)" x
  | KFloat s, Instr.Neg -> fnrm s (Printf.sprintf "(-. %s)" x)
  | _ -> unsupported "inline %s on this class" (Instr.unop_name op)

(** Scalar conversion [kind] of a raw operand [x] of class [ca] to class
    [cd]; mirrors [Eval.conv_scalar]. *)
let conv_expr (kind : Instr.conv) ~(ca : cls) ~(cd : cls) x =
  match (kind, ca, cd) with
  (* integer → integer; the int64 mirror is nrm_dst (uns_src x) for
     Zext and nrm_dst x for Sext/Trunc, transported between the
     native-int and int64 domains as needed (Int64.to_int keeps the low
     63 bits, and every narrow result takes only the low w). *)
  | Instr.Zext, KNarrow sa, KNarrow sd -> nrm_i sd (uns_i sa x)
  | (Instr.Sext | Instr.Trunc), KNarrow _, KNarrow sd -> nrm_i sd x
  | Instr.Zext, KNarrow sa, KWide -> Printf.sprintf "(Int64.of_int %s)" (uns_i sa x)
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
         "(let u_ = %s in if Int64.compare u_ 0L >= 0 then Int64.to_float u_ \
          else Int64.to_float u_ +. 0x1p64)"
         x)
  (* float → integer: always through the same Int64.of_float primitive
     the engines use, so even its out-of-range results match bit for
     bit *)
  | Instr.Fptosi, KFloat _, KNarrow sd ->
    nrm_i sd (Printf.sprintf "(Int64.to_int (Int64.of_float %s))" x)
  | Instr.Fptosi, KFloat _, KWide -> Printf.sprintf "(Int64.of_float %s)" x
  | Instr.Fptoui, KFloat _, KNarrow sd ->
    nrm_i sd
      (Printf.sprintf
         "(Int64.to_int (let x_ = %s in if x_ >= 0x1p63 then Int64.add \
          Int64.min_int (Int64.of_float (x_ -. 0x1p63)) else Int64.of_float \
          x_))"
         x)
  | Instr.Fptoui, KFloat _, KWide ->
    Printf.sprintf
      "(let x_ = %s in if x_ >= 0x1p63 then Int64.add Int64.min_int \
       (Int64.of_float (x_ -. 0x1p63)) else Int64.of_float x_)"
      x
  | Instr.Fpconv, KFloat _, KFloat sd -> fnrm sd x
  | _ -> unsupported "ill-typed conversion %s" (Instr.conv_name kind)

(* Rendered constructor name for ops delegated to Eval. *)
let binop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.binop_name op)
let relop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.relop_name op)
let unop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.unop_name op)
let conv_ctor k = "Pvir.Instr." ^ String.capitalize_ascii (Instr.conv_name k)
let redop_ctor op = "Pvir.Instr." ^ String.capitalize_ascii (Instr.redop_name op)

(* ------------------------------------------------------------------ *)
(* Lane helpers (see Lanes)                                            *)

(** Suffix of the {!Lanes} helper family for lane scalar [s]: shift
    amounts for narrow ints, [F32]/[F64] for floats. *)
let lane_int (s : Types.scalar) =
  match s with
  | Types.I8 | Types.I16 | Types.I32 -> true
  | Types.I64 | Types.F32 | Types.F64 -> false

let lane_sh (s : Types.scalar) =
  match s with
  | Types.I8 -> 55
  | Types.I16 -> 47
  | Types.I32 -> 31
  | _ -> unsupported "lane shift of a non-narrow scalar"

(** [Lanes] helper call prefix for scalar [s]: [(L.fn_i SH)] for narrow
    ints, [(L.fn_f32)]/[(L.fn_f64)] for floats. *)
let lane_fn name (s : Types.scalar) =
  match s with
  | Types.I8 | Types.I16 | Types.I32 -> Printf.sprintf "L.%s_i %d" name (lane_sh s)
  | Types.F32 -> Printf.sprintf "L.%s_f32" name
  | Types.F64 -> Printf.sprintf "L.%s_f64" name
  | Types.I64 -> unsupported "i64 lanes are boxed"

(* ------------------------------------------------------------------ *)
(* Per-function generation state                                       *)

type st = {
  buf : Buffer.t;
  mutable ind : string;  (** current indentation *)
  cls_of : int -> cls;  (** storage class of a location *)
  slot : (int, int) Hashtbl.t;
      (** KWide location → index in [ir_]; KFloat → index in [fr_] *)
  block_local : IntSet.t;
      (** locations whose every read follows a same-block def: emitted as
          shadowing [let] bindings (kept in machine registers), with no
          persistent storage at all *)
  guarded : IntSet.t;  (** locations carrying a runtime [gu_] flag *)
  guard_msg : int -> string;  (** the engine's uninitialized-read trap *)
  mutable assigned : IntSet.t;  (** locations provably assigned here *)
  mutable pending : (int * int) list;
      (** (cycles, spill ops) of each instruction charged since the last
          flush, newest first *)
}

let line st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.buf st.ind;
      Buffer.add_string st.buf s;
      Buffer.add_char st.buf '\n')
    fmt

let cls st r = st.cls_of r

(** Raw read of location [r]: an expression of its class's raw type
    ([int], [int64], [float], lane array or [V.t]).  Guards have already
    been emitted. *)
let rd st r =
  if IntSet.mem r st.block_local then Printf.sprintf "t%d_" r
  else
    match cls st r with
    | KNarrow _ -> Printf.sprintf "!ri_%d" r
    | KWide ->
      Printf.sprintf "(Bigarray.Array1.unsafe_get ir_ %d)" (Hashtbl.find st.slot r)
    | KFloat _ -> Printf.sprintf "(Array.unsafe_get fr_ %d)" (Hashtbl.find st.slot r)
    | KLanes _ -> Printf.sprintf "rl_%d" r
    | KBox -> Printf.sprintf "!rb_%d" r

(** Assignment of raw expression [e] (of the class's raw type) to [d].
    Block-local locations become shadowing [let] bindings; lane arrays are
    written in place by their producers, never assigned. *)
let emit_set st d e =
  if IntSet.mem d st.block_local then line st "let t%d_ = %s in" d e
  else
    match cls st d with
    | KNarrow _ -> line st "ri_%d := %s;" d e
    | KWide ->
      line st "Bigarray.Array1.unsafe_set ir_ %d (%s);" (Hashtbl.find st.slot d) e
    | KFloat _ ->
      line st "Array.unsafe_set fr_ %d (%s);" (Hashtbl.find st.slot d) e
    | KLanes _ -> unsupported "lane register assigned by value"
    | KBox -> line st "rb_%d := %s;" d e

(** A raw expression [e] of class [c] as a [V.t] expression. *)
let box_expr (c : cls) e =
  match c with
  | KNarrow s -> Printf.sprintf "(V.Int (%s, Int64.of_int %s))" (scalar_lit s) e
  | KWide -> Printf.sprintf "(V.Int (Ty.I64, %s))" e
  | KFloat s -> Printf.sprintf "(V.Float (%s, %s))" (scalar_lit s) e
  | KLanes (s, _) -> Printf.sprintf "(%s %s)" (lane_fn "box" s) e
  | KBox -> e

(** Location [r] as a [V.t] expression. *)
let boxed st r = box_expr (cls st r) (rd st r)

(** A [V.t] expression as a raw expression of scalar class [c]; the shape
    is guaranteed by the generator's typing, so a mismatch is
    unreachable. *)
let unbox_expr (c : cls) e =
  match c with
  | KNarrow _ ->
    Printf.sprintf
      "(match %s with V.Int (_, x_) -> Int64.to_int x_ | _ -> assert false)" e
  | KWide ->
    Printf.sprintf "(match %s with V.Int (_, x_) -> x_ | _ -> assert false)" e
  | KFloat _ ->
    Printf.sprintf "(match %s with V.Float (_, x_) -> x_ | _ -> assert false)" e
  | KLanes _ -> unsupported "lane unbox as an expression"
  | KBox -> e

(** Store raw expression [e] of class [c] into location [d]: directly when
    the classes agree, boxed when [d] is boxed. *)
let emit_store st d (c : cls) e =
  let cd = cls st d in
  if cd = c then emit_set st d e
  else if cd = KBox then emit_set st d (box_expr c e)
  else unsupported "store of class mismatch into %d" d

(** Store [V.t] expression [e] into location [d], unboxing to its class. *)
let emit_store_value st d e =
  match cls st d with
  | KLanes (s, _) -> line st "%s %s %s;" (lane_fn "unbox" s) e (rd st d)
  | c -> emit_set st d (unbox_expr c e)

(** Copy location [a] into location [d]: lanes by blit, scalars by value,
    converting between a typed class and boxed storage. *)
let emit_copy st d a =
  match (cls st d, cls st a) with
  | KLanes _, KLanes _ when cls st d = cls st a ->
    line st "L.copy %s %s;" (rd st a) (rd st d)
  | cd, ca when cd = ca -> emit_set st d (rd st a)
  | KBox, _ -> emit_set st d (boxed st a)
  | _, _ -> emit_store_value st d (boxed st a)

(** Emit the result handling for a call producing a [V.t option]. *)
let emit_call_result st (d : int option) name call_expr =
  let no_value =
    Printf.sprintf "raise (VM.Trap %S)"
      (Printf.sprintf "call to %s produced no value" name)
  in
  match d with
  | None -> line st "ignore (%s : V.t option);" call_expr
  | Some d ->
    emit_store_value st d
      (Printf.sprintf "(match %s with Some v_ -> v_ | None -> %s)" call_expr
         no_value)

(* ------------------------------------------------------------------ *)
(* Batched accounting                                                  *)

let add_charge ?(spill = false) st n =
  st.pending <- (n, if spill then 1 else 0) :: st.pending

(** Materialize pending charges: additions plus one fuel check, whose
    cold branch hands the batch to [fuel_out_] (see {!header}).  Must run
    before anything that can raise, call out or branch. *)
let flush st =
  if st.pending <> [] then begin
    let cycles = List.fold_left (fun a (c, _) -> a + c) 0 st.pending in
    let spills = List.fold_left (fun a (_, s) -> a + s) 0 st.pending in
    if cycles > 0 then line st "ctx.A.cycles <- ctx.A.cycles + %d;" cycles;
    line st "ctx.A.instrs <- ctx.A.instrs + %d;" (List.length st.pending);
    if spills > 0 then line st "ctx.A.spills <- ctx.A.spills + %d;" spills;
    (* each instruction's (cycles, spill) pair packed as cycles*2+spill *)
    line st "if ctx.A.instrs > ctx.A.fuel then fuel_out_ ctx [| %s |];"
      (String.concat "; "
         (List.rev_map (fun (c, s) -> string_of_int ((c * 2) + s)) st.pending));
    st.pending <- []
  end

(* ------------------------------------------------------------------ *)
(* Uninitialized-read guards                                           *)

let read_may_trap st rs =
  List.exists (fun r -> not (IntSet.mem r st.assigned)) rs

(** Emit the guard-flag check for a read of [r], if the must-assign
    analysis could not discharge it.  The caller has already flushed. *)
let emit_guard st r =
  if not (IntSet.mem r st.assigned) then begin
    if not (IntSet.mem r st.guarded) then
      unsupported "location %d read outside the guarded set" r;
    line st "if not !gu_%d then raise (VM.Trap %S);" r (st.guard_msg r);
    st.assigned <- IntSet.add r st.assigned
  end

(** Flush if any of [rs] may be unassigned, then guard them in order. *)
let guard_reads st rs =
  if read_may_trap st rs then flush st;
  List.iter (emit_guard st) rs

(** Record a definition of [d]; sets the runtime flag for guarded
    locations. *)
let mark_def st d =
  st.assigned <- IntSet.add d st.assigned;
  if IntSet.mem d st.guarded then line st "gu_%d := true;" d

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)

(** Emit the inline bounds check for an access at [a_] of [sz] bytes.
    The slow path re-runs the engine's own checker, which raises the
    exact memory-fault trap. *)
let emit_bounds st sz =
  line st "if a_ < ng_ || a_ + %d > sz_ then M.check mem_ a_ %d;" sz sz

(** Emit [let a_ = <byte address> in] from raw base [base] of integer
    class [c] plus [off]. *)
let emit_addr st (c : cls) base off =
  match c with
  | KNarrow _ -> line st "let a_ = %s + %d in" base off
  | KWide -> line st "let a_ = Int64.to_int %s + %d in" base off
  | _ -> unsupported "memory base is not an integer location"

(** Typed load of scalar type [ty] at [a_] (bounds included): the raw
    expression and its class. *)
let load_raw st (ty : Types.t) =
  let get sz e =
    emit_bounds st sz;
    e
  in
  match ty with
  | Types.Scalar Types.I8 -> (KNarrow Types.I8, get 1 "(Bytes.get_int8 buf_ a_)")
  | Types.Scalar Types.I16 ->
    (KNarrow Types.I16, get 2 "(Bytes.get_int16_le buf_ a_)")
  | Types.Scalar Types.I32 ->
    (KNarrow Types.I32, get 4 "(Int32.to_int (Bytes.get_int32_le buf_ a_))")
  | Types.Scalar Types.I64 | Types.Ptr _ ->
    (KWide, get 8 "(Bytes.get_int64_le buf_ a_)")
  | Types.Scalar Types.F32 ->
    (KFloat Types.F32, get 4 "(Int32.float_of_bits (Bytes.get_int32_le buf_ a_))")
  | Types.Scalar Types.F64 ->
    (KFloat Types.F64, get 8 "(Int64.float_of_bits (Bytes.get_int64_le buf_ a_))")
  | Types.Vector _ -> unsupported "vector load as a scalar"

(** Emit a load of type [ty] at [a_] into location [d]. *)
let emit_load st d (ty : Types.t) =
  match (ty, cls st d) with
  | Types.Vector (s, n), KLanes (s', n') when s = s' && n = n' ->
    emit_bounds st (Types.size ty);
    line st "%s buf_ a_ %s;" (lane_fn "load" s) (rd st d)
  | Types.Vector _, _ ->
    emit_store_value st d (Printf.sprintf "(M.load mem_ a_ %s)" (ty_lit ty))
  | _ ->
    let c, e = load_raw st ty in
    emit_store st d c e

(** Emit a store at [a_] of raw expression [x] of class [c]: encoded by
    the value's own shape, like [Memory.store]. *)
let emit_store_mem st (c : cls) x =
  match c with
  | KNarrow Types.I8 ->
    emit_bounds st 1;
    line st "Bytes.set_uint8 buf_ a_ (%s land 0xFF);" x
  | KNarrow Types.I16 ->
    emit_bounds st 2;
    line st "Bytes.set_uint16_le buf_ a_ (%s land 0xFFFF);" x
  | KNarrow _ ->
    emit_bounds st 4;
    line st "Bytes.set_int32_le buf_ a_ (Int32.of_int %s);" x
  | KWide ->
    emit_bounds st 8;
    line st "Bytes.set_int64_le buf_ a_ %s;" x
  | KFloat Types.F32 ->
    emit_bounds st 4;
    line st "Bytes.set_int32_le buf_ a_ (Int32.bits_of_float %s);" x
  | KFloat _ ->
    emit_bounds st 8;
    line st "Bytes.set_int64_le buf_ a_ (Int64.bits_of_float %s);" x
  | KLanes (s, n) ->
    emit_bounds st (Types.scalar_size s * n);
    line st "%s buf_ a_ %s;" (lane_fn "store" s) x
  | KBox -> line st "M.store mem_ a_ %s;" x

(* ------------------------------------------------------------------ *)
(* Must-assign and block-local analyses                                *)

(** A function as the analyses see it: per block, each instruction's
    location reads (in the engine's read order) and definition, the
    terminator's reads and the successor block indices. *)
type ablock = {
  steps : (int list * int option) list;
  term_reads : int list;
  succs : int list;
}

(** Forward must-analysis over block indices.  [None] = not yet reached
    (⊤).  IN[entry] starts at [entry_defs]; IN[b] = ∩ OUT[preds].
    Conservative in both directions: a smaller IN set only adds runtime
    guard checks, never changes semantics. *)
let must_assigned (blocks : ablock array) ~entry_defs : IntSet.t option array =
  let n = Array.length blocks in
  let defs =
    Array.map
      (fun b ->
        List.fold_left
          (fun s (_, d) -> match d with Some d -> IntSet.add d s | None -> s)
          IntSet.empty b.steps)
      blocks
  in
  let in_ : IntSet.t option array = Array.make n None in
  if n > 0 then in_.(0) <- Some (IntSet.of_list entry_defs);
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = 0 to n - 1 do
      match in_.(bi) with
      | None -> ()
      | Some inb ->
        let outb = IntSet.union inb defs.(bi) in
        List.iter
          (fun si ->
            let next =
              match in_.(si) with None -> outb | Some s -> IntSet.inter s outb
            in
            match in_.(si) with
            | Some cur when IntSet.equal cur next -> ()
            | _ ->
              in_.(si) <- Some next;
              changed := true)
          blocks.(bi).succs
    done
  done;
  in_

(** Locations with at least one read the analysis cannot prove assigned:
    these get a runtime [bool ref] flag. *)
let guarded_locs (blocks : ablock array) (in_ : IntSet.t option array) =
  let guarded = ref IntSet.empty in
  Array.iteri
    (fun bi b ->
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
          (fun (reads, d) ->
            List.iter read reads;
            Option.iter (fun d -> set := IntSet.add d !set) d)
          b.steps;
        List.iter read b.term_reads)
    blocks;
  !guarded

(** Locations whose every read is preceded, in the same block, by a def
    in that block (entry definitions excluded), plus every location of
    reachable code. *)
let block_locals (blocks : ablock array) (in_ : IntSet.t option array)
    ~entry_defs =
  let nonlocal = ref (IntSet.of_list entry_defs) in
  let all = ref (IntSet.of_list entry_defs) in
  Array.iteri
    (fun bi b ->
      if in_.(bi) <> None then begin
        let defs = ref IntSet.empty in
        let read r =
          all := IntSet.add r !all;
          if not (IntSet.mem r !defs) then nonlocal := IntSet.add r !nonlocal
        in
        List.iter
          (fun (reads, d) ->
            List.iter read reads;
            Option.iter
              (fun d ->
                all := IntSet.add d !all;
                defs := IntSet.add d !defs)
              d)
          b.steps;
        List.iter read b.term_reads
      end)
    blocks;
  (IntSet.diff !all !nonlocal, !all)

type analysis = {
  in_ : IntSet.t option array;  (** must-assigned set at block entry *)
  guarded : IntSet.t;
  block_local : IntSet.t;
  appearing : IntSet.t;  (** every location of reachable code *)
}

let analyze (blocks : ablock array) ~entry_defs ~lets_ok : analysis =
  let in_ = must_assigned blocks ~entry_defs in
  let guarded = guarded_locs blocks in_ in
  let local, appearing = block_locals blocks in_ ~entry_defs in
  { in_; guarded; block_local = IntSet.filter lets_ok local; appearing }

(** Fresh per-function state over [a], assigning [ir_]/[fr_] slots to
    the persistent wide and float locations. *)
let create buf (a : analysis) ~cls_of ~guard_msg =
  let st =
    {
      buf;
      ind = "";
      cls_of;
      slot = Hashtbl.create 16;
      block_local = a.block_local;
      guarded = a.guarded;
      guard_msg;
      assigned = IntSet.empty;
      pending = [];
    }
  in
  let nwide = ref 0 and nfloat = ref 0 in
  IntSet.iter
    (fun r ->
      if not (IntSet.mem r a.block_local) then
        match cls_of r with
        | KWide ->
          Hashtbl.replace st.slot r !nwide;
          incr nwide
        | KFloat _ ->
          Hashtbl.replace st.slot r !nfloat;
          incr nfloat
        | KNarrow _ | KLanes _ | KBox -> ())
    a.appearing;
  (st, !nwide, !nfloat)

(** Emit the per-call storage of a function: the [ir_]/[fr_] scratch,
    parameter unpacking ([params] pairs a location with the name of its
    boxed argument), the remaining ref and lane bindings, and guard
    flags (parameters start assigned). *)
let emit_frame st (a : analysis) ~nwide ~nfloat ~(params : (int * string) list)
    =
  if nwide > 0 then begin
    (* the static type annotation is what lets the compiler specialize
       unsafe_get/unsafe_set to raw unboxed 64-bit access *)
    line st
      "let ir_ : (int64, Bigarray.int64_elt, Bigarray.c_layout) \
       Bigarray.Array1.t =";
    line st "  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout %d in" nwide;
    line st "Bigarray.Array1.fill ir_ 0L;"
  end;
  if nfloat > 0 then line st "let fr_ = Array.make %d 0.0 in" nfloat;
  let bind r =
    match cls st r with
    | KNarrow _ -> line st "let ri_%d = ref 0 in" r
    | KBox -> line st "let rb_%d = ref (V.Vec [||]) in" r
    | KLanes (s, n) ->
      if lane_int s then line st "let rl_%d = Array.make %d 0 in" r n
      else line st "let rl_%d = Array.make %d 0.0 in" r n
    | KWide | KFloat _ -> ()
  in
  let pset = IntSet.of_list (List.map fst params) in
  IntSet.iter
    (fun r -> if not (IntSet.mem r a.block_local) then bind r)
    a.appearing;
  List.iter (fun (r, p) -> emit_store_value st r p) params;
  IntSet.iter
    (fun r -> line st "let gu_%d = ref %b in" r (IntSet.mem r pset))
    a.guarded

(* ------------------------------------------------------------------ *)
(* Plugin header                                                       *)

let header ~backend =
  String.concat "\n"
    [
      Printf.sprintf "(* Generated by pvaot (%s backend); do not edit. *)" backend;
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
      "module L = Pvaot__Lanes";
      "";
      "(* A flushed batch overran the fuel budget: undo it and re-charge its";
      "   instructions one at a time, as the threaded engines do, so the";
      "   trap leaves the same counters.  Entries are cycles*2+spill. *)";
      "let fuel_out_ (ctx : A.ctx) (batch : int array) =";
      "  Array.iter";
      "    (fun e ->";
      "      ctx.A.cycles <- ctx.A.cycles - (e asr 1);";
      "      ctx.A.instrs <- ctx.A.instrs - 1;";
      "      ctx.A.spills <- ctx.A.spills - (e land 1))";
      "    batch;";
      "  Array.iter";
      "    (fun e ->";
      "      ctx.A.cycles <- ctx.A.cycles + (e asr 1);";
      "      ctx.A.instrs <- ctx.A.instrs + 1;";
      "      if ctx.A.instrs > ctx.A.fuel then raise ctx.A.fuel_exn;";
      "      ctx.A.spills <- ctx.A.spills + (e land 1))";
      "    batch;";
      "  raise ctx.A.fuel_exn";
      "";
    ]
