(** Host-side lane loops for the AOT backends' unboxed vector class
    ({!Emit.KLanes}).

    A vector register holding narrow-int lanes lives in an [int array]
    (each lane sign-normalized to its width, the [Value.Int] payload
    invariant); float lanes live in a flat [float array] (F32 lanes
    already rounded to single precision).  Generated code calls these
    helpers instead of unrolling lane loops into its own source, which
    keeps plugins small and their compiles fast.

    Narrow-int helpers take the normalization shift [sh] = 63 - width
    (55, 47 or 31): [(x lsl sh) asr sh] sign-normalizes a native int to
    the lane width, exactly like [Value.int].  Every operation mirrors
    {!Pvir.Eval} lane by lane, so results are bit-identical to the
    engines' boxed vectors.  Operand arrays always have the destination's
    length (the generator proves the lane counts equal); a destination
    may alias an operand, and every loop reads lane [i] of its operands
    before writing lane [i]. *)

module Types = Pvir.Types
module Instr = Pvir.Instr
module Value = Pvir.Value

let scalar_of_sh sh =
  match sh with 55 -> Types.I8 | 47 -> Types.I16 | _ -> Types.I32

let mask_of_sh sh = (1 lsl (63 - sh)) - 1
let nrm sh x = (x lsl sh) asr sh
let f32 x = Int32.float_of_bits (Int32.bits_of_float x)
let div_zero () = raise (Pvvm.Vm.Trap "division by zero")

(* ---------------- boxing ---------------- *)

let box_i sh (a : int array) =
  let s = scalar_of_sh sh in
  Value.Vec (Array.map (fun x -> Value.Int (s, Int64.of_int x)) a)

let box_float s (a : float array) =
  Value.Vec (Array.map (fun x -> Value.Float (s, x)) a)

let box_f32 a = box_float Types.F32 a
let box_f64 a = box_float Types.F64 a

(* The generator's typing guarantees the shape; a mismatch is a
   generator bug. *)
let unbox_i (_ : int) (v : Value.t) (d : int array) =
  match v with
  | Value.Vec es when Array.length es = Array.length d ->
    Array.iteri
      (fun i e ->
        match e with
        | Value.Int (_, x) -> Array.unsafe_set d i (Int64.to_int x)
        | _ -> invalid_arg "Lanes.unbox_i")
      es
  | _ -> invalid_arg "Lanes.unbox_i"

let unbox_float (v : Value.t) (d : float array) =
  match v with
  | Value.Vec es when Array.length es = Array.length d ->
    Array.iteri
      (fun i e ->
        match e with
        | Value.Float (_, x) -> Array.unsafe_set d i x
        | _ -> invalid_arg "Lanes.unbox_float")
      es
  | _ -> invalid_arg "Lanes.unbox_float"

let unbox_f32 v d = unbox_float v d
let unbox_f64 v d = unbox_float v d

(* ---------------- moves ---------------- *)

let copy a d = Array.blit a 0 d 0 (Array.length d)
let splat_i (_ : int) (d : int array) x = Array.fill d 0 (Array.length d) x
let splat_f32 (d : float array) x = Array.fill d 0 (Array.length d) x
let splat_f64 (d : float array) x = Array.fill d 0 (Array.length d) x

(* ---------------- memory ---------------- *)

(* The caller has bounds-checked the whole vector. *)
let load_i sh buf addr (d : int array) =
  match sh with
  | 55 ->
    for i = 0 to Array.length d - 1 do
      Array.unsafe_set d i (Bytes.get_int8 buf (addr + i))
    done
  | 47 ->
    for i = 0 to Array.length d - 1 do
      Array.unsafe_set d i (Bytes.get_int16_le buf (addr + (2 * i)))
    done
  | _ ->
    for i = 0 to Array.length d - 1 do
      Array.unsafe_set d i (Int32.to_int (Bytes.get_int32_le buf (addr + (4 * i))))
    done

let load_f32 buf addr (d : float array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i
      (Int32.float_of_bits (Bytes.get_int32_le buf (addr + (4 * i))))
  done

let load_f64 buf addr (d : float array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i
      (Int64.float_of_bits (Bytes.get_int64_le buf (addr + (8 * i))))
  done

let store_i sh buf addr (a : int array) =
  match sh with
  | 55 ->
    for i = 0 to Array.length a - 1 do
      Bytes.set_uint8 buf (addr + i) (Array.unsafe_get a i land 0xFF)
    done
  | 47 ->
    for i = 0 to Array.length a - 1 do
      Bytes.set_uint16_le buf (addr + (2 * i)) (Array.unsafe_get a i land 0xFFFF)
    done
  | _ ->
    for i = 0 to Array.length a - 1 do
      Bytes.set_int32_le buf (addr + (4 * i)) (Int32.of_int (Array.unsafe_get a i))
    done

let store_f32 buf addr (a : float array) =
  for i = 0 to Array.length a - 1 do
    Bytes.set_int32_le buf
      (addr + (4 * i))
      (Int32.bits_of_float (Array.unsafe_get a i))
  done

let store_f64 buf addr (a : float array) =
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_le buf
      (addr + (8 * i))
      (Int64.bits_of_float (Array.unsafe_get a i))
  done

(* ---------------- lane-wise arithmetic ---------------- *)

(* Hot operators get a closure-free loop each (a closure call per lane
   would box every float lane); the rest share [map2_i]/[map2_f]. *)
let map2_i (d : int array) (a : int array) (b : int array) f =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (f (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

(** [d.(i) <- a.(i) op b.(i)] at the lane width; mirrors
    [Eval.int_binop] on normalized payloads (see {!Emit.narrow_binop_expr}
    for why the native-int domain is exact). *)
let bin_i sh (op : Instr.binop) (d : int array) (a : int array) (b : int array) =
  let m = mask_of_sh sh in
  let n = Array.length d in
  match op with
  | Instr.Add ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (nrm sh (Array.unsafe_get a i + Array.unsafe_get b i))
    done
  | Instr.Sub ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (nrm sh (Array.unsafe_get a i - Array.unsafe_get b i))
    done
  | Instr.Mul ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (nrm sh (Array.unsafe_get a i * Array.unsafe_get b i))
    done
  | Instr.Umax ->
    for i = 0 to n - 1 do
      let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
      Array.unsafe_set d i (if x land m >= y land m then x else y)
    done
  | Instr.Div ->
    map2_i d a b (fun x y -> if y = 0 then div_zero () else nrm sh (x / y))
  | Instr.Udiv ->
    map2_i d a b (fun x y ->
        if y = 0 then div_zero () else nrm sh ((x land m) / (y land m)))
  | Instr.Rem ->
    map2_i d a b (fun x y -> if y = 0 then div_zero () else nrm sh (x mod y))
  | Instr.Urem ->
    map2_i d a b (fun x y ->
        if y = 0 then div_zero () else nrm sh ((x land m) mod (y land m)))
  | Instr.And -> map2_i d a b (fun x y -> x land y)
  | Instr.Or -> map2_i d a b (fun x y -> x lor y)
  | Instr.Xor -> map2_i d a b (fun x y -> x lxor y)
  | Instr.Shl -> map2_i d a b (fun x y -> nrm sh (x lsl (y land 63)))
  | Instr.Lshr -> map2_i d a b (fun x y -> nrm sh ((x land m) lsr (y land 63)))
  | Instr.Ashr -> map2_i d a b (fun x y -> nrm sh (x asr (y land 63)))
  | Instr.Min -> map2_i d a b (fun x y -> if x <= y then x else y)
  | Instr.Max -> map2_i d a b (fun x y -> if x >= y then x else y)
  | Instr.Umin -> map2_i d a b (fun x y -> if x land m <= y land m then x else y)

let map2_f (d : float array) (a : float array) (b : float array) f =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (f (Array.unsafe_get a i) (Array.unsafe_get b i))
  done

let float_op (op : Instr.binop) : float -> float -> float =
  match op with
  | Instr.Add -> ( +. )
  | Instr.Sub -> ( -. )
  | Instr.Mul -> ( *. )
  | Instr.Div -> ( /. )
  | Instr.Min -> Float.min
  | Instr.Max -> Float.max
  | _ -> invalid_arg "Lanes.float_op"

let bin_f32 (op : Instr.binop) (d : float array) (a : float array) (b : float array)
    =
  let n = Array.length d in
  match op with
  | Instr.Add ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (f32 (Array.unsafe_get a i +. Array.unsafe_get b i))
    done
  | Instr.Mul ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (f32 (Array.unsafe_get a i *. Array.unsafe_get b i))
    done
  | _ ->
    let f = float_op op in
    map2_f d a b (fun x y -> f32 (f x y))

let bin_f64 (op : Instr.binop) (d : float array) (a : float array) (b : float array)
    =
  let n = Array.length d in
  match op with
  | Instr.Add ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (Array.unsafe_get a i +. Array.unsafe_get b i)
    done
  | Instr.Mul ->
    for i = 0 to n - 1 do
      Array.unsafe_set d i (Array.unsafe_get a i *. Array.unsafe_get b i)
    done
  | _ -> map2_f d a b (float_op op)

let neg_i sh (d : int array) (a : int array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (nrm sh (- Array.unsafe_get a i))
  done

let not_i sh (d : int array) (a : int array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (nrm sh (lnot (Array.unsafe_get a i)))
  done

let neg_f32 (d : float array) (a : float array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (f32 (-.Array.unsafe_get a i))
  done

let neg_f64 (d : float array) (a : float array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (-.Array.unsafe_get a i)
  done

(** Integer lane resize from width [sha] to width [shd]: [Zext] takes
    the source's unsigned view, [Sext]/[Trunc] its payload, both
    normalized to the destination ([Eval.conv_scalar]). *)
let zext_i sha shd (d : int array) (a : int array) =
  let m = mask_of_sh sha in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (nrm shd (Array.unsafe_get a i land m))
  done

let sext_i shd (d : int array) (a : int array) =
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (nrm shd (Array.unsafe_get a i))
  done

(* ---------------- reductions ---------------- *)

(** [Eval.reduce]: a left fold from lane 0 with the lane binop, each step
    normalized at the lane width. *)
let red_i sh (op : Instr.redop) (a : int array) =
  let m = mask_of_sh sh in
  let acc = ref (Array.unsafe_get a 0) in
  (match op with
  | Instr.Radd ->
    for i = 1 to Array.length a - 1 do
      acc := !acc + Array.unsafe_get a i
    done;
    acc := nrm sh !acc
  | Instr.Rmin ->
    for i = 1 to Array.length a - 1 do
      let y = Array.unsafe_get a i in
      if not (!acc <= y) then acc := y
    done
  | Instr.Rmax ->
    for i = 1 to Array.length a - 1 do
      let y = Array.unsafe_get a i in
      if not (!acc >= y) then acc := y
    done
  | Instr.Rumin ->
    for i = 1 to Array.length a - 1 do
      let y = Array.unsafe_get a i in
      if not (!acc land m <= y land m) then acc := y
    done
  | Instr.Rumax ->
    for i = 1 to Array.length a - 1 do
      let y = Array.unsafe_get a i in
      if not (!acc land m >= y land m) then acc := y
    done);
  !acc

let red_float norm (op : Instr.redop) (a : float array) =
  let f =
    match op with
    | Instr.Radd -> ( +. )
    | Instr.Rmin -> Float.min
    | Instr.Rmax -> Float.max
    | Instr.Rumin | Instr.Rumax -> invalid_arg "Lanes.red_float"
  in
  let acc = ref (Array.unsafe_get a 0) in
  for i = 1 to Array.length a - 1 do
    acc := norm (f !acc (Array.unsafe_get a i))
  done;
  !acc

let red_f32 op a = red_float f32 op a
let red_f64 op a = red_float Fun.id op a
