(** Binary serialization of PVIR programs — the actual "bytecode" format.

    Layout goals follow the paper's compactness argument (§2.1, ref [15]):
    compact varint-style integers, one byte per opcode, annotations stored
    out of line so a reader that does not understand them can skip them
    wholesale.  [decode (encode p)] reproduces [p] exactly (checked by the
    round-trip property tests). *)

let magic = "PVIR"
let version = 1

(** Why a stream was rejected: the byte offset where decoding stopped and
    a human-readable reason.  Bytecode received over the distribution
    channel is untrusted input; the decoder's contract is that *every*
    malformed stream — random bytes, truncations, bit flips, adversarial
    length fields — is rejected with [Corrupt], never with [Failure],
    [Invalid_argument], [Out_of_memory] or a stack overflow. *)
type corruption = { offset : int; reason : string }

exception Corrupt of corruption

let corruption_to_string { offset; reason } =
  Printf.sprintf "%s at byte %d" reason offset

(** Decode-time resource bounds.  A length field in a hostile stream can
    claim any 64-bit value; every count that drives an allocation is
    checked against these limits (and against the bytes actually
    remaining) before the allocation happens. *)
type limits = {
  max_vec_lanes : int;  (** lanes in a vector type or value *)
  max_regs : int;  (** virtual registers per function *)
  max_global_elems : int;  (** elements per global array *)
  max_annot_depth : int;  (** nesting of list-valued annotations *)
}

let default_limits =
  {
    max_vec_lanes = 4096;
    max_regs = 1 lsl 20;
    max_global_elems = 1 lsl 26;
    max_annot_depth = 32;
  }

(* ---------------- primitive writers ---------------- *)

type writer = Buffer.t

let w_u8 (b : writer) v = Buffer.add_uint8 b (v land 0xFF)

(* LEB128-style unsigned varint over int64 *)
let w_varint b (v : int64) =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then (
      w_u8 b byte;
      continue_ := false)
    else w_u8 b (byte lor 0x80)
  done

let w_int b (v : int) = w_varint b (Int64.of_int v)

(* zig-zag for signed values *)
let w_svarint b (v : int64) =
  w_varint b (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63))

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_f64 b (v : float) =
  Buffer.add_int64_le b (Int64.bits_of_float v)

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_option b f = function
  | None -> w_u8 b 0
  | Some x ->
    w_u8 b 1;
    f b x

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

(* ---------------- primitive readers ---------------- *)

type reader = { buf : string; mutable pos : int; lim : limits }

let corrupt r fmt =
  Printf.ksprintf (fun s -> raise (Corrupt { offset = r.pos; reason = s })) fmt

let remaining r = String.length r.buf - r.pos

let r_u8 r =
  if r.pos >= String.length r.buf then corrupt r "unexpected end of input";
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_varint r =
  let rec go shift acc =
    if shift > 63 then corrupt r "varint too long";
    let byte = r_u8 r in
    let acc =
      Int64.logor acc (Int64.shift_left (Int64.of_int (byte land 0x7F)) shift)
    in
    if byte land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0L

let r_int r = Int64.to_int (r_varint r)

let r_svarint r =
  let v = r_varint r in
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

let r_string r =
  let n = r_int r in
  (* [n > remaining] also rejects the overflowing lengths ([r.pos + n]
     wrapping negative) that the seed's check let through *)
  if n < 0 || n > remaining r then corrupt r "bad string length %d" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_f64 r =
  if remaining r < 8 then corrupt r "truncated f64";
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.buf.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  Int64.float_of_bits !v

let r_bool r = r_u8 r <> 0

let r_option r f = match r_u8 r with 0 -> None | _ -> Some (f r)

(* Every list element costs at least one encoded byte, so a claimed count
   larger than the bytes left is corrupt — checked *before* [List.init]
   allocates, so a hostile length field cannot make the decoder allocate
   (or loop) beyond the size of its input. *)
let r_count r n =
  if n < 0 || n > remaining r then corrupt r "bad element count %d" n

let r_list r f =
  let n = r_int r in
  r_count r n;
  List.init n (fun _ -> f r)

(* ---------------- enums ---------------- *)

let scalar_tag = function
  | Types.I8 -> 0
  | Types.I16 -> 1
  | Types.I32 -> 2
  | Types.I64 -> 3
  | Types.F32 -> 4
  | Types.F64 -> 5

let scalar_of_tag r = function
  | 0 -> Types.I8
  | 1 -> Types.I16
  | 2 -> Types.I32
  | 3 -> Types.I64
  | 4 -> Types.F32
  | 5 -> Types.F64
  | t -> corrupt r "bad scalar tag %d" t

let w_ty b = function
  | Types.Scalar s -> w_u8 b (scalar_tag s)
  | Types.Vector (s, n) ->
    w_u8 b (0x10 lor scalar_tag s);
    w_int b n
  | Types.Ptr s -> w_u8 b (0x20 lor scalar_tag s)

(* Decoded scalar and pointer types are shared constants, indexed by
   scalar tag, so a decoded register type costs one word: its slot. *)
let scalar_tys = Types.[| i8; i16; i32; i64; f32; f64 |]
let ptr_tys =
  Array.map (fun s -> Types.Ptr s) Types.[| I8; I16; I32; I64; F32; F64 |]

let r_ty r =
  let t = r_u8 r in
  let s = scalar_of_tag r (t land 0x0F) in
  match t land 0xF0 with
  | 0 -> scalar_tys.(t land 0x0F)
  | 0x10 ->
    let n = r_int r in
    if n < 2 || n > r.lim.max_vec_lanes then
      corrupt r "bad vector lane count %d" n;
    Types.Vector (s, n)
  | 0x20 -> ptr_tys.(t land 0x0F)
  | _ -> corrupt r "bad type tag %d" t

let index_of x l =
  let rec go i = function
    | [] -> invalid_arg "Serial.index_of"  (* encoder-side: op list is total *)
    | y :: tl -> if y = x then i else go (i + 1) tl
  in
  go 0 l

let nth_or_corrupt r name l i =
  match List.nth_opt l i with
  | Some x -> x
  | None -> corrupt r "bad %s tag %d" name i

let w_binop b op = w_u8 b (index_of op Instr.all_binops)
let r_binop r = nth_or_corrupt r "binop" Instr.all_binops (r_u8 r)
let w_relop b op = w_u8 b (index_of op Instr.all_relops)
let r_relop r = nth_or_corrupt r "relop" Instr.all_relops (r_u8 r)
let w_redop b op = w_u8 b (index_of op Instr.all_redops)
let r_redop r = nth_or_corrupt r "redop" Instr.all_redops (r_u8 r)

let all_convs =
  Instr.[ Zext; Sext; Trunc; Sitofp; Uitofp; Fptosi; Fptoui; Fpconv ]

let w_conv b c = w_u8 b (index_of c all_convs)
let r_conv r = nth_or_corrupt r "conv" all_convs (r_u8 r)

let all_unops = Instr.[ Neg; Not ]
let w_unop b u = w_u8 b (index_of u all_unops)
let r_unop r = nth_or_corrupt r "unop" all_unops (r_u8 r)

(* ---------------- values ---------------- *)

let rec w_value b = function
  | Value.Int (s, x) ->
    w_u8 b 0;
    w_u8 b (scalar_tag s);
    w_svarint b x
  | Value.Float (s, x) ->
    w_u8 b 1;
    w_u8 b (scalar_tag s);
    w_f64 b x
  | Value.Vec elems ->
    w_u8 b 2;
    w_int b (Array.length elems);
    Array.iter (w_value b) elems

(* Scalar values only: an [Int] carrying a float scalar tag (or the
   reverse) would hit [Value.normalize]'s [Invalid_argument] — reject the
   tag combination instead. *)
let r_scalar_value r =
  match r_u8 r with
  | 0 ->
    let s = scalar_of_tag r (r_u8 r) in
    if Types.is_float_scalar s then corrupt r "int value with float scalar";
    Value.Int (s, Value.normalize s (r_svarint r))
  | 1 ->
    let s = scalar_of_tag r (r_u8 r) in
    if not (Types.is_float_scalar s) then
      corrupt r "float value with int scalar";
    Value.Float (s, Value.normalize_float s (r_f64 r))
  | 2 -> corrupt r "nested vector value"
  | t -> corrupt r "bad value tag %d" t

(* The type system has no vector-of-vector, so well-formed values are one
   level deep: a scalar, or a homogeneous vector of scalars.  Decoding
   enforces that shape (rather than recursing), which removes the
   stack-overflow vector a nested-value encoding would open. *)
let r_value r =
  if remaining r > 0 && Char.code r.buf.[r.pos] = 2 then begin
    r.pos <- r.pos + 1;
    let n = r_int r in
    if n < 2 || n > r.lim.max_vec_lanes then corrupt r "vector with %d lanes" n;
    r_count r n;
    let first = r_scalar_value r in
    let elem_ty = Value.ty first in
    let lanes = Array.make n first in
    for i = 1 to n - 1 do
      let v = r_scalar_value r in
      if not (Types.equal (Value.ty v) elem_ty) then
        corrupt r "mixed lane types in vector value";
      lanes.(i) <- v
    done;
    Value.Vec lanes
  end
  else r_scalar_value r

(* ---------------- annotations ---------------- *)

let rec w_annot_value b = function
  | Annot.Bool v ->
    w_u8 b 0;
    w_bool b v
  | Annot.Int v ->
    w_u8 b 1;
    w_svarint b (Int64.of_int v)
  | Annot.Flt v ->
    w_u8 b 2;
    w_f64 b v
  | Annot.Str v ->
    w_u8 b 3;
    w_string b v
  | Annot.List v ->
    w_u8 b 4;
    w_list b w_annot_value v

(* Annotation lists nest (the spill-order payload is a list of pairs), so
   recursion is real here — bounded by [max_annot_depth] to keep a
   deeply-nested hostile stream from overflowing the decoder's stack. *)
let rec r_annot_value ?(depth = 0) r =
  if depth > r.lim.max_annot_depth then corrupt r "annotation nesting too deep";
  match r_u8 r with
  | 0 -> Annot.Bool (r_bool r)
  | 1 -> Annot.Int (Int64.to_int (r_svarint r))
  | 2 -> Annot.Flt (r_f64 r)
  | 3 -> Annot.Str (r_string r)
  | 4 -> Annot.List (r_list r (r_annot_value ~depth:(depth + 1)))
  | t -> corrupt r "bad annotation tag %d" t

let w_annots b (a : Annot.t) =
  w_list b
    (fun b (k, v) ->
      w_string b k;
      w_annot_value b v)
    a

let r_annots r : Annot.t =
  r_list r (fun r ->
      let k = r_string r in
      let v = r_annot_value r in
      (k, v))

(* ---------------- instructions ---------------- *)

let w_instr b (i : Instr.t) =
  match i with
  | Const (d, v) ->
    w_u8 b 0;
    w_int b d;
    w_value b v
  | Binop (op, d, x, y) ->
    w_u8 b 1;
    w_binop b op;
    w_int b d;
    w_int b x;
    w_int b y
  | Unop (op, d, x) ->
    w_u8 b 2;
    w_unop b op;
    w_int b d;
    w_int b x
  | Conv (c, d, x) ->
    w_u8 b 3;
    w_conv b c;
    w_int b d;
    w_int b x
  | Cmp (op, d, x, y) ->
    w_u8 b 4;
    w_relop b op;
    w_int b d;
    w_int b x;
    w_int b y
  | Select (d, c, x, y) ->
    w_u8 b 5;
    w_int b d;
    w_int b c;
    w_int b x;
    w_int b y
  | Load (ty, d, base, off) ->
    w_u8 b 6;
    w_ty b ty;
    w_int b d;
    w_int b base;
    w_svarint b (Int64.of_int off)
  | Store (ty, s, base, off) ->
    w_u8 b 7;
    w_ty b ty;
    w_int b s;
    w_int b base;
    w_svarint b (Int64.of_int off)
  | Alloca (d, n) ->
    w_u8 b 8;
    w_int b d;
    w_int b n
  | Call (d, name, args) ->
    w_u8 b 9;
    w_option b w_int d;
    w_string b name;
    w_list b w_int args
  | Splat (d, x) ->
    w_u8 b 10;
    w_int b d;
    w_int b x
  | Extract (d, x, lane) ->
    w_u8 b 11;
    w_int b d;
    w_int b x;
    w_int b lane
  | Reduce (op, d, x) ->
    w_u8 b 12;
    w_redop b op;
    w_int b d;
    w_int b x
  | Mov (d, x) ->
    w_u8 b 13;
    w_int b d;
    w_int b x
  | Gaddr (d, g) ->
    w_u8 b 14;
    w_int b d;
    w_string b g

let r_instr r : Instr.t =
  match r_u8 r with
  | 0 ->
    let d = r_int r in
    Const (d, r_value r)
  | 1 ->
    let op = r_binop r in
    let d = r_int r in
    let x = r_int r in
    let y = r_int r in
    Binop (op, d, x, y)
  | 2 ->
    let op = r_unop r in
    let d = r_int r in
    Unop (op, d, r_int r)
  | 3 ->
    let c = r_conv r in
    let d = r_int r in
    Conv (c, d, r_int r)
  | 4 ->
    let op = r_relop r in
    let d = r_int r in
    let x = r_int r in
    let y = r_int r in
    Cmp (op, d, x, y)
  | 5 ->
    let d = r_int r in
    let c = r_int r in
    let x = r_int r in
    let y = r_int r in
    Select (d, c, x, y)
  | 6 ->
    let ty = r_ty r in
    let d = r_int r in
    let base = r_int r in
    Load (ty, d, base, Int64.to_int (r_svarint r))
  | 7 ->
    let ty = r_ty r in
    let s = r_int r in
    let base = r_int r in
    Store (ty, s, base, Int64.to_int (r_svarint r))
  | 8 ->
    let d = r_int r in
    Alloca (d, r_int r)
  | 9 ->
    let d = r_option r r_int in
    let name = r_string r in
    Call (d, name, r_list r r_int)
  | 10 ->
    let d = r_int r in
    Splat (d, r_int r)
  | 11 ->
    let d = r_int r in
    let x = r_int r in
    Extract (d, x, r_int r)
  | 12 ->
    let op = r_redop r in
    let d = r_int r in
    Reduce (op, d, r_int r)
  | 13 ->
    let d = r_int r in
    Mov (d, r_int r)
  | 14 ->
    let d = r_int r in
    Gaddr (d, r_string r)
  | t -> corrupt r "bad instruction tag %d" t

let w_term b (t : Instr.term) =
  match t with
  | Br l ->
    w_u8 b 0;
    w_int b l
  | Cbr (c, l1, l2) ->
    w_u8 b 1;
    w_int b c;
    w_int b l1;
    w_int b l2
  | Ret None -> w_u8 b 2
  | Ret (Some x) ->
    w_u8 b 3;
    w_int b x

let r_term r : Instr.term =
  match r_u8 r with
  | 0 -> Br (r_int r)
  | 1 ->
    let c = r_int r in
    let l1 = r_int r in
    let l2 = r_int r in
    Cbr (c, l1, l2)
  | 2 -> Ret None
  | 3 -> Ret (Some (r_int r))
  | t -> corrupt r "bad terminator tag %d" t

(* ---------------- functions & programs ---------------- *)

let w_func b (fn : Func.t) =
  w_string b fn.name;
  w_list b
    (fun b r ->
      w_int b r;
      w_ty b (Func.reg_type fn r))
    fn.params;
  w_option b w_ty fn.ret;
  (* full register type table, in register order *)
  let regs =
    List.rev (Func.fold_regs (fun r ty acc -> (r, ty) :: acc) fn [])
  in
  w_list b
    (fun b (r, ty) ->
      w_int b r;
      w_ty b ty)
    regs;
  w_int b fn.next_reg;
  w_int b fn.next_label;
  w_annots b fn.annots;
  w_list b
    (fun b (header, a) ->
      w_int b header;
      w_annots b a)
    fn.loop_annots;
  w_list b
    (fun b (blk : Func.block) ->
      w_int b blk.label;
      w_list b w_instr blk.instrs;
      w_term b blk.term)
    fn.blocks

(* [slots] is what is left of the program's budget of register-table
   slots (see {!decode}). *)
let r_func slots r : Func.t =
  let name = r_string r in
  let params =
    r_list r (fun r ->
        let reg = r_int r in
        let ty = r_ty r in
        (reg, ty))
  in
  let ret = r_option r r_ty in
  let reg_list =
    r_list r (fun r ->
        let reg = r_int r in
        let ty = r_ty r in
        (reg, ty))
  in
  let next_reg = r_int r in
  let next_label = r_int r in
  (* [next_reg] sizes the interpreter's register file for every frame of
     this function, so it is allocation-critical: bound it, and require
     every declared register to sit below it (the builder's invariant) so
     a decoded program can never index outside the frame. *)
  if next_reg < 0 || next_reg > r.lim.max_regs then
    corrupt r "bad register count %d" next_reg;
  if next_label < 0 then corrupt r "bad label counter %d" next_label;
  List.iter
    (fun (reg, _) ->
      if reg < 0 || reg >= next_reg then
        corrupt r "parameter register r%d outside register file" reg)
    params;
  List.iter
    (fun (reg, _) ->
      if reg < 0 || reg >= next_reg then
        corrupt r "declared register r%d outside register file" reg)
    reg_list;
  (* every frame of this function allocates [next_reg] slots, and the type
     table is dense up to the highest declared register, below [next_reg]:
     [next_reg] is what is charged to the program's budget *)
  if next_reg > !slots then
    corrupt r "register tables exceed the budget of %d bytes of input"
      (String.length r.buf);
  slots := !slots - next_reg;
  let extent =
    List.fold_left (fun acc (reg, _) -> max acc (reg + 1)) 0 reg_list
  in
  let annots = r_annots r in
  let loop_annots =
    r_list r (fun r ->
        let h = r_int r in
        let a = r_annots r in
        (h, a))
  in
  let blocks =
    r_list r (fun r ->
        let label = r_int r in
        let instrs = r_list r r_instr in
        let term = r_term r in
        { Func.label; instrs; term })
  in
  {
    Func.name;
    params = List.map fst params;
    ret;
    blocks;
    reg_ty = Func.reg_table extent reg_list;
    next_reg;
    next_label;
    annots;
    loop_annots;
    block_index = None;
  }

let w_extern b (e : Prog.extern) =
  w_string b e.Prog.ename;
  w_list b w_ty e.Prog.eparams;
  w_option b w_ty e.Prog.eret

let r_extern r : Prog.extern =
  let ename = r_string r in
  let eparams = r_list r r_ty in
  let eret = r_option r r_ty in
  { ename; eparams; eret }

let w_global b (g : Prog.global) =
  w_string b g.gname;
  w_u8 b (scalar_tag g.gelem);
  w_int b g.gcount;
  w_option b (fun b a -> w_list b w_value (Array.to_list a)) g.ginit;
  w_annots b g.gannots

let r_global r : Prog.global =
  let gname = r_string r in
  let gelem = scalar_of_tag r (r_u8 r) in
  let gcount = r_int r in
  if gcount < 0 || gcount > r.lim.max_global_elems then
    corrupt r "bad global element count %d" gcount;
  let ginit = r_option r (fun r -> Array.of_list (r_list r r_value)) in
  (* loader invariants, enforced at the trust boundary: the initializer
     covers the array exactly and every element has the declared scalar
     type (a mismatch would silently lay out wrong bytes at load time) *)
  (match ginit with
  | None -> ()
  | Some init ->
    if Array.length init <> gcount then
      corrupt r "initializer has %d elements, global declares %d"
        (Array.length init) gcount;
    Array.iter
      (fun v ->
        if not (Types.equal (Value.ty v) (Types.Scalar gelem)) then
          corrupt r "initializer element type mismatch in @%s" gname)
      init);
  let gannots = r_annots r in
  { gname; gelem; gcount; ginit; gannots }

(** Serialize a program to its binary bytecode form. *)
let encode (p : Prog.t) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  w_u8 b version;
  w_string b p.pname;
  w_annots b p.annots;
  w_list b w_extern p.externs;
  w_list b w_global p.globals;
  w_list b w_func p.funcs;
  Buffer.contents b

(** Parse binary bytecode back into a program.  Every function claims
    [next_reg] register slots: each interpreter frame allocates that many,
    and its dense type table ends below it.  A program's functions may
    claim eight slots per input byte in all, so a short stream cannot make
    the decoder, or a call into what it decodes, allocate much more host
    memory than it spans.  What the toolchain emits declares every
    register below [next_reg], at two or more bytes each, so it fits.
    @raise Corrupt on malformed input. *)
let decode ?(limits = default_limits) (s : string) : Prog.t =
  let r = { buf = s; pos = 0; lim = limits } in
  let slots = ref (8 * String.length s) in
  if String.length s < 5 || not (String.equal (String.sub s 0 4) magic) then
    corrupt r "bad magic";
  r.pos <- 4;
  (* Belt and braces: the readers above are written so that no exception
     but [Corrupt] can escape on any input; the handler turns anything
     that nevertheless slips through (a future reader bug) into a
     [Corrupt] at the current offset instead of crashing the device. *)
  try
    let v = r_u8 r in
    if v <> version then corrupt r "unsupported version %d" v;
    let pname = r_string r in
    let annots = r_annots r in
    let externs = r_list r r_extern in
    let globals = r_list r r_global in
    let funcs = r_list r (r_func slots) in
    if remaining r <> 0 then corrupt r "%d trailing bytes" (remaining r);
    { Prog.pname; globals; funcs; externs; annots }
  with
  | Corrupt _ as e -> raise e
  | Stack_overflow -> corrupt r "decoder recursion limit"
  | Invalid_argument m | Failure m -> corrupt r "decoder invariant: %s" m

(** [decode_result s] is [Ok p] or [Error corruption] — the exceptionless
    face of {!decode} for callers at the trust boundary. *)
let decode_result ?limits (s : string) : (Prog.t, corruption) result =
  match decode ?limits s with
  | p -> Ok p
  | exception Corrupt c -> Error c

(** Encoded size in bytes of a program with its annotations stripped —
    used by the size/compactness experiment (E5). *)
let encode_stripped (p : Prog.t) : string =
  let p' = Prog.copy p in
  p'.annots <- Annot.empty;
  List.iter
    (fun (fn : Func.t) ->
      fn.annots <- Annot.empty;
      fn.loop_annots <- [])
    p'.funcs;
  encode p'

let to_file path p =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode p))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      decode (really_input_string ic n))
