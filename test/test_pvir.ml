(* Unit tests for the PVIR library: types, values, operator semantics,
   annotations, the verifier, and both serialization formats. *)

open Pvir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- types ---------------- *)

let test_type_sizes () =
  check int_t "i8 size" 1 (Types.size Types.i8);
  check int_t "i16 size" 2 (Types.size Types.i16);
  check int_t "i32 size" 4 (Types.size Types.i32);
  check int_t "i64 size" 8 (Types.size Types.i64);
  check int_t "f32 size" 4 (Types.size Types.f32);
  check int_t "f64 size" 8 (Types.size Types.f64);
  check int_t "ptr size" 8 (Types.size (Types.ptr Types.I8));
  check int_t "vec size" 16 (Types.size (Types.vec Types.I8 16));
  check int_t "vec f32x4" 16 (Types.size (Types.vec Types.F32 4))

let test_type_predicates () =
  check bool_t "f32 is float" true (Types.is_float Types.f32);
  check bool_t "i32 not float" false (Types.is_float Types.i32);
  check bool_t "vec i8 is integer" true (Types.is_integer (Types.vec Types.I8 4));
  check bool_t "ptr is pointer" true (Types.is_pointer (Types.ptr Types.F32));
  check int_t "lanes of scalar" 1 (Types.lanes Types.i32);
  check int_t "lanes of vec" 8 (Types.lanes (Types.vec Types.I16 8));
  check bool_t "with_lanes 1" true
    (Types.equal (Types.with_lanes Types.I8 1) Types.i8);
  check bool_t "with_lanes 4" true
    (Types.equal (Types.with_lanes Types.F32 4) (Types.vec Types.F32 4))

let test_type_names () =
  check string_t "i64 name" "i64" (Types.to_string Types.i64);
  check string_t "vec name" "<4 x f32>" (Types.to_string (Types.vec Types.F32 4));
  check string_t "ptr name" "i8*" (Types.to_string (Types.ptr Types.I8));
  List.iter
    (fun s ->
      match Types.scalar_of_name (Types.scalar_name s) with
      | Some s' -> check bool_t "scalar name roundtrip" true (s = s')
      | None -> Alcotest.fail "scalar name did not parse")
    Types.all_scalars

let test_vec_rejects_lanes () =
  Alcotest.check_raises "vec of 1 lane rejected"
    (Invalid_argument "Types.vec: lanes < 2") (fun () ->
      ignore (Types.vec Types.I8 1))

(* ---------------- values ---------------- *)

let test_value_normalization () =
  check bool_t "i8 300 wraps" true (Value.equal (Value.i8 300) (Value.i8 44));
  check bool_t "i8 -1 = 255 bits" true
    (Value.equal (Value.i8 255) (Value.i8 (-1)));
  check bool_t "i16 wrap" true
    (Value.equal (Value.i16 65536) (Value.i16 0));
  check bool_t "i32 wrap" true
    (Value.equal
       (Value.int Types.I32 0x1_0000_0001L)
       (Value.i32 1));
  (* unsigned view *)
  check bool_t "unsigned i8" true
    (Int64.equal (Value.unsigned Types.I8 (-1L)) 255L)

let test_value_f32_rounding () =
  (* a double not representable in f32 must round when stored as f32 *)
  let v = Value.f32 1.1 in
  let x = Value.to_float v in
  check bool_t "f32 rounded" true (x <> 1.1);
  check bool_t "f32 stable" true (Value.equal v (Value.f32 x))

let test_value_bytes_roundtrip () =
  let buf = Bytes.make 64 '\000' in
  let cases =
    [
      Value.i8 (-7);
      Value.i16 1234;
      Value.i32 (-100000);
      Value.i64 0x1234_5678_9ABC_DEFL;
      Value.f32 3.5;
      Value.f64 (-0.125);
      Value.vec (Array.init 4 (fun i -> Value.i32 (i * 1000)));
      Value.vec (Array.init 8 (fun i -> Value.i16 (i - 4)));
    ]
  in
  List.iter
    (fun v ->
      Value.write_bytes buf 8 v;
      let v' = Value.read_bytes buf 8 (Value.ty v) in
      check bool_t (Value.to_string v) true (Value.equal v v'))
    cases

let test_value_zero () =
  check bool_t "zero i32" true (Value.equal (Value.zero Types.i32) (Value.i32 0));
  check bool_t "zero f64" true (Value.equal (Value.zero Types.f64) (Value.f64 0.));
  match Value.zero (Types.vec Types.I8 4) with
  | Value.Vec a -> check int_t "zero vec lanes" 4 (Array.length a)
  | _ -> Alcotest.fail "zero of vector is not a vector"

(* ---------------- eval ---------------- *)

let test_eval_int_arith () =
  let i32 = Value.i32 in
  let e op a b = Eval.binop op (i32 a) (i32 b) in
  check bool_t "add" true (Value.equal (e Instr.Add 3 4) (i32 7));
  check bool_t "sub" true (Value.equal (e Instr.Sub 3 4) (i32 (-1)));
  check bool_t "mul" true (Value.equal (e Instr.Mul 5 (-6)) (i32 (-30)));
  check bool_t "div" true (Value.equal (e Instr.Div (-7) 2) (i32 (-3)));
  check bool_t "udiv" true
    (Value.equal (Eval.binop Instr.Udiv (i32 (-1)) (i32 2)) (i32 0x7FFFFFFF));
  check bool_t "rem" true (Value.equal (e Instr.Rem (-7) 2) (i32 (-1)));
  check bool_t "and" true (Value.equal (e Instr.And 0xFF 0x0F) (i32 0x0F));
  check bool_t "shl" true (Value.equal (e Instr.Shl 1 10) (i32 1024));
  check bool_t "ashr" true (Value.equal (e Instr.Ashr (-8) 1) (i32 (-4)));
  check bool_t "lshr i32" true
    (Value.equal (Eval.binop Instr.Lshr (i32 (-1)) (i32 28)) (i32 15));
  check bool_t "smin" true (Value.equal (e Instr.Min (-5) 3) (i32 (-5)));
  check bool_t "umin" true (Value.equal (e Instr.Umin (-5) 3) (i32 3));
  check bool_t "umax" true (Value.equal (e Instr.Umax (-5) 3) (i32 (-5)))

let test_eval_narrow_wraparound () =
  (* 8-bit arithmetic wraps at 8 bits even though stored in int64 *)
  let r = Eval.binop Instr.Add (Value.i8 200) (Value.i8 100) in
  check bool_t "u8 wrap" true (Value.equal r (Value.i8 44));
  let r = Eval.binop Instr.Mul (Value.i8 16) (Value.i8 16) in
  check bool_t "u8 mul wrap" true (Value.equal r (Value.i8 0))

let test_eval_division_by_zero () =
  Alcotest.check_raises "div by zero" Eval.Division_by_zero (fun () ->
      ignore (Eval.binop Instr.Div (Value.i32 1) (Value.i32 0)));
  Alcotest.check_raises "urem by zero" Eval.Division_by_zero (fun () ->
      ignore (Eval.binop Instr.Urem (Value.i32 1) (Value.i32 0)))

let test_eval_float_arith () =
  let f op a b = Eval.binop op (Value.f64 a) (Value.f64 b) in
  check bool_t "fadd" true (Value.equal (f Instr.Add 1.5 2.25) (Value.f64 3.75));
  check bool_t "fdiv" true (Value.equal (f Instr.Div 1.0 4.0) (Value.f64 0.25));
  check bool_t "fmin" true (Value.equal (f Instr.Min 1.0 2.0) (Value.f64 1.0));
  Alcotest.check_raises "float xor rejected"
    (Invalid_argument "Eval: binop xor on float") (fun () ->
      ignore (f Instr.Xor 1.0 2.0))

let test_eval_cmp () =
  let t = Value.i32 1 and f = Value.i32 0 in
  check bool_t "slt" true
    (Value.equal (Eval.cmp Instr.Slt (Value.i32 (-1)) (Value.i32 1)) t);
  check bool_t "ult" true
    (Value.equal (Eval.cmp Instr.Ult (Value.i32 (-1)) (Value.i32 1)) f);
  check bool_t "ugt narrow" true
    (Value.equal (Eval.cmp Instr.Ugt (Value.i8 200) (Value.i8 100)) t);
  check bool_t "sgt narrow" true
    (Value.equal (Eval.cmp Instr.Sgt (Value.i8 200) (Value.i8 100)) f);
  check bool_t "feq" true
    (Value.equal (Eval.cmp Instr.Eq (Value.f32 2.0) (Value.f32 2.0)) t)

let test_eval_conv () =
  let c kind dst v = Eval.conv kind dst v in
  check bool_t "zext u8" true
    (Value.equal (c Instr.Zext Types.i32 (Value.i8 (-1))) (Value.i32 255));
  check bool_t "sext i8" true
    (Value.equal (c Instr.Sext Types.i32 (Value.i8 (-1))) (Value.i32 (-1)));
  check bool_t "trunc" true
    (Value.equal (c Instr.Trunc Types.i8 (Value.i32 511)) (Value.i8 (-1)));
  check bool_t "sitofp" true
    (Value.equal (c Instr.Sitofp Types.f64 (Value.i32 (-3))) (Value.f64 (-3.0)));
  check bool_t "uitofp" true
    (Value.equal (c Instr.Uitofp Types.f64 (Value.i8 (-1))) (Value.f64 255.0));
  check bool_t "fptosi" true
    (Value.equal (c Instr.Fptosi Types.i32 (Value.f64 (-2.7))) (Value.i32 (-2)));
  check bool_t "fpconv" true
    (Value.equal (c Instr.Fpconv Types.f32 (Value.f64 0.5)) (Value.f32 0.5))

let test_eval_vector_ops () =
  let va = Value.vec (Array.init 4 (fun i -> Value.i32 i)) in
  let vb = Value.vec (Array.init 4 (fun i -> Value.i32 (10 * i))) in
  let sum = Eval.binop Instr.Add va vb in
  check bool_t "vec add lane 3" true
    (Value.equal (Eval.extract sum 3) (Value.i32 33));
  let red = Eval.reduce Instr.Radd sum in
  check bool_t "vec reduce" true (Value.equal red (Value.i32 66));
  let m = Eval.reduce Instr.Rumax va in
  check bool_t "vec rumax" true (Value.equal m (Value.i32 3));
  let s = Eval.splat 4 (Value.i32 9) in
  check bool_t "splat" true (Value.equal (Eval.extract s 2) (Value.i32 9));
  (* lane-wise conversion *)
  let bytes = Value.vec (Array.init 4 (fun i -> Value.i8 (100 + (i * 40)))) in
  let wide = Eval.conv Instr.Zext (Types.vec Types.I32 4) bytes in
  check bool_t "vec zext lane 2" true
    (Value.equal (Eval.extract wide 2) (Value.i32 180))

(* ---------------- annotations ---------------- *)

let test_annot_basic () =
  let a =
    Annot.empty
    |> Annot.add "k1" (Annot.Int 42)
    |> Annot.add "k2" (Annot.Bool true)
    |> Annot.add "k3" (Annot.Str "hello")
  in
  check bool_t "find int" true (Annot.find_int "k1" a = Some 42);
  check bool_t "has flag" true (Annot.has_flag "k2" a);
  check bool_t "find str" true (Annot.find_str "k3" a = Some "hello");
  check bool_t "missing" true (Annot.find "nope" a = None);
  let a = Annot.add "k1" (Annot.Int 7) a in
  check bool_t "overwrite" true (Annot.find_int "k1" a = Some 7);
  let a = Annot.remove "k1" a in
  check bool_t "remove" true (Annot.find "k1" a = None)

let test_annot_equal_order_insensitive () =
  let a = [ ("x", Annot.Int 1); ("y", Annot.Bool false) ] in
  let b = [ ("y", Annot.Bool false); ("x", Annot.Int 1) ] in
  check bool_t "order-insensitive equal" true (Annot.equal a b);
  check bool_t "different" false
    (Annot.equal a [ ("x", Annot.Int 2); ("y", Annot.Bool false) ])

let test_annot_size () =
  let a = Annot.add "pv.vectorized" (Annot.Int 4) Annot.empty in
  check bool_t "size positive" true (Annot.size a > 0);
  let bigger =
    Annot.add "pv.spill_order"
      (Annot.List [ Annot.List [ Annot.Int 0; Annot.Int 10 ] ])
      a
  in
  check bool_t "size grows" true (Annot.size bigger > Annot.size a)

(* ---------------- builder & verifier ---------------- *)

let build_valid_func () =
  let b =
    Builder.create ~name:"f" ~params:[ Types.i64; Types.ptr Types.F32 ]
      ~ret:(Some Types.f32)
  in
  (match Builder.params b with
  | [ n; p ] ->
    ignore n;
    let x = Builder.load b Types.f32 ~base:p () in
    let two = Builder.const b (Value.f32 2.0) in
    let y = Builder.mul b x two in
    Builder.ret b (Some y)
  | _ -> assert false);
  Builder.func b

let test_verify_accepts_valid () =
  let p = Prog.create "t" in
  Prog.add_func p (build_valid_func ());
  match Verify.program_result p with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let expect_verify_error build =
  let p = Prog.create "t" in
  Prog.add_func p (build ());
  match Verify.program_result p with
  | Ok () -> Alcotest.fail "verifier accepted ill-formed program"
  | Error _ -> ()

let test_verify_rejects_type_mismatch () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[ Types.i32; Types.f32 ] ~ret:None in
      let blk = Func.add_block fn in
      let d = Func.fresh_reg fn Types.i32 in
      blk.instrs <- [ Instr.Binop (Instr.Add, d, 0, 1) ];
      blk.term <- Instr.Ret None;
      fn)

let test_verify_rejects_bad_label () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[] ~ret:None in
      let blk = Func.add_block fn in
      blk.term <- Instr.Br 99;
      fn)

let test_verify_rejects_float_bitop () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[ Types.f32; Types.f32 ] ~ret:None in
      let blk = Func.add_block fn in
      let d = Func.fresh_reg fn Types.f32 in
      blk.instrs <- [ Instr.Binop (Instr.Xor, d, 0, 1) ];
      blk.term <- Instr.Ret None;
      fn)

let test_verify_rejects_unknown_call () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[] ~ret:None in
      let blk = Func.add_block fn in
      blk.instrs <- [ Instr.Call (None, "nonexistent", []) ];
      blk.term <- Instr.Ret None;
      fn)

let test_verify_rejects_bad_ret () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[ Types.i32 ] ~ret:None in
      let blk = Func.add_block fn in
      blk.term <- Instr.Ret (Some 0);
      fn)

let test_verify_rejects_unknown_global () =
  expect_verify_error (fun () ->
      let fn = Func.create ~name:"bad" ~params:[] ~ret:None in
      let blk = Func.add_block fn in
      let d = Func.fresh_reg fn (Types.ptr Types.I8) in
      blk.instrs <- [ Instr.Gaddr (d, "nope") ];
      blk.term <- Instr.Ret None;
      fn)

let test_verify_rejects_dup_functions () =
  let p = Prog.create "t" in
  Prog.add_func p (build_valid_func ());
  Prog.add_func p (build_valid_func ());
  match Verify.program_result p with
  | Ok () -> Alcotest.fail "duplicate functions accepted"
  | Error _ -> ()

let test_verify_rejects_extract_lane () =
  expect_verify_error (fun () ->
      let fn =
        Func.create ~name:"bad" ~params:[ Types.vec Types.I8 4 ] ~ret:None
      in
      let blk = Func.add_block fn in
      let d = Func.fresh_reg fn Types.i8 in
      blk.instrs <- [ Instr.Extract (d, 0, 9) ];
      blk.term <- Instr.Ret None;
      fn)

(* A register with a declared type but outside [0, next_reg) would index
   past the engines' register files: the verifier must reject it with a
   typed error, not let it reach the VM. *)
let test_verify_rejects_reg_out_of_range () =
  let fn = Func.create ~name:"bad" ~params:[] ~ret:None in
  let blk = Func.add_block fn in
  Func.set_reg_type fn fn.next_reg Types.i64;
  blk.instrs <- [ Instr.Const (fn.next_reg, Value.i64 1L) ];
  blk.term <- Instr.Ret None;
  let p = Prog.create "t" in
  Prog.add_func p fn;
  match Verify.program p with
  | () -> Alcotest.fail "verifier accepted a register >= next_reg"
  | exception Verify.Error m ->
    Alcotest.(check string)
      "error names the register" "register r0 outside [0, 0) in bad" m

(* A register inside [0, next_reg) that no declaration types is still
   refused where it is used, whether the function was built, or parsed
   with a hole in its declarations. *)
let test_verify_rejects_undeclared_hole () =
  let expect what p =
    match Verify.program p with
    | () ->
      Alcotest.failf "%s: the verifier accepted an undeclared register" what
    | exception Verify.Error m ->
      check string_t (what ^ ": error names the hole")
        "undeclared register r1 in holey" m
  in
  let fn = Func.create ~name:"holey" ~params:[] ~ret:(Some Types.i64) in
  let blk = Func.add_block fn in
  let a = Func.fresh_reg fn Types.i64 in
  fn.next_reg <- 3;
  Func.set_reg_type fn 2 Types.i64;
  blk.instrs <-
    [ Instr.Const (a, Value.i64 1L); Instr.Binop (Instr.Add, 2, a, 1) ];
  blk.term <- Instr.Ret (Some 2);
  let p = Prog.create "t" in
  Prog.add_func p fn;
  expect "built" p;
  expect "parsed"
    (Parse.program
       {|program "t"

func @holey() : i64 {
  reg r0 : i64
  reg r2 : i64
  block 0:
    r0 = const 1:i64
    r2 = add r0, r1
    ret r2
}
|})

(* ---------------- instruction metadata ---------------- *)

let test_instr_def_uses () =
  let i = Instr.Binop (Instr.Add, 5, 1, 2) in
  check bool_t "def" true (Instr.def i = Some 5);
  check bool_t "uses" true (Instr.uses i = [ 1; 2 ]);
  let s = Instr.Store (Types.i32, 3, 4, 8) in
  check bool_t "store no def" true (Instr.def s = None);
  check bool_t "store uses" true (Instr.uses s = [ 3; 4 ]);
  check bool_t "store effect" true (Instr.has_side_effect s);
  check bool_t "load reads" true
    (Instr.reads_memory (Instr.Load (Types.i32, 0, 1, 0)));
  let c = Instr.Call (Some 1, "f", [ 2; 3 ]) in
  check bool_t "call def" true (Instr.def c = Some 1);
  check bool_t "call uses" true (Instr.uses c = [ 2; 3 ])

let test_instr_map_regs () =
  let i = Instr.Select (1, 2, 3, 4) in
  let i' = Instr.map_regs (fun r -> r + 10) i in
  check bool_t "mapped" true (i' = Instr.Select (11, 12, 13, 14));
  let t = Instr.Cbr (1, 2, 3) in
  check bool_t "term regs" true
    (Instr.map_term_regs (fun r -> r + 1) t = Instr.Cbr (2, 2, 3));
  check bool_t "term labels" true
    (Instr.map_term_labels (fun l -> l * 2) t = Instr.Cbr (1, 4, 6))

let test_successors () =
  check bool_t "br" true (Instr.successors (Instr.Br 3) = [ 3 ]);
  check bool_t "cbr" true (Instr.successors (Instr.Cbr (0, 1, 2)) = [ 1; 2 ]);
  check bool_t "cbr same" true (Instr.successors (Instr.Cbr (0, 1, 1)) = [ 1 ]);
  check bool_t "ret" true (Instr.successors (Instr.Ret None) = [])

(* ---------------- serialization ---------------- *)

let sample_program () =
  let p = Prog.create "sample" in
  Prog.add_global p "data" Types.F32 8
    ~init:(Array.init 8 (fun i -> Value.f32 (float_of_int i *. 0.5)));
  Prog.add_global p "bytes" Types.I8 4;
  let fn = build_valid_func () in
  Func.add_annot fn Annot.key_vectorized (Annot.Int 4);
  Func.add_annot fn Annot.key_spill_order
    (Annot.List [ Annot.List [ Annot.Int 0; Annot.Int 3 ] ]);
  Func.set_loop_annot fn 0
    (Annot.add Annot.key_trip_count (Annot.Int 100) Annot.empty);
  Prog.add_func p fn;
  p

(* ---------------- register types ---------------- *)

(* Words [fn]'s register types take beyond what [shared] reaches already:
   the type table itself, and any type value it does not share. *)
let type_words (fn : Func.t) shared =
  Obj.reachable_words (Obj.repr (fn.Func.reg_ty, shared))
  - Obj.reachable_words (Obj.repr ((), shared))

let test_copy_is_independent () =
  let fn = build_valid_func () in
  let before = List.map (Func.reg_type fn) (Func.all_regs fn) in
  let c = Func.copy fn in
  Func.set_reg_type c 0 Types.f64;
  ignore (Func.fresh_reg c Types.i8);
  check bool_t "the original keeps its types" true
    (List.for_all2 Types.equal before
       (List.map (Func.reg_type fn) (Func.all_regs fn)));
  check bool_t "the copy has its own" true
    (Types.equal (Func.reg_type c 0) Types.f64)

(* One word per register: a decoded or copied function of N registers
   holds its types in N slots and a header, with every scalar and pointer
   type a value shared with the other decodes and copies. *)
let test_register_types_take_one_word () =
  let bin = Serial.encode (sample_program ()) in
  let decoded () = Prog.find_func_exn (Serial.decode bin) "f" in
  let d1 = decoded () and d2 = decoded () in
  let n = d1.Func.next_reg in
  check bool_t "the sample has registers" true (n > 3);
  let bound what words =
    if words > n + 2 then
      Alcotest.failf "%s function of %d registers: types take %d words" what n
        words
  in
  bound "a decoded" (type_words d2 d1.Func.reg_ty);
  bound "a copied" (type_words (Func.copy d1) d1.Func.reg_ty);
  let built = build_valid_func () in
  bound "a copied built" (type_words (Func.copy built) built.Func.reg_ty)

let test_binary_roundtrip () =
  let p = sample_program () in
  let bin = Serial.encode p in
  let p' = Serial.decode bin in
  check string_t "binary roundtrip"
    (Pp.program_to_string p)
    (Pp.program_to_string p')

let test_text_roundtrip () =
  let p = sample_program () in
  let txt = Pp.program_to_string p in
  let p' = Parse.program txt in
  check string_t "text roundtrip" txt (Pp.program_to_string p')

let test_decode_rejects_garbage () =
  (match Serial.decode "NOPE it is not bytecode" with
  | exception Serial.Corrupt { reason = "bad magic"; offset = 0 } -> ()
  | exception Serial.Corrupt c ->
    Alcotest.fail ("unexpected corruption: " ^ Serial.corruption_to_string c)
  | _ -> Alcotest.fail "garbage decoded");
  let p = sample_program () in
  let bin = Serial.encode p in
  let truncated = String.sub bin 0 (String.length bin / 2) in
  match Serial.decode truncated with
  | exception Serial.Corrupt _ -> ()
  | exception _ -> ()
  | _ -> Alcotest.fail "truncated bytecode decoded"

let test_stripped_encoding_smaller () =
  let p = sample_program () in
  let full = Serial.encode p in
  let stripped = Serial.encode_stripped p in
  check bool_t "stripping shrinks" true
    (String.length stripped < String.length full);
  (* stripped program still verifies and has no annotations *)
  let p' = Serial.decode stripped in
  Verify.program p';
  List.iter
    (fun (fn : Func.t) ->
      check bool_t "no annots" true (fn.annots = Annot.empty))
    p'.Prog.funcs

let test_file_roundtrip () =
  let p = sample_program () in
  let path = Filename.temp_file "pvir" ".pvir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.to_file path p;
      let p' = Serial.of_file path in
      check string_t "file roundtrip"
        (Pp.program_to_string p)
        (Pp.program_to_string p'))

let test_varint_extremes () =
  (* exercise extreme integers through a value round-trip *)
  let p = Prog.create "x" in
  let fn = Func.create ~name:"f" ~params:[] ~ret:(Some Types.i64) in
  let blk = Func.add_block fn in
  let d = Func.fresh_reg fn Types.i64 in
  blk.instrs <- [ Instr.Const (d, Value.i64 Int64.min_int) ];
  blk.term <- Instr.Ret (Some d);
  Prog.add_func p fn;
  let p' = Serial.decode (Serial.encode p) in
  check string_t "min_int64 survives"
    (Pp.program_to_string p)
    (Pp.program_to_string p')

(* ---------------- account ---------------- *)

let test_account () =
  let a = Account.create () in
  Account.charge a ~pass:"x" 10;
  Account.charge a ~pass:"y" 5;
  Account.charge a ~pass:"x" 3;
  check int_t "total" 18 (Account.total a);
  check bool_t "by pass" true (List.assoc "x" (Account.by_pass a) = 13);
  Account.charge_opt None ~pass:"z" 100;
  check int_t "opt none is noop" 18 (Account.total a)

let () =
  Alcotest.run "pvir"
    [
      ( "types",
        [
          Alcotest.test_case "sizes" `Quick test_type_sizes;
          Alcotest.test_case "predicates" `Quick test_type_predicates;
          Alcotest.test_case "names" `Quick test_type_names;
          Alcotest.test_case "vec lanes guard" `Quick test_vec_rejects_lanes;
        ] );
      ( "values",
        [
          Alcotest.test_case "normalization" `Quick test_value_normalization;
          Alcotest.test_case "f32 rounding" `Quick test_value_f32_rounding;
          Alcotest.test_case "bytes roundtrip" `Quick test_value_bytes_roundtrip;
          Alcotest.test_case "zero" `Quick test_value_zero;
        ] );
      ( "eval",
        [
          Alcotest.test_case "int arith" `Quick test_eval_int_arith;
          Alcotest.test_case "narrow wraparound" `Quick test_eval_narrow_wraparound;
          Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
          Alcotest.test_case "float arith" `Quick test_eval_float_arith;
          Alcotest.test_case "comparisons" `Quick test_eval_cmp;
          Alcotest.test_case "conversions" `Quick test_eval_conv;
          Alcotest.test_case "vector ops" `Quick test_eval_vector_ops;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "basic" `Quick test_annot_basic;
          Alcotest.test_case "equality" `Quick test_annot_equal_order_insensitive;
          Alcotest.test_case "size" `Quick test_annot_size;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts valid" `Quick test_verify_accepts_valid;
          Alcotest.test_case "type mismatch" `Quick test_verify_rejects_type_mismatch;
          Alcotest.test_case "bad label" `Quick test_verify_rejects_bad_label;
          Alcotest.test_case "float bitop" `Quick test_verify_rejects_float_bitop;
          Alcotest.test_case "unknown call" `Quick test_verify_rejects_unknown_call;
          Alcotest.test_case "bad ret" `Quick test_verify_rejects_bad_ret;
          Alcotest.test_case "unknown global" `Quick test_verify_rejects_unknown_global;
          Alcotest.test_case "dup functions" `Quick test_verify_rejects_dup_functions;
          Alcotest.test_case "register out of range" `Quick
            test_verify_rejects_reg_out_of_range;
          Alcotest.test_case "bad extract lane" `Quick test_verify_rejects_extract_lane;
          Alcotest.test_case "undeclared hole" `Quick
            test_verify_rejects_undeclared_hole;
        ] );
      ( "register types",
        [
          Alcotest.test_case "copy is independent" `Quick
            test_copy_is_independent;
          Alcotest.test_case "one word per register" `Quick
            test_register_types_take_one_word;
        ] );
      ( "instructions",
        [
          Alcotest.test_case "def/uses" `Quick test_instr_def_uses;
          Alcotest.test_case "map_regs" `Quick test_instr_map_regs;
          Alcotest.test_case "successors" `Quick test_successors;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "stripped smaller" `Quick test_stripped_encoding_smaller;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
        ] );
      ("account", [ Alcotest.test_case "charges" `Quick test_account ]);
    ]
