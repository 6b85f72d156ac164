(* Unit tests for the VM substrate: memory, the loader, the interpreter
   and the profiler. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- memory ---------------- *)

let test_memory_load_store () =
  let m = Pvvm.Memory.create 256 in
  Pvvm.Memory.store m 16 (Pvir.Value.i32 (-5));
  check bool_t "i32 roundtrip" true
    (Pvir.Value.equal (Pvvm.Memory.load m 16 Pvir.Types.i32) (Pvir.Value.i32 (-5)));
  Pvvm.Memory.store m 32 (Pvir.Value.f64 2.75);
  check bool_t "f64 roundtrip" true
    (Pvir.Value.equal (Pvvm.Memory.load m 32 Pvir.Types.f64) (Pvir.Value.f64 2.75));
  let v = Pvir.Value.vec (Array.init 4 (fun i -> Pvir.Value.i16 (i * 11))) in
  Pvvm.Memory.store m 64 v;
  check bool_t "vec roundtrip" true
    (Pvir.Value.equal (Pvvm.Memory.load m 64 (Pvir.Types.vec Pvir.Types.I16 4)) v)

let test_memory_little_endian () =
  let m = Pvvm.Memory.create 64 in
  Pvvm.Memory.store m 8 (Pvir.Value.i32 0x01020304);
  check bool_t "low byte first" true
    (Pvir.Value.equal (Pvvm.Memory.load m 8 Pvir.Types.i8) (Pvir.Value.i8 4))

let test_memory_bounds () =
  let m = Pvvm.Memory.create 64 in
  List.iter
    (fun addr ->
      match Pvvm.Memory.load m addr Pvir.Types.i64 with
      | exception Pvvm.Vm.Trap _ -> ()
      | _ -> Alcotest.fail "out-of-bounds access allowed")
    [ -8; 0; 57; 64; 1000000 ]

let test_memory_arrays () =
  let m = Pvvm.Memory.create 256 in
  let vs = Array.init 10 (fun i -> Pvir.Value.i16 (i * 3)) in
  Pvvm.Memory.store_array m 100 vs;
  let back = Pvvm.Memory.load_array m 100 Pvir.Types.I16 10 in
  check bool_t "array roundtrip" true (Array.for_all2 Pvir.Value.equal vs back)

(* ---------------- image/loader ---------------- *)

let test_image_layout () =
  let p = Pvir.Prog.create "t" in
  Pvir.Prog.add_global p "a" Pvir.Types.I32 10;
  Pvir.Prog.add_global p "b" Pvir.Types.F64 5
    ~init:(Array.init 5 (fun i -> Pvir.Value.f64 (float_of_int i)));
  let img = Pvvm.Image.load p in
  let aa = Pvvm.Image.global_address img "a" in
  let ba = Pvvm.Image.global_address img "b" in
  check bool_t "null page reserved" true (aa >= 8);
  check bool_t "no overlap" true (ba >= aa + 40);
  check bool_t "aligned" true (aa mod 8 = 0 && ba mod 8 = 0);
  (* initializer applied *)
  let b = Pvvm.Image.read_global img "b" in
  check bool_t "init applied" true
    (Pvir.Value.equal b.(3) (Pvir.Value.f64 3.0));
  (* uninitialized global is zero *)
  let a = Pvvm.Image.read_global img "a" in
  check bool_t "zeroed" true (Pvir.Value.equal a.(7) (Pvir.Value.i32 0))

let test_image_rejects_ill_typed () =
  let p = Pvir.Prog.create "t" in
  let fn = Pvir.Func.create ~name:"bad" ~params:[] ~ret:None in
  let b = Pvir.Func.add_block fn in
  b.Pvir.Func.term <- Pvir.Instr.Br 42;
  Pvir.Prog.add_func p fn;
  match Pvvm.Image.load p with
  | exception Pvir.Verify.Error _ -> ()
  | _ -> Alcotest.fail "ill-typed program loaded"

let test_image_oom () =
  let p = Pvir.Prog.create "t" in
  Pvir.Prog.add_global p "big" Pvir.Types.I64 100000;
  (match Pvvm.Image.load ~mem_size:1024 p with
  | exception Pvvm.Vm.Trap _ -> ()
  | _ -> Alcotest.fail "oversized globals loaded");
  (* an initialized global is rejected by the layout check too, before
     any initializer is stored *)
  let p = Pvir.Prog.create "t" in
  Pvir.Prog.add_global p "big" Pvir.Types.I64 200
    ~init:(Array.make 200 (Pvir.Value.i64 1L));
  match Pvvm.Image.load ~mem_size:1024 p with
  | exception Pvvm.Vm.Trap m ->
    check Alcotest.string "overflow reported as such"
      "memory fault: globals (1608 bytes) exceed memory (1024 bytes)" m
  | _ -> Alcotest.fail "oversized initialized globals loaded"

(* ---------------- memory committed on first use ---------------- *)

(* A program with a few small globals, one of them initialized. *)
let small_globals () =
  let p = Pvir.Prog.create "t" in
  Pvir.Prog.add_global p "a" Pvir.Types.I32 10;
  Pvir.Prog.add_global p "b" Pvir.Types.I64 3
    ~init:[| Pvir.Value.i64 5L; Pvir.Value.i64 6L; Pvir.Value.i64 7L |];
  p

(* Loading reserves the 1 MiB address space but allocates none of it:
   an image that is only compiled for costs its layout and initializers. *)
let test_load_commits_nothing () =
  let img = Pvvm.Image.load (small_globals ()) in
  let words = Obj.reachable_words (Obj.repr img.Pvvm.Image.mem) in
  if words >= 1024 then
    Alcotest.failf "a never-run image holds %d words of memory" words;
  check int_t "the reserved size is reported" (1 lsl 20)
    (Pvvm.Memory.size img.Pvvm.Image.mem);
  check int_t "the stack starts at the top of the reserved space" (1 lsl 20)
    (Pvvm.Image.initial_sp img)

(* Every error loading raises, it raises at load, memory or no memory
   (oversized globals and verify errors: [globals too big] and
   [verification gate]). *)
let test_load_errors_stay_at_load () =
  let p = small_globals () in
  (match Pvvm.Image.load ~mem_size:8192 ~alloc_limit:4096 p with
  | exception Pvvm.Memory.Limit _ -> ()
  | _ -> Alcotest.fail "a memory over the allocation cap loaded");
  (* an in-memory initializer longer than its global (the decoder and
     [Prog.add_global] refuse one) runs past the memory's end *)
  let p = Pvir.Prog.create "t" in
  p.Pvir.Prog.globals <-
    [
      {
        Pvir.Prog.gname = "g";
        gelem = Pvir.Types.I64;
        gcount = 1;
        ginit = Some (Array.make 200 (Pvir.Value.i64 1L));
        gannots = Pvir.Annot.empty;
      };
    ];
  match Pvvm.Image.load ~mem_size:1024 p with
  | exception Pvvm.Vm.Trap m ->
    check Alcotest.string "the initializer's fault"
      "memory fault: access [1024, 1032) outside memory of 1024 bytes" m
  | _ -> Alcotest.fail "an initializer past the memory's end loaded"

(* The first use sees the initializers as they were at load, and zeros
   everywhere else. *)
let test_first_use_sees_initializers () =
  let p = small_globals () in
  let img = Pvvm.Image.load p in
  (match p.Pvir.Prog.globals with
  | _ :: { Pvir.Prog.ginit = Some vs; _ } :: _ -> vs.(0) <- Pvir.Value.i64 99L
  | _ -> assert false);
  check bool_t "initializers as loaded" true
    (Array.for_all2 Pvir.Value.equal
       [| Pvir.Value.i64 5L; Pvir.Value.i64 6L; Pvir.Value.i64 7L |]
       (Pvvm.Image.read_global img "b"));
  check bool_t "uninitialized globals read zero" true
    (Array.for_all
       (Pvir.Value.equal (Pvir.Value.i32 0))
       (Pvvm.Image.read_global img "a"));
  check bool_t "and so does the rest of memory" true
    (Pvir.Value.equal (Pvir.Value.i64 0L)
       (Pvvm.Memory.load img.Pvvm.Image.mem ((1 lsl 20) - 8) Pvir.Types.i64))

(* ---------------- interpreter ---------------- *)

let interp src entry args =
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create img in
  (Pvvm.Interp.run it entry args, it)

let test_interp_basics () =
  let r, _ = interp "i64 main() { return 40 + 2; }" "main" [] in
  check bool_t "42" true
    (match r with Some v -> Pvir.Value.equal v (Pvir.Value.i64 42L) | None -> false)

let test_interp_cycles_grow () =
  let _, it1 = interp "i64 main() { i64 s = 0; for (i64 i = 0; i < 10; i = i + 1) { s = s + i; } return s; }" "main" [] in
  let _, it2 = interp "i64 main() { i64 s = 0; for (i64 i = 0; i < 100; i = i + 1) { s = s + i; } return s; }" "main" [] in
  check bool_t "longer loop costs more" true
    (Int64.compare (Pvvm.Interp.cycles it2) (Pvvm.Interp.cycles it1) > 0)

let test_interp_traps () =
  List.iter
    (fun (what, src) ->
      match interp src "main" [] with
      | exception Pvvm.Vm.Trap _ -> ()
      | _ -> Alcotest.fail ("no trap for " ^ what))
    [
      ("division by zero", "i64 main() { i64 z = 0; return 5 / z; }");
      ("null store", "i64 main() { i64* p = (i64*)(i64)0; *p = 1; return 0; }");
      ("wild store", "i64 main() { i64* p = (i64*)(i64)99999999; *p = 1; return 0; }");
    ]

let test_interp_fuel () =
  let p = Core.Splitc.frontend "i64 main() { for (;;) { } return 0; }" in
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create ~fuel:10_000L img in
  match Pvvm.Interp.run it "main" [] with
  | exception Pvvm.Vm.Trap _ -> ()
  | _ -> Alcotest.fail "infinite loop terminated?!"

let test_interp_stack_discipline () =
  (* allocas are released on return: deep call chains must not leak *)
  let src =
    {|
i64 leaf(i64 x) { i64 t[32]; t[0] = x; return t[0]; }
i64 main() {
  i64 s = 0;
  for (i64 i = 0; i < 200; i = i + 1) { s = s + leaf(i); }
  return s;
}
|}
  in
  let r, _ = interp src "main" [] in
  check bool_t "sum" true
    (match r with
    | Some v -> Pvir.Value.equal v (Pvir.Value.i64 19900L)
    | None -> false)

let test_interp_stack_overflow () =
  let src =
    {|
i64 deep(i64 n) { i64 t[512]; t[0] = n; if (n == 0) { return 0; } return t[0] + deep(n - 1); }
i64 main() { return deep(100000); }
|}
  in
  match interp src "main" [] with
  | exception Pvvm.Vm.Trap _ -> ()
  | _ -> Alcotest.fail "expected stack overflow trap"

(* ---------------- profiler ---------------- *)

let test_profiler_counts () =
  let src =
    {|
i64 hot() { i64 s = 0; for (i64 i = 0; i < 100; i = i + 1) { s = s + 1; } return s; }
i64 cold() { return 1; }
i64 main() { return hot() + cold(); }
|}
  in
  let p = Core.Splitc.frontend src in
  let img = Pvvm.Image.load p in
  let profile = Pvvm.Profile.create () in
  let it = Pvvm.Interp.create ~profile img in
  ignore (Pvvm.Interp.run it "main" []);
  check int_t "hot called once" 1 (Pvvm.Profile.calls profile "hot");
  check bool_t "hot outweighs cold" true
    (Pvvm.Profile.weight profile "hot" > Pvvm.Profile.weight profile "cold");
  (* hotness annotations *)
  Pvvm.Profile.annotate_hotness profile p;
  let hot = Pvir.Prog.find_func_exn p "hot" in
  let cold = Pvir.Prog.find_func_exn p "cold" in
  let h fn =
    match Pvir.Annot.find Pvir.Annot.key_hotness fn.Pvir.Func.annots with
    | Some (Pvir.Annot.Flt x) -> x
    | _ -> Alcotest.fail "no hotness"
  in
  check bool_t "hotness ordering" true (h hot > h cold)

(* ---------------- interpreter vs simulator cost hierarchy ---------- *)

let test_interp_slower_than_jit () =
  let k = Pvkernels.Kernels.saxpy_fp in
  let _, interp_cycles = Pvkernels.Harness.run_interp k in
  let jit =
    Pvkernels.Harness.run_jit ~mode:Core.Splitc.Split
      ~machine:Pvmach.Machine.x86ish k
  in
  check bool_t "interpreter >5x slower" true
    (Int64.compare interp_cycles
       (Int64.mul 5L jit.Pvkernels.Harness.cycles)
    > 0)

let () =
  Alcotest.run "pvvm"
    [
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_memory_load_store;
          Alcotest.test_case "little endian" `Quick test_memory_little_endian;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "arrays" `Quick test_memory_arrays;
        ] );
      ( "image",
        [
          Alcotest.test_case "layout" `Quick test_image_layout;
          Alcotest.test_case "verification gate" `Quick test_image_rejects_ill_typed;
          Alcotest.test_case "globals too big" `Quick test_image_oom;
          Alcotest.test_case "load commits no memory" `Quick
            test_load_commits_nothing;
          Alcotest.test_case "load errors stay at load" `Quick
            test_load_errors_stay_at_load;
          Alcotest.test_case "first use sees the initializers" `Quick
            test_first_use_sees_initializers;
        ] );
      ( "interp",
        [
          Alcotest.test_case "basics" `Quick test_interp_basics;
          Alcotest.test_case "cycles grow" `Quick test_interp_cycles_grow;
          Alcotest.test_case "traps" `Quick test_interp_traps;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "stack discipline" `Quick test_interp_stack_discipline;
          Alcotest.test_case "stack overflow" `Quick test_interp_stack_overflow;
        ] );
      ( "profiler",
        [ Alcotest.test_case "counts and hotness" `Quick test_profiler_counts ] );
      ( "hierarchy",
        [ Alcotest.test_case "interp slower than jit" `Quick test_interp_slower_than_jit ] );
    ]
