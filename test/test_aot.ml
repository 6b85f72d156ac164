(* Tier-1 tests for the AOT native backend (lib/pvaot).

   The AOT engine must be *invisible* relative to the threaded
   interpreter: same results, same printed output, same final global
   memory, and bit-identical cycle/instruction/call accounting — on the
   Table-1 kernels and on a pinned corpus of randomly generated verified
   programs.  The compiled-code cache must be equally invisible: loading
   a cached artifact behaves exactly like a fresh compile.  And when the
   toolchain is unavailable the engine must degrade to threaded
   execution, recording the degradation in the ledger rather than
   erroring. *)

open Pvkernels

let () = Pvaot.install ()

(* ---------------- direct interpreter runs ---------------- *)

type run = {
  obs : Harness.observation;
  cycles : int64;
  instrs : int64;
  calls : int;
}

let kernel_interp ?fuel (engine : Pvvm.Interp.engine) (k : Kernels.t) =
  let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
  let img = Pvvm.Image.load p in
  Harness.fill_inputs img;
  (img, Pvvm.Interp.create ?fuel ~engine img)

let run_kernel ?(n = 256) (engine : Pvvm.Interp.engine) (k : Kernels.t) : run =
  let img, it = kernel_interp engine k in
  let result = Pvvm.Interp.run it k.Kernels.entry (Harness.args k n) in
  let st = it.Pvvm.Interp.stats in
  {
    obs =
      {
        Harness.result;
        globals = Harness.observe_globals img;
        printed = Pvvm.Interp.output it;
      };
    cycles = st.Pvvm.Interp.cycles;
    instrs = st.Pvvm.Interp.instrs;
    calls = st.Pvvm.Interp.calls;
  }

let check_run_equal name (th : run) (aot : run) =
  Alcotest.(check bool)
    (name ^ ": observation (result/output/globals)")
    true
    (Harness.observation_equal th.obs aot.obs);
  Alcotest.(check int64) (name ^ ": cycles") th.cycles aot.cycles;
  Alcotest.(check int64) (name ^ ": instrs") th.instrs aot.instrs;
  Alcotest.(check int) (name ^ ": calls") th.calls aot.calls

(* The backend must actually be live in this environment: these tests
   pin the compiled path, not the fallback. *)
let test_available () =
  match Pvaot.unavailable_reason () with
  | None -> ()
  | Some r -> Alcotest.failf "AOT backend unavailable: %s" r

(* Compiled code must really be used for a kernel image (no silent
   fallback-to-threaded making the equality tests vacuous). *)
let test_compiles_kernels () =
  let k = List.hd Kernels.table1 in
  let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
  let img = Pvvm.Image.load p in
  let it = Pvvm.Interp.create ~engine:Pvvm.Interp.Aot img in
  match Pvaot.interp_status it with
  | Ok (_digest, _origin) -> ()
  | Error r -> Alcotest.failf "kernel %s fell back: %s" k.Kernels.name r

(* Minor words one activation of a zero-argument function allocates on
   [engine], called directly once a first call has prepared its code. *)
let activation_words engine =
  let img = Pvvm.Image.load (Core.Splitc.frontend "i64 nop() { return 7; }") in
  let it = Pvvm.Interp.create ~engine img in
  let fn = Option.get (Pvvm.Image.find_func img "nop") in
  ignore (Pvvm.Interp.call it fn []);
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Pvvm.Interp.call it fn [])
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Compiled code keeps no frame array, so an AOT activation costs less
   than a threaded one once finding the function's entry allocates
   nothing. *)
let test_activation_allocates_less () =
  let th = activation_words Pvvm.Interp.Threaded in
  let aot = activation_words Pvvm.Interp.Aot in
  if not (aot < th) then
    Alcotest.failf "aot activation %.1f words, threaded %.1f" aot th

(* A host argument of the wrong shape cannot be unboxed by compiled
   code: the activation runs threaded, with threaded's outcome and
   counters. *)
let test_interp_shape_mismatch () =
  let run engine =
    let img =
      Pvvm.Image.load
        (Core.Splitc.frontend "i64 add(i64 a, i64 b) { return a + b; }")
    in
    let it = Pvvm.Interp.create ~engine img in
    let outcome =
      match
        Pvvm.Interp.run it "add" [ Pvir.Value.f64 1.5; Pvir.Value.i64 2L ]
      with
      | _ -> "returned"
      | exception e -> Printexc.to_string e
    in
    let st = it.Pvvm.Interp.stats in
    ( outcome,
      (st.Pvvm.Interp.cycles, st.Pvvm.Interp.instrs, st.Pvvm.Interp.calls) )
  in
  let o0, c0 = run Pvvm.Interp.Threaded and o1, c1 = run Pvvm.Interp.Aot in
  Alcotest.(check string) "outcome" o0 o1;
  Alcotest.(check bool) "counters" true (c0 = c1)

let test_table1_kernel (k : Kernels.t) () =
  let th = run_kernel Pvvm.Interp.Threaded k in
  let aot = run_kernel Pvvm.Interp.Aot k in
  check_run_equal k.Kernels.name th aot

(* ---------------- fuel traps ---------------- *)

(* A fuel budget that runs out inside one of the AOT engines' charge
   batches must still leave every counter exactly where the threaded
   engine's per-instruction check stops it.  Seven consecutive budgets
   around half a run are bound to land mid-batch.  [counters engine fuel]
   runs out of [fuel] on [engine] and returns the named counters. *)
let check_fuel_parity name ~half counters =
  for j = 0 to 6 do
    let fuel = Int64.add half (Int64.of_int j) in
    List.iter2
      (fun (what, th) (_, aot) ->
        Alcotest.(check int64)
          (Printf.sprintf "%s fuel %Ld: %s" name fuel what)
          th aot)
      (counters `Threaded fuel) (counters `Aot fuel)
  done

let expect_fuel_trap name fuel msg run =
  match run () with
  | _ -> Alcotest.failf "%s: fuel %Ld did not run out" name fuel
  | exception Pvvm.Vm.Trap m -> Alcotest.(check string) "fuel trap" msg m

let test_fuel_trap_kernel (k : Kernels.t) () =
  let counters engine fuel =
    let engine =
      match engine with
      | `Threaded -> Pvvm.Interp.Threaded
      | `Aot -> Pvvm.Interp.Aot
    in
    let _, it = kernel_interp ~fuel engine k in
    expect_fuel_trap k.Kernels.name fuel Pvvm.Interp.fuel_exhausted_msg
      (fun () -> Pvvm.Interp.run it k.Kernels.entry (Harness.args k 256));
    let st = it.Pvvm.Interp.stats in
    [
      ("cycles", st.Pvvm.Interp.cycles);
      ("instrs", st.Pvvm.Interp.instrs);
      ("calls", Int64.of_int st.Pvvm.Interp.calls);
    ]
  in
  let half = Int64.div (run_kernel Pvvm.Interp.Threaded k).instrs 2L in
  check_fuel_parity k.Kernels.name ~half counters

(* ---------------- pinned random-program corpus ---------------- *)

let test_corpus_seed seed () =
  let prog = Pvcheck.Gen.program ~seed in
  let th = Pvcheck.Oracle.run_interp prog Pvvm.Interp.Threaded in
  let aot = Pvcheck.Oracle.run_interp prog Pvvm.Interp.Aot in
  let ms =
    Pvcheck.Oracle.compare_obs ~path:"interp-aot" th.Pvcheck.Oracle.iobs
      aot.Pvcheck.Oracle.iobs
  in
  (match ms with
  | [] -> ()
  | m :: _ ->
    Alcotest.failf "seed %d: %s mismatch: %s" seed m.Pvcheck.Oracle.what
      m.Pvcheck.Oracle.detail);
  (* accounting is bit-identical on every outcome, fuel traps included *)
  Alcotest.(check int64)
    (Printf.sprintf "seed %d: cycles" seed)
    th.Pvcheck.Oracle.icycles aot.Pvcheck.Oracle.icycles;
  Alcotest.(check int64)
    (Printf.sprintf "seed %d: instrs" seed)
    th.Pvcheck.Oracle.iinstrs aot.Pvcheck.Oracle.iinstrs;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: calls" seed)
    th.Pvcheck.Oracle.icalls aot.Pvcheck.Oracle.icalls

(* ---------------- simulator engine (JIT-lowered MIR) ---------------- *)

type sim_run = {
  sobs : Harness.observation;
  scycles : int64;
  sinstrs : int64;
  sspills : int64;
}

(* A simulator on [k]'s split bytecode for [machine]. *)
let kernel_sim ?fuel (machine : Pvmach.Machine.t) (engine : Pvvm.Sim.engine)
    (k : Kernels.t) =
  let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
  let on =
    Core.Splitc.online ~mode:Core.Splitc.Split ~machine ~engine
      (Core.Splitc.distribute off)
  in
  Harness.fill_inputs on.Core.Splitc.img;
  let sim = on.Core.Splitc.sim in
  Option.iter (fun f -> sim.Pvvm.Sim.fuel <- f) fuel;
  (on.Core.Splitc.img, sim)

let sim_counters (sim : Pvvm.Sim.t) =
  let st = sim.Pvvm.Sim.stats in
  (st.Pvvm.Sim.cycles, st.Pvvm.Sim.instrs, st.Pvvm.Sim.spill_ops)

let run_sim ?(n = Kernels.n_default) machine engine (k : Kernels.t) : sim_run =
  let img, sim = kernel_sim machine engine k in
  let result = Pvvm.Sim.run sim k.Kernels.entry (Harness.args k n) in
  let scycles, sinstrs, sspills = sim_counters sim in
  {
    sobs =
      {
        Harness.result;
        globals = Harness.observe_globals img;
        printed = Pvvm.Sim.output sim;
      };
    scycles;
    sinstrs;
    sspills;
  }

(* Simulator accounting is compared unconditionally: cycles,
   instructions and spill traffic, fuel outcomes included. *)
let test_sim_kernel (machine : Pvmach.Machine.t) (k : Kernels.t) () =
  let th = run_sim machine Pvvm.Sim.Threaded k in
  let aot = run_sim machine Pvvm.Sim.Aot k in
  let name = Printf.sprintf "%s on %s" k.Kernels.name machine.Pvmach.Machine.name in
  Alcotest.(check bool)
    (name ^ ": observation")
    true
    (Harness.observation_equal th.sobs aot.sobs);
  Alcotest.(check int64) (name ^ ": cycles") th.scycles aot.scycles;
  Alcotest.(check int64) (name ^ ": instrs") th.sinstrs aot.sinstrs;
  Alcotest.(check int64) (name ^ ": spill ops") th.sspills aot.sspills

(* The simulator backend batches its charges too, spill operations
   included: the same fuel-trap parity, on the simulator. *)
let test_sim_fuel_trap machine (k : Kernels.t) () =
  let counters engine fuel =
    let engine =
      match engine with `Threaded -> Pvvm.Sim.Threaded | `Aot -> Pvvm.Sim.Aot
    in
    let _, sim = kernel_sim ~fuel machine engine k in
    expect_fuel_trap k.Kernels.name fuel Pvvm.Sim.fuel_exhausted_msg (fun () ->
        Pvvm.Sim.run sim k.Kernels.entry (Harness.args k 256));
    let c, i, s = sim_counters sim in
    [ ("cycles", c); ("instrs", i); ("spill ops", s) ]
  in
  let half = Int64.div (run_sim ~n:256 machine Pvvm.Sim.Threaded k).sinstrs 2L in
  check_fuel_parity
    (Printf.sprintf "%s on %s" k.Kernels.name machine.Pvmach.Machine.name)
    ~half counters

(* The compiled path must really be taken for JIT output (the sim tests
   above would be vacuous if every run fell back to threaded): every
   Table-1 kernel on every machine. *)
let test_sim_compiles () =
  List.iter
    (fun (m : Pvmach.Machine.t) ->
      List.iter
        (fun (k : Kernels.t) ->
          let _, sim = kernel_sim m Pvvm.Sim.Aot k in
          match Pvaot.sim_status sim with
          | Ok (_digest, _origin) -> ()
          | Error r ->
            Alcotest.failf "%s on %s fell back: %s" k.Kernels.name
              m.Pvmach.Machine.name r)
        Kernels.table1)
    Pvmach.Machine.all

(* Host arguments of another shape than the generated code unboxes run
   threaded: a float element count makes the threaded engine raise
   [Eval]'s mixed-operand error, where unboxing it as an integer would
   fail differently. *)
let test_sim_shape_mismatch () =
  let k = Kernels.sum_u8 in
  let run engine =
    let _, sim = kernel_sim Pvmach.Machine.x86ish engine k in
    let outcome =
      match Pvvm.Sim.run sim k.Kernels.entry [ Pvir.Value.f64 256.0 ] with
      | _ -> "returned"
      | exception e -> Printexc.to_string e
    in
    (outcome, sim_counters sim)
  in
  let o0, c0 = run Pvvm.Sim.Threaded and o1, c1 = run Pvvm.Sim.Aot in
  Alcotest.(check string) "outcome" o0 o1;
  Alcotest.(check bool) "counters" true (c0 = c1)

(* A simulator keeps its prepared code: after every kernel simulator of
   the benchmark's configuration (12 of them) has been prepared, running
   each again generates no source — no [aot:codegen] span. *)
let test_sim_prepared_once () =
  let sims =
    List.concat_map
      (fun m ->
        List.map
          (fun k ->
            let _, sim = kernel_sim m Pvvm.Sim.Aot k in
            (match Pvaot.prepare_sim sim with
            | Pvaot.Ready _ -> ()
            | Pvaot.Fallback r -> Alcotest.failf "%s fell back: %s" k.Kernels.name r);
            (k, sim))
          Kernels.table1)
      [ Pvmach.Machine.x86ish; Pvmach.Machine.sparcish ]
  in
  List.iter
    (fun ((k : Kernels.t), sim) ->
      let tr = Pvtrace.Trace.create () in
      Pvvm.Sim.set_trace sim (Some tr);
      ignore (Pvvm.Sim.run sim k.Kernels.entry (Harness.args k 64));
      Pvvm.Sim.set_trace sim None;
      let codegens =
        List.filter
          (fun (e : Pvtrace.Trace.event) ->
            String.equal e.Pvtrace.Trace.name "aot:codegen")
          (Pvtrace.Trace.events tr)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s on %s: aot:codegen spans" k.Kernels.name
           sim.Pvvm.Sim.machine.Pvmach.Machine.name)
        0 (List.length codegens))
    sims

let test_sim_corpus_seed seed () =
  let prog = Pvcheck.Gen.program ~seed in
  let hints = Pvjit.Jit.Hints_recompute in
  List.iter
    (fun (m : Pvmach.Machine.t) ->
      let th = Pvcheck.Oracle.run_jit prog m hints Pvvm.Sim.Threaded in
      let aot = Pvcheck.Oracle.run_jit prog m hints Pvvm.Sim.Aot in
      let path = Printf.sprintf "jit-%s-aot" m.Pvmach.Machine.name in
      (match
         Pvcheck.Oracle.compare_obs ~path th.Pvcheck.Oracle.jobs
           aot.Pvcheck.Oracle.jobs
       with
      | [] -> ()
      | mm :: _ ->
        Alcotest.failf "seed %d %s: %s mismatch: %s" seed path
          mm.Pvcheck.Oracle.what mm.Pvcheck.Oracle.detail);
      Alcotest.(check int64)
        (Printf.sprintf "seed %d %s: cycles" seed path)
        th.Pvcheck.Oracle.jcycles aot.Pvcheck.Oracle.jcycles;
      Alcotest.(check int64)
        (Printf.sprintf "seed %d %s: instrs" seed path)
        th.Pvcheck.Oracle.jinstrs aot.Pvcheck.Oracle.jinstrs;
      Alcotest.(check int64)
        (Printf.sprintf "seed %d %s: spill ops" seed path)
        th.Pvcheck.Oracle.jspill_ops aot.Pvcheck.Oracle.jspill_ops)
    Pvmach.Machine.all

(* ---------------- cache correctness ---------------- *)

(* A plugin loaded from the on-disk artifact cache must behave exactly
   like the fresh compile that produced it. *)
(* The compiled-code cache key must see annotation-only differences.
   [Pp] never prints global annotations, so a digest of the
   pretty-printed program alone lets two programs differing only in
   [gannots] collide — and the second request would be served the first
   one's artifact.  The key folds in [Prog.annotations_dump] to break
   the tie. *)
let test_annot_cache_key () =
  let k = List.hd Kernels.table1 in
  let mk () = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
  let p1 = mk () and p2 = mk () in
  (match p2.Pvir.Prog.globals with
  | [] -> Alcotest.fail "kernel has no globals"
  | g :: rest ->
    p2.Pvir.Prog.globals <-
      { g with Pvir.Prog.gannots = [ ("layout", Pvir.Annot.Str "banked") ] }
      :: rest);
  (* the collision surface is real: the printer renders both the same *)
  Alcotest.(check string) "pretty-printer blind to global annotations"
    (Pvir.Pp.program_to_string p1)
    (Pvir.Pp.program_to_string p2);
  let digest p =
    let d, _, _ = Pvaot.Interp_gen.generate (Pvvm.Image.load p) in
    d
  in
  Alcotest.(check bool) "cache digests differ for annotation-only change"
    false
    (String.equal (digest p1) (digest p2))

let test_cache_roundtrip () =
  let dir =
    (* reserve a unique name without depending on Unix *)
    let stamp = Filename.temp_file "pvaot-test-cache" "" in
    Sys.remove stamp;
    stamp ^ ".d"
  in
  Pvaot.set_cache_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Pvaot.set_cache_dir None;
      Pvaot.reset_memos ())
    (fun () ->
      let k = List.nth Kernels.table1 1 (* saxpy_fp *) in
      let status () =
        let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
        let img = Pvvm.Image.load p in
        let it = Pvvm.Interp.create ~engine:Pvvm.Interp.Aot img in
        match Pvaot.interp_status it with
        | Ok (digest, origin) -> (digest, origin)
        | Error r -> Alcotest.failf "fell back: %s" r
      in
      Pvaot.reset_memos ();
      let d1, o1 = status () in
      Alcotest.(check string) "first build compiles" "compiled" o1;
      let fresh = run_kernel Pvvm.Interp.Aot k in
      (* Drop in-memory state: the next prepare must hit the disk cache
         and dynlink the stored artifact. *)
      Pvaot.reset_memos ();
      let d2, o2 = status () in
      Alcotest.(check string) "second build loads from disk" "disk-cache" o2;
      Alcotest.(check string) "digest is stable" d1 d2;
      let cached = run_kernel Pvvm.Interp.Aot k in
      check_run_equal "cached vs fresh" fresh cached)

(* ---------------- cache staleness guard ---------------- *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s =
  Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let string_contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let find_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.equal (String.sub s i n) sub then Some i
    else go (i + 1)
  in
  go 0

(* Replace the source-body digest inside the generated plugin's
   [A.register_src _ ~src:"<hex32>"] epilogue — producing exactly what an
   older generator would have left in the cache under the same key. *)
let tamper_src_digest src =
  let marker = "~src:\"" in
  match find_substring src marker with
  | None -> Alcotest.fail "generated source has no ~src: registration"
  | Some i ->
    let j = i + String.length marker in
    String.sub src 0 j ^ String.make 32 '0'
    ^ String.sub src (j + 32) (String.length src - j - 32)

(* A cached artifact whose registered source digest disagrees with the
   current generator (the forgotten-codegen_version-bump scenario) must
   be detected at load time, recorded in the ledger, evicted and rebuilt
   fresh — never silently executed. *)
let test_stale_cache () =
  let tc =
    match Pvaot.Build.toolchain () with
    | Ok tc -> tc
    | Error r -> Alcotest.failf "AOT backend unavailable: %s" r
  in
  let dir =
    let stamp = Filename.temp_file "pvaot-test-stale" "" in
    Sys.remove stamp;
    stamp ^ ".d"
  in
  let ledger = Pvtrace.Ledger.create () in
  Pvaot.set_cache_dir (Some dir);
  Pvaot.set_ledger (Some ledger);
  Fun.protect
    ~finally:(fun () ->
      Pvaot.set_cache_dir None;
      Pvaot.set_ledger None;
      Pvaot.reset_memos ())
    (fun () ->
      let k = List.hd Kernels.table1 in
      let status () =
        let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
        let img = Pvvm.Image.load p in
        let it = Pvvm.Interp.create ~engine:Pvvm.Interp.Aot img in
        match Pvaot.interp_status it with
        | Ok (digest, origin) -> (digest, origin)
        | Error r -> Alcotest.failf "fell back: %s" r
      in
      Pvaot.reset_memos ();
      let d1, o1 = status () in
      Alcotest.(check string) "first build compiles" "compiled" o1;
      let good = run_kernel Pvvm.Interp.Aot k in
      (* Plant the stale artifact over the cached one: same cache key,
         tampered source-body registration. *)
      let ext = Pvaot.Build.artifact_ext tc in
      let artifact = Filename.concat dir ("pvaot_" ^ d1 ^ ext) in
      let src = read_file (Filename.concat dir ("pvaot_" ^ d1 ^ ".ml")) in
      let stale_dir = Filename.concat dir "stale" in
      Sys.mkdir stale_dir 0o755;
      let stale_src = Filename.concat stale_dir ("pvaot_" ^ d1 ^ ".ml") in
      let stale_out = Filename.concat stale_dir ("pvaot_" ^ d1 ^ ext) in
      write_file stale_src (tamper_src_digest src);
      (match Pvaot.Build.compile tc ~src_path:stale_src ~out_path:stale_out with
      | Ok () -> ()
      | Error e -> Alcotest.failf "stale plant compile failed: %s" e);
      write_file artifact (read_file stale_out);
      (* The next prepare hits the disk cache, must reject the plant. *)
      Pvaot.reset_memos ();
      let d2, o2 = status () in
      Alcotest.(check string) "stale cache digest unchanged" d1 d2;
      Alcotest.(check string) "stale artifact evicted and rebuilt"
        "recompiled" o2;
      Alcotest.(check int) "staleness recorded in ledger" 1
        (Pvtrace.Ledger.count_kind ledger
           (Pvtrace.Ledger.Other "aot-stale-cache"));
      (* ...and the rebuilt plugin behaves like the original. *)
      let rebuilt = run_kernel Pvvm.Interp.Aot k in
      check_run_equal "rebuilt vs original" good rebuilt)

(* ---------------- compile retry ---------------- *)

(* A failing out-of-process compile is retried on the bounded schedule
   and the final error carries the attempt count (it becomes the
   Aot_unavailable ledger detail when the backend degrades). *)
let test_compile_retry () =
  Pvaot.Build.set_retry_delays [ 0.0; 0.0 ];
  Fun.protect
    ~finally:(fun () ->
      Pvaot.Build.set_retry_delays Pvaot.Build.default_retry_delays)
    (fun () ->
      let tc =
        { Pvaot.Build.native = false; compiler = "false"; incdirs = [] }
      in
      let src = Filename.temp_file "pvaot_retry" ".ml" in
      let out = Filename.chop_extension src ^ ".cmo" in
      let before = Pvaot.Build.compile_attempts () in
      (match Pvaot.Build.compile tc ~src_path:src ~out_path:out with
      | Ok () -> Alcotest.fail "compile under /bin/false succeeded"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S carries the attempt count" e)
          true
          (string_contains e "after 3 attempts"));
      Alcotest.(check int) "three bounded attempts" 3
        (Pvaot.Build.compile_attempts () - before);
      Sys.remove src)

(* ---------------- graceful degradation ---------------- *)

let test_degrades_when_unavailable () =
  let ledger = Pvtrace.Ledger.create () in
  Pvaot.set_forced_unavailable (Some "forced by test");
  Fun.protect
    ~finally:(fun () ->
      Pvaot.set_forced_unavailable None;
      Pvaot.set_ledger None;
      Pvaot.reset_memos ())
    (fun () ->
      Pvaot.set_ledger (Some ledger);
      Pvaot.reset_memos ();
      Alcotest.(check bool) "reports unavailable" false (Pvaot.available ());
      let k = List.hd Kernels.table1 in
      let th = run_kernel Pvvm.Interp.Threaded k in
      (* Selecting the AOT engine must still work, via threaded. *)
      let aot = run_kernel Pvvm.Interp.Aot k in
      check_run_equal "degraded run" th aot;
      Alcotest.(check int) "one ledger entry" 1
        (Pvtrace.Ledger.count_kind ledger Pvtrace.Ledger.Aot_unavailable);
      (* ...and only one, even after more runs. *)
      ignore (run_kernel Pvvm.Interp.Aot k);
      Alcotest.(check int) "still one ledger entry" 1
        (Pvtrace.Ledger.count_kind ledger Pvtrace.Ledger.Aot_unavailable))

(* ---------------- suite ---------------- *)

let corpus_seeds = List.init 25 (fun i -> i)

let () =
  Alcotest.run "pvaot"
    [
      ( "backend",
        [
          Alcotest.test_case "toolchain available" `Quick test_available;
          Alcotest.test_case "kernels compile (no fallback)" `Quick
            test_compiles_kernels;
          Alcotest.test_case "activation allocates less than threaded" `Quick
            test_activation_allocates_less;
          Alcotest.test_case "mismatched host arguments run threaded" `Quick
            test_interp_shape_mismatch;
        ] );
      ( "table1",
        List.map
          (fun (k : Kernels.t) ->
            Alcotest.test_case k.Kernels.name `Quick (test_table1_kernel k))
          Kernels.table1 );
      ( "fuel",
        List.map
          (fun (k : Kernels.t) ->
            Alcotest.test_case k.Kernels.name `Quick (test_fuel_trap_kernel k))
          Kernels.table1
        @ List.concat_map
            (fun (m : Pvmach.Machine.t) ->
              List.map
                (fun (k : Kernels.t) ->
                  Alcotest.test_case
                    (Printf.sprintf "sim %s on %s" k.Kernels.name
                       m.Pvmach.Machine.name)
                    `Quick (test_sim_fuel_trap m k))
                Kernels.table1)
            [ Pvmach.Machine.x86ish; Pvmach.Machine.sparcish ] );
      ( "corpus",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d" seed)
              `Quick (test_corpus_seed seed))
          corpus_seeds );
      ( "sim",
        Alcotest.test_case "jit output compiles (no fallback)" `Quick
          test_sim_compiles
        :: List.concat_map
             (fun (m : Pvmach.Machine.t) ->
               List.map
                 (fun (k : Kernels.t) ->
                   Alcotest.test_case
                     (Printf.sprintf "%s on %s" k.Kernels.name
                        m.Pvmach.Machine.name)
                     `Quick (test_sim_kernel m k))
                 Kernels.table1)
             Pvmach.Machine.table1_targets
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "seed %d (all machines)" seed)
                `Quick (test_sim_corpus_seed seed))
            [ 0; 5; 11; 17; 23 ]
        @ [
            Alcotest.test_case "prepared code kept per simulator" `Quick
              test_sim_prepared_once;
            Alcotest.test_case "mismatched host arguments run threaded" `Quick
              test_sim_shape_mismatch;
          ] );
      ( "cache",
        [
          Alcotest.test_case "annotation-only change changes key" `Quick
            test_annot_cache_key;
          Alcotest.test_case "cached load = fresh compile" `Quick
            test_cache_roundtrip;
          Alcotest.test_case "stale artifact rejected and rebuilt" `Quick
            test_stale_cache;
        ] );
      ( "retry",
        [
          Alcotest.test_case "bounded compile retry" `Quick
            test_compile_retry;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "falls back with ledger entry" `Quick
            test_degrades_when_unavailable;
        ] );
    ]
