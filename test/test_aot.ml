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

let test_table1_kernel (k : Kernels.t) () =
  let th = run_kernel Pvvm.Interp.Threaded k in
  let aot = run_kernel Pvvm.Interp.Aot k in
  check_run_equal k.Kernels.name th aot

(* ---------------- fuel traps ---------------- *)

(* A fuel budget that runs out inside one of the AOT engine's charge
   batches must still leave the counters exactly where the threaded
   engine's per-instruction check stops them.  Seven consecutive budgets
   around half a kernel run are bound to land mid-block. *)
let fuel_trap_counters engine (k : Kernels.t) fuel =
  let _, it = kernel_interp ~fuel engine k in
  (match Pvvm.Interp.run it k.Kernels.entry (Harness.args k 256) with
  | _ -> Alcotest.failf "%s: fuel %Ld did not run out" k.Kernels.name fuel
  | exception Pvvm.Vm.Trap m ->
    Alcotest.(check string) "fuel trap" Pvvm.Interp.fuel_exhausted_msg m);
  let st = it.Pvvm.Interp.stats in
  (st.Pvvm.Interp.cycles, st.Pvvm.Interp.instrs, st.Pvvm.Interp.calls)

let test_fuel_trap_kernel (k : Kernels.t) () =
  let half = Int64.div (run_kernel Pvvm.Interp.Threaded k).instrs 2L in
  for j = 0 to 6 do
    let fuel = Int64.add half (Int64.of_int j) in
    let name what = Printf.sprintf "%s fuel %Ld: %s" k.Kernels.name fuel what in
    let c0, i0, n0 = fuel_trap_counters Pvvm.Interp.Threaded k fuel in
    let c1, i1, n1 = fuel_trap_counters Pvvm.Interp.Aot k fuel in
    Alcotest.(check int64) (name "cycles") c0 c1;
    Alcotest.(check int64) (name "instrs") i0 i1;
    Alcotest.(check int) (name "calls") n0 n1
  done

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

(* The simulator backend charges per instruction, so its accounting is
   compared unconditionally — fuel outcomes included. *)
let test_sim_kernel (machine : Pvmach.Machine.t) (k : Kernels.t) () =
  let th =
    Harness.run_jit ~mode:Core.Splitc.Split ~machine
      ~engine:Pvvm.Sim.Threaded k
  in
  let aot =
    Harness.run_jit ~mode:Core.Splitc.Split ~machine ~engine:Pvvm.Sim.Aot k
  in
  let name = Printf.sprintf "%s on %s" k.Kernels.name machine.Pvmach.Machine.name in
  Alcotest.(check bool)
    (name ^ ": observation")
    true
    (Harness.observation_equal th.Harness.obs aot.Harness.obs);
  Alcotest.(check int64) (name ^ ": cycles") th.Harness.cycles aot.Harness.cycles;
  Alcotest.(check int64)
    (name ^ ": spill ops")
    th.Harness.spill_ops aot.Harness.spill_ops

(* The compiled path must really be taken for JIT output (the sim tests
   above would be vacuous if every run fell back to threaded). *)
let test_sim_compiles () =
  let k = List.hd Kernels.table1 in
  let p = Core.Splitc.frontend ~name:k.Kernels.name k.Kernels.source in
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
  let bc = Core.Splitc.distribute off in
  let on =
    Core.Splitc.online ~mode:Core.Splitc.Split
      ~machine:Pvmach.Machine.x86ish bc
  in
  match Pvaot.sim_status on.Core.Splitc.sim with
  | Ok (_digest, _origin) -> ()
  | Error r -> Alcotest.failf "sim code cache fell back: %s" r

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
    let d, _, _ =
      Pvaot.Interp_gen.generate (Pvvm.Image.load p) ~dispatch_cost:1
    in
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
          Kernels.table1 );
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
            [ 0; 5; 11; 17; 23 ] );
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
