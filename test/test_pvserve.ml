(* Tier-1 tests for the split-compilation service (lib/pvserve).

   The service's contract is "invisible concurrency": whatever mix of
   Domains, cache hits, in-flight coalescing and LRU eviction a request
   meets, the artifact it receives must be byte-identical to a fresh
   single-threaded compile — and concurrent misses on one key must cost
   exactly one compile.  The registry tests at the bottom pin the
   domain-safety bugfixes this PR ships: the metrics and ledger
   registries are hammered from several Domains and must neither crash
   nor lose updates. *)

let kernel n = List.nth Pvkernels.Kernels.table1 n

let bytecode_of (k : Pvkernels.Kernels.t) =
  let p = Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source in
  Core.Splitc.distribute (Core.Splitc.offline ~mode:Core.Splitc.Split p)

let machine = List.hd Pvmach.Machine.table1_targets

let artifact_exn (r : Pvserve.Service.reply) =
  match r.Pvserve.Service.outcome with
  | Ok a -> a
  | Error e -> Alcotest.failf "error reply: %s" e

(* ---------------- cache keys ---------------- *)

(* Service-level twin of the AOT cache-key regression: a program
   re-annotated on a surface the pretty-printer does not render (global
   annotations) must still get its own key. *)
let test_key_sees_annotations () =
  let k = kernel 0 in
  let mk () = Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source in
  let p1 = mk () and p2 = mk () in
  (match p2.Pvir.Prog.globals with
  | [] -> Alcotest.fail "kernel has no globals"
  | g :: rest ->
    p2.Pvir.Prog.globals <-
      { g with Pvir.Prog.gannots = [ ("bank", Pvir.Annot.Int 1) ] } :: rest);
  let key p = Pvserve.Key.to_string (Pvserve.Key.of_program ~machine p) in
  Alcotest.(check bool) "annotation-only difference separates keys" false
    (String.equal (key p1) (key p2));
  let k1 = Pvserve.Key.of_program ~machine p1
  and k2 = Pvserve.Key.of_program ~machine p2 in
  Alcotest.(check string) "code digest unchanged" k1.Pvserve.Key.pvir
    k2.Pvserve.Key.pvir;
  Alcotest.(check string) "machine digest unchanged" k1.Pvserve.Key.machine
    k2.Pvserve.Key.machine

let test_key_sees_machine () =
  let k = kernel 0 in
  let p = Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source in
  let keys =
    List.map
      (fun m -> Pvserve.Key.to_string (Pvserve.Key.of_program ~machine:m p))
      Pvmach.Machine.all
  in
  Alcotest.(check int) "one key per machine descriptor"
    (List.length Pvmach.Machine.all)
    (List.length (List.sort_uniq String.compare keys))

(* ---------------- dedup under contention ---------------- *)

(* Many identical requests racing through a multi-Domain worker pool:
   exactly one compile, every artifact byte-identical, and the replies
   partition into one Compiled plus Hit/Coalesced. *)
let test_concurrent_dedup () =
  let bc = bytecode_of (kernel 0) in
  let svc = Pvserve.Service.create ~workers:4 () in
  let n = 32 in
  let tickets =
    List.init n (fun _ ->
        Pvserve.Service.submit svc
          { Pvserve.Service.bytecode = bc; Pvserve.Service.machine })
  in
  let replies = List.map Pvserve.Service.await tickets in
  Pvserve.Service.shutdown svc;
  let arts = List.map artifact_exn replies in
  let first = List.hd arts in
  List.iter
    (fun a -> Alcotest.(check string) "byte-identical artifact" first a)
    arts;
  Alcotest.(check int) "exactly one compile" 1
    (Pvserve.Service.compile_count svc);
  Alcotest.(check (option int64)) "compile-counter metric agrees" (Some 1L)
    (Pvtrace.Metrics.value (Pvserve.Service.metrics svc) "serve.compiles");
  let compiled =
    List.length
      (List.filter
         (fun r -> r.Pvserve.Service.origin = Pvserve.Service.Compiled)
         replies)
  in
  Alcotest.(check int) "exactly one Compiled reply" 1 compiled

(* The oracle the load generator uses: a fresh single-threaded compile
   must reproduce what the concurrent service served. *)
let test_matches_single_threaded () =
  let bc = bytecode_of (kernel 1) in
  let svc = Pvserve.Service.create ~workers:3 () in
  let tk =
    Pvserve.Service.submit svc
      { Pvserve.Service.bytecode = bc; Pvserve.Service.machine }
  in
  let served = artifact_exn (Pvserve.Service.await tk) in
  Pvserve.Service.shutdown svc;
  match Pvserve.Service.compile_artifact ~machine bc with
  | Ok fresh -> Alcotest.(check string) "oracle equality" fresh served
  | Error e -> Alcotest.failf "fresh compile failed: %s" e

(* The service compiles against [Image.layout] and never builds an
   image.  Every existing oracle compares the service with
   [compile_artifact], that is, with itself; this one compares it with
   the device path, [Jit.compile_program] on a full [Image.load], over
   the serve benchmark's whole population (1,000 keys), so global
   addresses drifting from the loader's would show here.

   The concatenated artifacts are also pinned by size and MD5.  They
   carry the JIT's register numbering, which no other test sees, so a
   change that was meant to leave code generation alone must leave this
   digest alone too.  An intended codegen change updates the pin and
   gives the reason in CHANGES.md. *)
let test_layout_path_matches_image_path () =
  let corpus =
    Pvserve.Load.corpus ~gen_seeds:(List.init 186 (fun i -> i + 1)) ()
  in
  let keys = ref 0 in
  let all = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, bc) ->
      List.iter
        (fun (machine : Pvmach.Machine.t) ->
          incr keys;
          let prog = Pvir.Serial.decode bc in
          let key =
            Pvserve.Key.to_string (Pvserve.Key.of_program ~machine prog)
          in
          let sim, report =
            Pvjit.Jit.compile_program ~machine
              ~hints:Pvjit.Jit.Hints_annotation (Pvvm.Image.load prog)
          in
          let code (fr : Pvjit.Jit.func_report) =
            (Hashtbl.find sim.Pvvm.Sim.code fr.Pvjit.Jit.fname).Pvvm.Sim.cfn
          in
          let device =
            Pvserve.Service.render_artifact ~machine key
              (List.map (fun fr -> (code fr, fr)) report.Pvjit.Jit.funcs)
          in
          match Pvserve.Service.compile_artifact ~machine bc with
          | Ok served ->
            Alcotest.(check string)
              (Printf.sprintf "%s on %s" name machine.Pvmach.Machine.name)
              device served;
            Buffer.add_string all served
          | Error e -> Alcotest.failf "%s: %s" name e)
        Pvmach.Machine.all)
    corpus;
  Alcotest.(check int) "the serve population" 1000 !keys;
  Alcotest.(check int) "artifact bytes" 1_104_904 (Buffer.length all);
  Alcotest.(check string)
    "artifact digest" "42dbb2ad481c715989896f2bbcd7315e"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* [Serial.decode] does not verify, so the compile path is the only
   verifier a request meets.  Bytecode that decodes but does not verify
   must answer with a compile error and leave nothing in the cache. *)
let test_unverified_bytecode () =
  let unresolved =
    let p = Pvir.Prog.create "unresolved" in
    Pvir.Prog.add_extern p "elsewhere" [] (Some Pvir.Types.i64);
    p
  in
  let bad_label =
    let p = Pvir.Prog.create "bad_label" in
    let fn = Pvir.Func.create ~name:"bad" ~params:[] ~ret:None in
    let b = Pvir.Func.add_block fn in
    b.Pvir.Func.term <- Pvir.Instr.Br 42;
    Pvir.Prog.add_func p fn;
    p
  in
  List.iter
    (fun (p : Pvir.Prog.t) ->
      let what = p.Pvir.Prog.pname in
      let bc = Pvir.Serial.encode p in
      (* the verifier itself must refuse, not some later JIT failure *)
      let compile_error = function
        | Error e -> String.starts_with ~prefix:"compile: Pvir.Verify.Error" e
        | Ok _ -> false
      in
      Alcotest.(check bool) (what ^ " decodes") true
        (Result.is_ok (Pvir.Serial.decode_result bc));
      Alcotest.(check bool) (what ^ ": compile_artifact refuses") true
        (compile_error (Pvserve.Service.compile_artifact ~machine bc));
      let svc = Pvserve.Service.create ~workers:2 () in
      let ask () =
        Pvserve.Service.await
          (Pvserve.Service.submit svc
             { Pvserve.Service.bytecode = bc; Pvserve.Service.machine })
      in
      let first = ask () in
      let again = ask () in
      Pvserve.Service.shutdown svc;
      List.iter
        (fun (r : Pvserve.Service.reply) ->
          Alcotest.(check bool) (what ^ ": error reply") true
            (compile_error r.Pvserve.Service.outcome))
        [ first; again ];
      Alcotest.(check int) (what ^ ": nothing cached, so it compiles again")
        2
        (Pvserve.Service.compile_count svc);
      Alcotest.(check int) (what ^ ": cache empty") 0
        (Pvserve.Service.cache_stats svc).Pvserve.Cache.s_entries)
    [ unresolved; bad_label ]

(* ---------------- eviction ---------------- *)

(* A budget that holds only one artifact: A, then B (evicts A), then A
   again — which must recompile and produce the identical artifact. *)
let test_eviction_recompiles_identically () =
  let bc_a = bytecode_of (kernel 0) and bc_b = bytecode_of (kernel 2) in
  let ledger = Pvtrace.Ledger.create () in
  let svc =
    Pvserve.Service.create ~ledger ~cache_budget:1024 ~workers:2 ()
  in
  let ask bc =
    artifact_exn
      (Pvserve.Service.await
         (Pvserve.Service.submit svc
            { Pvserve.Service.bytecode = bc; Pvserve.Service.machine }))
  in
  let a1 = ask bc_a in
  let _b = ask bc_b in
  let a2 = ask bc_a in
  Pvserve.Service.shutdown svc;
  Alcotest.(check string) "recompiled artifact is byte-identical" a1 a2;
  Alcotest.(check int) "three compiles (A, B, A again)" 3
    (Pvserve.Service.compile_count svc);
  let cs = Pvserve.Service.cache_stats svc in
  Alcotest.(check bool) "evictions happened" true
    (cs.Pvserve.Cache.s_evictions > 0);
  Alcotest.(check bool) "evictions are ledgered" true
    (Pvtrace.Ledger.count_kind ledger (Pvtrace.Ledger.Other "cache-evict") > 0)

(* Backpressure: a tiny queue must not deadlock or drop requests. *)
let test_bounded_queue () =
  let bc = bytecode_of (kernel 0) in
  let svc = Pvserve.Service.create ~queue_capacity:2 ~workers:2 () in
  let tickets =
    List.init 50 (fun _ ->
        Pvserve.Service.submit svc
          { Pvserve.Service.bytecode = bc; Pvserve.Service.machine })
  in
  let replies = List.map Pvserve.Service.await tickets in
  Pvserve.Service.shutdown svc;
  Alcotest.(check int) "all 50 answered" 50 (List.length replies);
  List.iter (fun r -> ignore (artifact_exn r)) replies

(* Untrusted input: garbage bytecode answers with an error, not a crash,
   and does not poison the cache or the in-flight table. *)
let test_garbage_bytecode () =
  let svc = Pvserve.Service.create ~workers:2 () in
  let bad =
    Pvserve.Service.await
      (Pvserve.Service.submit svc
         { Pvserve.Service.bytecode = "not bytecode"; Pvserve.Service.machine })
  in
  (match bad.Pvserve.Service.outcome with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage decoded to an artifact");
  let good =
    Pvserve.Service.await
      (Pvserve.Service.submit svc
         {
           Pvserve.Service.bytecode = bytecode_of (kernel 0);
           Pvserve.Service.machine;
         })
  in
  Pvserve.Service.shutdown svc;
  ignore (artifact_exn good)

(* ---------------- load generator ---------------- *)

let test_load_smoke () =
  let spec =
    {
      Pvserve.Load.default_spec with
      Pvserve.Load.requests = 300;
      workers = 2;
      gen_seeds = [ 1; 2 ];
      machines = Pvmach.Machine.table1_targets;
    }
  in
  let r = Pvserve.Load.run spec in
  Alcotest.(check int) "no oracle mismatches" 0
    r.Pvserve.Load.r_oracle_mismatches;
  Alcotest.(check int) "no error replies" 0 r.Pvserve.Load.r_errors;
  Alcotest.(check int) "replies partition requests" 300
    (r.Pvserve.Load.r_hits + r.Pvserve.Load.r_compiled
    + r.Pvserve.Load.r_coalesced);
  if r.Pvserve.Load.r_evictions = 0 then
    Alcotest.(check int) "dedup exact: compiles = unique keys"
      r.Pvserve.Load.r_unique_keys r.Pvserve.Load.r_compiles

let test_load_deterministic_corpus () =
  (* same seed => same population and same unique-key count *)
  let spec =
    {
      Pvserve.Load.default_spec with
      Pvserve.Load.requests = 100;
      workers = 2;
      gen_seeds = [ 3 ];
      machines = [ machine ];
    }
  in
  let r1 = Pvserve.Load.run spec and r2 = Pvserve.Load.run spec in
  Alcotest.(check int) "population stable" r1.Pvserve.Load.r_population
    r2.Pvserve.Load.r_population;
  Alcotest.(check int) "unique keys stable" r1.Pvserve.Load.r_unique_keys
    r2.Pvserve.Load.r_unique_keys

(* ---------------- registry domain-safety ---------------- *)

(* The bugfix half of the PR: global registries must survive multi-Domain
   mutation without losing updates.  Before the fix these were plain
   Hashtbls — concurrent resize corrupts them (crash or lost counts). *)
let test_metrics_multidomain () =
  let m = Pvtrace.Metrics.create () in
  let per_domain = 10_000 and domains = 4 in
  let work () =
    for i = 1 to per_domain do
      Pvtrace.Metrics.inc1 m "race.counter";
      Pvtrace.Metrics.seti m "race.gauge" i;
      Pvtrace.Metrics.observe m "race.hist" (Int64.of_int i)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  Alcotest.(check (option int64)) "no lost increments"
    (Some (Int64.of_int (domains * per_domain)))
    (Pvtrace.Metrics.value m "race.counter");
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    (Pvtrace.Metrics.hist_count m "race.hist");
  (* rendering while racing must not crash either *)
  let stop = Atomic.make false in
  let renderer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Pvtrace.Metrics.to_prom m)
        done)
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  Atomic.set stop true;
  Domain.join renderer;
  Alcotest.(check (option int64)) "second round intact"
    (Some (Int64.of_int (2 * domains * per_domain)))
    (Pvtrace.Metrics.value m "race.counter")

let test_ledger_multidomain () =
  let l = Pvtrace.Ledger.create () in
  let per_domain = 2_000 and domains = 4 in
  let work () =
    for i = 1 to per_domain do
      Pvtrace.Ledger.record l Pvtrace.Ledger.Limit_hit ~subject:"race"
        ~detail:(string_of_int i)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost events" (domains * per_domain)
    (Pvtrace.Ledger.count l)

let () =
  Alcotest.run "pvserve"
    [
      ( "key",
        [
          Alcotest.test_case "annotation set is part of the key" `Quick
            test_key_sees_annotations;
          Alcotest.test_case "machine descriptor is part of the key" `Quick
            test_key_sees_machine;
        ] );
      ( "service",
        [
          Alcotest.test_case "concurrent misses compile once" `Quick
            test_concurrent_dedup;
          Alcotest.test_case "served = single-threaded compile" `Quick
            test_matches_single_threaded;
          Alcotest.test_case "eviction recompiles identically" `Quick
            test_eviction_recompiles_identically;
          Alcotest.test_case "bounded queue backpressure" `Quick
            test_bounded_queue;
          Alcotest.test_case "garbage bytecode is an error reply" `Quick
            test_garbage_bytecode;
          Alcotest.test_case "unverified bytecode is an error reply" `Quick
            test_unverified_bytecode;
          Alcotest.test_case "layout path = image path, 1,000 keys" `Quick
            test_layout_path_matches_image_path;
        ] );
      ( "load",
        [
          Alcotest.test_case "zipf load, oracle clean" `Quick test_load_smoke;
          Alcotest.test_case "deterministic corpus" `Quick
            test_load_deterministic_corpus;
        ] );
      ( "registries",
        [
          Alcotest.test_case "metrics survive domain races" `Quick
            test_metrics_multidomain;
          Alcotest.test_case "ledger survives domain races" `Quick
            test_ledger_multidomain;
        ] );
    ]
