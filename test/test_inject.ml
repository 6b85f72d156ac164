(* Fault-injection tests: annotation mutations, accelerator failure, trap
   parity and the resource-limit / error-taxonomy plumbing.

   The load-bearing property (the issue's acceptance bar): annotations are
   hints, not trusted facts — for EVERY annotation mutation, on every
   Table-1 kernel, the program's observable results are bit-identical to
   the unannotated run.  Only JIT work accounting and spill counts may
   move. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- annotation mutations on Table-1 kernels ---------------- *)

(* run a (possibly mutated) already-offline-optimized program through the
   online pipeline and observe everything *)
let run_prog (p : Pvir.Prog.t) (k : Pvkernels.Kernels.t) :
    Pvkernels.Harness.observation * Pvjit.Jit.report =
  let machine = Pvmach.Machine.x86ish in
  let bc = Pvir.Serial.encode p in
  let on = Core.Splitc.online ~mode:Core.Splitc.Split ~machine bc in
  Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
  let result =
    Pvvm.Sim.run on.Core.Splitc.sim k.Pvkernels.Kernels.entry
      (Pvkernels.Harness.args k Pvkernels.Kernels.n_default)
  in
  ( {
      Pvkernels.Harness.result;
      globals = Pvkernels.Harness.observe_globals on.Core.Splitc.img;
      printed = Pvvm.Sim.output on.Core.Splitc.sim;
    },
    on.Core.Splitc.jit )

let offline_prog (k : Pvkernels.Kernels.t) : Pvir.Prog.t =
  let p =
    Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
      k.Pvkernels.Kernels.source
  in
  (Core.Splitc.offline ~mode:Core.Splitc.Split p).Core.Splitc.prog

let test_annotation_mutations_preserve_results () =
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let annotated = offline_prog k in
      (* the reference: all hints stripped — the pure "ignore annotations"
         run the paper requires to be semantically complete *)
      let baseline, _ =
        run_prog (Pvinject.Inject.drop_annotations annotated) k
      in
      List.iter
        (fun fault ->
          List.iter
            (fun seed ->
              let mutant =
                Pvinject.Inject.apply_annot_fault ~seed fault annotated
              in
              let obs, _ = run_prog mutant k in
              check bool_t
                (Printf.sprintf "%s: results identical under '%s' (seed %d)"
                   k.Pvkernels.Kernels.name
                   (Pvinject.Inject.annot_fault_to_string fault)
                   seed)
                true
                (Pvkernels.Harness.observation_equal baseline obs))
            [ 1; 42; 4096 ])
        Pvinject.Inject.all_annot_faults)
    Pvkernels.Kernels.table1

let test_corrupt_annotations_degrade_gracefully () =
  (* a kernel whose spill order is garbage must (a) still run correctly
     (above) and (b) be visibly downgraded: Invalid status in the report
     and an annot_fallback charge in the work accounting *)
  let k = List.hd Pvkernels.Kernels.table1 in
  let mutant =
    Pvinject.Inject.corrupt_spill_order ~seed:7 (offline_prog k)
  in
  let _, jit = run_prog mutant k in
  check bool_t "some function reports Invalid annotations" true
    (List.exists
       (fun (f : Pvjit.Jit.func_report) ->
         match f.Pvjit.Jit.annot_status with
         | Pvjit.Annot_check.Invalid _ -> true
         | _ -> false)
       jit.Pvjit.Jit.funcs);
  check bool_t "fallback is charged to the online account" true
    (Pvir.Account.find jit.Pvjit.Jit.work "jit.annot_fallback" > 0)

let test_valid_annotations_stay_valid () =
  let k = List.hd Pvkernels.Kernels.table1 in
  let _, jit = run_prog (offline_prog k) k in
  check bool_t "no Invalid status on untouched bytecode" true
    (List.for_all
       (fun (f : Pvjit.Jit.func_report) ->
         match f.Pvjit.Jit.annot_status with
         | Pvjit.Annot_check.Invalid _ -> false
         | _ -> true)
       jit.Pvjit.Jit.funcs)

(* ---------------- accelerator failure mid-schedule ---------------- *)

let tok x = [| Pvir.Value.i64 (Int64.of_int x) |]
let tok_val (t : Pvsched.Kpn.token) = Int64.to_int (Pvir.Value.to_int64 t.(0))

let failure_processes () =
  let stage name inputs outputs work annots =
    { Pvsched.Kpn.pname = name; inputs; outputs; fire = (fun t -> t); annots; work }
  in
  let numeric =
    stage "numeric" [ "raw" ] [ "cooked" ] 100
      (Pvir.Annot.add Pvir.Annot.key_hw_prefs
         (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
         Pvir.Annot.empty)
  in
  [
    stage "src" [ "in" ] [ "raw" ] 1 Pvir.Annot.empty;
    numeric;
    stage "snk" [ "cooked" ] [ "out" ] 1 Pvir.Annot.empty;
  ]

let failure_platform () =
  let host = { Pvsched.Mapper.cname = "host"; machine = Pvmach.Machine.ppcish } in
  let accel = { Pvsched.Mapper.cname = "accel"; machine = Pvmach.Machine.dspish } in
  (host, accel, { Pvsched.Mapper.cores = [ host; accel ]; transfer_cost = 10 })

let failure_cost (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
  match p.Pvsched.Kpn.pname with
  | "numeric" -> if c.Pvsched.Mapper.cname = "accel" then 50 else 400
  | _ -> if c.Pvsched.Mapper.cname = "accel" then 40 else 5

let fresh_failure_net n =
  let net = Pvsched.Kpn.create (failure_processes ()) in
  for i = 1 to n do
    Pvsched.Kpn.push net "in" (tok i)
  done;
  net

let test_remap_abandons_dead_core () =
  let _, accel, plat = failure_platform () in
  let ps = failure_processes () in
  let pl = Pvsched.Mapper.place plat failure_cost ps in
  check bool_t "numeric initially on the accelerator" true
    ((List.assoc "numeric" pl).Pvsched.Mapper.cname = accel.Pvsched.Mapper.cname);
  let pl' = Pvsched.Mapper.remap plat failure_cost pl ~dead:"accel" ps in
  List.iter
    (fun (name, (c : Pvsched.Mapper.core)) ->
      check bool_t (name ^ " off the dead core") true
        (c.Pvsched.Mapper.cname <> "accel"))
    pl'

let test_accelerator_failure_only_moves_makespan () =
  let _, _, plat = failure_platform () in
  let ps = failure_processes () in
  let pl = Pvsched.Mapper.place plat failure_cost ps in
  (* KPN results: identical with and without the failure (the mapper never
     touches the dataflow — Kahn determinism makes remapping safe) *)
  let out_of net =
    ignore (Pvsched.Kpn.run net);
    List.map tok_val (Pvsched.Kpn.drain net "out")
  in
  let healthy_out = out_of (fresh_failure_net 16) in
  let failed_out = out_of (fresh_failure_net 16) in
  check bool_t "identical channel streams" true (healthy_out = failed_out);
  (* the makespan is what moves: kill the accelerator mid-schedule *)
  let t_healthy = Pvsched.Mapper.makespan plat failure_cost pl (fresh_failure_net 16) in
  let failure = { Pvsched.Mapper.dead_core = "accel"; at = 200L } in
  let t_failed =
    Pvsched.Mapper.makespan_with_failure plat failure_cost pl ~failure
      (fresh_failure_net 16)
  in
  check bool_t "failure costs cycles" true (Int64.compare t_failed t_healthy > 0);
  (* a failure after the schedule completes changes nothing *)
  let late = { Pvsched.Mapper.dead_core = "accel"; at = Int64.max_int } in
  let t_late =
    Pvsched.Mapper.makespan_with_failure plat failure_cost pl ~failure:late
      (fresh_failure_net 16)
  in
  check bool_t "late failure is free" true (Int64.equal t_late t_healthy)

let test_failure_at_time_zero_equals_no_accel_placement () =
  (* dying at cycle 0 must cost at least as much as never having the
     accelerator's help for the displaced stage *)
  let _, _, plat = failure_platform () in
  let ps = failure_processes () in
  let pl = Pvsched.Mapper.place plat failure_cost ps in
  let failure = { Pvsched.Mapper.dead_core = "accel"; at = 0L } in
  let t0 =
    Pvsched.Mapper.makespan_with_failure plat failure_cost pl ~failure
      (fresh_failure_net 8)
  in
  let t_healthy = Pvsched.Mapper.makespan plat failure_cost pl (fresh_failure_net 8) in
  check bool_t "immediate failure is the worst case" true
    (Int64.compare t0 t_healthy >= 0)

(* ---------------- trap parity and resource limits ---------------- *)

let test_sim_fuel_trap_parity () =
  let run engine =
    let src = "i64 main() { for (;;) { } return 0; }" in
    let p = Core.Splitc.frontend src in
    let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
    let bc = Core.Splitc.distribute off in
    let on =
      Core.Splitc.online ~machine:Pvmach.Machine.x86ish ~engine bc
    in
    let sim = on.Core.Splitc.sim in
    sim.Pvvm.Sim.fuel <- 10_000L;
    match Pvvm.Sim.run sim "main" [] with
    | _ -> Alcotest.fail "infinite loop terminated"
    | exception Pvvm.Vm.Trap m -> (m, sim.Pvvm.Sim.stats.Pvvm.Sim.instrs)
  in
  let m0, i0 = run Pvvm.Sim.Tree_walk and m1, i1 = run Pvvm.Sim.Threaded in
  check Alcotest.string "same trap message" m0 m1;
  check bool_t "canonical fuel message" true
    (String.equal m0 Pvvm.Sim.fuel_exhausted_msg);
  check bool_t "same trap point" true (Int64.equal i0 i1)

let test_interp_max_fuel_clamp () =
  (* every engine charges a native-int budget ([Interp.enter] clamps
     >= max_int): an unlimited budget must behave as unlimited on both
     engines, not wrap negative and trap instantly *)
  List.iter
    (fun engine ->
      let p = Core.Splitc.frontend "i64 main() { return 41 + 1; }" in
      let it = Pvvm.Interp.create ~engine ~fuel:Int64.max_int (Pvvm.Image.load p) in
      match Pvvm.Interp.run it "main" [] with
      | Some v ->
        check bool_t "computes through max fuel" true
          (Int64.equal (Pvir.Value.to_int64 v) 42L)
      | None -> Alcotest.fail "no result")
    [ Pvvm.Interp.Tree_walk; Pvvm.Interp.Threaded ]

let test_memory_alloc_limit () =
  (match Pvvm.Memory.create ~alloc_limit:4096 8192 with
  | _ -> Alcotest.fail "over-limit allocation succeeded"
  | exception Pvvm.Memory.Limit _ -> ());
  (* within the cap: fine *)
  ignore (Pvvm.Memory.create ~alloc_limit:4096 4096);
  (* and through the image loader *)
  let p = Core.Splitc.frontend "i64 main() { return 0; }" in
  match Pvvm.Image.load ~mem_size:(1 lsl 20) ~alloc_limit:(1 lsl 16) p with
  | _ -> Alcotest.fail "image loader ignored the allocation cap"
  | exception Pvvm.Memory.Limit _ -> ()

(* ---------------- error taxonomy ---------------- *)

let test_classify_taxonomy () =
  let code e =
    match Core.Splitc.classify e with
    | Some err -> Core.Splitc.exit_code err
    | None -> -1
  in
  check int_t "frontend" 2 (code (Minic.Parser.Error "x"));
  check int_t "decode" 3
    (code (Pvir.Serial.Corrupt { Pvir.Serial.offset = 0; reason = "x" }));
  check int_t "verify" 4 (code (Pvir.Verify.Error "x"));
  check int_t "link" 5 (code (Pvir.Link.Error "x"));
  check int_t "jit" 6 (code (Pvjit.Regalloc.Error "x"));
  check int_t "trap" 7 (code (Pvvm.Vm.Trap "division by zero"));
  check int_t "interp fuel = resource limit" 8
    (code (Pvvm.Vm.Trap Pvvm.Interp.fuel_exhausted_msg));
  check int_t "sim fuel = resource limit" 8
    (code (Pvvm.Vm.Trap Pvvm.Sim.fuel_exhausted_msg));
  check int_t "memory cap = resource limit" 8
    (code (Pvvm.Memory.Limit "x"));
  check int_t "io" 9 (code (Sys_error "x"));
  check bool_t "unknown exceptions are not swallowed" true
    (Core.Splitc.classify Exit = None)

(* ---------------- degradation ledger ---------------- *)

let test_byte_scenarios_fill_ledger () =
  (* sweep seeded byte-fault scenarios over a real kernel's bytecode: every
     mutant must hit one of the two nets or be explicitly tolerated, and
     each tolerated one must leave a Decode_tolerated ledger entry naming
     its faults — graceful degradation that is recorded, never silent *)
  let k = List.hd Pvkernels.Kernels.table1 in
  let bc = Pvir.Serial.encode (offline_prog k) in
  let ledger = Pvtrace.Ledger.create () in
  let tolerated = ref 0 and rejected = ref 0 in
  for seed = 0 to 199 do
    match fst (Pvinject.Inject.byte_scenario ~seed ~ledger bc) with
    | Pvinject.Inject.Tolerated p ->
      incr tolerated;
      (* tolerated means it passed the verifier too *)
      check bool_t
        (Printf.sprintf "tolerated mutant of seed %d verifies" seed)
        true
        (Pvir.Verify.program_result p = Ok ())
    | Pvinject.Inject.Rejected_decode _ | Pvinject.Inject.Rejected_verify _ ->
      incr rejected
  done;
  check bool_t "sweep produced tolerated mutants" true (!tolerated > 0);
  check bool_t "sweep produced rejected mutants" true (!rejected > 0);
  check int_t "one ledger entry per tolerated mutant" !tolerated
    (Pvtrace.Ledger.count_kind ledger Pvtrace.Ledger.Decode_tolerated);
  check bool_t "entries name their faults" true
    (List.for_all
       (fun (e : Pvtrace.Ledger.event) ->
         e.Pvtrace.Ledger.subject = "distribution"
         && String.length e.Pvtrace.Ledger.detail > 0)
       (Pvtrace.Ledger.by_kind ledger Pvtrace.Ledger.Decode_tolerated))

let test_annot_rejects_land_in_ledger () =
  (* the other ledger kind on the distribution path: corrupted spill-order
     annotations must be rejected into the ledger by the online JIT *)
  let k = List.hd Pvkernels.Kernels.table1 in
  let mutant =
    Pvinject.Inject.corrupt_spill_order ~seed:7 (offline_prog k)
  in
  let ledger = Pvtrace.Ledger.create () in
  let _ =
    Core.Splitc.online ~mode:Core.Splitc.Split ~machine:Pvmach.Machine.x86ish
      ~ledger
      (Pvir.Serial.encode mutant)
  in
  check bool_t "corrupt hints recorded as Annot_reject" true
    (Pvtrace.Ledger.count_kind ledger Pvtrace.Ledger.Annot_reject > 0);
  let clean = Pvtrace.Ledger.create () in
  let _ =
    Core.Splitc.online ~mode:Core.Splitc.Split ~machine:Pvmach.Machine.x86ish
      ~ledger:clean
      (Pvir.Serial.encode (offline_prog k))
  in
  check int_t "clean bytecode records nothing" 0 (Pvtrace.Ledger.count clean)

let test_guard_total_on_corrupt_input () =
  match
    Core.Splitc.guard (fun () ->
        Core.Splitc.online ~machine:Pvmach.Machine.x86ish "PVIR garbage here")
  with
  | Error (Core.Splitc.Decode_error _) -> ()
  | Error e ->
    Alcotest.failf "wrong class: %s" (Core.Splitc.error_message e)
  | Ok _ -> Alcotest.fail "garbage decoded"

let () =
  Alcotest.run "inject"
    [
      ( "annotations",
        [
          Alcotest.test_case "mutations preserve results (Table 1)" `Quick
            test_annotation_mutations_preserve_results;
          Alcotest.test_case "corrupt hints degrade gracefully" `Quick
            test_corrupt_annotations_degrade_gracefully;
          Alcotest.test_case "clean hints stay valid" `Quick
            test_valid_annotations_stay_valid;
        ] );
      ( "accelerator-failure",
        [
          Alcotest.test_case "remap abandons dead core" `Quick
            test_remap_abandons_dead_core;
          Alcotest.test_case "failure only moves makespan" `Quick
            test_accelerator_failure_only_moves_makespan;
          Alcotest.test_case "failure at t=0 is worst case" `Quick
            test_failure_at_time_zero_equals_no_accel_placement;
        ] );
      ( "limits",
        [
          Alcotest.test_case "sim fuel trap parity" `Quick
            test_sim_fuel_trap_parity;
          Alcotest.test_case "interp max-fuel clamp" `Quick
            test_interp_max_fuel_clamp;
          Alcotest.test_case "memory allocation cap" `Quick
            test_memory_alloc_limit;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "byte scenarios fill the ledger" `Quick
            test_byte_scenarios_fill_ledger;
          Alcotest.test_case "annot rejects land in the ledger" `Quick
            test_annot_rejects_land_in_ledger;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "classify covers the pipeline" `Quick
            test_classify_taxonomy;
          Alcotest.test_case "guard is total on corrupt input" `Quick
            test_guard_total_on_corrupt_input;
        ] );
    ]
