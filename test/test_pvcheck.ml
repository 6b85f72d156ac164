(* Tier-1 slice of the differential fuzzing harness (lib/pvcheck).

   The full campaign lives in bin/pvfuzz (and the CI fuzz-smoke job);
   here we pin the properties that make the harness trustworthy:

   - the generator is deterministic and only emits verifier-clean
     programs;
   - a short run of the full differential matrix (all engines, all
     passes) is green;
   - a deliberately broken pass injected through the harness's pass-list
     hook is caught and shrunk to a tiny reproducer whose dump parses
     back and still fails — the end-to-end fuzz→catch→shrink→replay
     loop;
   - the paper's §4 split-regalloc claim holds as a property over a
     pinned generated corpus: annotation-guided allocation never costs
     more dynamic spill traffic than the online heuristic, and matches
     recomputed-online quality. *)

open Pvir

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- generator ---------------- *)

let test_gen_deterministic () =
  let a = Pp.program_to_string (Pvcheck.Gen.program ~seed:7) in
  let b = Pp.program_to_string (Pvcheck.Gen.program ~seed:7) in
  check string_t "same seed, same program" a b;
  let c = Pp.program_to_string (Pvcheck.Gen.program ~seed:8) in
  check bool_t "different seed, different program" false (String.equal a c)

let test_gen_verifies () =
  for seed = 0 to 29 do
    let p = Pvcheck.Gen.program ~seed in
    (match Verify.program_result p with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d does not verify: %s" seed m);
    check bool_t
      (Printf.sprintf "seed %d has main" seed)
      true
      (Prog.find_func p "main" <> None)
  done

let test_gen_round_trips () =
  (* generated programs survive both distribution formats *)
  for seed = 0 to 9 do
    let p = Pvcheck.Gen.program ~seed in
    let txt = Pp.program_to_string p in
    check string_t
      (Printf.sprintf "seed %d text round-trip" seed)
      txt
      (Pp.program_to_string (Parse.program txt));
    ignore (Serial.decode (Serial.encode p))
  done

(* ---------------- differential matrix ---------------- *)

let test_matrix_covers_all_machines () =
  List.iter
    (fun (m : Pvmach.Machine.t) ->
      check bool_t
        ("matrix has jit-" ^ m.Pvmach.Machine.name)
        true
        (Pvcheck.Oracle.path_known ("jit-" ^ m.Pvmach.Machine.name)))
    Pvmach.Machine.all

let test_short_campaign_green () =
  (* every engine, every pass, every machine — a fast slice of what
     bin/pvfuzz runs at scale *)
  let findings = Pvcheck.Harness.run ~seed:1 ~count:20 () in
  (match findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "case %d (gen seed %d) failed at %s: %s — %s"
      f.Pvcheck.Harness.case f.Pvcheck.Harness.gen_seed
      f.Pvcheck.Harness.stage f.Pvcheck.Harness.what f.Pvcheck.Harness.detail)

(* The full path matrix — every engine, AOT included, and every machine —
   over nine fixed programs: five recursive ones the JIT's immediate
   folding once miscompiled (it folded parameters as constants), the
   source of the LICM reproducer in test_pvopt, two memory faults (a
   null load and an out-of-range store), which once escaped every oracle
   as a raw exception instead of being compared as traps, and a loop
   whose header is the entry block, whose spilled parameter once made
   the register allocator raise instead of converge.  Accounting is
   compared on every outcome, fuel traps included, and the migration and
   profiler oracles run on each program too. *)
let null_load =
  {|program "null_load"

func @main() : i64 {
  reg r0 : i64
  reg r1 : i64
  block 0:
    r0 = const 0:i64
    r1 = load i64 r0 + 0
    ret r1
}
|}

let wild_store =
  {|program "wild_store"

func @main() : i64 {
  reg r0 : i64
  reg r1 : i64
  block 0:
    r0 = const 99999999:i64
    r1 = const 1:i64
    store i64 r1, r0 + 0
    ret r1
}
|}

(* [f]'s loop body keeps [r0] live around the back edge to block 0 under
   enough pressure that machines with few registers spill it. *)
let entry_loop_spilled_param =
  {|program "entry_loop_spilled_param"

func @f(r0 : i64, r1 : i64) : i64 {
  reg r4 : i64
  reg r5 : i32
  reg r6 : i64
  reg r10 : i64
  reg r11 : i64
  reg r12 : i64
  reg r13 : i64
  reg r14 : i64
  reg r15 : i64
  reg r16 : i64
  reg r17 : i64
  reg r18 : i64
  reg r19 : i64
  reg r30 : i64
  reg r31 : i64
  reg r32 : i64
  reg r33 : i64
  reg r34 : i64
  reg r35 : i64
  reg r36 : i64
  reg r37 : i64
  reg r38 : i64
  reg r39 : i64
  block 0:
    r4 = const 0:i64
    r5 = cmp sgt r1, r4
    cbr r5, 1, 2
  block 1:
    r10 = add r0, r1
    r11 = add r0, r10
    r12 = add r0, r11
    r13 = add r0, r12
    r14 = add r0, r13
    r15 = add r0, r14
    r16 = add r0, r15
    r17 = add r0, r16
    r18 = add r0, r17
    r19 = add r0, r18
    r30 = add r1, r10
    r31 = add r30, r11
    r32 = add r31, r12
    r33 = add r32, r13
    r34 = add r33, r14
    r35 = add r34, r15
    r36 = add r35, r16
    r37 = add r36, r17
    r38 = add r37, r18
    r39 = add r38, r19
    r0 = add r0, r39
    r6 = const 1:i64
    r1 = sub r1, r6
    br 0
  block 2:
    ret r0
}

func @main() : i64 {
  reg r0 : i64
  reg r1 : i64
  reg r2 : i64
  block 0:
    r0 = const 7:i64
    r1 = const 5:i64
    r2 = call @f(r0, r1)
    ret r2
}
|}

let fixed_programs =
  List.map
    (fun seed ->
      (Printf.sprintf "seed %d" seed, Pvcheck.Gen.program_recursive ~seed))
    [ 801207; 802347; 802383; 500241; 501771 ]
  @ [
      ("seed 301816", Pvcheck.Gen.program ~seed:301816);
      ("null load", Parse.program null_load);
      ("out-of-range store", Parse.program wild_store);
      ("entry-block loop", Parse.program entry_loop_spilled_param);
    ]

let test_fixed_seeds_full_matrix () =
  Pvaot.install ();
  List.iter
    (fun (name, prog) ->
      let fail oracle (m : Pvcheck.Oracle.mismatch) =
        Alcotest.failf "%s, %s: %s %s: %s" name oracle m.Pvcheck.Oracle.path
          m.Pvcheck.Oracle.what m.Pvcheck.Oracle.detail
      in
      List.iter (fail "oracle") (Pvcheck.Oracle.check prog);
      for kill_seed = 0 to 3 do
        List.iter (fail "migrate") (Pvcheck.Migrate.check ~kill_seed prog)
      done;
      List.iter (fail "profcheck") (Pvcheck.Profcheck.check prog))
    fixed_programs

let test_replay_seed_matches () =
  (* the (run seed, case index) -> generator seed mapping the CLI prints
     must regenerate the very program the run saw *)
  let seen = ref [] in
  ignore
    (Pvcheck.Harness.run ~paths:[ "interp-th" ] ~passes:[] ~seed:5 ~count:4
       ~on_progress:(fun _ -> seen := !seen @ [ () ])
       ());
  check int_t "progress for every case" 4 (List.length !seen);
  for case = 0 to 3 do
    let gs = Pvcheck.Harness.replay_seed ~seed:5 ~case in
    ignore (Pvcheck.Gen.program ~seed:gs)
  done

(* ---------------- planted bug: catch and shrink ---------------- *)

(* The test hook from the issue: a deliberately broken "optimization"
   injected into the real pass list.  It silently deletes every store —
   the kind of over-eager DCE a real pass could ship with. *)
let evil_dce : Pvcheck.Passcheck.pass =
  {
    Pvcheck.Passcheck.pname = "evil-dce";
    papply =
      (fun p ->
        List.iter
          (fun (fn : Func.t) ->
            List.iter
              (fun (b : Func.block) ->
                b.Func.instrs <-
                  List.filter
                    (fun i ->
                      match i with Instr.Store _ -> false | _ -> true)
                    b.Func.instrs)
              fn.Func.blocks)
          p.Prog.funcs);
  }

let test_planted_bug_caught_and_shrunk () =
  let passes = Pvcheck.Passcheck.all_passes @ [ evil_dce ] in
  let findings =
    Pvcheck.Harness.run ~paths:[] ~passes ~shrink:true ~seed:2026 ~count:5 ()
  in
  match findings with
  | [] -> Alcotest.fail "planted pass bug not caught within 5 cases"
  | f :: _ ->
    check string_t "caught at the injected pass" "evil-dce"
      f.Pvcheck.Harness.stage;
    let shrunk =
      match f.Pvcheck.Harness.shrunk with
      | Some q -> q
      | None -> Alcotest.fail "no shrunk reproducer"
    in
    let sz = Pvcheck.Shrink.size shrunk in
    check bool_t
      (Printf.sprintf "reproducer is tiny (%d instrs <= 10)" sz)
      true (sz <= 10);
    check bool_t "reproducer still verifies" true
      (Verify.program_result shrunk = Ok ());
    (* the dumped .pvir must parse back and still trip the same bug —
       that is what makes it a reproducer rather than a printout *)
    let reparsed = Parse.program (Pvcheck.Shrink.to_pvir shrunk) in
    let still_fails =
      List.exists
        (fun (stage, _, _) -> stage = "evil-dce")
        (Pvcheck.Harness.check_case ~paths:[] ~passes:[ evil_dce ] reparsed)
    in
    check bool_t "dumped reproducer replays the failure" true still_fails

(* ---------------- §4 property: split regalloc never costs more -------- *)

let test_split_regalloc_property () =
  (* Paper §4: offline spill-order annotations must never make the online
     allocator produce *more dynamic spill traffic* than its own blind
     heuristic, and must match the quality of weights recomputed online —
     measured over a pinned generated corpus on the register-poorest
     machine.  (Static spilled-reg counts can legitimately go either way:
     the annotation optimizes traffic, not slot count.) *)
  let machine = Pvmach.Machine.find_exn "uchost" in
  let annot = ref 0L and recomputed = ref 0L and heuristic = ref 0L in
  for seed = 100 to 140 do
    let prog = Pvcheck.Gen.program ~seed in
    let q = Prog.copy prog in
    Pvopt.Regalloc_annotate.run q;
    let ops p hints =
      (Pvcheck.Oracle.run_jit p machine hints Pvvm.Sim.Threaded)
        .Pvcheck.Oracle.jspill_ops
    in
    annot := Int64.add !annot (ops q Pvjit.Jit.Hints_annotation);
    recomputed := Int64.add !recomputed (ops q Pvjit.Jit.Hints_recompute);
    heuristic := Int64.add !heuristic (ops prog Pvjit.Jit.Hints_none)
  done;
  check bool_t "corpus exercises spill pressure" true
    (Int64.compare !heuristic 0L > 0);
  check bool_t
    (Printf.sprintf "annotation (%Ld ops) <= heuristic (%Ld ops)" !annot
       !heuristic)
    true
    (Int64.compare !annot !heuristic <= 0);
  check bool_t
    (Printf.sprintf "annotation (%Ld ops) matches recomputed (%Ld ops)" !annot
       !recomputed)
    true
    (Int64.equal !annot !recomputed)

let () =
  Alcotest.run "pvcheck"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_gen_deterministic;
          Alcotest.test_case "always verifier-clean" `Quick test_gen_verifies;
          Alcotest.test_case "distribution round-trips" `Quick
            test_gen_round_trips;
        ] );
      ( "differential matrix",
        [
          Alcotest.test_case "covers every machine" `Quick
            test_matrix_covers_all_machines;
          Alcotest.test_case "short campaign green" `Quick
            test_short_campaign_green;
          Alcotest.test_case "replay seed mapping" `Quick
            test_replay_seed_matches;
          Alcotest.test_case "fixed seeds, full matrix" `Quick
            test_fixed_seeds_full_matrix;
        ] );
      ( "planted bug",
        [
          Alcotest.test_case "caught and shrunk to <= 10 instrs" `Quick
            test_planted_bug_caught_and_shrunk;
        ] );
      ( "split regalloc",
        [
          Alcotest.test_case "annotations never cost dynamic spills" `Quick
            test_split_regalloc_property;
        ] );
    ]
