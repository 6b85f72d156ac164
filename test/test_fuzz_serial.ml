(* Fuzzing the binary decoder — the hardened trust boundary.

   The contract under test: for EVERY byte string, [Serial.decode_result]
   returns [Ok] or [Error] — it never raises, never loops, never
   stack-overflows, never allocates unboundedly.  Two input populations:

   - pure random bytes (mostly die on the magic check, but varints and
     short prefixes get through);
   - seeded mutations of real, valid bytecode (the hard population: almost
     all structure is intact, so corruption lands deep inside the
     decoder).

   12k cases total, far past the 10k floor demanded by the issue.  Every
   case is replayable: the mutation fault list is part of the failure
   message. *)

let seeded_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* a result that is neither Ok nor Error can't exist; what we really
   assert is "no exception escapes" *)
let decodes_totally (s : string) : bool =
  match Pvir.Serial.decode_result s with
  | Ok p ->
    (* a decoded program must also be safe to verify (the next pipeline
       stage): Verify may reject it, but must not raise anything else *)
    (match Pvir.Verify.program_result p with Ok () | Error _ -> true)
  | Error _ -> true
  | exception e ->
    Printf.eprintf "decoder raised %s\n" (Printexc.to_string e);
    false

(* ---------------- population 1: random bytes ---------------- *)

let random_bytes_arb =
  QCheck.make
    QCheck.Gen.(string_size ~gen:char (int_range 0 512))
    ~print:(fun s -> Printf.sprintf "%d raw bytes: %S" (String.length s) s)

(* random bytes behind a valid magic, so the decoder proper is reached *)
let magic_prefixed_arb =
  QCheck.make
    QCheck.Gen.(map (fun s -> "PVIR" ^ s) (string_size ~gen:char (int_range 0 512)))
    ~print:(fun s -> Printf.sprintf "%d magic-prefixed bytes: %S" (String.length s) s)

(* ---------------- population 2: mutated real bytecode ---------------- *)

(* one serialized module per Table-1 kernel, compiled through the real
   offline pipeline so annotations, globals and vector types are present *)
let corpus : string list =
  List.map
    (fun (k : Pvkernels.Kernels.t) ->
      let p =
        Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
          k.Pvkernels.Kernels.source
      in
      Core.Splitc.distribute (Core.Splitc.offline ~mode:Core.Splitc.Split p))
    Pvkernels.Kernels.table1

let mutant_arb =
  QCheck.make
    QCheck.Gen.(pair (int_range 0 (List.length corpus - 1)) (int_bound 1_000_000))
    ~print:(fun (i, seed) ->
      let bc = List.nth corpus i in
      let _, faults = Pvinject.Inject.mutate_bytes ~seed bc in
      Printf.sprintf "kernel #%d, seed %d: %s" i seed
        (String.concat "; "
           (List.map Pvinject.Inject.byte_fault_to_string faults)))

let prop_mutant_decodes_totally (i, seed) =
  let bc = List.nth corpus i in
  let mutant, _ = Pvinject.Inject.mutate_bytes ~seed bc in
  decodes_totally mutant

(* ---------------- sanity: the corpus itself round-trips ---------------- *)

let test_corpus_roundtrips () =
  List.iter
    (fun bc ->
      match Pvir.Serial.decode_result bc with
      | Ok p -> Pvir.Verify.program p
      | Error c ->
        Alcotest.failf "valid corpus rejected: %s"
          (Pvir.Serial.corruption_to_string c))
    corpus

(* truncations of valid bytecode at every single prefix length: the
   classic decoder killer, checked exhaustively rather than sampled *)
let test_all_truncations () =
  List.iter
    (fun bc ->
      for len = 0 to String.length bc - 1 do
        let cut = String.sub bc 0 len in
        if not (decodes_totally cut) then
          Alcotest.failf "truncation to %d bytes escaped the decoder" len
      done)
    corpus

(* A function that declares one register just under [max_regs] takes a
   few dozen bytes but a dense type table of a million slots (8 MiB); one
   that declares only r0 but claims [next_reg] = [max_regs] takes fewer
   bytes still, yet every interpreter frame of it would allocate a million
   slots.  The decoder refuses both: a program's functions may claim eight
   register slots per input byte, [next_reg] each, and the encoder spends
   at least two bytes per declared register, so a dense function of many
   registers still decodes. *)
let test_register_tables_bounded () =
  let func ?next_reg ~name ~regs () =
    let fn = Pvir.Func.create ~name ~params:[] ~ret:(Some Pvir.Types.i64) in
    let last = List.fold_left max 0 regs in
    fn.Pvir.Func.next_reg <- Option.value next_reg ~default:(last + 1);
    List.iter (fun r -> Pvir.Func.set_reg_type fn r Pvir.Types.i64) regs;
    let b = Pvir.Func.add_block fn in
    b.Pvir.Func.instrs <- [ Pvir.Instr.Const (last, Pvir.Value.i64 1L) ];
    b.Pvir.Func.term <- Pvir.Instr.Ret (Some last);
    let p = Pvir.Prog.create name in
    Pvir.Prog.add_func p fn;
    Pvir.Serial.encode p
  in
  let dense = func ~name:"dense" ~regs:(List.init 4096 Fun.id) () in
  (match Pvir.Serial.decode_result dense with
  | Ok p ->
    let fn = List.hd p.Pvir.Prog.funcs in
    Alcotest.(check bool) "every register declared" true
      (List.for_all (Pvir.Func.declared fn) (List.init 4096 Fun.id))
  | Error c ->
    Alcotest.failf "a dense function of 4096 registers refused: %s"
      (Pvir.Serial.corruption_to_string c));
  let refused what bc =
    match Pvir.Serial.decode_result bc with
    | Ok _ ->
      Alcotest.failf "%d bytes decoded into %s of a million slots"
        (String.length bc) what
    | Error { Pvir.Serial.reason; _ } ->
      Alcotest.(check bool) "refused for its register table" true
        (String.length reason >= 15 && String.sub reason 0 15 = "register tables")
  in
  let max_regs = Pvir.Serial.default_limits.Pvir.Serial.max_regs in
  refused "a table" (func ~name:"wide" ~regs:[ max_regs - 1 ] ());
  refused "frames" (func ~name:"tall" ~regs:[ 0 ] ~next_reg:max_regs ())

let () =
  Alcotest.run "fuzz_serial"
    [
      ( "decoder-total",
        [
          seeded_test ~count:4000 "random bytes" random_bytes_arb
            decodes_totally;
          seeded_test ~count:4000 "magic-prefixed random bytes"
            magic_prefixed_arb decodes_totally;
          seeded_test ~count:4000 "mutated real bytecode" mutant_arb
            prop_mutant_decodes_totally;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "valid corpus decodes" `Quick
            test_corpus_roundtrips;
          Alcotest.test_case "every truncation is handled" `Quick
            test_all_truncations;
          Alcotest.test_case "register tables bounded by the input" `Quick
            test_register_tables_bounded;
        ] );
    ]
