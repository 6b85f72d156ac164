(* Safepoint checkpoint/restore: the snapshot contract.

   Three things are pinned here.  (1) Engine neutrality: all three
   engines (tree-walk, threaded, AOT — which checkpoints through its
   threaded fallback) armed at the same instruction threshold capture
   byte-identical snapshots.  (2) Resume exactness: restoring a snapshot
   into a fresh VM under any engine and running to completion is
   observation-identical — result, output, globals, cycle/instr/call
   counts — to the run that was never interrupted, including across
   repeated re-checkpointing.  (3) Codec hardening: the snapshot decoder
   rejects every truncation and every seeded byte flip with
   [Serial.Corrupt], and restore validation rejects snapshots that do
   not belong to the image with [Snapshot.Invalid] — never a crash,
   never a silently wrong resume. *)

(* Install the real AOT backend so the Aot rows below exercise the
   actual runner (armed checkpoints delegate to the threaded fallback;
   unarmed resumed runs may execute compiled code). *)
let () = Pvaot.install ()

let engines =
  [ Pvvm.Interp.Tree_walk; Pvvm.Interp.Threaded; Pvvm.Interp.Aot ]

(* Guest programs with calls (nested frames at safepoints), loops,
   allocas, globals and printing — the state a snapshot must carry. *)
let prog_calls =
  {|
i64 gacc[4];

i64 leaf(i64 x, i64 y) {
  i64 t = x * y;
  gacc[0] = gacc[0] + t;
  return t + 1;
}

i64 mid(i64 n) {
  i64 s = 0;
  for (i64 i = 0; i < n; i = i + 1) {
    s = s + leaf(i, n - i);
  }
  gacc[1] = s;
  return s;
}

i64 main() {
  i64 total = 0;
  for (i64 k = 1; k < 9; k = k + 1) {
    total = total + mid(k);
    print_i64(total);
  }
  return total;
}
|}

let prog_memory =
  {|
f64 xs[64];

f64 main() {
  f64 acc = 0.0;
  for (i64 i = 0; i < 64; i = i + 1) {
    xs[i] = acc + 1.5;
    acc = acc + xs[i] * 0.5;
  }
  print_f64(acc);
  return acc;
}
|}

let compile src = Core.Splitc.frontend src

(* Small guest memory keeps snapshots (which embed the whole image)
   a few KiB, so the exhaustive truncation sweep stays fast. *)
let mem_size = 1 lsl 12

let load prog = Pvvm.Image.load ~mem_size prog

type obs = {
  result : (Pvir.Value.t option, string) result;
  output : string;
  cycles : int64;
  instrs : int64;
  calls : int;
}

let obs_of it r =
  {
    result = r;
    output = Pvvm.Interp.output it;
    cycles = it.Pvvm.Interp.stats.Pvvm.Interp.cycles;
    instrs = it.Pvvm.Interp.stats.Pvvm.Interp.instrs;
    calls = it.Pvvm.Interp.stats.Pvvm.Interp.calls;
  }

let run_plain ~engine prog =
  let it = Pvvm.Interp.create ~engine (load prog) in
  let r =
    match Pvvm.Interp.run it "main" [] with
    | v -> Ok v
    | exception Pvvm.Vm.Trap m -> Error m
  in
  (obs_of it r, Pvvm.Memory.contents it.Pvvm.Interp.img.Pvvm.Image.mem)

let check_obs what (a : obs) (b : obs) =
  Alcotest.(check (result (option string) string))
    (what ^ ": result")
    (Result.map (Option.map Pvir.Value.to_string) a.result)
    (Result.map (Option.map Pvir.Value.to_string) b.result);
  Alcotest.(check string) (what ^ ": output") a.output b.output;
  Alcotest.(check int64) (what ^ ": cycles") a.cycles b.cycles;
  Alcotest.(check int64) (what ^ ": instrs") a.instrs b.instrs;
  Alcotest.(check int) (what ^ ": calls") a.calls b.calls

(* Total instruction count of a program: where the kill points live. *)
let total_instrs prog =
  let it = Pvvm.Interp.create (load prog) in
  ignore (Pvvm.Interp.run it "main" []);
  it.Pvvm.Interp.stats.Pvvm.Interp.instrs

let checkpoint_at ~engine prog at =
  let it = Pvvm.Interp.create ~engine (load prog) in
  Pvvm.Snapshot.run_until it "main" [] ~at

(* kill points spread over the whole run, including the endpoints *)
let kill_points prog =
  let n = Int64.to_int (total_instrs prog) in
  List.sort_uniq compare
    [ 0; 1; 2; n / 7; n / 3; n / 2; (2 * n) + 1 - n; n - 2; n - 1; n ]
  |> List.filter (fun k -> k >= 0)

(* (1) all engines, same threshold -> byte-identical snapshots *)
let test_cross_engine_identity src () =
  let prog = compile src in
  List.iter
    (fun at ->
      let outcomes =
        List.map
          (fun e -> (e, checkpoint_at ~engine:e prog (Int64.of_int at)))
          engines
      in
      match outcomes with
      | (_, ref_outcome) :: rest ->
        List.iter
          (fun (e, o) ->
            match (ref_outcome, o) with
            | Pvvm.Snapshot.Completed _, Pvvm.Snapshot.Completed _ -> ()
            | Pvvm.Snapshot.Checkpointed s0, Pvvm.Snapshot.Checkpointed s1 ->
              Alcotest.(check string)
                (Printf.sprintf "snapshot bytes at %d (%s)" at
                   (Pvvm.Vm.engine_name e))
                (Pvir.Ckpt.encode s0) (Pvir.Ckpt.encode s1)
            | _ ->
              Alcotest.failf "engines disagree on completion at %d (%s)" at
                (Pvvm.Vm.engine_name e))
          rest
      | [] -> assert false)
    (kill_points prog)

(* (2) checkpoint on engine A, resume on engine B: observations equal
   the uninterrupted run for every (kill point, A, B) *)
let test_migrate_matrix src () =
  let prog = compile src in
  let reference, ref_mem = run_plain ~engine:Pvvm.Interp.Tree_walk prog in
  List.iter
    (fun at ->
      List.iter
        (fun src_engine ->
          match checkpoint_at ~engine:src_engine prog (Int64.of_int at) with
          | Pvvm.Snapshot.Completed _ -> ()
          | Pvvm.Snapshot.Checkpointed snap ->
            (* codec round-trip rides along on every case *)
            let bytes = Pvir.Ckpt.encode snap in
            let snap = Pvir.Ckpt.decode bytes in
            Alcotest.(check string) "round-trip is bit-identical" bytes
              (Pvir.Ckpt.encode snap);
            List.iter
              (fun dst_engine ->
                let it =
                  Pvvm.Snapshot.interp_for ~engine:dst_engine prog snap
                in
                let r =
                  match Pvvm.Snapshot.resume it snap with
                  | v -> Ok v
                  | exception Pvvm.Vm.Trap m -> Error m
                in
                let what =
                  Printf.sprintf "at %d, %s->%s" at
                    (Pvvm.Vm.engine_name src_engine)
                    (Pvvm.Vm.engine_name dst_engine)
                in
                check_obs what reference (obs_of it r);
                Alcotest.(check string) (what ^ ": memory") ref_mem
                  (Pvvm.Memory.contents it.Pvvm.Interp.img.Pvvm.Image.mem))
              engines)
        engines)
    (kill_points prog)

(* (2b) re-checkpointing a resumed run converges to the same answer:
   hop the kernel every ~60 instructions until it finishes *)
let test_repeated_migration () =
  let prog = compile prog_calls in
  let reference, _ = run_plain ~engine:Pvvm.Interp.Tree_walk prog in
  let engine_of i = List.nth engines (i mod 3) in
  let rec hop i outcome =
    match outcome with
    | Pvvm.Snapshot.Completed v, it -> (it, Ok v)
    | Pvvm.Snapshot.Checkpointed snap, _ ->
      if i > 200 then Alcotest.fail "migration did not converge";
      let it = Pvvm.Snapshot.interp_for ~engine:(engine_of i) prog snap in
      let at = Int64.add snap.Pvir.Ckpt.ck_instrs 60L in
      hop (i + 1) (Pvvm.Snapshot.resume_until it snap ~at, it)
  in
  let it0 = Pvvm.Interp.create ~engine:Pvvm.Interp.Threaded (load prog) in
  let it, r = hop 1 (Pvvm.Snapshot.run_until it0 "main" [] ~at:60L, it0) in
  check_obs "hopscotch" reference (obs_of it r)

(* (3a) validation: snapshots that do not belong are rejected *)
let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: restore accepted an invalid snapshot" what
  | exception Pvvm.Snapshot.Invalid _ -> ()

let grab_snapshot ?(at = 40L) prog =
  match
    Pvvm.Snapshot.run_until
      (Pvvm.Interp.create (load prog))
      "main" [] ~at
  with
  | Pvvm.Snapshot.Checkpointed s -> s
  | Pvvm.Snapshot.Completed _ -> Alcotest.fail "program too short to checkpoint"

let test_validation () =
  let prog = compile prog_calls in
  let other = compile prog_memory in
  let snap = grab_snapshot prog in
  expect_invalid "wrong program" (fun () ->
      Pvvm.Snapshot.resume (Pvvm.Snapshot.interp_for other snap) snap);
  expect_invalid "wrong memory size" (fun () ->
      let it = Pvvm.Interp.create (Pvvm.Image.load ~mem_size:(1 lsl 16) prog) in
      Pvvm.Snapshot.resume it snap);
  expect_invalid "wrong fuel budget" (fun () ->
      let it = Pvvm.Interp.create ~fuel:123_456L (load prog) in
      Pvvm.Snapshot.resume it snap);
  (* tampered frame linkage: pretend the innermost frame is mid-block *)
  expect_invalid "forged resume index" (fun () ->
      let forged =
        match snap.Pvir.Ckpt.ck_frames with
        | f :: rest ->
          { snap with Pvir.Ckpt.ck_frames = { f with Pvir.Ckpt.ck_ip = 1 } :: rest }
        | [] -> assert false
      in
      Pvvm.Snapshot.resume (Pvvm.Snapshot.interp_for prog forged) forged);
  (* tampered register type *)
  expect_invalid "forged register type" (fun () ->
      let forged =
        match snap.Pvir.Ckpt.ck_frames with
        | f :: rest ->
          let regs =
            List.map
              (fun (r, _) -> (r, Pvir.Value.Float (Pvir.Types.F64, 1.0)))
              f.Pvir.Ckpt.ck_regs
          in
          { snap with
            Pvir.Ckpt.ck_frames = { f with Pvir.Ckpt.ck_regs = regs } :: rest }
        | [] -> assert false
      in
      Pvvm.Snapshot.resume (Pvvm.Snapshot.interp_for prog forged) forged);
  (* the pristine snapshot still restores fine afterwards *)
  let it = Pvvm.Snapshot.interp_for prog snap in
  ignore (Pvvm.Snapshot.resume it snap)

(* (3b) exhaustive truncations: every proper prefix must be Corrupt *)
let test_truncations () =
  let prog = compile prog_calls in
  let bytes = Pvir.Ckpt.encode (grab_snapshot prog) in
  for n = 0 to String.length bytes - 1 do
    match Pvir.Ckpt.decode_result (String.sub bytes 0 n) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" n
  done

(* (3c) seeded byte flips: decode never crashes; if it still decodes,
   restore validation still never crashes *)
let test_byte_flips () =
  let prog = compile prog_calls in
  let snap = grab_snapshot prog in
  let bytes = Pvir.Ckpt.encode snap in
  let n = String.length bytes in
  let rng = ref 0x9E3779B97F4A7C15L in
  let next () =
    (* splitmix64 step, the repo's seeded-fuzz idiom *)
    rng := Int64.add !rng 0x9E3779B97F4A7C15L;
    let z = !rng in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let survivors = ref 0 in
  for _ = 1 to 4000 do
    let pos = Int64.to_int (Int64.unsigned_rem (next ()) (Int64.of_int n)) in
    let bit = Int64.to_int (Int64.unsigned_rem (next ()) 8L) in
    let b = Bytes.of_string bytes in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    match Pvir.Ckpt.decode_result (Bytes.to_string b) with
    | Error _ -> ()
    | Ok mutated -> (
      incr survivors;
      (* a decodable mutant must hit the restore wall cleanly *)
      let it = Pvvm.Interp.create (load prog) in
      match Pvvm.Snapshot.restore it mutated with
      | () -> () (* flipped a byte restore cannot distinguish (e.g. memory) *)
      | exception Pvvm.Snapshot.Invalid _ -> ())
  done;
  (* the fuzz is only meaningful if some mutants do get through decode *)
  if !survivors = 0 then Alcotest.fail "no byte flip survived decoding"

(* checkpoint never fires when the threshold is past the end *)
let test_completion_wins () =
  let prog = compile prog_memory in
  let n = total_instrs prog in
  List.iter
    (fun e ->
      match checkpoint_at ~engine:e prog (Int64.add n 1L) with
      | Pvvm.Snapshot.Completed _ -> ()
      | Pvvm.Snapshot.Checkpointed _ ->
        Alcotest.failf "%s checkpointed past the end" (Pvvm.Vm.engine_name e))
    engines

let () =
  Alcotest.run "ckpt"
    [
      ( "engine neutrality",
        [
          Alcotest.test_case "snapshots byte-identical (calls)" `Quick
            (test_cross_engine_identity prog_calls);
          Alcotest.test_case "snapshots byte-identical (memory)" `Quick
            (test_cross_engine_identity prog_memory);
        ] );
      ( "migration",
        [
          Alcotest.test_case "full engine matrix (calls)" `Quick
            (test_migrate_matrix prog_calls);
          Alcotest.test_case "full engine matrix (memory)" `Quick
            (test_migrate_matrix prog_memory);
          Alcotest.test_case "repeated re-checkpointing" `Quick
            test_repeated_migration;
          Alcotest.test_case "completion beats the threshold" `Quick
            test_completion_wins;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "restore validation" `Quick test_validation;
          Alcotest.test_case "exhaustive truncations" `Quick test_truncations;
          Alcotest.test_case "seeded byte flips" `Quick test_byte_flips;
        ] );
    ]
