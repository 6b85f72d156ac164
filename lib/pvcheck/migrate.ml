(** Migration oracle: kill an accelerator at a random safepoint and
    prove the migrated run indistinguishable from the unmigrated one.

    One scenario is [(program, kill point, source engine, target
    engine)], the kill drawn by {!Pvinject.Inject.gen_kill} from the
    reference run's retired-instruction count.  The contract checked:

    - the source engine, armed at the kill point, either completes first
      (observation- and accounting-identical to the reference) or
      deposits a snapshot at the next safepoint;
    - that snapshot survives an encode/decode round-trip byte-for-byte
      (it crosses the migration channel as untrusted bytes);
    - the target engine armed at the same point captures the {e same
      bytes} — safepoint state is engine-neutral;
    - restoring the snapshot into a fresh VM under the target engine and
      resuming yields the reference observation — result, output,
      globals — and bit-identical cycle/instruction/call accounting, fuel
      exhaustion included.

    Any violation is reported as an {!Oracle.mismatch} whose path names
    the engine pair by {!Pvvm.Vm.tag}, e.g. [migrate-th->aot].  Runs go
    through the oracle's one run-and-observe path
    ({!Oracle.observe_interp}). *)

open Pvir
module R = Pvinject.Inject

let engines = Array.of_list Pvvm.Vm.engines

(* one armed run: completed (or trapped) before the kill point fired, or
   checkpointed at the first safepoint at/past it *)
type armed = Ran of Oracle.interp_run | Snapped of Ckpt.t

let armed_run (prog : Prog.t) (engine : Pvvm.Vm.engine) ~at : armed =
  let it = Oracle.interp prog engine in
  Pvvm.Interp.arm_checkpoint it ~at;
  match Oracle.observe_interp it (fun () -> Pvvm.Interp.run it "main" []) with
  | r -> Ran r
  | exception Pvvm.Interp.Checkpointed ->
    Snapped (Option.get (Pvvm.Interp.take_snapshot it))

(** Check one explicit scenario against an already-taken reference run.
    Exposed so a harness can sweep kill points exhaustively; most
    callers want {!check}. *)
let check_scenario (prog : Prog.t) (reference : Oracle.interp_run)
    (k : R.kill_scenario) : Oracle.mismatch list =
  let src = engines.(k.R.kill_src) and dst = engines.(k.R.kill_dst) in
  if src = Pvvm.Vm.Aot || dst = Pvvm.Vm.Aot then Pvaot.install ();
  let path =
    Printf.sprintf "migrate-%s->%s" (Pvvm.Vm.tag src) (Pvvm.Vm.tag dst)
  in
  let ms = ref [] in
  let add what detail = ms := !ms @ [ { Oracle.path; what; detail } ] in
  let check_accounting tag (r : Oracle.interp_run) =
    ms :=
      !ms
      @ Oracle.accounting ~path ~third:"calls"
          ("reference", Oracle.icounts reference)
          (tag, Oracle.icounts r)
  in
  (match armed_run prog src ~at:k.R.kill_at with
  | Ran r ->
    (* completion beat the kill point: the armed run must be the
       reference run, full stop *)
    ms :=
      !ms
      @ Oracle.compare_obs ~path:(path ^ "/uninterrupted")
          reference.Oracle.iobs r.Oracle.iobs;
    check_accounting "uninterrupted" r
  | Snapped snap ->
    let bytes = Ckpt.encode snap in
    (* the snapshot crosses the migration channel as bytes: it must
       round-trip exactly *)
    (match Ckpt.decode_result bytes with
    | Error c ->
      add "codec" ("own snapshot rejected: " ^ Serial.corruption_to_string c)
    | Ok snap' ->
      if not (String.equal (Ckpt.encode snap') bytes) then
        add "codec" "decode/re-encode changed the snapshot bytes");
    (* safepoint state is engine-neutral: the target engine armed at the
       same threshold captures byte-identical state *)
    (if src <> dst then
       match armed_run prog dst ~at:k.R.kill_at with
       | Snapped snap_dst ->
         if not (String.equal bytes (Ckpt.encode snap_dst)) then
           add "snapshot-identity"
             (Printf.sprintf
                "engines %s and %s captured different snapshots at instr %Ld"
                (Pvvm.Vm.tag src) (Pvvm.Vm.tag dst) k.R.kill_at)
       | Ran _ ->
         add "snapshot-identity"
           (Printf.sprintf
              "engine %s completed where %s checkpointed (instr %Ld)"
              (Pvvm.Vm.tag dst) (Pvvm.Vm.tag src) k.R.kill_at));
    (* restore on the survivor and run to the end *)
    let t2 = Pvvm.Snapshot.interp_for ~engine:dst (Prog.copy prog) snap in
    (match
       Oracle.observe_interp t2 (fun () -> Pvvm.Snapshot.resume t2 snap)
     with
    | exception Pvvm.Snapshot.Invalid m ->
      add "restore" ("own snapshot failed validation: " ^ m)
    | r ->
      ms := !ms @ Oracle.compare_obs ~path reference.Oracle.iobs r.Oracle.iobs;
      check_accounting "migrated" r));
  !ms

(** [check ~kill_seed prog] — reference run, one seeded kill scenario,
    full contract.  Programs whose reference run retires no instructions
    have no safepoint to kill at and pass vacuously. *)
let check ~kill_seed (prog : Prog.t) : Oracle.mismatch list =
  let reference = Oracle.run_interp prog Pvvm.Vm.Tree_walk in
  let total = Int64.to_int reference.Oracle.iinstrs in
  if total < 1 then []
  else
    let r = R.rng kill_seed in
    let k = R.gen_kill r ~total ~n_engines:(Array.length engines) in
    check_scenario prog reference k

(** Fuzz campaign over generated programs: {!Harness.run} with this
    oracle as the per-case check.  Case [i] of a run seeded with [seed]
    draws a generator seed and then a kill seed from one splitmix64
    stream, so any failure replays from [(seed, i)] alone. *)
let campaign ?shrink ?shrink_budget ?max_findings ?on_progress ~seed ~count ()
    : Harness.finding list =
  let check draw =
    let kill_seed = draw () in
    fun ~stage:_ q -> List.map Harness.of_mismatch (check ~kill_seed q)
  in
  Harness.run ~check ?shrink ?shrink_budget ?max_findings ?on_progress ~seed
    ~count ()
