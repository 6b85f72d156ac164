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
    the engine pair, e.g. [migrate-th->aot]. *)

open Pvir
module R = Pvinject.Inject

let engines =
  [| Pvvm.Interp.Tree_walk; Pvvm.Interp.Threaded; Pvvm.Interp.Aot |]

let engine_name = function
  | Pvvm.Interp.Tree_walk -> "tw"
  | Pvvm.Interp.Threaded -> "th"
  | Pvvm.Interp.Aot -> "aot"

(* one armed run: completed (or trapped) before the kill point fired, or
   checkpointed at the first safepoint at/past it *)
type armed =
  | Ran of Oracle.obs * int64 * int64 * int  (** obs, cycles, instrs, calls *)
  | Snapped of Ckpt.t

let observe (it : Pvvm.Interp.t) outcome : Oracle.obs =
  {
    Oracle.outcome;
    output = Pvvm.Interp.output it;
    globals = Oracle.read_globals it.Pvvm.Interp.img;
  }

let ran (it : Pvvm.Interp.t) outcome =
  let st = it.Pvvm.Interp.stats in
  Ran
    ( observe it outcome,
      st.Pvvm.Interp.cycles,
      st.Pvvm.Interp.instrs,
      st.Pvvm.Interp.calls )

let armed_run (prog : Prog.t) (engine : Pvvm.Interp.engine) ~at : armed =
  let img = Pvvm.Image.load (Prog.copy prog) in
  let it = Pvvm.Interp.create ~fuel:Oracle.fuel ~engine img in
  match Pvvm.Snapshot.run_until it "main" [] ~at with
  | Pvvm.Snapshot.Completed v -> ran it (Oracle.Finished v)
  | Pvvm.Snapshot.Checkpointed s -> Snapped s
  | exception Pvvm.Interp.Trap m -> ran it (Oracle.Trapped m)

(** Check one explicit scenario against an already-taken reference run.
    Exposed so a harness can sweep kill points exhaustively; most
    callers want {!check}. *)
let check_scenario (prog : Prog.t) (reference : Oracle.interp_run)
    (k : R.kill_scenario) : Oracle.mismatch list =
  let src = engines.(k.R.kill_src) and dst = engines.(k.R.kill_dst) in
  if src = Pvvm.Interp.Aot || dst = Pvvm.Interp.Aot then Pvaot.install ();
  let path =
    Printf.sprintf "migrate-%s->%s" (engine_name src) (engine_name dst)
  in
  let ms = ref [] in
  let add what detail = ms := !ms @ [ { Oracle.path; what; detail } ] in
  let check_accounting tag cycles instrs calls =
    if
      reference.Oracle.icycles <> cycles
      || reference.Oracle.iinstrs <> instrs
      || reference.Oracle.icalls <> calls
    then
      add "accounting"
        (Printf.sprintf
           "%s: reference %Ld cycles/%Ld instrs/%d calls vs %Ld/%Ld/%d" tag
           reference.Oracle.icycles reference.Oracle.iinstrs
           reference.Oracle.icalls cycles instrs calls)
  in
  (match armed_run prog src ~at:k.R.kill_at with
  | Ran (obs, cycles, instrs, calls) ->
    (* completion beat the kill point: the armed run must be the
       reference run, full stop *)
    ms :=
      !ms
      @ Oracle.compare_obs ~path:(path ^ "/uninterrupted")
          reference.Oracle.iobs obs;
    check_accounting "uninterrupted" cycles instrs calls
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
                (engine_name src) (engine_name dst) k.R.kill_at)
       | Ran _ ->
         add "snapshot-identity"
           (Printf.sprintf
              "engine %s completed where %s checkpointed (instr %Ld)"
              (engine_name dst) (engine_name src) k.R.kill_at));
    (* restore on the survivor and run to the end *)
    let t2 = Pvvm.Snapshot.interp_for ~engine:dst (Prog.copy prog) snap in
    (match
       match Pvvm.Snapshot.resume t2 snap with
       | v -> Ok (Oracle.Finished v)
       | exception Pvvm.Interp.Trap m -> Ok (Oracle.Trapped m)
       | exception Pvvm.Snapshot.Invalid m -> Error m
     with
    | Error m -> add "restore" ("own snapshot failed validation: " ^ m)
    | Ok outcome ->
      ms :=
        !ms @ Oracle.compare_obs ~path reference.Oracle.iobs (observe t2 outcome);
      let st = t2.Pvvm.Interp.stats in
      check_accounting "migrated" st.Pvvm.Interp.cycles st.Pvvm.Interp.instrs
        st.Pvvm.Interp.calls));
  !ms

(** [check ~kill_seed prog] — reference run, one seeded kill scenario,
    full contract.  Programs whose reference run retires no instructions
    have no safepoint to kill at and pass vacuously. *)
let check ~kill_seed (prog : Prog.t) : Oracle.mismatch list =
  let reference = Oracle.run_interp prog Pvvm.Interp.Tree_walk in
  let total = Int64.to_int reference.Oracle.iinstrs in
  if total < 1 then []
  else
    let r = R.rng kill_seed in
    let k = R.gen_kill r ~total ~n_engines:(Array.length engines) in
    check_scenario prog reference k

(** Fuzz campaign over generated programs: case [i] of a run seeded with
    [seed] draws a generator seed and a kill seed from one splitmix64
    stream, so any failure replays from [(seed, i)] alone.  Findings
    reuse {!Harness.finding} so reporting and reproducer dumping are
    shared with the differential fuzzer. *)
let campaign ?(shrink = false) ?shrink_budget ?(max_findings = 1)
    ?(on_progress = fun (_ : Harness.progress) -> ()) ~seed ~count () :
    Harness.finding list =
  let r = R.rng seed in
  let findings = ref [] in
  let case = ref 0 in
  while !case < count && List.length !findings < max_findings do
    let draw () =
      Int64.to_int (Int64.logand (R.next_int64 r) 0x3FFFFFFFFFFFFFFFL)
    in
    let gen_seed = draw () in
    let kill_seed = draw () in
    let prog = Gen.program ~seed:gen_seed in
    (match check ~kill_seed prog with
    | [] -> on_progress (Harness.Case_ok !case)
    | (m : Oracle.mismatch) :: _ ->
      let shrunk =
        if shrink then
          let pred q =
            List.exists
              (fun (m' : Oracle.mismatch) ->
                String.equal m'.Oracle.path m.Oracle.path
                && String.equal m'.Oracle.what m.Oracle.what)
              (check ~kill_seed q)
          in
          if pred prog then Some (Shrink.run ?budget:shrink_budget ~pred prog)
          else None
        else None
      in
      let f =
        {
          Harness.case = !case;
          gen_seed;
          stage = m.Oracle.path;
          what = m.Oracle.what;
          detail = m.Oracle.detail;
          prog;
          shrunk;
        }
      in
      findings := !findings @ [ f ];
      on_progress (Harness.Case_failed f));
    incr case
  done;
  !findings
