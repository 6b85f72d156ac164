(** Differential oracle for the sampling profiler (PR 8).

    Two laws, checked per generated program:

    - {e zero observer effect}: attaching a sampler must not change
      anything portable — result, intrinsic output, final globals — nor
      any accounting counter (cycles, instructions, calls).  The sample
      poll reads the cycle clock, it never charges it.  Checked on all
      three interpreter engines against an unprofiled run of the same
      engine.
    - {e cross-engine sample agreement}: the three engines take the
      {e same} samples.  Sampling is armed on the virtual cycle clock
      and polled at block entries, both part of the portable semantics,
      so the distilled {!Pvir.Profdata} encodings of the three profiled
      runs must be byte-identical.  This is a much stronger oracle than
      comparing rankings: one stray cycle or one skipped poll anywhere
      shows up as a byte diff.

    Runs are {!Oracle.run_interp}'s — fresh image per run, same fuel
    ceiling, the one trap-catching path — and findings are its
    path/what/detail mismatches. *)

open Pvir

(** Deliberately far from the engines' default (32768) and small relative
    to generated-program cycle counts, so corpus programs take many
    samples and the cross-engine byte comparison has real content. *)
let default_period = 64L

type profiled_run = {
  prun : Oracle.interp_run;
  pdata : string;  (** canonical [Profdata] encoding of the sample set *)
  psamples : int;
}

let run_profiled ?(period = default_period) (prog : Prog.t)
    (engine : Pvvm.Vm.engine) : profiled_run =
  let sampler = Pvprof.create ~period () in
  let prun = Oracle.run_interp ~sampler prog engine in
  {
    prun;
    pdata = Profdata.encode (Pvprof.to_data sampler);
    psamples = Pvprof.samples_taken sampler;
  }

let engines =
  List.map (fun e -> ("profiled-" ^ Pvvm.Vm.tag e, e)) Pvvm.Vm.engines

(** Run the profiled-vs-unprofiled matrix on [prog].  Returns the
    mismatches (empty = all laws hold). *)
let check ?(period = default_period) (prog : Prog.t) : Oracle.mismatch list =
  Pvaot.install ();
  let ms = ref [] in
  let add l = ms := !ms @ l in
  let profiled =
    List.map
      (fun (path, engine) ->
        let plain = Oracle.run_interp prog engine in
        let prof = run_profiled ~period prog engine in
        add (Oracle.compare_obs ~path plain.Oracle.iobs prof.prun.Oracle.iobs);
        add
          (Oracle.accounting ~what:"observer-effect" ~path ~third:"calls"
             ("plain", Oracle.icounts plain)
             ("profiled", Oracle.icounts prof.prun));
        (path, prof))
      engines
  in
  (match profiled with
  | (ref_path, ref_run) :: rest ->
    List.iter
      (fun (path, run) ->
        if not (String.equal ref_run.pdata run.pdata) then
          add
            [
              {
                Oracle.path;
                what = "sample-stream";
                detail =
                  Printf.sprintf
                    "%s took %d samples (%d profile bytes), %s took %d (%d \
                     bytes) and the encodings differ"
                    ref_path ref_run.psamples
                    (String.length ref_run.pdata)
                    path run.psamples
                    (String.length run.pdata);
              };
            ])
      rest
  | [] -> ());
  !ms
