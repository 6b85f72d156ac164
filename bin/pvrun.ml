(* pvrun — the on-device half: load PVIR bytecode, JIT (or interpret) it
   for a simulated target, run a function, and report cycles.

   Arguments after the entry name are parsed against the entry function's
   parameter types (integers and floats). *)

open Cmdliner

let mode_conv =
  let parse s =
    match Core.Cli.mode_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Core.Splitc.mode_name m) in
  Arg.conv (parse, print)

let target_conv =
  let parse s =
    match Pvmach.Machine.find s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown target %s (available: %s)" s
             (String.concat ", "
                (List.map (fun (m : Pvmach.Machine.t) -> m.Pvmach.Machine.name)
                   Pvmach.Machine.all))))
  in
  let print ppf (m : Pvmach.Machine.t) =
    Format.pp_print_string ppf m.Pvmach.Machine.name
  in
  Arg.conv (parse, print)

(* A bad command line is a *user* error (exit 2), never an uncaught
   exception: every failure path raises [Usage]. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

let parse_args (fn : Pvir.Func.t) (raw : string list) : Pvir.Value.t list =
  let tys = List.map (fun r -> Pvir.Func.reg_type fn r) fn.Pvir.Func.params in
  if List.length tys <> List.length raw then
    usage "%s expects %d arguments, got %d" fn.Pvir.Func.name
      (List.length tys) (List.length raw);
  let num of_string kind s =
    match of_string s with
    | v -> v
    | exception Failure _ -> usage "argument %s is not a valid %s" s kind
  in
  List.map2
    (fun ty s ->
      match ty with
      | Pvir.Types.Scalar sc when Pvir.Types.is_float_scalar sc ->
        Pvir.Value.float sc (num float_of_string "float" s)
      | Pvir.Types.Scalar sc -> Pvir.Value.int sc (num Int64.of_string "integer" s)
      | Pvir.Types.Ptr _ -> Pvir.Value.i64 (num Int64.of_string "integer" s)
      | Pvir.Types.Vector _ -> usage "vector parameters not supported")
    tys raw

(* results print in human-friendly notation (Value.to_string uses hex
   floats for exactness) *)
let result_to_string (v : Pvir.Value.t) =
  match v with
  | Pvir.Value.Float (_, x) -> Printf.sprintf "%g" x
  | v -> Pvir.Value.to_string v

(* Engine selection is deliberately validated here, not in a cmdliner
   converter: a bad engine name must be a Splitc usage error (exit 2),
   with the message listing the valid spellings. *)
let parse_engine name =
  match Core.Cli.engine_of_string name with
  | Ok e -> e
  | Error msg -> usage "%s" msg

(* The single-device schedule: one core, one kernel — rendered through the
   same exporter the KPN mapper uses, so every pvrun trace carries a
   scheduler track alongside the pipeline tracks. *)
let emit_schedule tr (target : Pvmach.Machine.t) entry cycles =
  let core = { Pvsched.Mapper.cname = target.Pvmach.Machine.name; machine = target } in
  let platform = { Pvsched.Mapper.cores = [ core ]; transfer_cost = 0 } in
  let ev =
    {
      Pvsched.Mapper.se_proc = entry;
      se_firing = 0;
      se_core = core.Pvsched.Mapper.cname;
      se_start = 0L;
      se_end = cycles;
      se_remapped = false;
      se_migrated = false;
    }
  in
  Pvsched.Mapper.emit_trace platform [] [ ev ] tr

let dump_telemetry ~trace_out ~tr ~metrics ~want_metrics ~metrics_out ~ledger =
  (match (trace_out, tr) with
  | Some path, Some tr -> Pvtrace.Export.to_file ?metrics ?ledger tr path
  | _ -> ());
  (match metrics with
  | Some m when want_metrics -> print_string (Pvtrace.Metrics.dump m)
  | _ -> ());
  (match (metrics_out, metrics) with
  | Some path, Some m ->
    let oc = open_out path in
    output_string oc (Pvtrace.Metrics.to_prom m);
    close_out oc
  | _ -> ());
  match ledger with
  | Some l when Pvtrace.Ledger.count l > 0 ->
    Printf.printf "degradations: %d\n%s" (Pvtrace.Ledger.count l)
      (Pvtrace.Ledger.to_string l)
  | _ -> ()

(* Exit codes follow the documented taxonomy (Core.Splitc.exit_code):
   0 ok, 2 usage, 3 decode, 4 verify, 5 link, 6 jit, 7 trap, 8 resource
   limit, 9 i/o — and never a raw backtrace, whatever the input bytes. *)
let run input target mode interp engine entry raw_args trace_out want_metrics
    metrics_out want_profile profile_out sample_period lanes regs globals
    annot_depth ckpt_out ckpt_at restore_from migrate_at migrate_to =
  let limits = Core.Cli.build_limits ?lanes ?regs ?globals ?annot_depth () in
  let tr =
    match trace_out with
    | None -> None
    | Some _ ->
      let tr = Pvtrace.Trace.create () in
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_frontend "frontend";
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_offline "offline";
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_distribute "distribute";
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_jit "jit";
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_vm "vm";
      Pvtrace.Trace.name_track tr Pvtrace.Trace.track_ledger "degradations";
      Some tr
  in
  let metrics =
    if want_metrics || metrics_out <> None then
      Some (Pvtrace.Metrics.create ())
    else None
  in
  let ledger =
    match (tr, metrics) with
    | None, None -> None
    | _ -> Some (Pvtrace.Ledger.create ())
  in
  match
    Core.Splitc.guard (fun () ->
        let engine = parse_engine engine in
        (* checkpoint / restore / migrate are VM-level operations: they
           capture and resume interpreter state, so they require --interp *)
        let vm_flags =
          ckpt_out <> None || ckpt_at <> None || restore_from <> None
          || migrate_at <> None || migrate_to <> None
        in
        if vm_flags && not interp then
          usage "--checkpoint/--restore/--migrate-at require --interp";
        (* sampling is a VM concern too: it polls the interpreter's
           block-entry safepoints, which the JIT'd simulator has not *)
        let want_profile = want_profile || profile_out <> None in
        if want_profile && not interp then
          usage "--profile/--profile-out require --interp";
        if Int64.compare sample_period 1L < 0 then
          usage "--sample-period must be >= 1";
        let sampler =
          if want_profile then Some (Pvprof.create ~period:sample_period ())
          else None
        in
        (match (ckpt_out, ckpt_at) with
        | Some _, None -> usage "--checkpoint requires --ckpt-at N"
        | None, Some _ -> usage "--ckpt-at requires --checkpoint FILE"
        | _ -> ());
        if restore_from <> None && (ckpt_out <> None || migrate_at <> None)
        then
          usage "--restore cannot be combined with --checkpoint or --migrate-at";
        if migrate_at <> None && ckpt_out <> None then
          usage "--migrate-at checkpoints in-process; drop --checkpoint";
        if migrate_to <> None && migrate_at = None then
          usage "--migrate-to requires --migrate-at N";
        let bc = Core.Cli.read_file input in
        let prog = Pvir.Serial.decode ~limits bc in
        if interp then begin
          let profile =
            match metrics with Some _ -> Some (Pvvm.Profile.create ()) | None -> None
          in
          let finish it result =
            print_string (Pvvm.Interp.output it);
            (match result with
            | Some v -> Printf.printf "result: %s\n" (result_to_string v)
            | None -> ());
            Printf.printf "interpreted: %Ld cycles\n" (Pvvm.Interp.cycles it);
            Option.iter
              (fun m ->
                Pvvm.Interp.observe_metrics it m;
                Option.iter (fun p -> Pvvm.Profile.observe_mix p prog m) profile)
              metrics;
            Option.iter
              (fun s ->
                Printf.printf "sampled: %d samples (period %Ld cycles)\n"
                  (Pvprof.samples_taken s) (Pvprof.period s);
                print_string (Pvprof.ranking_table s);
                Option.iter (fun m -> Pvprof.observe_metrics s m) metrics;
                Option.iter (fun tr -> Pvprof.to_trace s tr) tr;
                Option.iter
                  (fun path -> Pvir.Profdata.to_file path (Pvprof.to_data s))
                  profile_out)
              sampler;
            Option.iter
              (fun tr -> emit_schedule tr target entry (Pvvm.Interp.cycles it))
              tr
          in
          let restore_and_resume dst snap =
            if dst = Pvvm.Interp.Aot then Pvaot.install ?ledger ();
            let it = Pvvm.Snapshot.interp_for ~engine:dst ?tr prog snap in
            Option.iter (Pvvm.Interp.set_sampler it) sampler;
            finish it (Pvvm.Snapshot.resume it snap)
          in
          match restore_from with
          | Some path ->
            (* entry and arguments live inside the snapshot's suspended
               call stack; the command line provides only the program *)
            let snap = Pvir.Ckpt.of_file path in
            Printf.printf "restored %s: checkpoint at %Ld retired instructions\n"
              path snap.Pvir.Ckpt.ck_instrs;
            restore_and_resume engine snap
          | None -> (
            let fn =
              match Pvir.Prog.find_func prog entry with
              | Some fn -> fn
              | None -> usage "no function %s in %s" entry input
            in
            let args = parse_args fn raw_args in
            let it =
              Core.Splitc.interpret ~limits ~engine ?profile ?sampler
                ?tr ?ledger bc
            in
            match (ckpt_at, migrate_at) with
            | None, None -> finish it (Pvvm.Interp.run it entry args)
            | Some at, None -> (
              let out = Option.get ckpt_out in
              match Pvvm.Snapshot.run_until it entry args ~at with
              | Pvvm.Snapshot.Completed v ->
                Printf.printf
                  "completed before instruction %Ld; no checkpoint written\n"
                  at;
                finish it v
              | Pvvm.Snapshot.Checkpointed snap ->
                Pvir.Ckpt.to_file out snap;
                Printf.printf
                  "checkpointed at %Ld retired instructions -> %s (%d bytes)\n"
                  snap.Pvir.Ckpt.ck_instrs out
                  (String.length (Pvir.Ckpt.encode snap)))
            | None, Some at -> (
              match Pvvm.Snapshot.run_until it entry args ~at with
              | Pvvm.Snapshot.Completed v ->
                Printf.printf
                  "completed before instruction %Ld; nothing to migrate\n" at;
                finish it v
              | Pvvm.Snapshot.Checkpointed snap ->
                (* in-process migration: push the snapshot through the
                   codec exactly as a real migration channel would, then
                   resume on the target engine *)
                let bytes = Pvir.Ckpt.encode snap in
                let snap = Pvir.Ckpt.decode bytes in
                let dst =
                  match migrate_to with
                  | None -> engine
                  | Some name -> parse_engine name
                in
                Printf.printf
                  "migrated at %Ld retired instructions (%d-byte snapshot)\n"
                  snap.Pvir.Ckpt.ck_instrs (String.length bytes);
                restore_and_resume dst snap)
            | Some _, Some _ -> assert false (* rejected above *))
        end
        else begin
          let fn =
            match Pvir.Prog.find_func prog entry with
            | Some fn -> fn
            | None -> usage "no function %s in %s" entry input
          in
          let args = parse_args fn raw_args in
          let on =
            Core.Splitc.online ~mode ~machine:target ~limits
              ~engine ?tr ?metrics ?ledger bc
          in
          let result = Pvvm.Sim.run on.Core.Splitc.sim entry args in
          print_string (Pvvm.Sim.output on.Core.Splitc.sim);
          (match result with
          | Some v -> Printf.printf "result: %s\n" (result_to_string v)
          | None -> ());
          Printf.printf "%s: %Ld cycles (online compile work: %d units)\n"
            target.Pvmach.Machine.name
            (Pvvm.Sim.cycles on.Core.Splitc.sim)
            (Pvir.Account.total on.Core.Splitc.online_work);
          Option.iter
            (fun m -> Pvvm.Sim.observe_metrics on.Core.Splitc.sim m)
            metrics;
          Option.iter
            (fun tr ->
              emit_schedule tr target entry
                (Pvvm.Sim.cycles on.Core.Splitc.sim))
            tr
        end;
        dump_telemetry ~trace_out ~tr ~metrics ~want_metrics ~metrics_out
          ~ledger)
  with
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "%s\n" (Core.Splitc.error_message e);
    Core.Splitc.exit_code e
  | exception Usage m ->
    Printf.eprintf "usage error: %s\n" m;
    2

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.pvir" ~doc:"Bytecode file.")

let entry_arg =
  Arg.(value & opt string "main" & info [ "e"; "entry" ] ~docv:"FUNC" ~doc:"Function to run.")

let args_arg =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Arguments for the entry function.")

let target_arg =
  Arg.(value & opt target_conv Pvmach.Machine.x86ish
       & info [ "t"; "target" ] ~docv:"TARGET" ~doc:"Simulated target machine.")

let mode_arg =
  Arg.(value & opt mode_conv Core.Splitc.Split
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"Online compilation mode.")

let interp_arg =
  Arg.(value & flag & info [ "interp" ] ~doc:"Interpret instead of JIT compiling.")

let engine_arg =
  Arg.(value & opt string "threaded"
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:(Printf.sprintf
                   "Host execution engine: %s. Simulated cycle counts do \
                    not depend on it; aot compiles the guest program to \
                    native code and falls back to threaded when no OCaml \
                    toolchain is available."
                   Core.Cli.engine_names))

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON timeline of the whole \
                 pipeline (load it in Perfetto or chrome://tracing). \
                 Timestamps are deterministic virtual time: compile work \
                 units for offline/JIT phases, simulated cycles for \
                 execution.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the telemetry metrics registry (work breakdown, \
                 VM counters, instruction mix) after the run.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the telemetry metrics registry to $(docv) in the \
                 Prometheus text exposition format (scrapeable; round-trips \
                 through Metrics.of_prom).  Implies metrics collection \
                 without the stdout dump of --metrics.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Attach the deterministic sampling profiler: one sample \
                 per --sample-period virtual cycles, taken at block-entry \
                 safepoints, identical on every engine.  Prints the \
                 hot-block ranking after the run.  Requires --interp.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Write the sampled profile to $(docv) in the binary PVPF \
                 codec, ready for $(b,pvsc --profile-in) to fold back into \
                 hotness annotations.  Implies --profile.")

let sample_period_arg =
  Arg.(value & opt int64 Pvprof.default_period
       & info [ "sample-period" ] ~docv:"N"
           ~doc:"Sampling period for --profile, in virtual cycles \
                 (default 32768).")

let limit_lanes_arg =
  Arg.(value & opt (some int) None
       & info [ "limit-lanes" ] ~docv:"N"
           ~doc:"Decode limit: maximum vector lanes per type or value.")

let limit_regs_arg =
  Arg.(value & opt (some int) None
       & info [ "limit-regs" ] ~docv:"N"
           ~doc:"Decode limit: maximum virtual registers per function.")

let limit_globals_arg =
  Arg.(value & opt (some int) None
       & info [ "limit-globals" ] ~docv:"N"
           ~doc:"Decode limit: maximum elements per global array.")

let limit_annot_depth_arg =
  Arg.(value & opt (some int) None
       & info [ "limit-annot-depth" ] ~docv:"N"
           ~doc:"Decode limit: maximum nesting of list-valued annotations.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write the snapshot captured at the --ckpt-at safepoint \
                 to $(docv) and stop.  Requires --interp and --ckpt-at.")

let ckpt_at_arg =
  Arg.(value & opt (some int64) None
       & info [ "ckpt-at" ] ~docv:"N"
           ~doc:"Arm a checkpoint request at retired-instruction count \
                 $(docv); the snapshot is taken at the first safepoint \
                 (block boundary) at or after it.")

let restore_arg =
  Arg.(value & opt (some file) None
       & info [ "restore" ] ~docv:"FILE"
           ~doc:"Restore a snapshot previously written by --checkpoint \
                 and resume it to completion.  The bytecode argument must \
                 be the program the snapshot was taken from (the snapshot \
                 names it by digest); entry and arguments come from the \
                 snapshot's suspended call stack.  Requires --interp.")

let migrate_at_arg =
  Arg.(value & opt (some int64) None
       & info [ "migrate-at" ] ~docv:"N"
           ~doc:"Live-migrate in-process: checkpoint at the first \
                 safepoint at or after retired-instruction count $(docv), \
                 round-trip the snapshot through the binary codec, then \
                 restore and resume it on the --migrate-to engine.  \
                 Requires --interp.")

let migrate_to_arg =
  Arg.(value & opt (some string) None
       & info [ "migrate-to" ] ~docv:"ENGINE"
           ~doc:"Destination engine for --migrate-at (default: the \
                 --engine the run started on).")

let cmd =
  let doc = "online VM: JIT and run PVIR bytecode on a simulated target" in
  Cmd.v
    (Cmd.info "pvrun" ~doc)
    Term.(
      const run $ input_arg $ target_arg $ mode_arg $ interp_arg $ engine_arg
      $ entry_arg $ args_arg $ trace_arg $ metrics_arg $ metrics_out_arg
      $ profile_arg $ profile_out_arg $ sample_period_arg $ limit_lanes_arg
      $ limit_regs_arg $ limit_globals_arg $ limit_annot_depth_arg
      $ checkpoint_arg $ ckpt_at_arg $ restore_arg $ migrate_at_arg
      $ migrate_to_arg)

let () = exit (Cmd.eval' cmd)
