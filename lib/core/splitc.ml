(** End-to-end driver for the split-compilation toolchain — the public
    face of the library.

    The paper's Figure 1 names two coordinated compilers: a
    µproc-independent offline compiler emitting annotated bytecode, and a
    µproc-specific online (JIT) compiler on the device.  {!offline},
    {!distribute} and {!online} are those arrows; {!run_source} strings
    them together for one-call use.

    Three compilation modes quantify the design space (experiment E2):

    - {!Traditional_deferred}: the pre-split status quo — the offline step
      drops target-dependent optimizations (no vectorization, no
      allocation hints); the online step is cheap but the code is scalar.
    - {!Split}: the paper's proposal — expensive analyses run offline and
      ship as portable vector builtins + annotations; the online step is
      as cheap as the traditional one but reaches aggressive-quality code.
    - {!Pure_online}: the upper bound a JIT could reach with an unbounded
      budget — every expensive pass runs on the device. *)

type mode = Traditional_deferred | Split | Pure_online

let mode_name = function
  | Traditional_deferred -> "traditional"
  | Split -> "split"
  | Pure_online -> "pure-online"

let all_modes = [ Traditional_deferred; Split; Pure_online ]

(** Result of the offline step: optimized bytecode plus the work spent. *)
type offline_result = {
  prog : Pvir.Prog.t;
  offline_work : Pvir.Account.t;
  vectorized : (string * Pvopt.Vectorize.result) list;
}

(** Result of the online step: a loaded simulator plus online work. *)
type online_result = {
  sim : Pvvm.Sim.t;
  online_work : Pvir.Account.t;
  jit : Pvjit.Jit.report;
  img : Pvvm.Image.t;
}

(* Drive the trace's virtual clock from the work accountant of the
   current compilation phase: offline spans are timestamped by offline
   work units, online spans by online work units.  Bit-identical across
   runs and hosts. *)
let install_clock tr (account : Pvir.Account.t) =
  match tr with
  | None -> ()
  | Some tr ->
    Pvtrace.Trace.set_clock tr (fun () ->
        Int64.of_int (Pvir.Account.total account))

(** Compile MiniC source to (unoptimized, verified) bytecode. *)
let frontend ?(name = "program") ?tr (src : string) : Pvir.Prog.t =
  Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_frontend
    ~args:[ ("name", name) ]
    ~cat:"frontend" "frontend"
    (fun () -> Minic.Lower.compile ~name src)

(** Run the offline half of the chosen mode on bytecode [p] (in place on a
    copy; the input program is not modified).  With telemetry sinks
    attached, every pass becomes a span on the offline track (virtual
    clock = offline work units) and the per-pass work breakdown lands in
    [metrics] under the [offline.] prefix. *)
let offline ?(mode = Split) ?tr ?metrics (p : Pvir.Prog.t) : offline_result =
  let p = Pvir.Prog.copy p in
  let account = Pvir.Account.create () in
  install_clock tr account;
  let span name f =
    Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_offline
      ~args:[ ("mode", mode_name mode) ]
      ~cat:"offline" name f
  in
  let vectorized =
    span ("offline:" ^ mode_name mode) (fun () ->
        match mode with
        | Traditional_deferred ->
          Pvopt.Passes.offline_traditional ~account ?tr p;
          []
        | Split -> Pvopt.Passes.offline_split ~account ?tr p
        | Pure_online ->
          (* nothing happens offline beyond verification *)
          Pvir.Verify.program p;
          [])
  in
  Option.iter (Pvir.Account.to_metrics ~prefix:"offline" account) metrics;
  { prog = p; offline_work = account; vectorized }

(** Serialize to the distribution format (what ships to devices). *)
let distribute ?tr (r : offline_result) : string =
  Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_distribute
    ~cat:"distribute" "serialize"
    (fun () -> Pvir.Serial.encode r.prog)

(* absorb the JIT's per-function verdicts and code-size totals *)
let jit_metrics (m : Pvtrace.Metrics.t) (jit : Pvjit.Jit.report) =
  List.iter
    (fun (fr : Pvjit.Jit.func_report) ->
      Pvtrace.Metrics.inci m "online.jit.funcs" 1;
      Pvtrace.Metrics.inci m "online.jit.native_size" fr.mir_size;
      Pvtrace.Metrics.inci m
        ("online.jit.annot_"
        ^ Pvjit.Annot_check.status_name fr.annot_status)
        1)
    jit.Pvjit.Jit.funcs

(** The on-device step: decode, verify, load, optimize (per mode), and JIT
    for [machine].  [bytecode] is the string produced by {!distribute}.
    [limits] bounds the untrusted decode (default
    {!Pvir.Serial.default_limits}).  With telemetry sinks attached the
    decode/load/JIT phases become spans (virtual clock = online work
    units), JIT degradations land in [ledger], and the returned simulator
    carries [tr] so its runs appear on the VM track. *)
let online ?(mode = Split) ~(machine : Pvmach.Machine.t) ?(mem_size = 1 lsl 20)
    ?alloc_limit ?(engine = Pvvm.Sim.Threaded) ?limits ?tr ?metrics ?ledger
    (bytecode : string) : online_result =
  let account = Pvir.Account.create () in
  install_clock tr account;
  let span ~tid name f = Pvtrace.Trace.with_span tr ~tid ~cat:"online" name f in
  let p =
    span ~tid:Pvtrace.Trace.track_distribute "decode" (fun () ->
        Pvir.Serial.decode ?limits bytecode)
  in
  let p, hints =
    match mode with
    | Traditional_deferred -> (p, Pvjit.Jit.Hints_none)
    | Split -> (p, Pvjit.Jit.Hints_annotation)
    | Pure_online ->
      (* the JIT must redo everything itself, at online prices *)
      ignore (Pvopt.Passes.online_full ~account ?tr p);
      (p, Pvjit.Jit.Hints_recompute)
  in
  let img =
    span ~tid:Pvtrace.Trace.track_jit "load" (fun () ->
        Pvvm.Image.load ~mem_size ?alloc_limit p)
  in
  let sim, jit =
    span ~tid:Pvtrace.Trace.track_jit "jit" (fun () ->
        Pvjit.Jit.compile_program ~account ?tr ?ledger ~machine ~hints img)
  in
  if engine = Pvvm.Sim.Aot then Pvaot.install ?ledger ();
  sim.Pvvm.Sim.engine <- engine;
  Pvvm.Sim.set_trace sim tr;
  Option.iter
    (fun m ->
      Pvir.Account.to_metrics ~prefix:"online" account m;
      jit_metrics m jit)
    metrics;
  { sim; online_work = account; jit; img }

(** Interpret the bytecode instead of JIT-compiling it (the baseline
    execution mode of early virtual machines).  The returned interpreter
    carries [tr], [profile] and [sampler], so its runs appear on the VM
    track and feed the instruction-mix metrics or the sampling
    profiler. *)
let interpret ?(mem_size = 1 lsl 20) ?alloc_limit
    ?(engine = Pvvm.Interp.Threaded) ?limits ?profile ?sampler ?tr ?ledger
    (bytecode : string) : Pvvm.Interp.t =
  let p =
    Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_distribute
      ~cat:"online" "decode"
      (fun () -> Pvir.Serial.decode ?limits bytecode)
  in
  if engine = Pvvm.Interp.Aot then Pvaot.install ?ledger ();
  let img = Pvvm.Image.load ~mem_size ?alloc_limit p in
  Pvvm.Interp.create ~engine ?profile ?sampler ?tr img

(** One call from source text to a device-resident simulator. *)
let run_source ?(mode = Split) ~(machine : Pvmach.Machine.t) ?mem_size ?engine
    ?limits ?tr ?metrics ?ledger (src : string) :
    offline_result * online_result =
  let off = offline ~mode ?tr ?metrics (frontend ?tr src) in
  let on =
    online ~mode ~machine ?mem_size ?engine ?limits ?tr ?metrics ?ledger
      (distribute ?tr off)
  in
  (off, on)

(** {1 Error taxonomy}

    Every failure a distribution pipeline can hit, as one typed sum.  The
    library layers raise their own exceptions (decoder {!Pvir.Serial.Corrupt},
    verifier {!Pvir.Verify.Error}, VM {!Pvvm.Vm.Trap}, ...); the command-line
    tools want a single vocabulary with stable process exit codes, and they
    want it *total* — no raw exception (and no backtrace) may escape to an
    end user on any input, however hostile. *)

type error =
  | Frontend_error of string  (** MiniC lex/parse/type error (exit 2) *)
  | Decode_error of Pvir.Serial.corruption
      (** malformed distribution bytes (exit 3) *)
  | Verify_error of string  (** well-formed but ill-typed PVIR (exit 4) *)
  | Link_error of string  (** module linking failed (exit 5) *)
  | Jit_error of string  (** online compilation failed (exit 6) *)
  | Runtime_trap of string  (** guest program trapped (exit 7) *)
  | Resource_limit of string
      (** fuel or memory budget exhausted (exit 8) *)
  | Io_error of string  (** host file system error (exit 9) *)

let error_message = function
  | Frontend_error m -> Printf.sprintf "frontend error: %s" m
  | Decode_error c ->
    Printf.sprintf "corrupt bytecode: %s" (Pvir.Serial.corruption_to_string c)
  | Verify_error m -> Printf.sprintf "verification failed: %s" m
  | Link_error m -> Printf.sprintf "link error: %s" m
  | Jit_error m -> Printf.sprintf "online compilation error: %s" m
  | Runtime_trap m -> Printf.sprintf "trap: %s" m
  | Resource_limit m -> Printf.sprintf "resource limit: %s" m
  | Io_error m -> Printf.sprintf "i/o error: %s" m

(* Exit codes: 0 ok, 1 unexpected, 2.. the taxonomy below.  The range stays
   clear of 123-125, which cmdliner reserves for its own failures. *)
let exit_code = function
  | Frontend_error _ -> 2
  | Decode_error _ -> 3
  | Verify_error _ -> 4
  | Link_error _ -> 5
  | Jit_error _ -> 6
  | Runtime_trap _ -> 7
  | Resource_limit _ -> 8
  | Io_error _ -> 9

(** Classify an exception raised anywhere in the pipeline.  [None] means
    the exception is not part of the pipeline's failure surface (a genuine
    bug) and should propagate. *)
let classify : exn -> error option = function
  | Minic.Lexer.Error m | Minic.Parser.Error m | Minic.Check.Error m
  | Minic.Lower.Error m ->
    Some (Frontend_error m)
  | Pvir.Serial.Corrupt c -> Some (Decode_error c)
  | Pvir.Verify.Error m -> Some (Verify_error m)
  (* a snapshot is untrusted input too: a decodable checkpoint whose
     state contradicts the program fails validation, not decode *)
  | Pvvm.Snapshot.Invalid m -> Some (Verify_error ("snapshot: " ^ m))
  | Pvir.Link.Error m -> Some (Link_error m)
  | Pvjit.Regalloc.Error m -> Some (Jit_error m)
  | Pvvm.Vm.Trap m
    when String.equal m Pvvm.Interp.fuel_exhausted_msg
         || String.equal m Pvvm.Sim.fuel_exhausted_msg ->
    Some (Resource_limit m)
  | Pvvm.Memory.Limit m -> Some (Resource_limit m)
  | Pvvm.Vm.Trap m -> Some (Runtime_trap m)
  | Sys_error m -> Some (Io_error m)
  | _ -> None

(** Run [f] and fold any pipeline exception into the taxonomy.  Unknown
    exceptions still propagate: swallowing them would hide real bugs. *)
let guard (f : unit -> 'a) : ('a, error) result =
  match f () with
  | v -> Ok v
  | exception e -> ( match classify e with Some err -> Error err | None -> raise e)
