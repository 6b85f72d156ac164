(** End-to-end driver for the split-compilation toolchain — the public
    face of the library.

    The flow mirrors the paper's Figure 1: {!frontend} produces portable
    bytecode, {!offline} runs the µproc-independent compiler of the chosen
    mode, {!distribute} serializes the artifact that ships to devices, and
    {!online} plays the device side (decode, verify, load, JIT for a
    concrete machine).  {!interpret} is the no-JIT baseline.  See
    {!Adaptive} for the across-runs layer. *)

(** Compilation modes (experiment E2):
    - [Traditional_deferred]: offline drops target-dependent
      optimizations; cheap blind JIT.
    - [Split]: the paper's proposal — expensive analyses offline, shipped
      as portable vector builtins + annotations; cheap annotation-reading
      JIT.
    - [Pure_online]: nothing offline; the JIT redoes everything on the
      device. *)
type mode = Traditional_deferred | Split | Pure_online

val mode_name : mode -> string
val all_modes : mode list

(** Result of the offline step: optimized bytecode plus the work spent. *)
type offline_result = {
  prog : Pvir.Prog.t;
  offline_work : Pvir.Account.t;
  vectorized : (string * Pvopt.Vectorize.result) list;
      (** per-function vectorization outcomes (empty except in split
          mode) *)
}

(** Result of the online step: a loaded simulator plus online work. *)
type online_result = {
  sim : Pvvm.Sim.t;
  online_work : Pvir.Account.t;
  jit : Pvjit.Jit.report;
  img : Pvvm.Image.t;
}

(** Compile MiniC source to (unoptimized, verified) bytecode.  With a
    trace sink, the whole phase is a span on the frontend track.
    @raise Minic.Lexer.Error, Minic.Parser.Error, Minic.Check.Error or
    Minic.Lower.Error on malformed source. *)
val frontend : ?name:string -> ?tr:Pvtrace.Trace.t -> string -> Pvir.Prog.t

(** Run the offline half of [mode] on a copy of the program.  With
    telemetry sinks, every pass becomes a span on the offline track
    (virtual clock = offline work units) and the per-pass work breakdown
    lands in [metrics] under the [offline.] prefix. *)
val offline :
  ?mode:mode ->
  ?tr:Pvtrace.Trace.t ->
  ?metrics:Pvtrace.Metrics.t ->
  Pvir.Prog.t ->
  offline_result

(** Serialize to the binary distribution format (what ships to devices). *)
val distribute : ?tr:Pvtrace.Trace.t -> offline_result -> string

(** The on-device step: decode, verify, load, optimize per [mode], JIT for
    [machine].  [mem_size] is the device memory in bytes (default 1 MiB);
    [alloc_limit] caps host allocation for that memory (default
    {!Pvvm.Memory.default_alloc_limit}); [engine] selects the simulator's
    host execution engine (default [Threaded]; cycle counts do not depend
    on it); [limits] bounds the untrusted decode (default
    {!Pvir.Serial.default_limits}).  With telemetry sinks, the
    decode/load/JIT phases become spans (virtual clock = online work
    units), annotation rejects land in [ledger], per-pass work and JIT
    verdicts land in [metrics] under the [online.] prefix, and the
    returned simulator carries [tr] so its runs appear on the VM track.
    @raise Pvir.Serial.Corrupt or Pvir.Verify.Error on bad bytecode.
    @raise Pvvm.Memory.Limit if [mem_size] exceeds [alloc_limit]. *)
val online :
  ?mode:mode ->
  machine:Pvmach.Machine.t ->
  ?mem_size:int ->
  ?alloc_limit:int ->
  ?engine:Pvvm.Sim.engine ->
  ?limits:Pvir.Serial.limits ->
  ?tr:Pvtrace.Trace.t ->
  ?metrics:Pvtrace.Metrics.t ->
  ?ledger:Pvtrace.Ledger.t ->
  string ->
  online_result

(** Interpret the bytecode instead of JIT-compiling it.  [engine] selects
    the interpreter's host execution engine (default [Threaded]; cycle
    counts do not depend on it — [Aot] installs the native backend and
    degrades to [Threaded] when the toolchain is unavailable, recording
    the degradation in [ledger]); [limits] bounds the untrusted decode.
    The returned interpreter carries [tr], [profile] and [sampler] (the
    cycle-driven sampling profiler), so its runs appear on the VM track
    and feed the instruction-mix metrics or the sampled hot-block
    tables. *)
val interpret :
  ?mem_size:int ->
  ?alloc_limit:int ->
  ?engine:Pvvm.Interp.engine ->
  ?limits:Pvir.Serial.limits ->
  ?profile:Pvvm.Profile.t ->
  ?sampler:Pvprof.t ->
  ?tr:Pvtrace.Trace.t ->
  ?ledger:Pvtrace.Ledger.t ->
  string ->
  Pvvm.Interp.t

(** One call from source text to a device-resident simulator:
    [frontend |> offline |> distribute |> online]. *)
val run_source :
  ?mode:mode ->
  machine:Pvmach.Machine.t ->
  ?mem_size:int ->
  ?engine:Pvvm.Sim.engine ->
  ?limits:Pvir.Serial.limits ->
  ?tr:Pvtrace.Trace.t ->
  ?metrics:Pvtrace.Metrics.t ->
  ?ledger:Pvtrace.Ledger.t ->
  string ->
  offline_result * online_result

(** {1 Error taxonomy}

    One typed sum covering every failure the distribution pipeline can
    hit, with stable process exit codes.  {!guard} and the [pvsc]/[pvrun]
    tools guarantee that no raw exception or backtrace escapes to an end
    user on any input, however hostile: wrap any pipeline arrow above in
    {!guard} to get every failure as a value. *)

type error =
  | Frontend_error of string  (** MiniC lex/parse/type error (exit 2) *)
  | Decode_error of Pvir.Serial.corruption
      (** malformed distribution bytes (exit 3) *)
  | Verify_error of string  (** well-formed but ill-typed PVIR (exit 4) *)
  | Link_error of string  (** module linking failed (exit 5) *)
  | Jit_error of string  (** online compilation failed (exit 6) *)
  | Runtime_trap of string  (** guest program trapped (exit 7) *)
  | Resource_limit of string  (** fuel or memory budget exhausted (exit 8) *)
  | Io_error of string  (** host file system error (exit 9) *)

(** Human-readable one-line rendering (no backtrace). *)
val error_message : error -> string

(** Stable process exit code: 2-9, clear of cmdliner's reserved 123-125.
    0 is success and 1 an unexpected (non-taxonomy) failure. *)
val exit_code : error -> int

(** Classify an exception raised anywhere in the pipeline; [None] means it
    is not part of the failure surface (a genuine bug). *)
val classify : exn -> error option

(** Run a pipeline fragment, folding any classified exception into
    [Error]; unknown exceptions still propagate. *)
val guard : (unit -> 'a) -> ('a, error) result
