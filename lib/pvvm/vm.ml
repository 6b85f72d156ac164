(** The run contract both executors share.

    In the paper's VM (§2) bytecode means the same thing whoever finishes
    compiling it: a run returns or traps, interpreted or compiled.  Here
    two executors ({!Interp} for PVIR, {!Sim} for the JIT's MIR) each run
    three host engines, the AOT one through Dynlinked plugins; everything
    they must agree on lives in this one module:

    - {!Trap}, the one guest-trap exception — engine traps, memory
      faults ({!Memory}) and fuel exhaustion alike;
    - the {!engine} vocabulary and its one name table (command-line
      spelling, trace name, oracle tag);
    - the intrinsic dispatcher, which owns the print formats and the
      abort/unknown-intrinsic trap messages;
    - the uninitialized-register sentinel of the array-based frames;
    - the clamp of [int64] budgets to the unboxed counters' [int];
    - the per-activation span on the trace's VM track. *)

(** A guest trap: the program did something the VM refuses to do.  The
    message is part of the portable observation — every engine of both
    executors raises the same text at the same point. *)
exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(** Host execution engine of either executor: the tree-walking reference,
    the pre-decoded threaded engine, or AOT-compiled native code. *)
type engine = Tree_walk | Threaded | Aot

let engines = [ Tree_walk; Threaded; Aot ]

type names = {
  cli : string;  (** command-line spelling *)
  trace : string;  (** trace and report name *)
  tag : string;  (** oracle path tag *)
}

let names = function
  | Tree_walk -> { cli = "tree"; trace = "tree-walk"; tag = "tw" }
  | Threaded -> { cli = "threaded"; trace = "threaded"; tag = "th" }
  | Aot -> { cli = "aot"; trace = "aot"; tag = "aot" }

let cli_name e = (names e).cli
let engine_name e = (names e).trace
let tag e = (names e).tag

(** Parse a command-line spelling; the trace name is accepted too. *)
let engine_of_string s =
  List.find_opt (fun e -> s = cli_name e || s = engine_name e) engines

(** The intrinsics every VM provides; printed output goes to [out]. *)
let intrinsic out name (args : Pvir.Value.t list) : Pvir.Value.t option =
  match (name, args) with
  | "print_i64", [ v ] ->
    Buffer.add_string out (Int64.to_string (Pvir.Value.to_int64 v));
    Buffer.add_char out '\n';
    None
  | "print_f64", [ v ] ->
    Buffer.add_string out (Printf.sprintf "%.6g" (Pvir.Value.to_float v));
    Buffer.add_char out '\n';
    None
  | "abort", [] -> trap "abort called"
  | _ -> trap "unknown intrinsic %s" name

(** Unwritten slot of an array-based register file or spill area: a
    unique block recognized by physical identity, so a write allocates no
    [Some] box.  It never escapes a frame — every read checks for it. *)
let uninit : Pvir.Value.t = Pvir.Value.Vec [||]

(** An [int64] budget or threshold as a native [int], saturating at
    [max_int] (the unboxed counters of the threaded and AOT engines). *)
let clamp v =
  if Int64.compare v (Int64.of_int max_int) >= 0 then max_int
  else Int64.to_int v

(** Run [f] as one activation span [kind:name] on the VM track of [tr],
    timestamped by [clock vm], the executor's own cycle counter (the
    deterministic virtual clock).  Spans exist only at the public entry
    points, and an untraced call allocates no span name, so tracing costs
    nothing per executed instruction. *)
let span tr ~clock vm ~engine ~kind name f =
  match tr with
  | None -> f ()
  | Some tr -> (
    let name = kind ^ ":" ^ name in
    let tid = Pvtrace.Trace.track_vm in
    Pvtrace.Trace.begin_at tr ~ts:(clock vm) ~tid
      ~args:[ ("engine", engine_name engine) ]
      ~cat:"vm" name;
    match f () with
    | v ->
      Pvtrace.Trace.end_at tr ~ts:(clock vm) ~tid name;
      v
    | exception e ->
      Pvtrace.Trace.end_at tr ~ts:(clock vm) ~tid
        ~args:[ ("exception", Printexc.to_string e) ]
        name;
      raise e)
