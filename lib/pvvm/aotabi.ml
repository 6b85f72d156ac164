(** The activation context of every engine, and the ABI between the VM
    and AOT-compiled plugins (see [lib/pvaot]).

    The AOT backend translates a verified PVIR program (or the JIT's
    lowered MIR) into OCaml source, compiles it out of process and
    [Dynlink]s the result.  The generated code cannot touch [Interp.t] or
    [Sim.t] directly — that would chase mutable boxed [int64] counters on
    every instruction and tie the plugin to engine internals — so it runs
    against this small, stable context record instead.  So do the
    tree-walk and threaded engines of both executors: one record per
    activation, charged by whichever engine runs it.

    - [Interp.enter] / [Sim.enter] build the record once per activation,
      at the executor's public entry points only — activations do not
      nest.  [Interp.leave] / [Sim.leave] write it back into the
      executor's [stats] and [sp] when the activation ends (normally or
      by exception); no engine touches those inside an activation.
    - Counters are plain unboxed [int]s holding *absolute* values, seeded
      from the executor's [stats].
    - [fuel] is pre-clamped with {!Vm.clamp}, and exhaustion raises the
      pre-built [fuel_exn], whose message names the executor that built
      the context.
    - [out] is the executor's output buffer, handed to {!Vm.intrinsic}.

    Everything else of the run contract the generated code takes from
    {!Vm} directly: it raises {!Vm.Trap} with the engines' exact
    messages and calls {!Vm.intrinsic}, as the engines do.

    Loaded plugins hand their compiled functions back through the
    {!register}/{!take_pending} pair: [Dynlink.loadfile_private] gives us
    no module handle, so the plugin's initializer pushes its entry table
    here, keyed by the digest baked into its generated source, and the
    loader pops it immediately after the load returns. *)

type ctx = {
  mem : Memory.t;
  globals_end : int;  (** stack red zone: sp below this is an overflow *)
  mutable sp : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable spills : int;  (** simulator only; interpreter contexts keep 0 *)
  mutable calls : int;  (** interpreter only; simulator contexts keep 0 *)
  fuel : int;
  fuel_exn : exn;
  out : Buffer.t;  (** printed output of the intrinsics *)
}

(** One compiled function: same shape as an engine call. *)
type entry = ctx -> Pvir.Value.t list -> Pvir.Value.t option

(** Compiled code prepared for one engine instance: where it came from
    ("compiled", "disk-cache" or "memo", the in-process plugin table)
    and its entries.  The engines keep the outcome on themselves, so the
    hot path never regenerates source to find it again. *)
type prepared = {
  digest : string;
  entries : (string * entry) list;
  origin : string;
}

(** [Fallback reason]: calls run threaded (toolchain unavailable, or the
    program uses something the generator does not compile). *)
type outcome = Ready of prepared | Fallback of string

(** What a plugin publishes: its entry table plus, for current-format
    plugins, the digest of the generated source *body* it was compiled
    from.  The cache key already folds in the generator version; the body
    digest is the loud failure for the forgotten version bump — an
    artifact built by an older generator re-registers the old body digest
    and the loader rejects it instead of silently running stale code. *)
type registration = {
  src_digest : string option;  (** [None] on legacy/canary registrations *)
  entries : (string * entry) list;
}

(* The registry is global, process-wide state; plugin initializers run
   on whichever Domain triggered the [Dynlink] load, so both the publish
   and the claim sides go through [mu].  (Dynlink itself serializes
   loads internally; this lock covers our own table.) *)
let mu = Mutex.create ()
let pending : (string * registration) list ref = ref []

let protected f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

(** Called by a plugin's module initializer: publish the unit's functions
    under its cache digest. *)
let register digest (entries : (string * entry) list) =
  protected (fun () ->
      pending := (digest, { src_digest = None; entries }) :: !pending)

(** Like {!register}, additionally carrying the digest of the generated
    source body the plugin was compiled from; the loader verifies it
    against the generator's current output on every load, including
    disk-cache hits. *)
let register_src digest ~src (entries : (string * entry) list) =
  protected (fun () ->
      pending := (digest, { src_digest = Some src; entries }) :: !pending)

(** Called by the loader right after [Dynlink.loadfile_private]: claim the
    registration the plugin just published.  [None] means the plugin did
    not initialize (load failure surfaced elsewhere). *)
let take_pending digest =
  protected (fun () ->
      match List.assoc_opt digest !pending with
      | Some reg ->
        pending := List.remove_assoc digest !pending;
        Some reg
      | None -> None)
