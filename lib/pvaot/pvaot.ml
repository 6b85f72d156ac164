(** AOT native backend: PVIR (and JIT-lowered MIR) compiled to OCaml,
    loaded with [Dynlink], and run behind the existing engine interface.

    [install ()] points the [Pvvm.Interp.aot_hook] / [Pvvm.Sim.aot_hook]
    inversion points at runners in this module.  Each runner prepares
    compiled code for the engine's program once (kept on the engine,
    backed by an in-process plugin table and a digest-keyed on-disk
    artifact cache) and runs the plugin entry on the {!Pvvm.Aotabi.ctx}
    the executor entered for the activation — falling back to the
    threaded engine, on the same context, whenever the toolchain is
    unavailable, the program uses something the generator does not
    support, or the entry arguments do not match the parameter shapes
    the generated code unboxes.  The executor writes the context back
    when the activation ends, so a runner neither seeds nor flushes
    anything.  Fallback preserves observable behaviour exactly, so
    selecting the AOT engine is always safe. *)

module Aotabi = Pvvm.Aotabi

(* Re-exported for tests and harnesses: toolchain probe, compile retry
   knobs, cache layout, and the source generators (cache-key regression
   tests digest through them directly). *)
module Build = Build
module Interp_gen = Interp_gen

(* ------------------------------------------------------------------ *)
(* Degradation ledger                                                  *)

(* All module-level mutable state below (ledger cell, once-flags, the
   loaded-plugin memo) is process-global and may be touched from
   several Domains at once — [mu] covers every read-modify-write.  The
   out-of-process compile itself runs outside the lock (it is the slow
   part and [Build] serializes the disk cache internally). *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let ledger : Pvtrace.Ledger.t option ref = ref None
let unavailable_recorded = ref false

let set_ledger l =
  locked (fun () ->
      ledger := l;
      unavailable_recorded := false)

(** One ledger entry per process (or per [set_ledger]): the fallback
    itself is per-call, but the operator only needs to learn once that
    the AOT tier is dark. *)
let record_unavailable ~subject reason =
  let fresh =
    locked (fun () ->
        if !unavailable_recorded then false
        else begin
          unavailable_recorded := true;
          true
        end)
  in
  if fresh then
    Pvtrace.Ledger.record_opt !ledger Pvtrace.Ledger.Aot_unavailable ~subject
      ~detail:reason

(* Re-exported probe controls (see {!Build}). *)
let set_forced_unavailable = Build.set_forced_unavailable
let set_cache_dir = Build.set_cache_dir
let available = Build.available

let unavailable_reason () =
  match Build.toolchain () with Ok _ -> None | Error e -> Some e

(* ------------------------------------------------------------------ *)
(* Prepared code                                                       *)

(* The outcome of preparing an engine lives on the engine itself
   ([Pvvm.Interp.t.aot], [Pvvm.Sim.t.aot]; [Sim.add_func] drops it), so
   the hot path re-running one engine never regenerates source to find
   its code again. *)
type prepared = Aotabi.prepared = {
  digest : string;
  entries : (string * Aotabi.entry) list;
  origin : string;  (** "compiled" | "disk-cache" | "memo" *)
}

type outcome = Aotabi.outcome = Ready of prepared | Fallback of string

(* Loaded plugins by digest: a second engine on the same program (the
   oracle reloads constantly) reuses the already-linked code. *)
let digest_memo : (string, (string * Aotabi.entry) list) Hashtbl.t =
  Hashtbl.create 8

(** Forget every loaded plugin, so the next prepare goes to the disk
    cache (or compiles).  Engines keep their own prepared outcomes. *)
let reset_memos () = locked (fun () -> Hashtbl.reset digest_memo)

(** Compile (or fetch) plugin entries for [digest]/[source], with
    per-phase spans on the JIT track of [tr].

    [src_digest] is the digest of the generated source body the current
    generator produces; every loaded plugin (fresh or cached) must
    register the same one.  A mismatch means the artifact cache holds
    output of an older generator — e.g. a codegen change without a
    [Build.codegen_version] bump — and is handled loudly: a ledger entry,
    eviction of the stale artifact, one fresh recompile.  If even the
    fresh build registers the wrong digest the generator itself is
    broken, and the backend degrades to threaded. *)
let build_entries tr ~subject ~digest ~src_digest ~source : outcome =
  match locked (fun () -> Hashtbl.find_opt digest_memo digest) with
  | Some entries -> Ready { digest; entries; origin = "memo" }
  | None ->
    let span name f =
      Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_jit ~cat:"aot"
        ~args:[ ("digest", digest) ]
        name f
    in
    let load_verified path =
      match span "aot:load" (fun () -> Build.load_plugin ~digest path) with
      | Error e -> Error ("load: " ^ e)
      | Ok reg ->
        if reg.Aotabi.src_digest = Some src_digest then Ok reg.Aotabi.entries
        else
          Error
            (Printf.sprintf
               "stale artifact: plugin built from source %s, generator now \
                emits %s"
               (match reg.Aotabi.src_digest with
               | Some d -> d
               | None -> "<unstamped>")
               src_digest)
    in
    let ready entries origin =
      locked (fun () -> Hashtbl.replace digest_memo digest entries);
      Ready { digest; entries; origin }
    in
    (match
       span "aot:compile" (fun () -> Build.ensure_artifact ~digest ~source)
     with
    | Error e ->
      record_unavailable ~subject e;
      Fallback ("compile: " ^ e)
    | Ok (path, origin) -> (
      match load_verified path with
      | Ok entries -> ready entries (Build.origin_name origin)
      | Error e when origin = Build.Disk_cache -> (
        (* A cached artifact that fails verification (or fails to load at
           all) is evicted and rebuilt once from the current generator. *)
        Pvtrace.Ledger.record_opt !ledger
          (Pvtrace.Ledger.Other "aot-stale-cache") ~subject ~detail:e;
        (try Sys.remove path with Sys_error _ -> ());
        match
          span "aot:compile" (fun () -> Build.ensure_artifact ~digest ~source)
        with
        | Error e2 ->
          record_unavailable ~subject e2;
          Fallback ("compile: " ^ e2)
        | Ok (path2, _) -> (
          match load_verified path2 with
          | Ok entries -> ready entries "recompiled"
          | Error e2 ->
            record_unavailable ~subject e2;
            Fallback e2))
      | Error e ->
        record_unavailable ~subject e;
        Fallback e))

(* ------------------------------------------------------------------ *)
(* Entry argument validation                                           *)

(* The generated code unboxes parameters by their *declared* class; a
   caller-supplied value of a different runtime shape would be
   mis-unboxed, so such calls run threaded instead. *)
let rec value_matches (ty : Pvir.Types.t) (v : Pvir.Value.t) =
  match (ty, v) with
  | Pvir.Types.Scalar s, Pvir.Value.Int (s', _) ->
    (not (Pvir.Types.is_float_scalar s)) && s = s'
  | Pvir.Types.Ptr _, Pvir.Value.Int (Pvir.Types.I64, _) -> true
  | Pvir.Types.Scalar s, Pvir.Value.Float (s', _) ->
    Pvir.Types.is_float_scalar s && s = s'
  | Pvir.Types.Vector (s, n), Pvir.Value.Vec es ->
    Array.length es = n
    && Array.for_all (fun e -> value_matches (Pvir.Types.Scalar s) e) es
  | _ -> false

(* [params] and [args] have the same length and some value has a shape
   other than its parameter's.  A wrong arity is no mismatch: the plugin
   raises the engine's exact arity trap.  Allocates nothing. *)
let rec shape_mismatch fn params args bad =
  match (params, args) with
  | [], [] -> bad
  | p :: ps, v :: vs ->
    shape_mismatch fn ps vs
      (bad || not (value_matches (Pvir.Func.reg_type fn p) v))
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Interpreter runner                                                  *)

(* Generate, then compile or fetch, on an available toolchain; [wrap]
   adapts each loaded entry to its engine. *)
let prepare_with tr ~subject gen =
  match Build.toolchain () with
  | Error e ->
    record_unavailable ~subject e;
    Fallback ("toolchain: " ^ e)
  | Ok _ -> (
    match
      Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_jit ~cat:"aot"
        "aot:codegen" gen
    with
    | exception e -> Fallback ("codegen: " ^ Printexc.to_string e)
    | digest, src_digest, source, wrap -> (
      match
        build_entries tr ~subject ~digest ~src_digest ~source:(fun () -> source)
      with
      | Ready p -> Ready { p with entries = List.map wrap p.entries }
      | o -> o))

(** Prepare (or fetch) compiled code for an interpreter's image; the
    outcome stays on the interpreter. *)
let prepare_interp (t : Pvvm.Interp.t) : outcome =
  match t.Pvvm.Interp.aot with
  | Some o -> o
  | None ->
    let o =
      prepare_with t.Pvvm.Interp.tr ~subject:"interp" (fun () ->
          let digest, src_digest, source =
            Interp_gen.generate t.Pvvm.Interp.img
          in
          (digest, src_digest, source, Fun.id))
    in
    t.Pvvm.Interp.aot <- Some o;
    o

(* Every fallback runs the whole activation threaded on the same context,
   accounting-identical by construction.  An armed checkpoint needs
   safepoint polls and virtual-register capture, which compiled code
   cannot provide mid-activation, so the snapshot stays bit-identical to
   every other engine's.  The profiler and the sampler need block-entry
   polls and the shadow activation stack, which generated code does not
   maintain either.  Compiled code only runs [fn] itself, not a function
   of another program that shares its name.  Nothing here allocates. *)
let interp_runner (t : Pvvm.Interp.t) (c : Aotabi.ctx) (fn : Pvir.Func.t)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  if
    Pvvm.Interp.ckpt_armed t
    || t.Pvvm.Interp.profile <> None
    || t.Pvvm.Interp.sampler <> None
    || not (List.memq fn t.Pvvm.Interp.img.Pvvm.Image.prog.Pvir.Prog.funcs)
  then Pvvm.Interp.threaded t c fn args
  else
    match prepare_interp t with
    | Fallback _ -> Pvvm.Interp.threaded t c fn args
    | Ready p -> (
      match List.assoc fn.Pvir.Func.name p.entries with
      | entry when not (shape_mismatch fn fn.Pvir.Func.params args false) ->
        entry c args
      | _ | (exception Not_found) -> Pvvm.Interp.threaded t c fn args)

(* ------------------------------------------------------------------ *)
(* Simulator runner                                                    *)

let sim_snapshot (t : Pvvm.Sim.t) : (string * Pvmach.Mir.func) list =
  Hashtbl.fold
    (fun name (ce : Pvvm.Sim.centry) acc -> (name, ce.Pvvm.Sim.cfn) :: acc)
    t.Pvvm.Sim.code []

(* Raised by a simulator entry before it touches the context: the
   arguments do not fit the shapes the generated code unboxes. *)
exception Shape_mismatch

(** Prepare (or fetch) compiled code for a simulator's current code
    cache; the outcome stays on the simulator until {!Pvvm.Sim.add_func}
    changes the cache.  Each entry checks host-supplied arguments
    against the shapes its generated code unboxes. *)
let prepare_sim (t : Pvvm.Sim.t) : outcome =
  match t.Pvvm.Sim.aot with
  | Some o -> o
  | None ->
    let o =
      prepare_with t.Pvvm.Sim.tr ~subject:"sim" (fun () ->
          let g = Sim_gen.generate t.Pvvm.Sim.machine (sim_snapshot t) in
          let guard (name, (entry : Aotabi.entry)) =
            match List.assoc_opt name g.Sim_gen.accepts with
            | None -> (name, entry)
            | Some fits ->
              ( name,
                fun c args ->
                  if fits args then entry c args else raise Shape_mismatch )
          in
          (g.Sim_gen.digest, g.Sim_gen.src_digest, g.Sim_gen.source, guard))
    in
    t.Pvvm.Sim.aot <- Some o;
    o

let sim_runner (t : Pvvm.Sim.t) (c : Aotabi.ctx) (fn : Pvmach.Mir.func)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  let fallback () = Pvvm.Sim.threaded t c fn args in
  match Hashtbl.find_opt t.Pvvm.Sim.code fn.Pvmach.Mir.mname with
  | Some ce when ce.Pvvm.Sim.cfn == fn -> (
    match prepare_sim t with
    | Fallback _ -> fallback ()
    | Ready p -> (
      match List.assoc_opt fn.Pvmach.Mir.mname p.entries with
      | None -> fallback ()
      | Some entry -> (
        (* a mismatch leaves the context untouched, so the threaded run
           starts from the same state *)
        match entry c args with
        | r -> r
        | exception Shape_mismatch -> fallback ())))
  | _ -> fallback ()

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)

let installed = ref false

(** Point the engines' AOT hooks here.  Idempotent; [ledger] (when
    given) receives one [Aot_unavailable] entry if the backend cannot
    run. *)
let install ?(ledger : Pvtrace.Ledger.t option) () =
  (match ledger with Some _ -> set_ledger ledger | None -> ());
  let first =
    locked (fun () ->
        if !installed then false
        else begin
          installed := true;
          true
        end)
  in
  if first then begin
    Pvvm.Interp.aot_hook := interp_runner;
    Pvvm.Sim.aot_hook := sim_runner
  end

(* ------------------------------------------------------------------ *)
(* Test introspection                                                  *)

(** [interp_status t] — what would the AOT engine do for this
    interpreter?  [Ok (digest, origin)] when compiled code is ready
    (origin one of "compiled", "disk-cache", "memo"), [Error reason]
    when calls would fall back to the threaded engine. *)
let interp_status (t : Pvvm.Interp.t) : (string * string, string) result =
  if t.Pvvm.Interp.profile <> None then Error "profiling enabled"
  else if t.Pvvm.Interp.sampler <> None then Error "sampling enabled"
  else
    match prepare_interp t with
    | Ready p -> Ok (p.digest, p.origin)
    | Fallback r -> Error r

(** [sim_status t] — same, for a simulator's code cache. *)
let sim_status (t : Pvvm.Sim.t) : (string * string, string) result =
  match prepare_sim t with
  | Ready p -> Ok (p.digest, p.origin)
  | Fallback r -> Error r
