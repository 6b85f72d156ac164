(** AOT native backend: PVIR (and JIT-lowered MIR) compiled to OCaml,
    loaded with [Dynlink], and run behind the existing engine interface.

    [install ()] points the [Pvvm.Interp.aot_hook] / [Pvvm.Sim.aot_hook]
    inversion points at runners in this module.  Each runner prepares
    compiled code for the engine's program (memoized per image / code
    snapshot, backed by a digest-keyed on-disk artifact cache), seeds an
    {!Pvvm.Aotabi.ctx} from the engine state, runs the plugin entry and
    flushes counters back — falling back to the threaded engine whenever
    the toolchain is unavailable, the program uses something the
    generator does not support, or the entry arguments do not match the
    declared parameter shapes.  Fallback preserves observable behaviour
    exactly, so selecting the AOT engine is always safe. *)

module Aotabi = Pvvm.Aotabi

(* Re-exported for tests and harnesses: toolchain probe, compile retry
   knobs, cache layout, and the source generators (cache-key regression
   tests digest through them directly). *)
module Build = Build
module Interp_gen = Interp_gen

(* ------------------------------------------------------------------ *)
(* Degradation ledger                                                  *)

(* All module-level mutable state below (ledger cell, once-flags, the
   three prepared-code memos) is process-global and may be touched from
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
(* Prepared-code memos                                                 *)

type prepared = {
  digest : string;
  entries : (string * Aotabi.entry) list;
  origin : string;  (** "compiled" | "disk-cache" | "memo" *)
}

type outcome = Ready of prepared | Fallback of string

(* Loaded plugins by digest: a second image of the same program (the
   oracle reloads constantly) reuses the already-linked code. *)
let digest_memo : (string, (string * Aotabi.entry) list) Hashtbl.t =
  Hashtbl.create 8

(* Per-image outcome memo, keyed by physical identity: the hot path
   (bench loops re-running one image) must not re-generate source just
   to rediscover the digest. *)
let interp_memo : (Pvvm.Image.t * int * outcome) list ref = ref []
let memo_cap = 8

(* Per-simulator memo: the outcome is valid only for the code-cache
   snapshot it was generated from, so each hit re-validates the snapshot
   by physical identity (an [add_func] invalidates it). *)
type sim_memo_entry = {
  sm_sim : Pvvm.Sim.t;
  sm_snapshot : (string * Pvmach.Mir.func) list;
  sm_outcome : outcome;
}

let sim_memo : sim_memo_entry list ref = ref []

let reset_memos () =
  locked (fun () ->
      interp_memo := [];
      sim_memo := [];
      Hashtbl.reset digest_memo)

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

let args_match (fn : Pvir.Func.t) (args : Pvir.Value.t list) =
  List.length args = List.length fn.Pvir.Func.params
  && List.for_all2
       (fun p v -> value_matches (Pvir.Func.reg_type fn p) v)
       fn.Pvir.Func.params args

(* ------------------------------------------------------------------ *)
(* Interpreter runner                                                  *)

let interp_ctx (t : Pvvm.Interp.t) : Aotabi.ctx =
  {
    Aotabi.mem = t.Pvvm.Interp.img.Pvvm.Image.mem;
    globals_end = t.Pvvm.Interp.img.Pvvm.Image.layout.globals_end;
    sp = t.Pvvm.Interp.sp;
    cycles = Int64.to_int t.Pvvm.Interp.stats.Pvvm.Interp.cycles;
    instrs = Int64.to_int t.Pvvm.Interp.stats.Pvvm.Interp.instrs;
    spills = 0;
    calls = t.Pvvm.Interp.stats.Pvvm.Interp.calls;
    fuel = Pvvm.Vm.clamp t.Pvvm.Interp.fuel;
    fuel_exn = Pvvm.Vm.Trap Pvvm.Interp.fuel_exhausted_msg;
    out = t.Pvvm.Interp.out;
  }

let flush_interp_ctx (t : Pvvm.Interp.t) (c : Aotabi.ctx) =
  t.Pvvm.Interp.stats.Pvvm.Interp.cycles <- Int64.of_int c.Aotabi.cycles;
  t.Pvvm.Interp.stats.Pvvm.Interp.instrs <- Int64.of_int c.Aotabi.instrs;
  t.Pvvm.Interp.stats.Pvvm.Interp.calls <- c.Aotabi.calls;
  t.Pvvm.Interp.sp <- c.Aotabi.sp

(** Prepare (or fetch) compiled code for an interpreter's image. *)
let prepare_interp (t : Pvvm.Interp.t) : outcome =
  let img = t.Pvvm.Interp.img in
  let dc = t.Pvvm.Interp.dispatch_cost in
  match
    locked (fun () ->
        List.find_opt (fun (i, d, _) -> i == img && d = dc) !interp_memo)
  with
  | Some (_, _, o) -> o
  | None ->
    let o =
      match Build.toolchain () with
      | Error e ->
        record_unavailable ~subject:"interp" e;
        Fallback ("toolchain: " ^ e)
      | Ok _ -> (
        match
          Pvtrace.Trace.with_span t.Pvvm.Interp.tr
            ~tid:Pvtrace.Trace.track_jit ~cat:"aot" "aot:codegen" (fun () ->
              Interp_gen.generate img ~dispatch_cost:dc)
        with
        | exception e -> Fallback ("codegen: " ^ Printexc.to_string e)
        | digest, src_digest, source ->
          build_entries t.Pvvm.Interp.tr ~subject:"interp" ~digest ~src_digest
            ~source:(fun () -> source))
    in
    locked (fun () ->
        interp_memo :=
          (img, dc, o)
          :: (if List.length !interp_memo >= memo_cap then
                List.filteri (fun i _ -> i < memo_cap - 1) !interp_memo
              else !interp_memo));
    o

let interp_runner (t : Pvvm.Interp.t) (fn : Pvir.Func.t)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  let fallback () = Pvvm.Interp.threaded_call t fn args in
  (* An armed checkpoint needs safepoint polls and virtual-register
     capture, which compiled code cannot provide mid-activation: the
     whole activation runs threaded instead (accounting-identical by
     construction), so the snapshot is bit-identical to every other
     engine's. *)
  if Pvvm.Interp.ckpt_armed t then fallback ()
  else if t.Pvvm.Interp.profile <> None then fallback ()
    (* the sampler needs block-entry polls and the shadow activation
       stack, neither of which generated code maintains — same contract
       as the checkpoint fallback above, and accounting-identical, so
       the sampled stream matches the other engines bit for bit *)
  else if t.Pvvm.Interp.sampler <> None then fallback ()
  else
    match Pvvm.Image.find_func t.Pvvm.Interp.img fn.Pvir.Func.name with
    | Some f when f == fn -> (
      match prepare_interp t with
      | Fallback _ -> fallback ()
      | Ready p -> (
        match List.assoc_opt fn.Pvir.Func.name p.entries with
        | None -> fallback ()
        | Some entry ->
          (* wrong arity goes through: the plugin raises the engine's
             exact arity trap; wrong shapes cannot be unboxed safely *)
          if
            List.length args = List.length fn.Pvir.Func.params
            && not (args_match fn args)
          then fallback ()
          else
            let c = interp_ctx t in
            Fun.protect
              ~finally:(fun () -> flush_interp_ctx t c)
              (fun () -> entry c args)))
    | _ -> fallback ()

(* ------------------------------------------------------------------ *)
(* Simulator runner                                                    *)

let sim_snapshot (t : Pvvm.Sim.t) : (string * Pvmach.Mir.func) list =
  Hashtbl.fold
    (fun name (ce : Pvvm.Sim.centry) acc -> (name, ce.Pvvm.Sim.cfn) :: acc)
    t.Pvvm.Sim.code []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, f1) (n2, f2) -> String.equal n1 n2 && f1 == f2)
       a b

let sim_ctx (t : Pvvm.Sim.t) : Aotabi.ctx =
  {
    Aotabi.mem = t.Pvvm.Sim.img.Pvvm.Image.mem;
    globals_end = t.Pvvm.Sim.img.Pvvm.Image.layout.globals_end;
    sp = t.Pvvm.Sim.sp;
    cycles = Int64.to_int t.Pvvm.Sim.stats.Pvvm.Sim.cycles;
    instrs = Int64.to_int t.Pvvm.Sim.stats.Pvvm.Sim.instrs;
    spills = Int64.to_int t.Pvvm.Sim.stats.Pvvm.Sim.spill_ops;
    calls = 0;
    fuel = Pvvm.Vm.clamp t.Pvvm.Sim.fuel;
    fuel_exn = Pvvm.Vm.Trap Pvvm.Sim.fuel_exhausted_msg;
    out = t.Pvvm.Sim.out;
  }

let flush_sim_ctx (t : Pvvm.Sim.t) (c : Aotabi.ctx) =
  t.Pvvm.Sim.stats.Pvvm.Sim.cycles <- Int64.of_int c.Aotabi.cycles;
  t.Pvvm.Sim.stats.Pvvm.Sim.instrs <- Int64.of_int c.Aotabi.instrs;
  t.Pvvm.Sim.stats.Pvvm.Sim.spill_ops <- Int64.of_int c.Aotabi.spills;
  t.Pvvm.Sim.sp <- c.Aotabi.sp

(** Prepare (or fetch) compiled code for a simulator's current code
    cache. *)
let prepare_sim (t : Pvvm.Sim.t) : outcome =
  let snap = sim_snapshot t in
  match locked (fun () -> List.find_opt (fun e -> e.sm_sim == t) !sim_memo) with
  | Some e when snapshot_equal snap e.sm_snapshot -> e.sm_outcome
  | hit ->
    let o =
      match Build.toolchain () with
      | Error e ->
        record_unavailable ~subject:"sim" e;
        Fallback ("toolchain: " ^ e)
      | Ok _ -> (
        match
          Pvtrace.Trace.with_span t.Pvvm.Sim.tr ~tid:Pvtrace.Trace.track_jit
            ~cat:"aot" "aot:codegen" (fun () ->
              Sim_gen.generate t.Pvvm.Sim.machine snap)
        with
        | exception e -> Fallback ("codegen: " ^ Printexc.to_string e)
        | digest, src_digest, source ->
          build_entries t.Pvvm.Sim.tr ~subject:"sim" ~digest ~src_digest
            ~source:(fun () -> source))
    in
    let entry = { sm_sim = t; sm_snapshot = snap; sm_outcome = o } in
    locked (fun () ->
        let rest =
          match hit with
          | Some _ -> List.filter (fun e -> not (e.sm_sim == t)) !sim_memo
          | None ->
            if List.length !sim_memo >= memo_cap then
              List.filteri (fun i _ -> i < memo_cap - 1) !sim_memo
            else !sim_memo
        in
        sim_memo := entry :: rest);
    o

let sim_runner (t : Pvvm.Sim.t) (fn : Pvmach.Mir.func)
    (args : Pvir.Value.t list) : Pvir.Value.t option =
  let fallback () = Pvvm.Sim.threaded_call t fn args in
  match Hashtbl.find_opt t.Pvvm.Sim.code fn.Pvmach.Mir.mname with
  | Some ce when ce.Pvvm.Sim.cfn == fn -> (
    match prepare_sim t with
    | Fallback _ -> fallback ()
    | Ready p -> (
      match List.assoc_opt fn.Pvmach.Mir.mname p.entries with
      | None -> fallback ()
      | Some entry ->
        (* everything stays boxed in the generated code, so no argument
           shape validation is needed; arity mismatches raise the
           engine's exact trap inside the plugin *)
        let c = sim_ctx t in
        Fun.protect
          ~finally:(fun () -> flush_sim_ctx t c)
          (fun () -> entry c args)))
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
