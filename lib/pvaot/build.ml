(** Out-of-process plugin builds for the AOT backend.

    The generated source (see {!Interp_gen}/{!Sim_gen}) references host
    library modules ([Pvir.Value], [Pvvm.Aotabi], [Pvaot.Lanes], ...)
    directly, so the
    only thing a plugin compile needs beyond a working compiler is the
    [.cmi] files of those libraries.  We find them by walking up from the
    running executable (and the cwd) to dune's [_build/default] tree —
    the plugin is compiled against the *same* build tree that produced
    the host, which keeps interface CRCs consistent by construction.

    Everything here is probed exactly once per process, through a lazy
    canary that generates, compiles and loads a trivial plugin end to
    end.  If any step fails the backend reports itself unavailable and
    engines degrade to the threaded interpreter; correctness never
    depends on the toolchain working. *)

(* Bumping this invalidates every cached artifact: it participates in the
   source digest alongside the compiler version.  6: plugins register
   through [Aotabi.register_src], carrying the generated-body digest the
   loader verifies on every load (the cache staleness guard).  7: the
   interpreter backend's fuel traps rewind the charge batch, so their
   counters match the threaded engine's.  8: plugins raise [Pvvm.Vm.Trap]
   and call [Pvvm.Vm.intrinsic] on the context's output buffer; the
   context no longer carries trap and intrinsic closures.  9: both
   backends emit through the shared [Emit] core (fuel rewinds cover
   spill operations); simulator plugins are typed per def-use web, batch
   their charges and keep vector lanes unboxed via [Lanes].  10: the
   [Aotabi] interface records the context as every engine's activation
   context; generated code is unchanged, but the interface CRC plugins
   link against moved.  11: [Memory.t] commits its buffer on first use
   ([bytes] is mutable, a [preset] field follows), and plugins read
   [M.bytes] directly. *)
let codegen_version = 11

type toolchain = {
  native : bool;  (** true: ocamlopt -shared -> .cmxs; false: ocamlc -> .cmo *)
  compiler : string;  (** command prefix, e.g. ["ocamlfind ocamlopt"] *)
  incdirs : string list;  (** -I dirs holding the host libraries' .cmi *)
}

(* Tests force degradation through this knob; it wins over the probe. *)
let forced_unavailable : string option ref = ref None
let set_forced_unavailable r = forced_unavailable := r

(* ------------------------------------------------------------------ *)
(* Cache directory                                                     *)

let cache_override : string option ref = ref None
let set_cache_dir d = cache_override := d

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let cache_dir () =
  let dir =
    match !cache_override with
    | Some d -> d
    | None -> (
      match Sys.getenv_opt "PVAOT_CACHE" with
      | Some d -> d
      | None ->
        (* Under dune (tests, benches) never litter the workspace. *)
        if Sys.getenv_opt "INSIDE_DUNE" <> None then
          Filename.concat (Filename.get_temp_dir_name ()) "pvaot-cache"
        else "_pvaot-cache")
  in
  mkdir_p dir;
  dir

(* ------------------------------------------------------------------ *)
(* Toolchain discovery                                                 *)

let command_ok cmd =
  (* Existence + runnability probe; all output squelched. *)
  Sys.command (cmd ^ " -version >/dev/null 2>/dev/null") = 0

let find_compiler () =
  let candidates =
    if Dynlink.is_native then
      [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ]
    else [ "ocamlfind ocamlc"; "ocamlc.opt"; "ocamlc" ]
  in
  List.find_opt command_ok candidates

(* The host libraries whose interfaces generated code refers to. *)
let needed_libs = [ "pvir"; "pvmach"; "pvvm"; "pvtrace"; "pvaot" ]

let objs_dir root lib =
  List.fold_left Filename.concat root
    [ "lib"; lib; Printf.sprintf ".%s.objs" lib; "byte" ]

let looks_like_build_root d = Sys.file_exists (objs_dir d "pvvm")

let rec ancestors d acc =
  let parent = Filename.dirname d in
  if String.equal parent d then List.rev (d :: acc)
  else ancestors parent (d :: acc)

(** Locate dune's [_build/default] holding our .cmi files.  Checked from
    the executable's directory first (tests and binaries live inside the
    build tree), then from the cwd (covers [dune exec] from the root). *)
let find_build_root () =
  let starts =
    [ Filename.dirname Sys.executable_name; Sys.getcwd () ]
  in
  let candidates =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun d -> [ d; Filename.concat d (Filename.concat "_build" "default") ])
          (ancestors s []))
      starts
  in
  List.find_opt looks_like_build_root candidates

(* ------------------------------------------------------------------ *)
(* Compiling and loading                                               *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let artifact_ext tc = if tc.native then ".cmxs" else ".cmo"

(** One compile attempt of [src_path] to [out_path].  Returns
    [Error diagnostics] with the compiler's stderr on failure. *)
let compile_once tc ~src_path ~out_path =
  let err_path = out_path ^ ".err" in
  let incs =
    String.concat " "
      (List.map (fun d -> "-I " ^ Filename.quote d) tc.incdirs)
  in
  let cmd =
    if tc.native then
      Printf.sprintf "%s -shared -w -a %s -o %s %s 2>%s" tc.compiler incs
        (Filename.quote out_path) (Filename.quote src_path)
        (Filename.quote err_path)
    else
      (* No [-o]: ocamlc derives the unit name from the output file, and
         the unit name must stay [Pvaot_<digest>].  The .cmo lands next
         to the source with the source's basename. *)
      Printf.sprintf "%s -c -w -a %s %s 2>%s" tc.compiler incs
        (Filename.quote src_path) (Filename.quote err_path)
  in
  let rc = Sys.command cmd in
  let diag = try read_file err_path with Sys_error _ -> "" in
  (try Sys.remove err_path with Sys_error _ -> ());
  if (not tc.native) && rc = 0 then begin
    let produced = Filename.chop_extension src_path ^ ".cmo" in
    if Sys.file_exists produced && not (String.equal produced out_path) then
      Sys.rename produced out_path
  end;
  if rc = 0 && Sys.file_exists out_path then Ok ()
  else
    Error
      (Printf.sprintf "compiler exited %d: %s" rc
         (String.trim diag))

(* The out-of-process compile can fail transiently (a PATH hiccup, an
   OOM-killed cc, a filesystem race on a shared cache dir), so it gets a
   short, deterministic, capped retry schedule before the backend
   degrades to the threaded engine.  The schedule is a knob so tests can
   zero the delays; [compile_attempts] makes the retries observable.

   Both are process-global state shared across Domains.  The attempt
   counter is bumped atomically; the delay schedule is a test knob set
   before any Domain is spawned, so a plain ref suffices there. *)
let default_retry_delays = [ 0.05; 0.2 ]
let retry_delays = ref default_retry_delays
let set_retry_delays ds = retry_delays := ds
let compile_attempts_a = Atomic.make 0
let compile_attempts () = Atomic.get compile_attempts_a

(** Compile [src_path] to [out_path], retrying on the bounded
    [retry_delays] schedule.  The final [Error] carries the last
    attempt's diagnostics and the attempt count — it flows verbatim into
    the [Aot_unavailable] ledger entry when the backend degrades. *)
let compile tc ~src_path ~out_path =
  let rec go attempt delays =
    Atomic.incr compile_attempts_a;
    match compile_once tc ~src_path ~out_path with
    | Ok () -> Ok ()
    | Error e -> (
      match delays with
      | d :: rest ->
        if d > 0.0 then Unix.sleepf d;
        go (attempt + 1) rest
      | [] ->
        Error
          (if attempt = 1 then e
           else Printf.sprintf "after %d attempts: %s" attempt e))
  in
  go 1 !retry_delays

(** Load a plugin artifact and claim the entries it registered.

    The artifact is copied to a fresh unique path first: the native
    loader dlopens by path and re-loading an already-seen path would
    *not* re-run the module initializer, so [take_pending] would come up
    empty.  A fresh path per load also lets one process load the same
    cached artifact repeatedly (the cache-correctness test does). *)
let load_artifact ~digest ~ext path =
  let tmp = Filename.temp_file "pvaot_load_" ext in
  write_file tmp (read_file path);
  let result =
    match Dynlink.loadfile_private tmp with
    | () -> (
      match Pvvm.Aotabi.take_pending digest with
      | Some reg -> Ok reg
      | None -> Error "plugin loaded but registered no entries")
    | exception Dynlink.Error e -> Error (Dynlink.error_message e)
    | exception exn -> Error (Printexc.to_string exn)
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* Canary probe                                                        *)

let canary_digest = "pvaot-canary"

let canary_source =
  String.concat "\n"
    [
      "let __pvaot_canary (ctx : Pvvm.Aotabi.ctx) (_ : Pvir.Value.t list) =";
      "  ctx.Pvvm.Aotabi.cycles <- ctx.Pvvm.Aotabi.cycles + 1;";
      "  Some (Pvir.Value.i64 42L)";
      "let () = Pvvm.Aotabi.register \"" ^ canary_digest
      ^ "\" [ (\"canary\", __pvaot_canary) ]";
      "";
    ]

(* Test processes running at once share the cache directory and each
   probe on start-up, so the canary's files are named per process: one
   process must not load a canary another is still writing. *)
let run_canary tc =
  let base =
    Filename.concat (cache_dir ())
      (Printf.sprintf "pvaot_canary_%d" (Unix.getpid ()))
  in
  let src = base ^ ".ml" and out = base ^ artifact_ext tc in
  write_file src canary_source;
  let result =
    match compile tc ~src_path:src ~out_path:out with
    | Error e -> Error ("canary compile failed: " ^ e)
    | Ok () -> (
      match load_artifact ~digest:canary_digest ~ext:(artifact_ext tc) out with
      | Error e -> Error ("canary load failed: " ^ e)
      | Ok reg -> (
        match List.assoc_opt "canary" reg.Pvvm.Aotabi.entries with
        | None -> Error "canary registered the wrong entries"
        | Some _ -> Ok ()))
  in
  List.iter
    (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
    [ ".ml"; ".cmi"; ".cmx"; ".o"; artifact_ext tc ];
  result

let probe () =
  match find_compiler () with
  | None -> Error "no usable OCaml compiler found on PATH"
  | Some compiler -> (
    match find_build_root () with
    | None -> Error "could not locate the dune build tree (_build/default)"
    | Some root ->
      let incdirs = List.map (objs_dir root) needed_libs in
      let missing = List.filter (fun d -> not (Sys.file_exists d)) incdirs in
      if missing <> [] then
        Error ("missing interface dirs: " ^ String.concat ", " missing)
      else
        let tc = { native = Dynlink.is_native; compiler; incdirs } in
        (match run_canary tc with Ok () -> Ok tc | Error e -> Error e))

(* Probed once per process.  Not a [lazy]: two Domains forcing one lazy
   concurrently is a race in OCaml 5 (the loser observes
   [CamlinternalLazy.Undefined]), so the memo is an explicit
   mutex-guarded cell.  The same mutex serializes on-disk artifact
   production below — two workers may not compile into one temp path. *)
let build_mu = Mutex.create ()
let probe_memo : (toolchain, string) result option ref = ref None

let with_build_lock f =
  Mutex.lock build_mu;
  match f () with
  | v ->
    Mutex.unlock build_mu;
    v
  | exception e ->
    Mutex.unlock build_mu;
    raise e

let probe_once () =
  with_build_lock (fun () ->
      match !probe_memo with
      | Some r -> r
      | None ->
        let r = probe () in
        probe_memo := Some r;
        r)

let toolchain () =
  match !forced_unavailable with
  | Some reason -> Error reason
  | None -> probe_once ()

let available () = match toolchain () with Ok _ -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Digest-keyed cache                                                  *)

(** Digest of a canonical program dump: compiler + codegen version fold
    in so artifacts never survive either changing. *)
let digest_of_dump dump =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ Sys.ocaml_version; string_of_int codegen_version; dump ]))

type origin = Fresh_compile | Disk_cache

let origin_name = function
  | Fresh_compile -> "compiled"
  | Disk_cache -> "disk-cache"

(** Ensure [digest]'s artifact exists on disk, compiling [source ()] if
    the cache misses.  Returns the artifact path and where it came from.
    Writes are atomic (temp + rename) so concurrent test processes
    sharing a cache directory cannot observe torn files; within one
    process, [build_mu] additionally serializes compiles so two Domains
    missing on the same digest cannot race on the shared temp path. *)
let ensure_artifact ~digest ~(source : unit -> string) :
    (string * origin, string) result =
  match toolchain () with
  | Error e -> Error e
  | Ok tc ->
    with_build_lock @@ fun () ->
    let dir = cache_dir () in
    let ext = artifact_ext tc in
    let base = "pvaot_" ^ digest in
    let artifact = Filename.concat dir (base ^ ext) in
    if Sys.file_exists artifact then Ok (artifact, Disk_cache)
    else
      let src_path = Filename.concat dir (base ^ ".ml") in
      write_file src_path (source ());
      let tmp_out = Filename.concat dir (base ^ ".tmp" ^ ext) in
      (match compile tc ~src_path:src_path ~out_path:tmp_out with
      | Error e -> Error e
      | Ok () ->
        (try Sys.rename tmp_out artifact
         with Sys_error e -> if not (Sys.file_exists artifact) then failwith e);
        Ok (artifact, Fresh_compile))

(** Load a cached/compiled plugin artifact and claim its entries. *)
let load_plugin ~digest path =
  load_artifact ~digest ~ext:(Filename.extension path) path
