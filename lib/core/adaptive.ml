(** Adaptive optimization across program runs — the paper's §2.2/§4
    "idle time" and "iterative compilation" directions.

    The paper argues that (a) profiles collected by the VM between runs
    should feed re-optimization (Morph [45]), and (b) iterative
    compilation — trying optimization variants and measuring — beats
    profitability models, with "virtual machine monitors [as] the ideal
    engines to drive adaptive tuning".  Both need exactly the
    infrastructure built here: the VM can measure, the bytecode is
    re-optimizable, and the optimization decisions (vectorize? unroll by
    how much?) are the target-dependent ones split compilation defers.

    {!generations} plays the whole lifecycle on one device:

    - generation 0: interpret the fresh bytecode, collecting a profile
      (zero compile cost, worst execution);
    - generation 1: split-mode JIT using the shipped annotations;
    - generation 2: idle-time iterative search — re-optimize hot
      functions under several configurations (vectorization on/off,
      unroll factors), measure each on the device's own simulator, keep
      the best. *)

(** One point in the optimization space the iterative search explores. *)
type config = { vectorize : bool; unroll : int  (** 1 = no unrolling *) }

let config_label c =
  Printf.sprintf "%s%s"
    (if c.vectorize then "vect" else "scalar")
    (if c.unroll > 1 then Printf.sprintf "+unroll%d" c.unroll else "")

let default_configs =
  [
    { vectorize = false; unroll = 1 };
    { vectorize = false; unroll = 2 };
    { vectorize = false; unroll = 4 };
    { vectorize = false; unroll = 8 };
    { vectorize = true; unroll = 1 };
    { vectorize = true; unroll = 2 };
  ]

(** Apply [config] to a fresh copy of [prog] (offline-style pipeline with
    explicit decisions instead of the default heuristics).

    [prog] must be *decision-open* bytecode — raw or traditional-mode, not
    already vectorized — because the search owns the target-dependent
    decisions.  Strength reduction runs before unrolling so the unrolled
    copies step derived pointer IVs instead of multiplying per copy. *)
let apply_config_untraced ?account (config : config) (prog : Pvir.Prog.t) :
    Pvir.Prog.t =
  let p = Pvir.Prog.copy prog in
  Pvopt.Passes.cleanup ?account p;
  ignore (Pvopt.Inline.run ?account p);
  Pvopt.Passes.cleanup ?account p;
  Pvopt.Passes.licm_all ?account p;
  if config.vectorize then ignore (Pvopt.Vectorize.run ?account p);
  List.iter (fun fn -> ignore (Pvopt.Strength.run ?account fn)) p.Pvir.Prog.funcs;
  if config.unroll > 1 then
    List.iter
      (fun fn -> ignore (Pvopt.Unroll.run ?account ~factor:config.unroll p fn))
      p.Pvir.Prog.funcs;
  Pvopt.Passes.cleanup ?account p;
  Pvopt.Regalloc_annotate.run ?account p;
  Pvir.Verify.program p;
  p

(** As above; with a trace sink, the whole tuning pipeline for this
    configuration becomes one span (category [adaptive]). *)
let apply_config ?account ?tr (config : config) (prog : Pvir.Prog.t) :
    Pvir.Prog.t =
  Pvtrace.Trace.with_span tr ~cat:"adaptive"
    ~args:[ ("config", config_label config) ]
    ("tune:" ^ config_label config)
    (fun () -> apply_config_untraced ?account config prog)

(** Result of measuring one configuration. *)
type sample = {
  config : config;
  cycles : int64;
  compile_work : int;
  degradations : int;
      (** graceful-fallback events (annotation rejects, remaps) this
          configuration triggered, from the degradation ledger *)
  result : Pvir.Value.t option;
}

(** JIT [prog] for [machine] and measure [entry args] once, with
    [prepare] filling the inputs (called after loading). *)
let measure ?account ?tr ?ledger ~machine ~prepare ~entry ~args
    (prog : Pvir.Prog.t) : int64 * Pvir.Value.t option =
  let img = Pvvm.Image.load (Pvir.Prog.copy prog) in
  let sim, _ =
    Pvjit.Jit.compile_program ?account ?tr ?ledger ~machine
      ~hints:Pvjit.Jit.Hints_annotation img
  in
  Pvvm.Sim.set_trace sim tr;
  prepare img;
  let result = Pvvm.Sim.run sim entry args in
  (Pvvm.Sim.cycles sim, result)

(** Iterative search: measure every configuration, best (fewest cycles)
    first.  All candidates must agree on the observable result — a
    mis-compiled variant is a bug, not a tuning choice.  With a [ledger],
    each sample reports how many graceful degradations its configuration
    triggered, so the adaptive layer can prefer configurations that not
    only run fast but also keep their annotations verifiable. *)
let search ?(configs = default_configs) ?tr ?ledger ~machine ~prepare ~entry
    ~args (prog : Pvir.Prog.t) : sample list =
  let ledger_count () =
    match ledger with Some l -> Pvtrace.Ledger.count l | None -> 0
  in
  let samples =
    List.map
      (fun config ->
        let account = Pvir.Account.create () in
        let before = ledger_count () in
        let tuned = apply_config ~account ?tr config prog in
        let cycles, result =
          Pvtrace.Trace.with_span tr ~cat:"adaptive"
            ~args:[ ("config", config_label config) ]
            ("measure:" ^ config_label config)
            (fun () ->
              measure ~account ?tr ?ledger ~machine ~prepare ~entry ~args
                tuned)
        in
        {
          config;
          cycles;
          compile_work = Pvir.Account.total account;
          degradations = ledger_count () - before;
          result;
        })
      configs
  in
  (match samples with
  | first :: rest ->
    List.iter
      (fun s ->
        let same =
          match (first.result, s.result) with
          | None, None -> true
          | Some a, Some b -> Pvir.Value.equal a b
          | _ -> false
        in
        if not same then
          failwith
            (Printf.sprintf "iterative search: config %s changed the result"
               (config_label s.config)))
      rest
  | [] -> ());
  List.sort (fun a b -> Int64.compare a.cycles b.cycles) samples

(** One generation of the adaptive lifecycle. *)
type generation = {
  gen : int;
  glabel : string;
  exec_cycles : int64;
  gcompile_work : int;  (** work paid to reach this generation *)
}

(* Generations 1 and 2 of the lifecycle, after generation 0's profile
   has flowed back into [prog]'s annotations. *)
let jit_generations ?configs ?tr ?ledger ~machine ~prepare ~entry ~args prog =
  (* generation 1: quick baseline JIT, no optimization time spent *)
  let account1 = Pvir.Account.create () in
  let cycles1, _ =
    measure ~account:account1 ?tr ?ledger ~machine ~prepare ~entry ~args prog
  in
  let gen1 =
    {
      gen = 1;
      glabel = "quick JIT (no optimization)";
      exec_cycles = cycles1;
      gcompile_work = Pvir.Account.total account1;
    }
  in
  (* generation 2: idle-time iterative tuning of hot code *)
  let samples = search ?configs ?tr ?ledger ~machine ~prepare ~entry ~args prog in
  let best = List.hd samples in
  let total_search_work =
    List.fold_left (fun acc s -> acc + s.compile_work) 0 samples
  in
  let gen2 =
    {
      gen = 2;
      glabel =
        Printf.sprintf "idle-time tuned (%s)" (config_label best.config);
      exec_cycles = best.cycles;
      gcompile_work = total_search_work;
    }
  in
  [ gen1; gen2 ]

(** Play the three-generation lifecycle for [entry] on [machine].
    [bytecode] must be the *raw* (pure-online) distribution: adaptive
    tuning owns every optimization decision, including the
    target-dependent ones a split-mode distribution has already baked in
    (a strength-reduced loop is no longer vectorizable, for instance). *)
let generations ?configs ?tr ?ledger ~machine ~prepare ~entry ~args
    (bytecode : string) : generation list =
  let prog = Pvir.Serial.decode bytecode in
  (* generation 0: interpret + profile *)
  let img0 = Pvvm.Image.load (Pvir.Prog.copy prog) in
  let profile = Pvvm.Profile.create () in
  let interp = Pvvm.Interp.create ~profile ?tr img0 in
  prepare img0;
  ignore (Pvvm.Interp.run interp entry args);
  let gen0 =
    {
      gen = 0;
      glabel = "interpret + profile";
      exec_cycles = Pvvm.Interp.cycles interp;
      gcompile_work = 0;
    }
  in
  (* the profile flows back as hotness annotations (the Morph feedback) *)
  Pvvm.Profile.annotate_hotness profile prog;
  gen0
  :: jit_generations ?configs ?tr ?ledger ~machine ~prepare ~entry ~args prog

(** The sampled variant of the lifecycle: generation 0 interprets under
    the {e sampling} profiler ({!Pvprof}) instead of the exhaustive
    per-block counter.  This is the deployment-shaped loop the paper's
    "idle time between runs" sketch implies — a week of execution cannot
    afford a hashtable bump per block, but it can afford one compare at
    block entries — and it also exercises the re-JIT trigger: the
    returned [hot] set is the smallest weight-ranked prefix of functions
    covering at least [hot_coverage] (default 90%) of the sampled cycle
    weight, i.e. the functions a tiering policy would hand to the JIT
    first.  Hotness annotations flow back through the same
    {!Pvir.Annot.key_hotness} key the exhaustive profiler uses, so
    generations 1 and 2 are unchanged. *)
let generations_sampled ?configs ?tr ?ledger ?(period = Pvprof.default_period)
    ?(hot_coverage = 0.9) ~machine ~prepare ~entry ~args (bytecode : string) :
    generation list * string list =
  let prog = Pvir.Serial.decode bytecode in
  (* generation 0: interpret + sample *)
  let img0 = Pvvm.Image.load (Pvir.Prog.copy prog) in
  let sampler = Pvprof.create ~period () in
  let interp = Pvvm.Interp.create ~sampler ?tr img0 in
  prepare img0;
  ignore (Pvvm.Interp.run interp entry args);
  (match tr with Some t -> Pvprof.to_trace sampler t | None -> ());
  let gen0 =
    {
      gen = 0;
      glabel =
        Printf.sprintf "interpret + sample (period %Ld, %d samples)" period
          (Pvprof.samples_taken sampler);
      exec_cycles = Pvvm.Interp.cycles interp;
      gcompile_work = 0;
    }
  in
  (* the sampled profile flows back through the same annotation key *)
  Pvprof.to_annotations sampler prog;
  let hot =
    let total = Int64.to_float (Int64.max 1L (Pvprof.total_weight sampler)) in
    let target = hot_coverage *. total in
    let rec take cum = function
      | [] -> []
      | (fn, w) :: tl ->
        if cum >= target then []
        else fn :: take (cum +. Int64.to_float w) tl
    in
    take 0.0 (Pvprof.fn_ranking sampler)
  in
  ( gen0
    :: jit_generations ?configs ?tr ?ledger ~machine ~prepare ~entry ~args prog,
    hot )
