(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe -- table1    # one experiment
     dune exec bench/main.exe -- bechamel  # wall-clock microbenchmarks

   Experiments (ids from DESIGN.md):
     E1 table1   - Table 1: split automatic vectorization
     E2 figure1  - Figure 1: the split-compilation economics
     E3 regalloc - split register allocation (Diouf et al., §4)
     E4 offload  - heterogeneous offload (§3 Cell scenario)
     E5 size     - bytecode compactness and annotation overhead
     E6 ablation - design-choice ablations (immfold, hints, strength red.)

   Absolute cycle counts come from the simulator's cost model and are not
   comparable to the paper's wall-clock numbers; the *shape* (who wins,
   by what factor) is the reproduction target.  EXPERIMENTS.md records
   the side-by-side comparison. *)

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Minimal JSON emitter for --json (machine-readable results; no
   external dependency) *)

module Json = struct
  type t =
    | Int of int64
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Int i -> Buffer.add_string buf (Int64.to_string i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf
end

let json_file : string option ref = ref None
let recorded : (string * Json.t) list ref = ref []
let record key j = recorded := (key, j) :: !recorded

(* File artifacts (traces, collapsed stacks) land under bench/out/, not
   the repo root; created on demand so a fresh checkout just works. *)
let out_path name =
  let dir = Filename.concat "bench" "out" in
  if not (Sys.file_exists "bench") then Sys.mkdir "bench" 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir name

(* host execution engine under measurement, for both the interpreter and
   the simulator (--engine; simulated cycle counts are engine-independent,
   so every experiment must print the same numbers under every setting) *)
let engine = ref Pvvm.Vm.Threaded

(* ------------------------------------------------------------------ *)
(* E1: Table 1 *)

let paper_table1 =
  (* kernel, (x86, sparc, ppc) relative speedups from the paper *)
  [
    ("vecadd_fp", (2.2, 1.4, 1.1));
    ("saxpy_fp", (2.1, 1.2, 1.3));
    ("dscal_fp", (1.6, 1.5, 1.1));
    ("max_u8", (15.6, 0.95, 1.4));
    ("sum_u8", (5.3, 0.94, 1.5));
    ("sum_u16", (2.6, 0.78, 1.5));
  ]

let table1 () =
  header
    "E1 / Table 1: run times and speedup of split automatic vectorization\n\
     (cycles for one pass over 1024 elements; scalar = traditional bytecode,\n\
     vect. = split bytecode with portable vector builtins, same JIT)";
  Printf.printf "%-10s |" "";
  List.iter
    (fun (m : Pvmach.Machine.t) ->
      Printf.printf " %26s |" (m.Pvmach.Machine.name ^ " (paper rel.)"))
    Pvmach.Machine.table1_targets;
  Printf.printf "\n%-10s |" "benchmark";
  List.iter
    (fun _ -> Printf.printf " %7s %7s %10s |" "scalar" "vect." "rel (ppr)")
    Pvmach.Machine.table1_targets;
  print_newline ();
  let rows = ref [] in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      Printf.printf "%-10s |" k.Pvkernels.Kernels.name;
      let px, ps, pp = List.assoc k.Pvkernels.Kernels.name paper_table1 in
      List.iteri
        (fun i machine ->
          let c = Pvkernels.Harness.table1_cell ~engine:!engine ~machine k in
          let paper = match i with 0 -> px | 1 -> ps | _ -> pp in
          rows :=
            Json.Obj
              [
                ("kernel", Json.Str k.Pvkernels.Kernels.name);
                ("machine", Json.Str machine.Pvmach.Machine.name);
                ("scalar_cycles", Json.Int c.Pvkernels.Harness.scalar_cycles);
                ("vector_cycles", Json.Int c.Pvkernels.Harness.vector_cycles);
                ("speedup", Json.Float c.Pvkernels.Harness.speedup);
                ("paper_speedup", Json.Float paper);
              ]
            :: !rows;
          Printf.printf " %7Ld %7Ld %4.2f (%4.2g) |"
            c.Pvkernels.Harness.scalar_cycles c.Pvkernels.Harness.vector_cycles
            c.Pvkernels.Harness.speedup paper)
        Pvmach.Machine.table1_targets;
      print_newline ())
    Pvkernels.Kernels.table1;
  record "table1" (Json.List (List.rev !rows));
  Printf.printf
    "\nshape checks: SIMD target wins everywhere, byte kernels most (max_u8\n\
     first); non-SIMD targets sit near scalar parity, crossing below 1.0 for\n\
     the byte kernels on sparcish (register pressure, 16 scalarized lanes).\n"

(* ------------------------------------------------------------------ *)
(* E2: Figure 1 *)

let figure1 () =
  header
    "E2 / Figure 1: split compilation economics\n\
     (per kernel on x86ish: offline work, online work, execution cycles;\n\
     modes: interp = bytecode interpreter, traditional = deferred without\n\
     target-dependent opts, split = annotations, pure-online = JIT does all)";
  let machine = Pvmach.Machine.x86ish in
  let kernels = Pvkernels.Kernels.[ saxpy_fp; sum_u8; fir ] in
  Printf.printf "%-10s %-12s %14s %14s %14s\n" "kernel" "mode" "offline work"
    "online work" "exec cycles";
  let rows = ref [] in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let _, icycles = Pvkernels.Harness.run_interp ~engine:!engine k in
      rows :=
        Json.Obj
          [
            ("kernel", Json.Str k.Pvkernels.Kernels.name);
            ("mode", Json.Str "interp");
            ("exec_cycles", Json.Int icycles);
          ]
        :: !rows;
      Printf.printf "%-10s %-12s %14s %14s %14Ld\n" k.Pvkernels.Kernels.name
        "interp" "-" "-" icycles;
      List.iter
        (fun mode ->
          let r = Pvkernels.Harness.run_jit ~engine:!engine ~mode ~machine k in
          rows :=
            Json.Obj
              [
                ("kernel", Json.Str k.Pvkernels.Kernels.name);
                ("mode", Json.Str (Core.Splitc.mode_name mode));
                ("offline_work", Json.Int (Int64.of_int r.Pvkernels.Harness.offline_work));
                ("online_work", Json.Int (Int64.of_int r.Pvkernels.Harness.online_work));
                ("exec_cycles", Json.Int r.Pvkernels.Harness.cycles);
              ]
            :: !rows;
          Printf.printf "%-10s %-12s %14d %14d %14Ld\n" k.Pvkernels.Kernels.name
            (Core.Splitc.mode_name mode) r.Pvkernels.Harness.offline_work
            r.Pvkernels.Harness.online_work r.Pvkernels.Harness.cycles)
        Core.Splitc.all_modes;
      print_newline ())
    kernels;
  record "figure1" (Json.List (List.rev !rows));
  Printf.printf
    "shape checks: split reaches pure-online code quality at a small multiple\n\
     of traditional online cost; pure-online pays ~10x more online; the\n\
     interpreter is an order of magnitude above any compiled mode.\n"

(* ------------------------------------------------------------------ *)
(* E3: split register allocation *)

(* compile scalar (non-vectorized) annotated bytecode: traditional cleanup
   + offline regalloc annotations — isolates the allocation question from
   vectorization *)
let scalar_annotated (k : Pvkernels.Kernels.t) =
  let p =
    Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source
  in
  Pvopt.Passes.offline_traditional p;
  Pvopt.Regalloc_annotate.run p;
  p

let regalloc_kernels = Pvkernels.Kernels.[ poly8; horner2; mix4; filterbank; fir; saxpy_fp ]

let regalloc () =
  header
    "E3 / split register allocation (after Diouf et al. [18])\n\
     (scalar bytecode on the register-poor x86ish target; linear-scan\n\
     online allocator with three spill-choice qualities)";
  Printf.printf "%-10s %-12s %12s %12s %12s %12s\n" "kernel" "hints"
    "static spill" "dyn spill" "cycles" "online work";
  let summary = ref [] in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let p = scalar_annotated k in
      let bc = Pvir.Serial.encode p in
      let machine = Pvmach.Machine.x86ish in
      let measure hints =
        let account = Pvir.Account.create () in
        let prog = Pvir.Serial.decode bc in
        let img = Pvvm.Image.load prog in
        let sim, report = Pvjit.Jit.compile_program ~account ~machine ~hints img in
        sim.Pvvm.Sim.engine <- !engine;
        Pvkernels.Harness.fill_inputs img;
        let result =
          Pvvm.Sim.run sim k.Pvkernels.Kernels.entry
            (Pvkernels.Harness.args k Pvkernels.Kernels.n_default)
        in
        let static =
          List.fold_left
            (fun acc (f : Pvjit.Jit.func_report) ->
              acc + f.Pvjit.Jit.ra.Pvjit.Regalloc.spill_instrs)
            0 report.Pvjit.Jit.funcs
        in
        ( result,
          static,
          sim.Pvvm.Sim.stats.Pvvm.Sim.spill_ops,
          Pvvm.Sim.cycles sim,
          Pvir.Account.total account )
      in
      let r_none = measure Pvjit.Jit.Hints_none in
      let r_annot = measure Pvjit.Jit.Hints_annotation in
      let r_reco = measure Pvjit.Jit.Hints_recompute in
      let res0, _, _, _, _ = r_none and res1, _, _, _, _ = r_annot in
      (match (res0, res1) with
      | Some a, Some b when not (Pvir.Value.equal a b) ->
        failwith "allocators disagree!"
      | _ -> ());
      List.iter
        (fun (label, (_, st, dyn, cyc, work)) ->
          Printf.printf "%-10s %-12s %12d %12Ld %12Ld %12d\n"
            k.Pvkernels.Kernels.name label st dyn cyc work)
        [ ("none", r_none); ("annotation", r_annot); ("recompute", r_reco) ];
      let _, _, dyn0, cyc0, _ = r_none in
      let _, _, dyn1, cyc1, w1 = r_annot in
      let _, _, _, _, w2 = r_reco in
      let saving =
        if Int64.equal dyn0 0L then 0.0
        else 100.0 *. (1.0 -. (Int64.to_float dyn1 /. Int64.to_float dyn0))
      in
      summary := (k.Pvkernels.Kernels.name, saving, cyc0, cyc1, w1, w2) :: !summary;
      print_newline ())
    regalloc_kernels;
  Printf.printf "summary (annotation vs blind online):\n";
  List.iter
    (fun (name, saving, cyc0, cyc1, w1, w2) ->
      Printf.printf
        "  %-10s dyn spill ops saved: %5.1f%%  cycles %Ld -> %Ld  (annotation\n\
        \             online work %d vs %d recomputed)\n"
        name saving cyc0 cyc1 w1 w2)
    (List.rev !summary);
  Printf.printf
    "\nshape check: the paper (citing [18]) reports up to 40%% of spills\n\
     saved by annotation-driven allocation at linear online cost, with\n\
     quality matching the offline allocator (here: annotation == recompute\n\
     quality, at a fraction of its online work).\n"

(* ------------------------------------------------------------------ *)
(* E4: heterogeneous offload *)

let offload () =
  header
    "E4 / heterogeneous offload (the paper's §3 Cell PPE+SPU scenario)\n\
     (3-stage KPN; numeric stage measured per core by JIT+simulation;\n\
     placements: everything on the host vs annotation-driven offload)";
  let host = { Pvsched.Mapper.cname = "host-ppc"; machine = Pvmach.Machine.ppcish } in
  let accel = { Pvsched.Mapper.cname = "accel-dsp"; machine = Pvmach.Machine.dspish } in
  let platform = { Pvsched.Mapper.cores = [ host; accel ]; transfer_cost = 600 } in
  let kernel_cost machine =
    let r =
      Pvkernels.Harness.run_jit ~n:1024 ~mode:Core.Splitc.Split ~machine
        Pvkernels.Kernels.saxpy_fp
    in
    Int64.to_int r.Pvkernels.Harness.cycles
  in
  let cost_host = kernel_cost host.machine in
  let cost_accel = kernel_cost accel.machine in
  Printf.printf
    "numeric stage: %d cycles/block on host, %d on accelerator (%.2fx)\n\n"
    cost_host cost_accel
    (float_of_int cost_host /. float_of_int cost_accel);
  let mk name inputs outputs annots work =
    { Pvsched.Kpn.pname = name; inputs; outputs; fire = (fun toks -> toks); annots; work }
  in
  let simd_pref =
    Pvir.Annot.add Pvir.Annot.key_hw_prefs
      (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
      Pvir.Annot.empty
  in
  let processes =
    [
      mk "produce" [ "in" ] [ "raw" ] Pvir.Annot.empty 1;
      mk "filter" [ "raw" ] [ "filtered" ] simd_pref 100;
      mk "collect" [ "filtered" ] [ "out" ] Pvir.Annot.empty 1;
    ]
  in
  let cost (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
    match p.Pvsched.Kpn.pname with
    | "filter" -> if c == accel then cost_accel else cost_host
    | _ -> 200 * c.Pvsched.Mapper.machine.Pvmach.Machine.branch_cost
  in
  let fresh_net blocks =
    let net = Pvsched.Kpn.create processes in
    for b = 1 to blocks do
      Pvsched.Kpn.push net "in" [| Pvir.Value.i64 (Int64.of_int b) |]
    done;
    net
  in
  Printf.printf "%-8s %16s %16s %10s\n" "blocks" "host-only (cyc)"
    "offloaded (cyc)" "speedup";
  List.iter
    (fun blocks ->
      let host_only =
        Pvsched.Mapper.makespan platform cost
          (Pvsched.Mapper.place_all_on host processes)
          (fresh_net blocks)
      in
      let auto_pl = Pvsched.Mapper.place platform cost processes in
      let auto = Pvsched.Mapper.makespan platform cost auto_pl (fresh_net blocks) in
      Printf.printf "%-8d %16Ld %16Ld %9.2fx\n" blocks host_only auto
        (Int64.to_float host_only /. Int64.to_float auto))
    [ 4; 16; 64; 256 ];
  Printf.printf
    "\nshape check: offload speedup approaches the numeric stage's per-core\n\
     ratio as the pipeline fills (transfer latency amortizes).\n"

(* ------------------------------------------------------------------ *)
(* E5: size / compactness *)

let size () =
  header
    "E5 / bytecode compactness (cf. the paper's §2.1, ref [15])\n\
     (binary PVIR size with and without annotations, and the JIT-produced\n\
     native code size per target, in MIR instructions)";
  Printf.printf "%-10s %10s %10s %8s |" "kernel" "bytecode" "stripped" "annot%";
  List.iter
    (fun (m : Pvmach.Machine.t) -> Printf.printf " %9s" m.Pvmach.Machine.name)
    Pvmach.Machine.table1_targets;
  Printf.printf "  (native instrs)\n";
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let p =
        Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source
      in
      let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
      let bc = Core.Splitc.distribute off in
      let full = String.length bc in
      let stripped =
        String.length (Pvir.Serial.encode_stripped off.Core.Splitc.prog)
      in
      Printf.printf "%-10s %10d %10d %7.1f%% |" k.Pvkernels.Kernels.name full
        stripped
        (100. *. float_of_int (full - stripped) /. float_of_int full);
      List.iter
        (fun machine ->
          let on = Core.Splitc.online ~mode:Core.Splitc.Split ~machine bc in
          let native =
            List.fold_left
              (fun acc (f : Pvjit.Jit.func_report) -> acc + f.Pvjit.Jit.mir_size)
              0 on.Core.Splitc.jit.Pvjit.Jit.funcs
          in
          Printf.printf " %9d" native)
        Pvmach.Machine.table1_targets;
      print_newline ())
    Pvkernels.Kernels.table1;
  Printf.printf
    "\nshape check: annotations cost a bounded fraction of the bytecode;\n\
     one portable bytecode replaces N per-target binaries (scalarized\n\
     targets need several times more native instructions than SIMD ones).\n"

(* ------------------------------------------------------------------ *)
(* E6: ablations *)

let ablation () =
  header
    "E6 / ablations: what the design choices buy\n\
     (saxpy on x86ish, split mode; each row disables one JIT ingredient)";
  let k = Pvkernels.Kernels.saxpy_fp in
  let machine = Pvmach.Machine.x86ish in
  let p =
    Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source
  in
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split p in
  let bc = Core.Splitc.distribute off in
  let run ~immfold ~peephole ~hints =
    let prog = Pvir.Serial.decode bc in
    let img = Pvvm.Image.load prog in
    let sim = Pvvm.Sim.create ~engine:!engine img machine in
    List.iter
      (fun fn ->
        let mf =
          Pvjit.Lower.run ~machine
            ~resolve_global:(Pvvm.Image.global_address img)
            fn
        in
        let exp = Pvjit.Legalize.run mf in
        if immfold then ignore (Pvjit.Immfold.run mf);
        let quality =
          match hints with
          | `None -> Pvjit.Regalloc.Heuristic
          | `Annot -> (
            match Pvjit.Annot_check.check_spill_order fn with
            | _, Some order ->
              Pvjit.Regalloc.Weights
                (Pvjit.Jit.extend_weights exp
                   (Pvjit.Jit.weight_fun_of_order order))
            | _, None -> Pvjit.Regalloc.Heuristic)
        in
        ignore (Pvjit.Regalloc.run ~quality mf);
        if peephole then ignore (Pvjit.Peephole.run mf);
        Pvvm.Sim.add_func sim mf)
      prog.Pvir.Prog.funcs;
    Pvkernels.Harness.fill_inputs img;
    ignore
      (Pvvm.Sim.run sim k.Pvkernels.Kernels.entry
         (Pvkernels.Harness.args k Pvkernels.Kernels.n_default));
    (Pvvm.Sim.cycles sim, sim.Pvvm.Sim.stats.Pvvm.Sim.spill_ops)
  in
  Printf.printf "%-34s %12s %12s\n" "configuration" "cycles" "dyn spills";
  List.iter
    (fun (label, immfold, peephole, hints) ->
      let cycles, spills = run ~immfold ~peephole ~hints in
      Printf.printf "%-34s %12Ld %12Ld\n" label cycles spills)
    [
      ("full JIT", true, true, `Annot);
      ("- immediate folding", false, true, `Annot);
      ("- peephole", true, false, `Annot);
      ("- allocation hints", true, true, `None);
      ("bare (none of the above)", false, false, `None);
    ];
  (* offline ablation: strength reduction (compare the traditional-mode
     pipeline, which includes it, against the same pipeline without it) *)
  let cycles_with =
    (Pvkernels.Harness.run_jit ~mode:Core.Splitc.Traditional_deferred ~machine k)
      .Pvkernels.Harness.cycles
  in
  let p2 =
    Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source
  in
  Pvopt.Passes.cleanup p2;
  List.iter (fun fn -> ignore (Pvopt.Licm.run fn)) p2.Pvir.Prog.funcs;
  Pvopt.Passes.cleanup p2;
  let img = Pvvm.Image.load p2 in
  let sim, _ = Pvjit.Jit.compile_program ~machine ~hints:Pvjit.Jit.Hints_none img in
  sim.Pvvm.Sim.engine <- !engine;
  Pvkernels.Harness.fill_inputs img;
  ignore
    (Pvvm.Sim.run sim k.Pvkernels.Kernels.entry
       (Pvkernels.Harness.args k Pvkernels.Kernels.n_default));
  Printf.printf "\noffline strength reduction: %Ld cycles with, %Ld without\n"
    cycles_with (Pvvm.Sim.cycles sim)

(* ------------------------------------------------------------------ *)
(* E7: adaptive / iterative compilation *)

let adaptive () =
  header
    "E7 / adaptive optimization across runs (paper \xc2\xa72.2 idle-time + \xc2\xa74\n\
     iterative compilation: virtual machine monitors drive adaptive tuning)\n\
     (sum_u16, raw bytecode; gen 0 interprets + profiles, gen 1 is a quick\n\
     baseline JIT, gen 2 searches {vectorize} x {unroll} by measurement)";
  let k = Pvkernels.Kernels.sum_u16 in
  let p =
    Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source
  in
  let bc = Core.Splitc.distribute (Core.Splitc.offline ~mode:Core.Splitc.Pure_online p) in
  let prepare img = Pvkernels.Harness.fill_inputs img in
  let args = Pvkernels.Harness.args k 1000 in
  List.iter
    (fun machine ->
      Printf.printf "%s:\n" machine.Pvmach.Machine.name;
      let gens =
        Core.Adaptive.generations ~machine ~prepare
          ~entry:k.Pvkernels.Kernels.entry ~args bc
      in
      List.iter
        (fun (g : Core.Adaptive.generation) ->
          Printf.printf "  gen %d %-34s %10Ld cycles  (compile work %d)\n"
            g.Core.Adaptive.gen g.Core.Adaptive.glabel
            g.Core.Adaptive.exec_cycles g.Core.Adaptive.gcompile_work)
        gens;
      (* full search detail *)
      let samples =
        Core.Adaptive.search ~machine ~prepare ~entry:k.Pvkernels.Kernels.entry
          ~args (Pvir.Serial.decode bc)
      in
      List.iter
        (fun (s : Core.Adaptive.sample) ->
          Printf.printf "      %-16s %10Ld cycles\n"
            (Core.Adaptive.config_label s.Core.Adaptive.config)
            s.Core.Adaptive.cycles)
        samples;
      print_newline ())
    Pvmach.Machine.table1_targets;
  Printf.printf
    "shape check: the measured winner differs per target: SIMD machines\n\
     pick vectorization, the windowed-register RISC picks scalar unrolling\n\
     over vectorization - exactly the target-dependent decision the paper\n\
     wants deferred behind the bytecode boundary.\n"

(* ------------------------------------------------------------------ *)
(* E8: separate compilation + link-time optimization *)

let lto () =
  header
    "E8 / link-time whole-program optimization (paper \xc2\xa74)\n\
     (an application module calls a library module through extern\n\
     declarations; the installer links, tree-shakes and re-optimizes)";
  let mathlib =
    Core.Splitc.frontend ~name:"mathlib"
      {|
i32 ml_dead_table[256];
i64 square(i64 x) { return x * x; }
i64 cube(i64 x) { return x * square(x); }
i64 dead_helper(i64 x) { ml_dead_table[0] = (i32)x; return x; }
i64 dead_helper2(i64 x) { return dead_helper(x) * 2; }
|}
  in
  let app =
    Core.Splitc.frontend ~name:"app"
      {|
extern i64 square(i64);
extern i64 cube(i64);
i64 app_main(i64 n) {
  i64 s = 0;
  for (i64 i = 1; i <= n; i++) { s += square(i) + cube(i); }
  return s;
}
|}
  in
  let linked = Pvir.Link.link ~name:"whole" [ mathlib; app ] in
  let size p = String.length (Pvir.Serial.encode p) in
  let run p =
    let img = Pvvm.Image.load (Pvir.Prog.copy p) in
    let sim, _ =
      Pvjit.Jit.compile_program ~machine:Pvmach.Machine.x86ish
        ~hints:Pvjit.Jit.Hints_annotation img
    in
    sim.Pvvm.Sim.engine <- !engine;
    ignore (Pvvm.Sim.run sim "app_main" [ Pvir.Value.i64 256L ]);
    Pvvm.Sim.cycles sim
  in
  Printf.printf "%-44s %10s %12s\n" "stage" "bytes" "exec cycles";
  Printf.printf "%-44s %10d %12s\n" "modules shipped separately (mathlib+app)"
    (size mathlib + size app) "-";
  Printf.printf "%-44s %10d %12Ld\n" "linked" (size linked) (run linked);
  let shaken = Pvir.Prog.copy linked in
  let rf, rg = Pvir.Link.treeshake ~roots:[ "app_main" ] shaken in
  Printf.printf "%-44s %10d %12Ld   (-%d funcs, -%d globals)\n"
    "linked + tree-shaken" (size shaken) (run shaken) rf rg;
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split shaken in
  Printf.printf "%-44s %10d %12Ld\n"
    "linked + shaken + whole-program optimized"
    (size off.Core.Splitc.prog)
    (run off.Core.Splitc.prog);
  Printf.printf
    "\nshape check: linking exposes the library to inlining (the call\n\
     overhead disappears) and tree shaking removes dead vendor code - the\n\
     deployment-side benefits the paper attributes to virtualization.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock microbenchmarks of the toolchain itself *)

let bechamel () =
  header
    "wall-clock microbenchmarks (Bechamel): toolchain component costs\n\
     (one Test.make per pipeline stage; monotonic-clock OLS estimates)";
  let open Bechamel in
  let k = Pvkernels.Kernels.saxpy_fp in
  let src = k.Pvkernels.Kernels.source in
  let p0 = Core.Splitc.frontend src in
  let off = Core.Splitc.offline ~mode:Core.Splitc.Split p0 in
  let bc = Core.Splitc.distribute off in
  let tests =
    [
      Test.make ~name:"frontend (parse+check+lower)"
        (Staged.stage (fun () -> ignore (Core.Splitc.frontend src)));
      Test.make ~name:"offline pipeline (split mode)"
        (Staged.stage (fun () ->
             ignore (Core.Splitc.offline ~mode:Core.Splitc.Split p0)));
      Test.make ~name:"bytecode decode+verify+load"
        (Staged.stage (fun () -> ignore (Pvvm.Image.load (Pvir.Serial.decode bc))));
      Test.make ~name:"JIT (x86ish, split hints)"
        (Staged.stage (fun () ->
             let img = Pvvm.Image.load (Pvir.Serial.decode bc) in
             ignore
               (Pvjit.Jit.compile_program ~machine:Pvmach.Machine.x86ish
                  ~hints:Pvjit.Jit.Hints_annotation img)));
      Test.make ~name:"JIT (sparcish, scalarizing)"
        (Staged.stage (fun () ->
             let img = Pvvm.Image.load (Pvir.Serial.decode bc) in
             ignore
               (Pvjit.Jit.compile_program ~machine:Pvmach.Machine.sparcish
                  ~hints:Pvjit.Jit.Hints_annotation img)));
      Test.make ~name:"simulated run (x86ish, n=1024)"
        (Staged.stage
           (let on =
              Core.Splitc.online ~mode:Core.Splitc.Split
                ~machine:Pvmach.Machine.x86ish bc
            in
            Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
            fun () ->
              ignore
                (Pvvm.Sim.run on.Core.Splitc.sim k.Pvkernels.Kernels.entry
                   (Pvkernels.Harness.args k 1024))));
      Test.make ~name:"interpreted run (n=1024)"
        (Staged.stage
           (let it = Core.Splitc.interpret bc in
            Pvkernels.Harness.fill_inputs it.Pvvm.Interp.img;
            fun () ->
              ignore
                (Pvvm.Interp.run it k.Pvkernels.Kernels.entry
                   (Pvkernels.Harness.args k 1024))));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all
      (Benchmark.cfg ~quota ~kde:None ())
      Toolkit.Instance.[ monotonic_clock ]
      test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun t ->
      let results = analyze (benchmark t) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-36s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-36s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Execution engines: AOT-compiled native code vs pre-decoded
   direct-threaded dispatch vs the tree-walking reference, on the VM's
   own hot loops *)

let engines () =
  header
    "execution engines: tree-walking vs pre-decoded (threaded) vs AOT-compiled\n\
     (host wall-clock via Bechamel OLS on the interpreter hot loop for every\n\
     Table-1 kernel, 1024 elements, the simulator's tree-walk vs threaded\n\
     loops on sum_u16, and the simulator's threaded vs AOT engines on every\n\
     Table-1 kernel on x86ish and sparcish; results, output and\n\
     cycle/instruction/spill accounting are asserted identical across\n\
     engines before timing)";
  Pvaot.install ();
  let open Bechamel in
  let k = Pvkernels.Kernels.sum_u16 in
  let n = 1024 in
  let kargs = Pvkernels.Harness.args k n in
  let entry = k.Pvkernels.Kernels.entry in
  let measure name f =
    (* an empty major heap at the start of each series keeps GC noise from
       leaking between the engines under comparison *)
    Gc.full_major ();
    let raw =
      Benchmark.all
        (Benchmark.cfg ~quota:(Time.second 1.0) ~kde:None ())
        Toolkit.Instance.[ monotonic_clock ]
        (Test.make ~name (Staged.stage f))
    in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    let est = ref nan in
    Hashtbl.iter
      (fun _ ols ->
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> est := e
        | _ -> ())
      results;
    !est
  in
  let check_equal what (ra, outa, ca) (rb, outb, cb) =
    let vopt_equal = function
      | None, None -> true
      | Some x, Some y -> Pvir.Value.equal x y
      | _ -> false
    in
    if not (vopt_equal (ra, rb)) then
      failwith (Printf.sprintf "%s: engines disagree on the result" what);
    if not (String.equal outa outb) then
      failwith (Printf.sprintf "%s: engines disagree on printed output" what);
    if not (Int64.equal ca cb) then
      failwith
        (Printf.sprintf "%s: engines disagree on cycles (%Ld vs %Ld)" what ca
           cb)
  in
  let report what tw th =
    let speedup = tw /. th in
    Printf.printf "%-12s %12.0f ns/run tree-walk %12.0f ns/run threaded  %5.2fx\n"
      what tw th speedup;
    speedup
  in
  (* interpreter: unoptimized bytecode, one VM per engine per kernel.
     The AOT engine must really run compiled code (checked via
     interp_status), and all three engines must agree on result, output
     and accounting before any timing happens. *)
  let interp_of (k : Pvkernels.Kernels.t) engine =
    let p =
      Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
        k.Pvkernels.Kernels.source
    in
    let img = Pvvm.Image.load p in
    Pvkernels.Harness.fill_inputs img;
    Pvvm.Interp.create ~fuel:Int64.max_int ~engine img
  in
  Printf.printf
    "%-10s %12s %12s %12s %10s %10s\n" "kernel" "tree ns" "threaded ns"
    "aot ns" "th/tree" "aot/th";
  let aot_wins = ref 0 in
  let kernel_rows =
    List.map
      (fun (k : Pvkernels.Kernels.t) ->
        let kargs = Pvkernels.Harness.args k n in
        let entry = k.Pvkernels.Kernels.entry in
        let it_tw = interp_of k Pvvm.Interp.Tree_walk in
        let it_th = interp_of k Pvvm.Interp.Threaded in
        let it_aot = interp_of k Pvvm.Interp.Aot in
        (match Pvaot.interp_status it_aot with
        | Ok _ -> ()
        | Error r ->
          failwith
            (Printf.sprintf "engines: %s fell back to threaded (%s)"
               k.Pvkernels.Kernels.name r));
        let once it =
          ( Pvvm.Interp.run it entry kargs,
            Pvvm.Interp.output it,
            Pvvm.Interp.cycles it,
            it.Pvvm.Interp.stats.Pvvm.Interp.instrs )
        in
        let check_equal3 what (ra, outa, ca, ia) (rb, outb, cb, ib) =
          check_equal what (ra, outa, ca) (rb, outb, cb);
          if not (Int64.equal ia ib) then
            failwith
              (Printf.sprintf "%s: engines disagree on instrs (%Ld vs %Ld)"
                 what ia ib)
        in
        let o_tw = once it_tw in
        check_equal3 (k.Pvkernels.Kernels.name ^ "/threaded") o_tw (once it_th);
        check_equal3 (k.Pvkernels.Kernels.name ^ "/aot") o_tw (once it_aot);
        let label e = k.Pvkernels.Kernels.name ^ "/" ^ e in
        let t_tw =
          measure (label "tree-walk") (fun () ->
              ignore (Pvvm.Interp.run it_tw entry kargs))
        in
        let t_th =
          measure (label "threaded") (fun () ->
              ignore (Pvvm.Interp.run it_th entry kargs))
        in
        let t_aot =
          measure (label "aot") (fun () ->
              ignore (Pvvm.Interp.run it_aot entry kargs))
        in
        let th_speedup = t_tw /. t_th and aot_speedup = t_th /. t_aot in
        if aot_speedup >= 10.0 then incr aot_wins;
        Printf.printf "%-10s %12.0f %12.0f %12.0f %9.2fx %9.2fx\n"
          k.Pvkernels.Kernels.name t_tw t_th t_aot th_speedup aot_speedup;
        Json.Obj
          [
            ("kernel", Json.Str k.Pvkernels.Kernels.name);
            ("n", Json.Int (Int64.of_int n));
            ("tree_walk_ns", Json.Float t_tw);
            ("threaded_ns", Json.Float t_th);
            ("aot_ns", Json.Float t_aot);
            ("threaded_speedup", Json.Float th_speedup);
            ("aot_speedup", Json.Float aot_speedup);
          ])
      Pvkernels.Kernels.table1
  in
  Printf.printf
    "aot >= 10x over threaded on %d/%d Table-1 kernels (target: >= 4)\n\n"
    !aot_wins
    (List.length Pvkernels.Kernels.table1);
  (* simulator: JIT output on x86ish, one sim per engine.  The scalar
     (traditional-mode) pipeline is the dispatch-bound hot loop; the
     vectorized (split-mode) pipeline amortizes dispatch across 16 lanes,
     so its engine ratio is bounded by the shared per-lane work. *)
  let sim_pair what mode =
    let bc =
      Core.Splitc.distribute
        (Core.Splitc.offline ~mode
           (Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
              k.Pvkernels.Kernels.source))
    in
    let sim_of engine =
      let on =
        Core.Splitc.online ~mode ~machine:Pvmach.Machine.x86ish ~engine bc
      in
      Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
      on.Core.Splitc.sim
    in
    let sim_tw = sim_of Pvvm.Sim.Tree_walk in
    let sim_th = sim_of Pvvm.Sim.Threaded in
    let once_s sim =
      (Pvvm.Sim.run sim entry kargs, Pvvm.Sim.output sim, Pvvm.Sim.cycles sim)
    in
    check_equal what (once_s sim_tw) (once_s sim_th);
    let s_tw =
      measure (what ^ "/tree-walk") (fun () ->
          ignore (Pvvm.Sim.run sim_tw entry kargs))
    in
    let s_th =
      measure (what ^ "/threaded") (fun () ->
          ignore (Pvvm.Sim.run sim_th entry kargs))
    in
    let s_speedup = report what s_tw s_th in
    ( what,
      Json.Obj
        [
          ("tree_walk_ns", Json.Float s_tw);
          ("threaded_ns", Json.Float s_th);
          ("speedup", Json.Float s_speedup);
        ] )
  in
  let scalar_row = sim_pair "sim/scalar" Core.Splitc.Traditional_deferred in
  let vector_row = sim_pair "sim/vector" Core.Splitc.Split in
  (* simulator AOT: every Table-1 kernel's split bytecode on x86ish and
     sparcish.  The AOT engine must really run compiled code (checked via
     sim_status), and both engines must agree on result, output, cycles,
     instructions and spill operations before any timing happens. *)
  Printf.printf "\n%-10s %-9s %12s %12s %9s\n" "kernel" "machine" "threaded ns"
    "aot ns" "aot/th";
  let sim_aot_wins = ref 0 in
  let sim_rows =
    List.concat_map
      (fun (m : Pvmach.Machine.t) ->
        List.map
          (fun (k : Pvkernels.Kernels.t) ->
            let kargs = Pvkernels.Harness.args k n in
            let entry = k.Pvkernels.Kernels.entry in
            let what =
              Printf.sprintf "%s/%s" k.Pvkernels.Kernels.name
                m.Pvmach.Machine.name
            in
            let bc =
              Core.Splitc.distribute
                (Core.Splitc.offline ~mode:Core.Splitc.Split
                   (Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
                      k.Pvkernels.Kernels.source))
            in
            let sim_of engine =
              let on =
                Core.Splitc.online ~mode:Core.Splitc.Split ~machine:m ~engine bc
              in
              Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
              on.Core.Splitc.sim.Pvvm.Sim.fuel <- Int64.max_int;
              on.Core.Splitc.sim
            in
            let sim_th = sim_of Pvvm.Sim.Threaded in
            let sim_aot = sim_of Pvvm.Sim.Aot in
            (match Pvaot.sim_status sim_aot with
            | Ok _ -> ()
            | Error r ->
              failwith
                (Printf.sprintf "engines: %s fell back to threaded (%s)" what r));
            let once sim =
              let r = Pvvm.Sim.run sim entry kargs in
              let st = sim.Pvvm.Sim.stats in
              ( r,
                Pvvm.Sim.output sim,
                st.Pvvm.Sim.cycles,
                st.Pvvm.Sim.instrs,
                st.Pvvm.Sim.spill_ops )
            in
            let r0, o0, c0, i0, s0 = once sim_th in
            let r1, o1, c1, i1, s1 = once sim_aot in
            check_equal (what ^ "/aot") (r0, o0, c0) (r1, o1, c1);
            if not (Int64.equal i0 i1 && Int64.equal s0 s1) then
              failwith
                (Printf.sprintf
                   "%s/aot: engines disagree on instrs or spill ops (%Ld/%Ld vs \
                    %Ld/%Ld)"
                   what i0 s0 i1 s1);
            let t_th =
              measure (what ^ "/threaded") (fun () ->
                  ignore (Pvvm.Sim.run sim_th entry kargs))
            in
            let t_aot =
              measure (what ^ "/aot") (fun () ->
                  ignore (Pvvm.Sim.run sim_aot entry kargs))
            in
            let speedup = t_th /. t_aot in
            if speedup >= 5.0 then incr sim_aot_wins;
            Printf.printf "%-10s %-9s %12.0f %12.0f %8.2fx\n"
              k.Pvkernels.Kernels.name m.Pvmach.Machine.name t_th t_aot speedup;
            Json.Obj
              [
                ("kernel", Json.Str k.Pvkernels.Kernels.name);
                ("machine", Json.Str m.Pvmach.Machine.name);
                ("n", Json.Int (Int64.of_int n));
                ("threaded_ns", Json.Float t_th);
                ("aot_ns", Json.Float t_aot);
                ("aot_speedup", Json.Float speedup);
              ])
          Pvkernels.Kernels.table1)
      [ Pvmach.Machine.x86ish; Pvmach.Machine.sparcish ]
  in
  Printf.printf
    "simulator aot >= 5x over threaded on %d/%d kernel x machine pairs\n"
    !sim_aot_wins (List.length sim_rows);
  record "engines"
    (Json.Obj
       [
         ("kernels", Json.List kernel_rows);
         ( "aot_10x_kernels",
           Json.Int (Int64.of_int !aot_wins) );
         ("sim_kernel", Json.Str k.Pvkernels.Kernels.name);
         scalar_row;
         vector_row;
         ("sim_aot", Json.List sim_rows);
         ("sim_aot_5x_pairs", Json.Int (Int64.of_int !sim_aot_wins));
       ]);
  Printf.printf
    "\nshape check: compilation tiers pay for themselves on every hot loop\n\
     (pre-decoding >= 3x over tree-walking on dispatch-bound loops; AOT\n\
     native code >= 10x over pre-decoding on at least 4 of 6 Table-1\n\
     kernels in the interpreter, and faster than pre-decoding on every\n\
     simulated kernel x machine).  Cycle counts, results and printed\n\
     output are identical across all engines by construction — asserted\n\
     above before timing.\n"

(* ------------------------------------------------------------------ *)
(* E14: sampling profiler — fidelity and overhead *)

(* The sampler must be free twice over: profiled runs bit-identical to
   unprofiled ones (zero observer effect on the virtual machine state),
   and the wall-clock cost of the block-entry poll within the E14 budget
   (<= 5% on the Table-1 kernels at the default period).  Both are
   asserted here, not just printed; fidelity is checked against the
   exhaustive per-block profiler's ranking. *)
let profile_bench () =
  header
    "E14 / sampling profiler: overhead and fidelity (Table-1 kernels,\n\
     threaded interpreter, default period)\n\
     (plain vs sampled runs are asserted bit-identical in result, output,\n\
     cycles and instrs before timing; the sampled hot-function ranking\n\
     must agree with the exhaustive profiler's; average poll overhead\n\
     must stay within the 5% budget)";
  let n = 1024 in
  (* Interleaved batch timing rather than two independent Bechamel
     series: the plain/sampled ratio is what the budget constrains, and
     two series measured seconds apart on a shared machine drift more
     than the effect being measured.  Timing alternating batches and
     keeping the per-config minimum cancels the drift; CPU time ignores
     scheduler preemption entirely.  The minimum is the right statistic
     because noise only ever adds time. *)
  let batch = 100 and reps = 5 and warmup = 20 in
  let measure_pair fa fb =
    for _ = 1 to warmup do
      fa ();
      fb ()
    done;
    let best_a = ref infinity and best_b = ref infinity in
    let timed best f =
      Gc.full_major ();
      let t0 = Sys.time () in
      for _ = 1 to batch do
        f ()
      done;
      let per_run = (Sys.time () -. t0) *. 1e9 /. float_of_int batch in
      if per_run < !best then best := per_run
    in
    for _ = 1 to reps do
      timed best_a fa;
      timed best_b fb
    done;
    (!best_a, !best_b)
  in
  Printf.printf "%-10s %12s %12s %9s %9s %-10s %s\n" "kernel" "plain ns"
    "sampled ns" "overhead" "samples" "hot fn" "(exhaustive agrees)";
  let folded = Buffer.create 4096 in
  let overheads = ref [] in
  let rows = ref [] in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let kargs = Pvkernels.Harness.args k n in
      let entry = k.Pvkernels.Kernels.entry in
      let prog =
        Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
          k.Pvkernels.Kernels.source
      in
      let interp_of ?profile ?sampler () =
        let img = Pvvm.Image.load (Pvir.Prog.copy prog) in
        Pvkernels.Harness.fill_inputs img;
        Pvvm.Interp.create ~fuel:Int64.max_int ~engine:Pvvm.Interp.Threaded
          ?profile ?sampler img
      in
      let it_plain = interp_of () in
      let sampler = Pvprof.create () in
      let it_sampled = interp_of ~sampler () in
      let exhaustive = Pvvm.Profile.create () in
      let it_exh = interp_of ~profile:exhaustive () in
      let once it =
        ( Pvvm.Interp.run it entry kargs,
          Pvvm.Interp.output it,
          Pvvm.Interp.cycles it,
          it.Pvvm.Interp.stats.Pvvm.Interp.instrs )
      in
      let check what (ra, oa, ca, ia) (rb, ob, cb, ib) =
        let vopt_equal = function
          | None, None -> true
          | Some x, Some y -> Pvir.Value.equal x y
          | _ -> false
        in
        if not (vopt_equal (ra, rb)) then
          failwith (Printf.sprintf "%s: results differ" what);
        if not (String.equal oa ob) then
          failwith (Printf.sprintf "%s: outputs differ" what);
        if not (Int64.equal ca cb) then
          failwith (Printf.sprintf "%s: cycles differ (%Ld vs %Ld)" what ca cb);
        if not (Int64.equal ia ib) then
          failwith (Printf.sprintf "%s: instrs differ (%Ld vs %Ld)" what ia ib)
      in
      let o_plain = once it_plain in
      check (k.Pvkernels.Kernels.name ^ "/sampled") o_plain (once it_sampled);
      check (k.Pvkernels.Kernels.name ^ "/exhaustive") o_plain (once it_exh);
      (* fidelity: the sampled hot function is the exhaustive hot function *)
      let sampled_top =
        match Pvprof.fn_ranking sampler with
        | (fn, _) :: _ -> fn
        | [] -> failwith (k.Pvkernels.Kernels.name ^ ": no samples taken")
      in
      let exh_top =
        List.fold_left
          (fun (bf, bw) (fn : Pvir.Func.t) ->
            let w = Pvvm.Profile.weight exhaustive fn.Pvir.Func.name in
            if w > bw then (fn.Pvir.Func.name, w) else (bf, bw))
          ("", 0) prog.Pvir.Prog.funcs
        |> fst
      in
      if not (String.equal sampled_top exh_top) then
        failwith
          (Printf.sprintf
             "%s: sampled ranking (%s) disagrees with exhaustive (%s)"
             k.Pvkernels.Kernels.name sampled_top exh_top);
      Buffer.add_string folded (Pvprof.to_collapsed sampler);
      let t_plain, t_sampled =
        measure_pair
          (fun () -> ignore (Pvvm.Interp.run it_plain entry kargs))
          (fun () -> ignore (Pvvm.Interp.run it_sampled entry kargs))
      in
      let overhead = 100.0 *. ((t_sampled /. t_plain) -. 1.0) in
      overheads := overhead :: !overheads;
      Printf.printf "%-10s %12.0f %12.0f %8.2f%% %9d %-10s yes\n"
        k.Pvkernels.Kernels.name t_plain t_sampled overhead
        (Pvprof.samples_taken sampler)
        sampled_top;
      rows :=
        Json.Obj
          [
            ("kernel", Json.Str k.Pvkernels.Kernels.name);
            ("plain_ns", Json.Float t_plain);
            ("sampled_ns", Json.Float t_sampled);
            ("overhead_pct", Json.Float overhead);
            ("samples", Json.Int (Int64.of_int (Pvprof.samples_taken sampler)));
            ("hot_fn", Json.Str sampled_top);
          ]
        :: !rows)
    Pvkernels.Kernels.table1;
  let avg =
    List.fold_left ( +. ) 0.0 !overheads
    /. float_of_int (List.length !overheads)
  in
  let artifact = out_path "profile_folded.txt" in
  let oc = open_out artifact in
  output_string oc (Buffer.contents folded);
  close_out oc;
  Printf.printf
    "\naverage sampling overhead: %.2f%% (budget: 5%%); collapsed stacks\n\
     for all kernels written to %s\n"
    avg artifact;
  record "profile"
    (Json.Obj
       [
         ("kernels", Json.List (List.rev !rows));
         ("avg_overhead_pct", Json.Float avg);
         ("period", Json.Int Pvprof.default_period);
       ]);
  if avg > 5.0 then
    failwith
      (Printf.sprintf
         "profile: average sampling overhead %.2f%% exceeds the 5%% budget"
         avg)

(* ------------------------------------------------------------------ *)
(* E9: annotation fault injection *)

(* JIT work and spill deltas when the shipped annotations are dropped,
   corrupted or swapped in transit.  Results are required bit-identical to
   the clean run (annotations are hints, not trusted facts — the
   fault-injection tests enforce it); the only visible effect is where the
   JIT spends its budget and how well it spills.  This is the degradation
   ledger quoted in EXPERIMENTS.md. *)
let annot_faults () =
  header
    "E9: graceful degradation under annotation faults (Table-1 kernels,\n\
     x86ish).  work = online compile units; spill = static spill instrs;\n\
     dyn = executed spill ops.  Results are bit-identical in every row.";
  Printf.printf "%-10s %-22s %10s %12s %10s %10s\n" "kernel" "annotations"
    "work" "spill" "dyn" "status";
  let machine = Pvmach.Machine.x86ish in
  let rows = ref [] in
  List.iter
    (fun (k : Pvkernels.Kernels.t) ->
      let p =
        Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
          k.Pvkernels.Kernels.source
      in
      let annotated = (Core.Splitc.offline ~mode:Core.Splitc.Split p).Core.Splitc.prog in
      let measure label prog =
        let bc = Pvir.Serial.encode prog in
        let on = Core.Splitc.online ~mode:Core.Splitc.Split ~machine bc in
        let sim = on.Core.Splitc.sim in
        sim.Pvvm.Sim.engine <- !engine;
        Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
        let result =
          Pvvm.Sim.run sim k.Pvkernels.Kernels.entry
            (Pvkernels.Harness.args k Pvkernels.Kernels.n_default)
        in
        let spill =
          List.fold_left
            (fun acc (f : Pvjit.Jit.func_report) ->
              acc + f.Pvjit.Jit.ra.Pvjit.Regalloc.spill_instrs)
            0 on.Core.Splitc.jit.Pvjit.Jit.funcs
        in
        let status =
          if
            List.exists
              (fun (f : Pvjit.Jit.func_report) ->
                match f.Pvjit.Jit.annot_status with
                | Pvjit.Annot_check.Invalid _ -> true
                | _ -> false)
              on.Core.Splitc.jit.Pvjit.Jit.funcs
          then "fallback"
          else "ok"
        in
        let work = Pvir.Account.total on.Core.Splitc.online_work in
        let dyn = sim.Pvvm.Sim.stats.Pvvm.Sim.spill_ops in
        Printf.printf "%-10s %-22s %10d %12d %10Ld %10s\n"
          k.Pvkernels.Kernels.name label work spill dyn status;
        rows :=
          Json.Obj
            [
              ("kernel", Json.Str k.Pvkernels.Kernels.name);
              ("annotations", Json.Str label);
              ("online_work", Json.Int (Int64.of_int work));
              ("static_spills", Json.Int (Int64.of_int spill));
              ("dyn_spills", Json.Int dyn);
              ("status", Json.Str status);
            ]
          :: !rows;
        result
      in
      let r_clean = measure "clean" annotated in
      let variants =
        ("dropped", Pvinject.Inject.drop_annotations annotated)
        :: ("corrupted", Pvinject.Inject.corrupt_spill_order ~seed:7 annotated)
        :: ("swapped", Pvinject.Inject.swap_annotations annotated)
        :: []
      in
      List.iter
        (fun (label, prog) ->
          let r = measure label prog in
          match (r_clean, r) with
          | Some a, Some b when not (Pvir.Value.equal a b) ->
            failwith
              (Printf.sprintf "%s: results differ under '%s' annotations!"
                 k.Pvkernels.Kernels.name label)
          | _ -> ())
        variants)
    Pvkernels.Kernels.table1;
  record "annot_faults" (Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* E10: unified telemetry — one kernel's whole life as a trace timeline *)

let timeline () =
  header
    "E10 / telemetry timeline (split compilation, end to end)\n\
     (saxpy through frontend -> offline -> distribute -> JIT -> run,\n\
     plus the E4 offload schedule, exported as Chrome trace_event JSON)";
  let k = Pvkernels.Kernels.saxpy_fp in
  let machine = Pvmach.Machine.x86ish in
  let tr = Pvtrace.Trace.create () in
  let metrics = Pvtrace.Metrics.create () in
  let ledger = Pvtrace.Ledger.create () in
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_frontend "frontend";
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_offline "offline";
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_distribute "distribute";
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_jit "jit";
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_vm "vm";
  Pvtrace.Trace.name_track tr Pvtrace.Trace.track_ledger "degradations";
  (* the offline-vs-online work split of Table 1, as a timeline *)
  let off, on =
    Core.Splitc.run_source ~mode:Core.Splitc.Split ~machine ~tr ~metrics
      ~ledger k.Pvkernels.Kernels.source
  in
  on.Core.Splitc.sim.Pvvm.Sim.engine <- !engine;
  Pvkernels.Harness.fill_inputs on.Core.Splitc.img;
  ignore
    (Pvvm.Sim.run on.Core.Splitc.sim k.Pvkernels.Kernels.entry
       (Pvkernels.Harness.args k Pvkernels.Kernels.n_default));
  Pvvm.Sim.observe_metrics on.Core.Splitc.sim metrics;
  (* the §3 offload scenario's schedule rides along on the core tracks *)
  let host = { Pvsched.Mapper.cname = "host-ppc"; machine = Pvmach.Machine.ppcish } in
  let accel = { Pvsched.Mapper.cname = "accel-dsp"; machine = Pvmach.Machine.dspish } in
  let platform = { Pvsched.Mapper.cores = [ host; accel ]; transfer_cost = 600 } in
  let mk name inputs outputs annots work =
    { Pvsched.Kpn.pname = name; inputs; outputs; fire = (fun toks -> toks); annots; work }
  in
  let simd_pref =
    Pvir.Annot.add Pvir.Annot.key_hw_prefs
      (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
      Pvir.Annot.empty
  in
  let processes =
    [
      mk "produce" [ "in" ] [ "raw" ] Pvir.Annot.empty 1;
      mk "filter" [ "raw" ] [ "filtered" ] simd_pref 100;
      mk "collect" [ "filtered" ] [ "out" ] Pvir.Annot.empty 1;
    ]
  in
  let cost (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
    match p.Pvsched.Kpn.pname with
    | "filter" -> if c == accel then 2_000 else 12_000
    | _ -> 200 * c.Pvsched.Mapper.machine.Pvmach.Machine.branch_cost
  in
  let blocks = 16 in
  let net = Pvsched.Kpn.create processes in
  for b = 1 to blocks do
    Pvsched.Kpn.push net "in" [| Pvir.Value.i64 (Int64.of_int b) |]
  done;
  let pl = Pvsched.Mapper.place platform cost processes in
  let sched = Pvsched.Mapper.schedule platform cost pl net in
  Pvsched.Mapper.emit_trace ~channels:[ ("in", blocks) ] platform processes
    sched tr;
  (* export, then verify the artifact the way CI does *)
  let path = out_path "trace_timeline.json" in
  Pvtrace.Export.to_file ~ledger tr path;
  let json = Pvtrace.Export.chrome_json ~ledger tr in
  let validated =
    match Pvtrace.Export.validate_chrome json with
    | Ok n ->
      Printf.printf "wrote %s: %d events, valid\n" path n;
      true
    | Error m ->
      Printf.printf "wrote %s: INVALID (%s)\n" path m;
      false
  in
  if not validated then failwith "timeline: exported trace failed validation";
  Printf.printf
    "offline work %d units, online work %d units, %Ld exec cycles, %d \
     schedule firings\n"
    (Pvir.Account.total off.Core.Splitc.offline_work)
    (Pvir.Account.total on.Core.Splitc.online_work)
    (Pvvm.Sim.cycles on.Core.Splitc.sim)
    (List.length sched);
  print_string "\nmetrics registry:\n";
  print_string (Pvtrace.Metrics.dump metrics);
  record "timeline"
    (Json.Obj
       [
         ("kernel", Json.Str k.Pvkernels.Kernels.name);
         ("events", Json.Int (Int64.of_int (Pvtrace.Trace.length tr)));
         ("valid", Json.Str (if validated then "ok" else "invalid"));
         ( "offline_work",
           Json.Int
             (Int64.of_int (Pvir.Account.total off.Core.Splitc.offline_work)) );
         ( "online_work",
           Json.Int
             (Int64.of_int (Pvir.Account.total on.Core.Splitc.online_work)) );
         ("exec_cycles", Json.Int (Pvvm.Sim.cycles on.Core.Splitc.sim));
         ("schedule_firings", Json.Int (Int64.of_int (List.length sched)));
         ("degradations", Json.Int (Int64.of_int (Pvtrace.Ledger.count ledger)));
       ])

(* E15: KPN at scale — a ~2,000-process generated network with bounded
   channels through each scheduling policy.  The Kahn-determinism gate
   runs first: all three policies must compute byte-identical channel
   streams before any timing number is reported. *)

let kpn_scale () =
  header
    "E15 / KPN at scale (generated 2,000-process network, bounded channels)\n\
     (FIFO vs priority vs work-stealing over the Mapper cost model;\n\
     identical channel streams asserted before timing)";
  let metrics = Pvtrace.Metrics.create () in
  let fn_prog, fn_pool = Pvcheck.Gen.node_program ~seed:15 ~count:8 in
  let cfg =
    {
      Pvcheck.Kpncheck.cprocs = 2_000;
      ctokens = 1;
      cfanin = 3;
      cfanout = 35;
      cfeedback = 10;
      ccapacity = 2;
      cnet_seed = 15;
    }
  in
  let net = Pvcheck.Kpncheck.generate ~fn_pool cfg in
  let platform = Pvsched.Sched.default_platform ~cores:8 () in
  let results =
    List.map
      (fun policy ->
        let t =
          Pvcheck.Kpncheck.instantiate ~prog:fn_prog ~engine:!engine net
        in
        let r =
          Pvsched.Sched.execute ~policy
            ~capacity:net.Pvcheck.Kpncheck.ncapacity ~platform t
        in
        (policy, r))
      Pvsched.Sched.all_policies
  in
  (* the identity gate: every policy must agree on every stream *)
  let digest =
    match results with
    | (_, r0) :: rest ->
      let d0 = Pvsched.Sched.streams_digest r0 in
      List.iter
        (fun (p, r) ->
          if not (String.equal (Pvsched.Sched.streams_digest r) d0) then
            failwith
              (Printf.sprintf "kpn: %s disagrees on channel streams"
                 (Pvsched.Sched.policy_name p)))
        rest;
      d0
    | [] -> ""
  in
  (* the digest depends on every value the kernels computed, so runs
     under different engines can be diffed *)
  Printf.printf
    "net: %d processes, %d channels streamed identically under all policies\n\
     streams digest: %s\n\n"
    (List.length net.Pvcheck.Kpncheck.nodes)
    (match results with (_, r) :: _ -> List.length r.Pvsched.Sched.streams | [] -> 0)
    digest;
  List.iter
    (fun (policy, (r : Pvsched.Sched.result)) ->
      let name = Pvsched.Sched.policy_name policy in
      let s = r.Pvsched.Sched.stats in
      let occ_pct (busy : int64) =
        if Int64.equal s.Pvsched.Sched.makespan 0L then 0
        else
          Int64.to_int
            (Int64.div (Int64.mul 100L busy) s.Pvsched.Sched.makespan)
      in
      Printf.printf "%-13s makespan %9Ld cycles, %5d firings, %4d steals\n"
        name s.Pvsched.Sched.makespan s.Pvsched.Sched.firings
        s.Pvsched.Sched.steals;
      Pvtrace.Metrics.set metrics
        (Printf.sprintf "kpn.%s.makespan" name)
        s.Pvsched.Sched.makespan;
      Pvtrace.Metrics.seti metrics
        (Printf.sprintf "kpn.%s.firings" name)
        s.Pvsched.Sched.firings;
      Pvtrace.Metrics.seti metrics
        (Printf.sprintf "kpn.%s.steals" name)
        s.Pvsched.Sched.steals;
      List.iter
        (fun (cname, busy) ->
          Pvtrace.Metrics.seti metrics
            (Printf.sprintf "kpn.%s.occupancy.%s" name cname)
            (occ_pct busy))
        s.Pvsched.Sched.busy)
    results;
  (* per-core timeline of the work-stealing schedule, validated like CI *)
  let tr = Pvtrace.Trace.create () in
  let ws_events =
    match List.rev results with (_, r) :: _ -> r.Pvsched.Sched.events | [] -> []
  in
  let procs_kpn =
    (Pvcheck.Kpncheck.instantiate ~prog:fn_prog ~engine:!engine net)
      .Pvsched.Kpn.processes
  in
  Pvsched.Mapper.emit_trace
    ~channels:
      (List.map
         (fun c -> (c, net.Pvcheck.Kpncheck.ntokens))
         net.Pvcheck.Kpncheck.sources)
    platform procs_kpn ws_events tr;
  let path = out_path "trace_kpn.json" in
  Pvtrace.Export.to_file tr path;
  let json = Pvtrace.Export.chrome_json tr in
  let validated =
    match Pvtrace.Export.validate_chrome json with
    | Ok n ->
      Printf.printf "\nwrote %s: %d events, valid\n" path n;
      true
    | Error m ->
      Printf.printf "\nwrote %s: INVALID (%s)\n" path m;
      false
  in
  if not validated then failwith "kpn: exported trace failed validation";
  print_string "\nmetrics registry:\n";
  print_string (Pvtrace.Metrics.dump metrics);
  record "kpn"
    (Json.Obj
       ([
          ("processes", Json.Int (Int64.of_int (List.length net.Pvcheck.Kpncheck.nodes)));
          ("valid", Json.Str (if validated then "ok" else "invalid"));
          ("streams_identical", Json.Str "ok");
          ("streams_digest", Json.Str digest);
        ]
       @ List.map
           (fun (policy, (r : Pvsched.Sched.result)) ->
             ( "makespan_" ^ Pvsched.Sched.policy_name policy,
               Json.Int r.Pvsched.Sched.stats.Pvsched.Sched.makespan ))
           results))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E16: the split-compilation service under fleet load (lib/pvserve).
   Four Domain JIT workers behind the content-addressed artifact cache,
   Zipf(1.0) popularity over (kernel+generated corpus) x machines,
   10k requests.  Hard assertions, matching the acceptance criteria:
   steady-state hit rate >= 0.9, zero oracle mismatches (every served
   artifact byte-identical to a fresh single-threaded compile), exact
   in-flight dedup (with nothing evicted, compiles = unique keys), and
   the exported Chrome trace must validate. *)

let serve_bench () =
  print_endline "\n== E16: split-compilation service under Zipf fleet load ==";
  let tr = Pvtrace.Trace.create ~wall:true () in
  let metrics = Pvtrace.Metrics.create () in
  let ledger = Pvtrace.Ledger.create () in
  let spec =
    { Pvserve.Load.default_spec with Pvserve.Load.requests = 10_000; workers = 4 }
  in
  let r = Pvserve.Load.run ~tr ~metrics ~ledger spec in
  print_endline (Pvserve.Load.report_to_string r);
  let path = out_path "trace_serve.json" in
  Pvtrace.Export.to_file ~metrics ~ledger tr path;
  let validated =
    match Pvtrace.Export.validate_chrome (Pvtrace.Export.chrome_json ~metrics ~ledger tr) with
    | Ok n ->
      Printf.printf "wrote %s: %d events, valid\n" path n;
      true
    | Error m ->
      Printf.printf "wrote %s: INVALID (%s)\n" path m;
      false
  in
  record "serve"
    (Json.Obj
       [
         ("requests", Json.Int (Int64.of_int r.Pvserve.Load.r_requests));
         ("workers", Json.Int (Int64.of_int spec.Pvserve.Load.workers));
         ("zipf", Json.Float spec.Pvserve.Load.zipf);
         ("population", Json.Int (Int64.of_int r.Pvserve.Load.r_population));
         ("unique_keys", Json.Int (Int64.of_int r.Pvserve.Load.r_unique_keys));
         ("hits", Json.Int (Int64.of_int r.Pvserve.Load.r_hits));
         ("coalesced", Json.Int (Int64.of_int r.Pvserve.Load.r_coalesced));
         ("compiles", Json.Int (Int64.of_int r.Pvserve.Load.r_compiles));
         ("evictions", Json.Int (Int64.of_int r.Pvserve.Load.r_evictions));
         ("hit_rate", Json.Float r.Pvserve.Load.r_hit_rate);
         ("oracle_mismatches",
          Json.Int (Int64.of_int r.Pvserve.Load.r_oracle_mismatches));
         ("throughput_rps", Json.Float r.Pvserve.Load.r_throughput_rps);
         ("trace", Json.Str (if validated then "ok" else "invalid"));
       ]);
  if not validated then failwith "serve: exported trace failed validation";
  if r.Pvserve.Load.r_oracle_mismatches > 0 then
    failwith "serve: served artifacts diverge from fresh compiles";
  if r.Pvserve.Load.r_errors > 0 then failwith "serve: error replies";
  if r.Pvserve.Load.r_hit_rate < 0.9 then
    failwith
      (Printf.sprintf "serve: hit rate %.4f below the 0.9 floor"
         r.Pvserve.Load.r_hit_rate);
  if
    r.Pvserve.Load.r_evictions = 0
    && r.Pvserve.Load.r_compiles <> r.Pvserve.Load.r_unique_keys
  then
    failwith
      (Printf.sprintf "serve: dedup leak: %d compiles for %d unique keys"
         r.Pvserve.Load.r_compiles r.Pvserve.Load.r_unique_keys)

let all_experiments () =
  table1 ();
  figure1 ();
  regalloc ();
  offload ();
  size ();
  ablation ();
  adaptive ();
  lto ();
  annot_faults ();
  timeline ();
  profile_bench ();
  kpn_scale ();
  serve_bench ()

let () =
  (* global flags may appear anywhere: --json FILE writes machine-readable
     results; --engine tree|threaded|aot selects the host execution
     engine (simulated cycle counts do not depend on it) *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse acc rest
    | "--engine" :: name :: rest ->
      (match Core.Cli.engine_of_string name with
      | Ok e ->
        if e = Pvvm.Vm.Aot then Pvaot.install ();
        engine := e
      | Error msg ->
        prerr_endline msg;
        exit 1);
      parse acc rest
    | ("--json" | "--engine") :: [] ->
      Printf.eprintf "--json and --engine need an argument\n";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args =
    parse [] (match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest)
  in
  (match args with
  | [] ->
    all_experiments ();
    bechamel ()
  | args ->
    List.iter
      (function
        | "table1" -> table1 ()
        | "figure1" -> figure1 ()
        | "regalloc" -> regalloc ()
        | "offload" -> offload ()
        | "size" -> size ()
        | "ablation" -> ablation ()
        | "adaptive" -> adaptive ()
        | "lto" -> lto ()
        | "bechamel" -> bechamel ()
        | "engines" -> engines ()
        | "annot-faults" -> annot_faults ()
        | "timeline" -> timeline ()
        | "kpn" -> kpn_scale ()
        | "profile" -> profile_bench ()
        | "serve" -> serve_bench ()
        | "all" -> all_experiments ()
        | other ->
          Printf.eprintf
            "unknown experiment %s (try: table1 figure1 regalloc offload size \
             ablation adaptive lto bechamel engines annot-faults timeline \
             kpn profile serve)\n"
            other;
          exit 1)
      args);
  match !json_file with
  | Some file ->
    let oc = open_out file in
    output_string oc (Json.to_string (Json.Obj (List.rev !recorded)));
    output_char oc '\n';
    close_out oc
  | None -> ()
