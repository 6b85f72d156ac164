(** The online compiler: bytecode to target code at load/run time.

    [compile_program] drives the per-function pipeline

    {v  lower -> legalize (scalarize w/o SIMD) -> regalloc -> peephole  v}

    and registers the results in a {!Pvvm.Sim} ready to execute.  The
    register-allocation spill choice depends on [hints]:

    - [Hints_none]: the blind heuristic of a budget-constrained JIT;
    - [Hints_annotation]: consume the offline {!Pvir.Annot.key_spill_order}
      annotation — the split-compilation path (near-free online);
    - [Hints_recompute]: recompute offline-quality weights online, paying
      the full analysis price (the pure-online upper bound).

    All work is charged to [account]. *)

open Pvmach

type hints = Hints_none | Hints_annotation | Hints_recompute

type func_report = {
  fname : string;
  ra : Regalloc.stats;
  mir_size : int;  (** instructions after compilation, "native code size" *)
  annot_status : Annot_check.status;
      (** verdict on the function's hint annotations; [Invalid] means the
          JIT degraded gracefully to online recomputation *)
}

type report = {
  funcs : func_report list;
  work : Pvir.Account.t;  (** online work spent *)
}

let weight_fun_of_order (order : (int * int) list) : int -> float =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (r, c) -> Hashtbl.replace tbl r (float_of_int c)) order;
  fun v -> match Hashtbl.find_opt tbl v with Some w -> w | None -> infinity

let weight_fun_recomputed ?account (fn : Pvir.Func.t) : int -> float =
  (* same analysis as the offline annotator, but paid for online *)
  Pvir.Account.charge_opt account ~pass:"jit.online_weights"
    (6 * Pvir.Func.instr_count fn);
  let costs = Pvopt.Regalloc_annotate.spill_costs fn in
  let tbl = Hashtbl.create 32 in
  List.iter (fun (r, c) -> Hashtbl.replace tbl r c) costs;
  fun v ->
    match Hashtbl.find_opt tbl v with Some w -> w | None -> infinity

(** Extend vreg weights across scalarization: a lane register inherits the
    weight of the vector register it came from. *)
let extend_weights (exp : Legalize.expansion) (w : int -> float) : int -> float =
  let lane_parent = Hashtbl.create 32 in
  Hashtbl.iter
    (fun parent lanes ->
      Array.iter
        (fun r ->
          match r with
          | Mir.V v -> Hashtbl.replace lane_parent v parent
          | Mir.P _ -> ())
        lanes)
    exp.Legalize.lanes_of;
  fun v ->
    match Hashtbl.find_opt lane_parent v with
    | Some parent -> w parent
    | None -> w v

(* one span per JIT pass on the jit track; virtual time is the online
   accountant (installed as the trace clock by the caller) *)
let sp tr ~fn name f =
  Pvtrace.Trace.with_span tr ~tid:Pvtrace.Trace.track_jit
    ~args:[ ("func", fn) ] ~cat:"jit" name f

(** Compile one function for [machine].  [resolve_global] maps a global
    to its load-time address ({!Pvvm.Image.address} of the program's
    layout); nothing else of the loaded program is needed.  Degradations
    (annotation rejects forcing online recomputation) are charged to
    [account] and recorded in [ledger]; every pass runs under a [tr]
    span. *)
let compile_func ?account ?tr ?ledger ~(machine : Machine.t)
    ~(resolve_global : string -> int) ~(hints : hints) (fn : Pvir.Func.t) :
    Mir.func * func_report =
  let mf =
    sp tr ~fn:fn.name "lower" (fun () ->
        Lower.run ?account ~machine ~resolve_global fn)
  in
  let exp = sp tr ~fn:fn.name "legalize" (fun () -> Legalize.run ?account mf) in
  sp tr ~fn:fn.name "immfold" (fun () -> ignore (Immfold.run ?account mf));
  let quality, annot_status =
    match hints with
    | Hints_none -> (Regalloc.Heuristic, Annot_check.Absent)
    | Hints_annotation -> (
      (* annotations arrive inside untrusted bytecode: validate before
         consuming, and degrade to online recomputation on mismatch *)
      let so_status, order = Annot_check.check_spill_order fn in
      let vec_status = Annot_check.check_vectorized fn in
      match (so_status, vec_status, order) with
      | Annot_check.Valid, Annot_check.Invalid _, _
      | Annot_check.Invalid _, _, _
      | Annot_check.Valid, _, None ->
        (* present but unusable: pay the pure-online analysis price, plus
           a visible "fallback" marker in the work accounting *)
        let reason =
          match (so_status, vec_status) with
          | Annot_check.Invalid r, _ | _, Annot_check.Invalid r -> r
          | _ -> "spill_order: validated but undecodable"
        in
        Pvir.Account.charge_opt account ~pass:"jit.annot_fallback" 1;
        Pvtrace.Ledger.record_opt ledger Pvtrace.Ledger.Annot_reject
          ~subject:fn.name ~detail:reason;
        ( Regalloc.Weights
            (extend_weights exp (weight_fun_recomputed ?account fn)),
          Annot_check.Invalid reason )
      | Annot_check.Valid, _, Some order ->
        (* reading the annotation is (nearly) free *)
        Pvir.Account.charge_opt account ~pass:"jit.read_annotations"
          (List.length fn.params + 4);
        ( Regalloc.Weights (extend_weights exp (weight_fun_of_order order)),
          Annot_check.Valid )
      | Annot_check.Absent, (Annot_check.Invalid reason as i), _ ->
        (* no spill order to fall back from, but the vectorizer metadata
           is bogus: note it and run the blind heuristic *)
        Pvir.Account.charge_opt account ~pass:"jit.annot_fallback" 1;
        Pvtrace.Ledger.record_opt ledger Pvtrace.Ledger.Annot_reject
          ~subject:fn.name ~detail:reason;
        (Regalloc.Heuristic, i)
      | Annot_check.Absent, Annot_check.Valid, _ ->
        (Regalloc.Heuristic, Annot_check.Valid)
      | Annot_check.Absent, Annot_check.Absent, _ ->
        (Regalloc.Heuristic, Annot_check.Absent))
    | Hints_recompute ->
      ( Regalloc.Weights
          (extend_weights exp (weight_fun_recomputed ?account fn)),
        Annot_check.Absent )
  in
  (* loop-level hints are advisory-only today, but a malformed payload is
     still a degradation: account it, ledger it, and surface it in the
     verdict so experiments can see corrupted loop metadata *)
  let annot_status =
    match hints with
    | Hints_annotation -> (
      match Annot_check.check_loops fn with
      | Annot_check.Invalid reason, _ ->
        Pvir.Account.charge_opt account ~pass:"jit.annot_fallback" 1;
        Pvtrace.Ledger.record_opt ledger Pvtrace.Ledger.Annot_reject
          ~subject:fn.name ~detail:reason;
        (* a function-level reject already explains the downgrade *)
        (match annot_status with
        | Annot_check.Invalid _ -> annot_status
        | _ -> Annot_check.Invalid reason)
      | _ -> annot_status)
    | Hints_none | Hints_recompute -> annot_status
  in
  let ra = sp tr ~fn:fn.name "regalloc" (fun () -> Regalloc.run ?account ~quality mf) in
  sp tr ~fn:fn.name "peephole" (fun () -> ignore (Peephole.run ?account mf));
  (mf, { fname = fn.name; ra; mir_size = Mir.size mf; annot_status })

(** Compile all functions of the image's program and return a simulator
    loaded with the generated code. *)
let compile_program ?account ?tr ?ledger ~(machine : Machine.t)
    ~(hints : hints) (img : Pvvm.Image.t) : Pvvm.Sim.t * report =
  let sim = Pvvm.Sim.create img machine in
  let resolve_global = Pvvm.Image.global_address img in
  let reports =
    List.map
      (fun fn ->
        let mf, report =
          compile_func ?account ?tr ?ledger ~machine ~resolve_global ~hints fn
        in
        Pvvm.Sim.add_func sim mf;
        report)
      img.Pvvm.Image.prog.Pvir.Prog.funcs
  in
  let work =
    match account with Some a -> a | None -> Pvir.Account.create ()
  in
  (sim, { funcs = reports; work })
