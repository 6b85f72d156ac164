(** Deterministic cycle-driven sampling profiler.

    The exhaustive profiler ({!Pvvm.Profile}) bumps a hashtable counter
    at every block — fine for short runs, unaffordable for the week-long
    virtual workloads the paper's §2.2 "idle time between runs" loop is
    meant to observe.  This module is the sampling alternative: the VM
    arms a period on its *virtual cycle clock* and polls it at block
    entries — the same safepoints the checkpoint machinery uses (PR 7),
    so sampling adds one integer compare per executed block and no new
    hot-loop cost model.

    Determinism is the whole design: a sample fires at the first block
    entry whose cycle count reaches the armed threshold, and the cycle
    clock is part of the portable semantics (bit-identical across the
    tree-walking, threaded and AOT engines — the profiled-vs-unprofiled
    oracle in [lib/pvcheck] pins this).  Two runs of the same program
    with the same period therefore take the *same* samples on *any*
    engine, which makes profiles comparable, testable and mergeable in a
    way wall-clock signal profilers never are.

    Each sample attributes the cycles elapsed since the previous sample
    to the current (function, block) and to the current folded activation
    stack (maintained by the VM as a shadow stack of function names).
    Three export surfaces:

    - {!to_collapsed}: flamegraph.pl / speedscope collapsed-stack text;
    - {!to_trace}: sampled instants + a cumulative counter track merged
      into the Chrome exporter, with deterministic stride decimation so
      an arbitrarily long run produces a bounded trace;
    - {!ranking} / {!ranking_table}: the hot-block table.

    {!to_data} distills everything into the canonical {!Pvir.Profdata}
    codec for the feedback edge ([pvsc --profile-in]). *)

(** Default sampling period in virtual cycles: fine enough to rank the
    blocks of a Table-1 kernel run (a handful of samples per pass over
    1024 elements), coarse enough that per-sample bookkeeping stays far
    below the 5% overhead budget (E14) — the poll itself is one integer
    compare, but each fired sample pays hashtable updates. *)
let default_period = 32768L

(** One retained sample, for the bounded trace export. *)
type sample = {
  s_idx : int;  (** 0-based sample index *)
  s_ts : int64;  (** virtual cycle stamp *)
  s_fn : string;
  s_block : int;
  s_depth : int;  (** activation stack depth at the sample *)
  s_cum : int64;  (** cumulative attributed weight including this sample *)
}

type t = {
  period : int64;
  mutable next_at : int64;  (** cycle threshold of the next sample *)
  mutable last_cycles : int64;  (** stamp of the previous sample *)
  mutable total : int64;  (** total attributed cycle weight *)
  mutable nsamples : int;
  fn_w : (string, int64 ref) Hashtbl.t;
  blk_w : (string * int, int64 ref) Hashtbl.t;
  folded : (string list, int64 ref) Hashtbl.t;
      (** key: outermost frame first, leaf ["fn:bN"] last *)
  (* bounded retention for the trace export: keep samples whose index is
     a multiple of [stride]; when more than [cap] are held, double the
     stride and drop the odd half.  Deterministic — retention depends
     only on sample indices, never on time or memory pressure. *)
  cap : int;
  mutable stride : int;
  mutable kept : sample list;  (** newest first *)
  mutable nkept : int;
}

let create ?(period = default_period) ?(cap = 512) () =
  if Int64.compare period 1L < 0 then
    invalid_arg "Pvprof.create: period must be >= 1";
  if cap < 2 then invalid_arg "Pvprof.create: cap must be >= 2";
  {
    period;
    next_at = period;
    last_cycles = 0L;
    total = 0L;
    nsamples = 0;
    fn_w = Hashtbl.create 16;
    blk_w = Hashtbl.create 64;
    folded = Hashtbl.create 64;
    cap;
    stride = 1;
    kept = [];
    nkept = 0;
  }

let period t = t.period
let next_at t = t.next_at
let samples_taken t = t.nsamples
let total_weight t = t.total

let bump tbl key w =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := Int64.add !r w
  | None -> Hashtbl.replace tbl key (ref w)

(** Record one sample.  [cycles] is the VM's cycle counter at the block
    entry that tripped the threshold; [stack] is the activation stack,
    innermost frame first, whose head is the sampled function [fn];
    [block] is the label of the block being entered.  The cycles elapsed
    since the previous sample are attributed here, and the threshold
    re-arms at [cycles + period] (not [next_at + period]: a single long
    block must not be followed by a burst of catch-up samples). *)
let sample t ~cycles ~(stack : string list) ~fn ~block : unit =
  let w = Int64.max 1L (Int64.sub cycles t.last_cycles) in
  t.last_cycles <- cycles;
  t.next_at <- Int64.add cycles t.period;
  t.total <- Int64.add t.total w;
  bump t.fn_w fn w;
  bump t.blk_w (fn, block) w;
  (* concatenation, not sprintf: this runs once per fired sample and is
     the bulk of the sampling overhead measured by E14 *)
  let leaf = fn ^ ":b" ^ string_of_int block in
  let key =
    match stack with
    | [] -> [ leaf ]
    | _ :: callers -> List.rev (leaf :: callers)
  in
  bump t.folded key w;
  let idx = t.nsamples in
  t.nsamples <- idx + 1;
  if idx mod t.stride = 0 then begin
    t.kept <-
      {
        s_idx = idx;
        s_ts = cycles;
        s_fn = fn;
        s_block = block;
        s_depth = List.length stack;
        s_cum = t.total;
      }
      :: t.kept;
    t.nkept <- t.nkept + 1;
    if t.nkept > t.cap then begin
      t.stride <- t.stride * 2;
      t.kept <- List.filter (fun s -> s.s_idx mod t.stride = 0) t.kept;
      t.nkept <- List.length t.kept
    end
  end

(** Retained samples, oldest first (a decimated, bounded subset of the
    full stream — see the retention note on {!t}). *)
let kept_samples t : sample list = List.rev t.kept

(* ---------------- rankings ---------------- *)

let weights_of tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []

(* heaviest first; ties broken by key so the order is total *)
let by_weight_desc (ka, wa) (kb, wb) =
  match Int64.compare wb wa with 0 -> compare ka kb | c -> c

(** Sampled per-function cycle weight, heaviest first. *)
let fn_ranking t : (string * int64) list =
  List.sort by_weight_desc (weights_of t.fn_w)

(** Sampled per-(function, block) cycle weight, heaviest first — the
    hot-block table. *)
let ranking t : ((string * int) * int64) list =
  List.sort by_weight_desc (weights_of t.blk_w)

let fn_weight t fname =
  match Hashtbl.find_opt t.fn_w fname with Some r -> !r | None -> 0L

(** Human-readable hot-block table (heaviest first, cycle weight and
    share of the total). *)
let ranking_table ?(limit = 20) t : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %14s %7s\n" "function:block" "cycles" "share");
  let total = Int64.to_float (Int64.max 1L t.total) in
  List.iteri
    (fun i ((fn, blk), w) ->
      if i < limit then
        Buffer.add_string buf
          (Printf.sprintf "%-28s %14Ld %6.1f%%\n"
             (Printf.sprintf "%s:b%d" fn blk)
             w
             (100.0 *. Int64.to_float w /. total)))
    (ranking t);
  Buffer.contents buf

(* ---------------- exports ---------------- *)

(** Collapsed-stack text, one ["frame;frame;leaf weight"] line per folded
    stack, sorted — feed it to flamegraph.pl or paste into speedscope. *)
let to_collapsed t : string =
  let lines =
    Hashtbl.fold
      (fun stack r acc ->
        (Printf.sprintf "%s %Ld" (String.concat ";" stack) !r) :: acc)
      t.folded []
  in
  String.concat "\n" (List.sort String.compare lines)
  ^ if lines = [] then "" else "\n"

(** Merge the retained samples into a trace as instants (category
    ["sample"]) plus a cumulative counter track on the profiler track —
    both timestamped by the virtual cycle clock, so they interleave
    correctly with the VM spans.  Bounded by the retention cap however
    long the run was. *)
let to_trace t (tr : Pvtrace.Trace.t) : unit =
  let tid = Pvtrace.Trace.track_prof in
  Pvtrace.Trace.name_track tr tid "profiler";
  List.iter
    (fun s ->
      Pvtrace.Trace.instant_at tr ~ts:s.s_ts ~tid ~cat:"sample"
        ~args:
          [
            ("fn", s.s_fn);
            ("block", string_of_int s.s_block);
            ("depth", string_of_int s.s_depth);
          ]
        (Printf.sprintf "%s:b%d" s.s_fn s.s_block);
      Pvtrace.Trace.counter_at tr ~ts:s.s_ts ~tid ~cat:"sample" "prof.weight"
        [ ("cycles", s.s_cum); ("samples", Int64.of_int (s.s_idx + 1)) ])
    (kept_samples t)

(** Distill the profile into its canonical codec form (sorted tables —
    byte-identical across engines for the same run). *)
let to_data t : Pvir.Profdata.t =
  {
    Pvir.Profdata.pf_period = t.period;
    pf_total = t.total;
    pf_samples = t.nsamples;
    pf_fns = List.sort compare (weights_of t.fn_w);
    pf_blocks = List.sort compare (weights_of t.blk_w);
    pf_stacks = List.sort compare (weights_of t.folded);
  }

(** The profile → annotation feedback edge: write sampled hotness
    fractions onto [prog] under {!Pvir.Annot.key_hotness} (same key as
    the exhaustive profiler — downstream consumers cannot tell sampled
    and exhaustive hotness apart). *)
let to_annotations t (prog : Pvir.Prog.t) : unit =
  Pvir.Profdata.annotate (to_data t) prog

(** Observational summary for a metrics registry. *)
let observe_metrics t (m : Pvtrace.Metrics.t) : unit =
  Pvtrace.Metrics.inci m "prof.samples" t.nsamples;
  Pvtrace.Metrics.inc m "prof.weight_cycles" t.total;
  Pvtrace.Metrics.seti m "prof.retained" t.nkept;
  Pvtrace.Metrics.seti m "prof.stride" t.stride;
  List.iter
    (fun (_, w) -> Pvtrace.Metrics.observe m "prof.fn_weight" w)
    (fn_ranking t)
