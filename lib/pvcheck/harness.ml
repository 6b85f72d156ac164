(** Fuzzing harness: generate → differential oracle → per-pass
    equivalence → (optionally) shrink.

    Case [i] of a run seeded with [seed] draws its generator seed from
    one splitmix64 stream, so any failing case is replayable from
    [(seed, i)] alone — and [replay_seed] exposes the mapping so a CLI or
    a CI log can print the exact one-case reproduction command. *)

open Pvir
module R = Pvinject.Inject

(** One confirmed disagreement.  [prog] is the generated program as it
    failed; [shrunk] is its reduction when shrinking was requested. *)
type finding = {
  case : int;  (** case index within the run *)
  gen_seed : int;  (** exact generator seed: replays without the run *)
  stage : string;  (** oracle path or pass stage that disagreed *)
  what : string;
  detail : string;
  prog : Prog.t;
  shrunk : Prog.t option;
}

(** Generator seed of case [case] of a run seeded with [seed]. *)
let replay_seed ~seed ~case =
  let r = R.rng seed in
  let s = ref 0 in
  for _ = 0 to case do
    s := Int64.to_int (Int64.logand (R.next_int64 r) 0x3FFFFFFFFFFFFFFFL)
  done;
  !s

(** An oracle mismatch as a (stage, what, detail) failure. *)
let of_mismatch (m : Oracle.mismatch) =
  (m.Oracle.path, m.Oracle.what, m.Oracle.detail)

(** Every failure of one case, as (stage, what, detail) triples. *)
let check_case ?(paths = Oracle.all_paths) ?(passes = Passcheck.all_passes)
    ?jit (prog : Prog.t) : (string * string * string) list =
  let oracle = List.map of_mismatch (Oracle.check ~paths prog) in
  let pass_fs =
    if passes = [] then []
    else
      List.map
        (fun (f : Passcheck.failure) ->
          (f.Passcheck.stage, f.Passcheck.what, f.Passcheck.detail))
        (Passcheck.check ~passes ?jit prog)
  in
  oracle @ pass_fs

let prefix ~pre s =
  String.length s >= String.length pre
  && String.equal (String.sub s 0 (String.length pre)) pre

let strip_suffix ~suf s =
  if
    String.length s > String.length suf
    && String.equal (String.sub s (String.length s - String.length suf) (String.length suf)) suf
  then String.sub s 0 (String.length s - String.length suf)
  else s

(** The cheapest configuration that can still reproduce a failure at
    [stage]: one oracle path, or one pass in isolation, or the pipeline
    prefix up to the failing pass.  The predicate runs many times per
    shrink, so this narrowing is what makes shrinking fast. *)
let narrow_for_stage ~passes ~stage =
  if Oracle.path_known stage then ([ stage ], [], false)
  else if Oracle.path_known (strip_suffix ~suf:"-tw" stage) then
    ([ strip_suffix ~suf:"-tw" stage ], [], false)
  else if prefix ~pre:"pipeline:" stage then
    let pname = String.sub stage 9 (String.length stage - 9) in
    if pname = "jit-uchost" then ([], passes, true)
    else
      (* keep the pipeline prefix: a failure at pass N can depend on the
         state passes 1..N-1 left behind *)
      let rec take = function
        | [] -> []
        | (p : Passcheck.pass) :: tl ->
          if p.Passcheck.pname = pname then [ p ] else p :: take tl
      in
      ([], take passes, false)
  else
    ( [],
      List.filter (fun (p : Passcheck.pass) -> p.Passcheck.pname = stage) passes,
      false )

(** The default per-case check: the differential matrix over [paths]
    and [passes], or — given the [stage] of a failure being shrunk — the
    narrowed configuration of {!narrow_for_stage}.  It draws no further
    seeds. *)
let differential ~paths ~passes (_ : unit -> int) ~stage q =
  match stage with
  | None -> check_case ~paths ~passes q
  | Some stage ->
    let paths, passes, jit = narrow_for_stage ~passes ~stage in
    check_case ~paths ~passes ~jit q

type progress = Case_ok of int | Case_failed of finding

(** [run ~seed ~count] — fuzz [count] cases.  Stops at [max_findings]
    (default 1: the first failure is the actionable one).  [on_progress]
    sees every case, for CLI reporting.  [gen] swaps the program shape —
    e.g. {!Gen.program_recursive} — without touching the campaign
    plumbing; the default is the classic DAG-call generator.  [check]
    swaps the per-case oracle (default {!differential}): after the
    generator seed it draws the case's further seeds from the campaign
    stream, and returns the check that runs on the case and, with the
    failing [stage], on every shrink candidate.  A failure is shrunk
    while it keeps its [stage]/[what] signature (the detail may drift as
    the program shrinks). *)
let run ?(paths = Oracle.all_paths) ?(passes = Passcheck.all_passes)
    ?(gen = fun ~seed -> Gen.program ~seed)
    ?(check :
       (unit -> int) ->
       stage:string option ->
       Prog.t ->
       (string * string * string) list =
      differential ~paths ~passes) ?(shrink = false) ?shrink_budget
    ?(max_findings = 1)
    ?(on_progress = fun (_ : progress) -> ()) ~seed ~count () : finding list =
  let r = R.rng seed in
  let draw () =
    Int64.to_int (Int64.logand (R.next_int64 r) 0x3FFFFFFFFFFFFFFFL)
  in
  let findings = ref [] in
  let case = ref 0 in
  while !case < count && List.length !findings < max_findings do
    let gen_seed = draw () in
    let check = check draw in
    let prog = gen ~seed:gen_seed in
    (match check ~stage:None prog with
    | [] -> on_progress (Case_ok !case)
    | (stage, what, detail) :: _ ->
      let shrunk =
        if shrink then
          let pred q =
            List.exists
              (fun (s, w, _) -> s = stage && w = what)
              (check ~stage:(Some stage) q)
          in
          Some
            (if pred prog then Shrink.run ?budget:shrink_budget ~pred prog
             else prog)
        else None
      in
      let f =
        { case = !case; gen_seed; stage; what; detail; prog; shrunk }
      in
      findings := !findings @ [ f ];
      on_progress (Case_failed f));
    incr case
  done;
  !findings
