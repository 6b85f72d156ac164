(** Annotation validation — the trust boundary of split compilation.

    Annotations travel inside the distributed bytecode, so a device must
    treat them exactly like the rest of the module: *untrusted input*.  The
    verifier guarantees the program is well-typed, but annotations are
    advisory metadata the verifier deliberately ignores — a corrupted or
    adversarial {!Pvir.Annot.key_spill_order} payload could otherwise steer
    the JIT into nonsense (weights for registers that do not exist,
    negative costs, duplicate entries).

    The contract (paper §3: "the JIT must be free to ignore them") makes
    recovery cheap: a failed check never aborts compilation, it only
    *downgrades* the hint path — the JIT falls back to recomputing the
    analysis online, paying the pure-online price, and records the
    downgrade in its work accounting so experiments can see it.  An absent
    annotation is not a fault; only a present-but-malformed one is. *)

open Pvir

(** Outcome of validating one function's hint annotations. *)
type status =
  | Absent  (** no annotation present — a plain pure-online function *)
  | Valid  (** annotation present and consistent with the function *)
  | Invalid of string
      (** annotation present but inconsistent; the reason is recorded for
          diagnostics, and the JIT recomputes the analysis online *)

let status_name = function
  | Absent -> "absent"
  | Valid -> "valid"
  | Invalid _ -> "invalid"

(** Validate the split-regalloc payload of [fn] against the function it
    claims to describe.  Structural checks (shape of the list) and semantic
    checks (every register must be declared in [fn], costs non-negative, no
    register listed twice).  Returns the decoded order only when every
    check passes, so a caller can never act on a half-valid payload. *)
let check_spill_order (fn : Func.t) :
    status * (Instr.reg * int) list option =
  match Annot.find Annot.key_spill_order fn.annots with
  | None -> (Absent, None)
  | Some _ -> (
    match Pvopt.Regalloc_annotate.decode_spill_order fn with
    | None -> (Invalid "spill_order: malformed entry shape", None)
    | Some order ->
      let seen = Hashtbl.create 32 in
      let rec walk = function
        | [] -> (Valid, Some order)
        | (r, c) :: tl ->
          if not (Func.declared fn r) then
            ( Invalid
                (Printf.sprintf "spill_order: register r%d not declared in %s"
                   r fn.name),
              None )
          else if c < 0 then
            ( Invalid
                (Printf.sprintf "spill_order: negative cost %d for r%d" c r),
              None )
          else if Hashtbl.mem seen r then
            (Invalid (Printf.sprintf "spill_order: duplicate register r%d" r), None)
          else begin
            Hashtbl.replace seen r ();
            walk tl
          end
      in
      walk order)

(** Validate the vectorizer's function-level annotations: the
    {!Pvir.Annot.key_vectorized} lane width must be a sensible power of
    two, and a function that claims to be vectorized must actually contain
    vector-typed registers (a swapped-between-functions annotation fails
    here).  The pressure estimate, when present, must be a non-negative
    integer. *)
let check_vectorized (fn : Func.t) : status =
  let has_vector_regs () =
    Func.fold_regs (fun _ ty acc -> acc || Types.is_vector ty) fn false
  in
  let vec =
    match Annot.find Annot.key_vectorized fn.annots with
    | None -> Absent
    | Some (Annot.Int w) ->
      if w < 2 || w > 64 || w land (w - 1) <> 0 then
        Invalid (Printf.sprintf "vectorized: implausible lane width %d" w)
      else if not (has_vector_regs ()) then
        Invalid "vectorized: function contains no vector registers"
      else Valid
    | Some _ -> Invalid "vectorized: value is not an integer"
  in
  let pressure =
    match Annot.find Annot.key_pressure fn.annots with
    | None -> Absent
    | Some (Annot.Int p) when p >= 0 -> Valid
    | Some (Annot.Int p) ->
      Invalid (Printf.sprintf "pressure: negative estimate %d" p)
    | Some _ -> Invalid "pressure: value is not an integer"
  in
  match (vec, pressure) with
  | (Invalid _ as i), _ | _, (Invalid _ as i) -> i
  | Valid, _ | _, Valid -> Valid
  | Absent, Absent -> Absent

(** Validate the profiler's {!Pvir.Annot.key_hotness} payload: a float
    fraction of total profile weight, so it must be finite and inside
    [0; 1].  Both the exhaustive profiler and the sampling profiler
    ([pvsc --profile-in]) write this key, and a device must not let a
    corrupted profile steer tiering with a NaN or an out-of-range
    weight. *)
let check_hotness (fn : Func.t) : status =
  match Annot.find Annot.key_hotness fn.annots with
  | None -> Absent
  | Some (Annot.Flt h) ->
    if Float.is_nan h || h < 0.0 || h > 1.0 then
      Invalid (Printf.sprintf "hotness: fraction %h outside [0;1]" h)
    else Valid
  | Some _ -> Invalid "hotness: value is not a float"

(** Validate one loop's annotation payload.  Loop annotations are advisory
    per-header metadata; only their {e values} are checked (the header
    label itself may legitimately go stale as later passes restructure the
    CFG, so a dangling header is not a fault):

    - {!Pvir.Annot.key_trip_count} must be a non-negative integer;
    - {!Pvir.Annot.key_unit_stride} and {!Pvir.Annot.key_no_alias} must be
      booleans;
    - {!Pvir.Annot.key_vector_factor} must be a power-of-two lane count in
      [1; 64]. *)
let check_loop_payload (a : Annot.t) : status =
  let join x y =
    match (x, y) with
    | (Invalid _ as i), _ | _, (Invalid _ as i) -> i
    | Valid, _ | _, Valid -> Valid
    | Absent, Absent -> Absent
  in
  let int_check key ~ok ~bad =
    match Annot.find key a with
    | None -> Absent
    | Some (Annot.Int v) -> if ok v then Valid else Invalid (bad v)
    | Some _ -> Invalid (Printf.sprintf "%s: value is not an integer" key)
  in
  let bool_check key =
    match Annot.find key a with
    | None -> Absent
    | Some (Annot.Bool _) -> Valid
    | Some _ -> Invalid (Printf.sprintf "%s: value is not a boolean" key)
  in
  let trip =
    int_check Annot.key_trip_count
      ~ok:(fun v -> v >= 0)
      ~bad:(fun v -> Printf.sprintf "trip_count: negative count %d" v)
  in
  let vf =
    int_check Annot.key_vector_factor
      ~ok:(fun v -> v >= 1 && v <= 64 && v land (v - 1) = 0)
      ~bad:(fun v -> Printf.sprintf "vector_factor: implausible lane count %d" v)
  in
  join trip (join vf (join (bool_check Annot.key_unit_stride)
                        (bool_check Annot.key_no_alias)))

(** Validate every loop annotation of [fn].  Returns the combined verdict
    plus the per-header verdicts (for diagnostics); [Invalid] means at
    least one loop payload is malformed and the JIT should not trust any
    loop-level hint of this function. *)
let check_loops (fn : Func.t) : status * (int * status) list =
  let per =
    List.map (fun (h, a) -> (h, check_loop_payload a)) fn.loop_annots
  in
  let combined =
    List.fold_left
      (fun acc (_, st) ->
        match (acc, st) with
        | (Invalid _ as i), _ | _, (Invalid _ as i) -> i
        | Valid, _ | _, Valid -> Valid
        | Absent, Absent -> Absent)
      Absent per
  in
  (combined, per)

(** Combined verdict for one function: [Invalid] dominates, then [Valid],
    then [Absent].  Covers function-level (spill order, vectorizer
    metadata, profile hotness) and loop-level (trip count, stride, lane
    count) payloads. *)
let check_func (fn : Func.t) : status =
  let so, _ = check_spill_order fn in
  let vec = check_vectorized fn in
  let hot = check_hotness fn in
  let loops, _ = check_loops fn in
  let join x y =
    match (x, y) with
    | (Invalid _ as i), _ | _, (Invalid _ as i) -> i
    | Valid, _ | _, Valid -> Valid
    | Absent, Absent -> Absent
  in
  join so (join vec (join hot loops))
