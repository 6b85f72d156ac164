(** PVIR → OCaml code generation for the AOT interpreter engine.

    One OCaml function per PVIR function, basic blocks as a tail-recursive
    nest of local functions.  Locations are PVIR registers, classed by
    their declared types: vectors stay boxed ([KBox]) and delegate to
    {!Pvir.Eval}; scalars take the unboxed classes of the shared
    {!Emit} core, which also owns the inline operation bodies, the
    must-assign guards and the batched charging with exact fuel rewind.
    This module keeps only what is specific to PVIR: the operations'
    read orders and charges (dispatch cost plus lanes), globals, allocas
    and the interpreter's call counting.

    Generated code contains {e no safepoint polls}: neither the
    checkpoint threshold nor the sampling-profiler threshold is checked
    at block entries, and no shadow activation stack is maintained.
    Activations that need either (an armed checkpoint or an attached
    {!Pvprof.t} sampler) are delegated whole to the threaded engine by
    the runner in [pvaot.ml] — accounting-identical by construction, so
    snapshots and sampled streams still match every engine bit for bit.

    The input is a verified program, so register types, globals and
    callees always resolve.  Anything the generator cannot prove it can
    compile exactly raises {!Emit.Unsupported}; the caller falls back to
    the threaded engine, so this module never needs to be complete —
    only correct. *)

module Types = Pvir.Types
module Instr = Pvir.Instr
module Func = Pvir.Func
module Value = Pvir.Value
module IntSet = Emit.IntSet
open Emit

(* ------------------------------------------------------------------ *)
(* Operand read order (must match the engines' trap order exactly)     *)

let reads_in_order (i : Instr.t) : Instr.reg list =
  match i with
  | Instr.Const _ | Instr.Gaddr _ | Instr.Alloca _ -> []
  | Instr.Mov (_, a)
  | Instr.Unop (_, _, a)
  | Instr.Conv (_, _, a)
  | Instr.Splat (_, a)
  | Instr.Extract (_, a, _)
  | Instr.Reduce (_, _, a) -> [ a ]
  | Instr.Binop (_, _, a, b) -> [ a; b ]
  | Instr.Cmp (_, _, a, b) -> [ b; a ]
  | Instr.Select (_, c, a, b) -> [ b; a; c ]
  | Instr.Load (_, _, base, _) -> [ base ]
  | Instr.Store (_, src, base, _) -> [ base; src ]
  | Instr.Call (_, _, args) -> args

(* Vectors stay boxed in the interpreter backend. *)
let interp_cls (ty : Types.t) =
  match ty with Types.Vector _ -> KBox | ty -> cls_of_type ty

(* ------------------------------------------------------------------ *)
(* Instruction emission                                                *)

type gen = {
  e : Emit.st;
  fn : Func.t;
  fnindex : (string, int) Hashtbl.t;  (** program function name → index *)
  img : Pvvm.Image.t;
}

let emit_instr g (i : Instr.t) =
  let st = g.e in
  let d_cost = Pvvm.Decode.dispatch_cost in
  match i with
  | Instr.Const (d, v) ->
    add_charge st (d_cost + 1);
    (match (cls st d, v) with
    | KBox, (Value.Vec _ as v) -> emit_set st d (value_lit v)
    | c, v -> (
      match raw_lit c v with
      | Some e -> emit_set st d e
      | None -> unsupported "constant shape mismatch for r%d" d));
    mark_def st d
  | Instr.Mov (d, a) ->
    add_charge st (d_cost + 1);
    guard_reads st [ a ];
    if cls st d <> cls st a then unsupported "mov class mismatch r%d := r%d" d a;
    emit_set st d (rd st a);
    mark_def st d
  | Instr.Gaddr (d, gl) ->
    add_charge st (d_cost + 1);
    let addr = Pvvm.Image.global_address g.img gl in
    (match cls st d with
    | KWide -> emit_set st d (int64_lit (Int64.of_int addr))
    | _ -> unsupported "gaddr into non-i64 register r%d" d);
    mark_def st d
  | Instr.Binop (op, d, a, b) ->
    (* the engines read [a] (for the lane count) before charging *)
    guard_reads st [ a ];
    let ca = cls st a in
    add_charge st (d_cost + Types.lanes (Func.reg_type g.fn a));
    if ca <> cls st b || cls st d <> ca then
      unsupported "binop class mismatch at r%d" d;
    if ca = KBox then begin
      flush st;
      emit_guard st b;
      emit_set st d
        (Printf.sprintf
           "(try Ev.binop %s %s %s with Ev.Division_by_zero -> raise \
            (VM.Trap \"division by zero\"))"
           (binop_ctor op) (rd st a) (rd st b))
    end
    else begin
      if is_div_op op then flush st;
      guard_reads st [ b ];
      emit_set st d (binop_expr op ca (rd st a) (rd st b))
    end;
    mark_def st d
  | Instr.Unop (op, d, a) ->
    add_charge st (d_cost + 1);
    guard_reads st [ a ];
    if cls st d <> cls st a then unsupported "unop class mismatch at r%d" d;
    (match cls st a with
    | KBox ->
      flush st;
      emit_set st d (Printf.sprintf "(Ev.unop %s %s)" (unop_ctor op) (rd st a))
    | ca -> emit_set st d (unop_expr op ca (rd st a)));
    mark_def st d
  | Instr.Conv (kind, d, a) ->
    add_charge st (d_cost + 1);
    guard_reads st [ a ];
    (match (cls st d, cls st a) with
    | KBox, KBox ->
      flush st;
      emit_set st d
        (Printf.sprintf "(Ev.conv %s %s %s)" (conv_ctor kind)
           (ty_lit (Func.reg_type g.fn d))
           (rd st a))
    | KBox, _ | _, KBox -> unsupported "mixed scalar/vector conversion"
    | cd, ca -> emit_set st d (conv_expr kind ~ca ~cd (rd st a)));
    mark_def st d
  | Instr.Cmp (op, d, a, b) ->
    add_charge st (d_cost + 1);
    guard_reads st [ b; a ];
    if cls st d <> KNarrow Types.I32 then
      unsupported "cmp destination r%d is not i32" d;
    let ca = cls st a in
    if ca <> cls st b then unsupported "cmp class mismatch at r%d" d;
    (match ca with
    | KBox ->
      flush st;
      emit_store_value st d
        (Printf.sprintf "(Ev.cmp %s %s %s)" (relop_ctor op) (rd st a) (rd st b))
    | _ ->
      emit_set st d
        (Printf.sprintf "(if %s then 1 else 0)"
           (cmp_expr op ca (rd st a) (rd st b))));
    mark_def st d
  | Instr.Select (d, c, a, b) ->
    add_charge st (d_cost + 1);
    let cond_boxed = cls st c = KBox in
    if cond_boxed then flush st;
    guard_reads st [ b; a; c ];
    if cls st d <> cls st a || cls st a <> cls st b then
      unsupported "select class mismatch at r%d" d;
    let cond =
      if cond_boxed then Printf.sprintf "(V.to_bool %s)" (rd st c)
      else truth_expr (cls st c) (rd st c)
    in
    emit_set st d
      (Printf.sprintf "(if %s then %s else %s)" cond (rd st a) (rd st b));
    mark_def st d
  | Instr.Load (ty, d, base, off) ->
    add_charge st (d_cost + Types.lanes ty);
    flush st;
    emit_guard st base;
    emit_addr st (cls st base) (rd st base) off;
    (match (ty, cls st d) with
    | Types.Vector _, KBox ->
      emit_set st d (Printf.sprintf "(M.load mem_ a_ %s)" (ty_lit ty))
    | _, cd when cd = interp_cls ty -> emit_load st d ty
    | _ -> unsupported "load type/class mismatch at r%d" d);
    mark_def st d
  | Instr.Store (ty, src, base, off) ->
    add_charge st (d_cost + Types.lanes ty);
    flush st;
    emit_guard st base;
    emit_addr st (cls st base) (rd st base) off;
    emit_guard st src;
    if interp_cls ty <> cls st src then
      unsupported "store type/class mismatch at r%d" src;
    emit_store_mem st (cls st src) (rd st src)
  | Instr.Alloca (d, bytes) ->
    add_charge st (d_cost + 1);
    flush st;
    line st "ctx.A.sp <- ctx.A.sp - %d;" bytes;
    line st
      "if ctx.A.sp < ctx.A.globals_end then raise (VM.Trap \"stack \
       overflow\");";
    (match cls st d with
    | KWide -> emit_set st d "(Int64.of_int ctx.A.sp)"
    | _ -> unsupported "alloca into non-i64 register r%d" d);
    mark_def st d
  | Instr.Call (d, name, args) ->
    add_charge st (d_cost + 1);
    flush st;
    List.iter (emit_guard st) args;
    let argv = String.concat "; " (List.map (boxed st) args) in
    let call_expr =
      match Hashtbl.find_opt g.fnindex name with
      | Some k -> Printf.sprintf "(f_%d ctx [ %s ])" k argv
      | None -> Printf.sprintf "(VM.intrinsic ctx.A.out %S [ %s ])" name argv
    in
    emit_call_result st d name call_expr;
    Option.iter (mark_def st) d
  | Instr.Splat (d, a) -> (
    add_charge st (d_cost + 1);
    match Func.reg_type g.fn d with
    | Types.Vector (_, n) ->
      guard_reads st [ a ];
      if cls st d <> KBox then
        unsupported "splat destination class mismatch at r%d" d;
      emit_set st d (Printf.sprintf "(V.Vec (Array.make %d %s))" n (boxed st a));
      mark_def st d
    | _ -> unsupported "splat destination r%d is not a vector" d)
  | Instr.Extract (d, a, lane) ->
    add_charge st (d_cost + 1);
    flush st;
    emit_guard st a;
    if cls st a <> KBox then
      unsupported "extract source r%d is not a vector register" a;
    emit_store_value st d (Printf.sprintf "(Ev.extract %s %d)" (rd st a) lane);
    mark_def st d
  | Instr.Reduce (op, d, a) ->
    add_charge st (d_cost + 1);
    flush st;
    emit_guard st a;
    if cls st a <> KBox then
      unsupported "reduce source r%d is not a vector register" a;
    emit_store_value st d
      (Printf.sprintf "(Ev.reduce %s %s)" (redop_ctor op) (rd st a));
    mark_def st d

(* ------------------------------------------------------------------ *)
(* Function emission                                                   *)

let emit_terminator g nblocks label_index (term : Instr.term) =
  let st = g.e in
  (* block dispatch costs one charge of [Decode.dispatch_cost] cycles *)
  add_charge st Pvvm.Decode.dispatch_cost;
  flush st;
  let target l =
    match label_index l with
    | Some j when j < nblocks -> j
    | _ -> unsupported "branch to unknown block %d" l
  in
  match term with
  | Instr.Br l -> line st "b_%d ()" (target l)
  | Instr.Cbr (c, l1, l2) ->
    emit_guard st c;
    let cond =
      match cls st c with
      | KBox -> Printf.sprintf "V.to_bool %s" (rd st c)
      | cc -> truth_expr cc (rd st c)
    in
    line st "if %s then b_%d () else b_%d ()" cond (target l1) (target l2)
  | Instr.Ret None -> line st "(ctx.A.sp <- saved_sp_; None)"
  | Instr.Ret (Some r) ->
    emit_guard st r;
    line st "(let rv_ = %s in ctx.A.sp <- saved_sp_; Some rv_)" (boxed st r)

let emit_function buf img fnindex ~first idx (fn : Func.t) =
  let blocks = Array.of_list fn.Func.blocks in
  let label_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Func.block) ->
      if not (Hashtbl.mem label_tbl b.Func.label) then
        Hashtbl.add label_tbl b.Func.label i)
    blocks;
  let label_index l = Hashtbl.find_opt label_tbl l in
  let ablocks =
    Array.map
      (fun (b : Func.block) ->
        {
          steps = List.map (fun i -> (reads_in_order i, Instr.def i)) b.Func.instrs;
          term_reads = Instr.term_uses b.Func.term;
          succs = List.filter_map label_index (Instr.successors b.Func.term);
        })
      blocks
  in
  let a =
    analyze ablocks ~entry_defs:fn.Func.params ~lets_ok:(fun _ -> true)
  in
  let classes = Hashtbl.create 32 in
  let cls_of r =
    match Hashtbl.find_opt classes r with
    | Some c -> c
    | None ->
      let c = interp_cls (Func.reg_type fn r) in
      Hashtbl.replace classes r c;
      c
  in
  let guard_msg r =
    Printf.sprintf "read of uninitialized register r%d in %s" r fn.Func.name
  in
  let st, nwide, nfloat = Emit.create buf a ~cls_of ~guard_msg in
  let g = { e = st; fn; fnindex; img } in
  let kw = if first then "let rec" else "and" in
  line st "%s f_%d (ctx : A.ctx) (args_ : V.t list) : V.t option =" kw idx;
  st.ind <- "  ";
  line st "ctx.A.calls <- ctx.A.calls + 1;";
  let nparams = List.length fn.Func.params in
  let pat =
    if nparams = 0 then "[]"
    else
      "[ " ^ String.concat "; " (List.init nparams (Printf.sprintf "p%d_")) ^ " ]"
  in
  line st "match args_ with";
  line st "| %s ->" pat;
  st.ind <- "    ";
  if Array.length blocks = 0 then
    (* dcall's exact no-blocks error, after call count and arity *)
    line st "invalid_arg %S"
      (Printf.sprintf "Func.entry: %s has no blocks" fn.Func.name)
  else begin
    line st "let mem_ = ctx.A.mem in";
    line st "let buf_ = mem_.M.bytes in";
    line st "let ng_ = mem_.M.null_guard in";
    line st "let sz_ = mem_.M.size in";
    line st "let saved_sp_ = ctx.A.sp in";
    line st "ignore buf_; ignore ng_; ignore sz_;";
    emit_frame st a ~nwide ~nfloat
      ~params:(List.mapi (fun i r -> (r, Printf.sprintf "p%d_" i)) fn.Func.params);
    Array.iteri
      (fun bi (b : Func.block) ->
        match a.in_.(bi) with
        | None -> ()  (* unreachable: never emitted, never entered *)
        | Some inb ->
          let kw = if bi = 0 then "let rec" else "and" in
          line st "%s b_%d () : V.t option =" kw bi;
          st.ind <- "      ";
          st.assigned <- inb;
          st.pending <- [];
          List.iter (emit_instr g) b.Func.instrs;
          emit_terminator g (Array.length blocks) label_index b.Func.term;
          st.ind <- "    ")
      blocks;
    line st "in b_0 ()"
  end;
  st.ind <- "  ";
  line st "| _ -> raise (VM.Trap %S)"
    (Printf.sprintf "arity mismatch calling %s" fn.Func.name)

(* ------------------------------------------------------------------ *)
(* Program emission                                                    *)

(** Generate plugin source for every function of the image's program.
    Returns [(digest, src_digest, source)] where [src_digest] identifies
    the generated body (the loader's staleness check); raises
    {!Emit.Unsupported} (or any exception out of program introspection) when
    exact compilation is not possible — callers treat every exception as
    "fall back". *)
let generate (img : Pvvm.Image.t) : string * string * string =
  let prog = img.Pvvm.Image.prog in
  (* The pretty-printed program alone under-keys the cache: [Pp] never
     prints global annotations, so two programs differing only in their
     annotation sets would collide.  Fold the canonical annotation dump
     in as its own section. *)
  let digest =
    Build.digest_of_dump
      (Printf.sprintf "interp\x00%d\x00%s\x00annots\x00%s"
         Pvvm.Decode.dispatch_cost
         (Pvir.Pp.program_to_string prog)
         (Pvir.Prog.annotations_dump prog))
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (header ~backend:"interpreter");
  let fnindex = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem fnindex f.Func.name) then
        Hashtbl.add fnindex f.Func.name i)
    prog.Pvir.Prog.funcs;
  List.iteri
    (fun i (f : Func.t) ->
      (* duplicate names: only the first is callable, but all are emitted
         so indices stay aligned *)
      emit_function buf img fnindex ~first:(i = 0) i f)
    prog.Pvir.Prog.funcs;
  (* digest of the generated body so far — baked into the plugin's
     registration and re-derived by the loader from the current
     generator's output, so a cached artifact built by an older
     generator is rejected at load time (the staleness guard) *)
  let src_digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Buffer.add_string buf "\nlet () =\n";
  Buffer.add_string buf
    (Printf.sprintf "  A.register_src %S ~src:%S\n" digest src_digest);
  (* one entry per distinct name, bound to its first definition *)
  let entries =
    List.filteri
      (fun i (f : Func.t) -> Hashtbl.find_opt fnindex f.Func.name = Some i)
      prog.Pvir.Prog.funcs
    |> List.map (fun (f : Func.t) ->
           Printf.sprintf "(%S, f_%d)" f.Func.name
             (Hashtbl.find fnindex f.Func.name))
  in
  Buffer.add_string buf ("    [ " ^ String.concat "; " entries ^ " ]\n");
  (digest, src_digest, Buffer.contents buf)
