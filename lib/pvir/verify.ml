(** PVIR verifier.

    Verification runs offline after compilation and online at load time — a
    device never JITs an ill-typed program.  Checks: every used register lies
    in [\[0, next_reg)] and has a declared type and correct operand types,
    branch targets exist, calls match visible signatures, the entry block
    exists and memory operands are pointers. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let check_scalar_op fn where op ty =
  match (ty : Types.t) with
  | Types.Scalar s | Types.Vector (s, _) ->
    if not (Instr.binop_valid_on op s) then
      fail "%s: %s not valid at type %s in %s" where (Instr.binop_name op)
        (Types.to_string ty) Func.(fn.name)
  | Types.Ptr _ ->
    (* pointer arithmetic: only add/sub of pointers with integers is
       expressed as i64 math before a conv; direct ptr binops are limited *)
    (match op with
    | Instr.Add | Instr.Sub -> ()
    | _ ->
      fail "%s: %s not valid on pointer in %s" where (Instr.binop_name op)
        Func.(fn.name))

let same_ty fn where a b =
  let ta = Func.reg_type fn a and tb = Func.reg_type fn b in
  (* Pointer registers may mix with i64 in address computations. *)
  let norm (t : Types.t) = match t with Types.Ptr _ -> Types.i64 | t -> t in
  if not (Types.equal (norm ta) (norm tb)) then
    fail "%s: operand types %s vs %s in %s" where (Types.to_string ta)
      (Types.to_string tb) Func.(fn.name)

let check_instr p fn (i : Instr.t) =
  let rt r = Func.reg_type fn r in
  match i with
  | Const (d, v) ->
    if not (Types.equal (rt d) (Value.ty v)) then
      (* pointer-typed register receiving an integer constant is fine *)
      if not (Types.is_pointer (rt d) && Types.equal (Value.ty v) Types.i64)
      then
        fail "const: register r%d has type %s but value has type %s in %s" d
          (Types.to_string (rt d))
          (Types.to_string (Value.ty v))
          Func.(fn.name)
  | Mov (d, a) -> same_ty fn "mov" d a
  | Gaddr (d, g) ->
    if not (Types.is_pointer (rt d) || Types.equal (rt d) Types.i64) then
      fail "gaddr: destination r%d is not a pointer in %s" d Func.(fn.name);
    if Prog.find_global p g = None then
      fail "gaddr: unknown global @%s in %s" g Func.(fn.name)
  | Binop (op, d, a, b) ->
    same_ty fn "binop" a b;
    same_ty fn "binop" d a;
    check_scalar_op fn "binop" op (rt d)
  | Unop (op, d, a) ->
    same_ty fn "unop" d a;
    if op = Instr.Not && Types.is_float (rt d) then
      fail "unop: not on float in %s" Func.(fn.name)
  | Conv (_, d, a) -> (
    match (rt d, rt a) with
    | Types.Vector (_, nd), Types.Vector (_, na) ->
      if nd <> na then
        fail "conv: vector lane count mismatch in %s" Func.(fn.name)
    | Types.Vector _, _ | _, Types.Vector _ ->
      fail "conv: mixed vector/scalar operands in %s" Func.(fn.name)
    | _ -> ())
  | Cmp (op, d, a, b) ->
    same_ty fn "cmp" a b;
    if Types.is_vector (rt a) then fail "cmp: vector operand in %s" Func.(fn.name);
    if not (Types.equal (rt d) Types.i32) then
      fail "cmp: destination must be i32 in %s" Func.(fn.name);
    (match op with
    | Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge ->
      if Types.is_float (rt a) then
        fail "cmp: unsigned predicate on float in %s" Func.(fn.name)
    | _ -> ())
  | Select (d, c, a, b) ->
    same_ty fn "select" a b;
    same_ty fn "select" d a;
    if not (Types.equal (rt c) Types.i32) then
      fail "select: condition must be i32 in %s" Func.(fn.name)
  | Load (ty, d, base, _) ->
    if not (Types.equal (rt d) ty) then
      fail "load: destination type mismatch in %s" Func.(fn.name);
    if not (Types.is_pointer (rt base) || Types.equal (rt base) Types.i64)
    then fail "load: base r%d is not a pointer in %s" base Func.(fn.name)
  | Store (ty, s, base, _) ->
    if not (Types.equal (rt s) ty) then
      fail "store: source type mismatch in %s" Func.(fn.name);
    if not (Types.is_pointer (rt base) || Types.equal (rt base) Types.i64)
    then fail "store: base r%d is not a pointer in %s" base Func.(fn.name)
  | Alloca (d, n) ->
    if n < 0 then fail "alloca: negative size in %s" Func.(fn.name);
    if not (Types.is_pointer (rt d)) then
      fail "alloca: destination r%d is not a pointer in %s" d Func.(fn.name)
  | Call (d, name, args) -> (
    match Prog.callee_sig p name with
    | None -> fail "call: unknown callee @%s in %s" name Func.(fn.name)
    | Some (param_tys, ret_ty) ->
      if List.length args <> List.length param_tys then
        fail "call: @%s expects %d arguments, got %d in %s" name
          (List.length param_tys) (List.length args)
          Func.(fn.name);
      List.iter2
        (fun a ty ->
          if not (Types.equal (rt a) ty) then
            fail "call: argument type mismatch for @%s in %s" name
              Func.(fn.name))
        args param_tys;
      match (d, ret_ty) with
      | None, _ -> ()
      | Some _, None ->
        fail "call: @%s returns nothing in %s" name Func.(fn.name)
      | Some d, Some ty ->
        if not (Types.equal (rt d) ty) then
          fail "call: return type mismatch for @%s in %s" name Func.(fn.name))
  | Splat (d, a) -> (
    match rt d with
    | Types.Vector (s, _) ->
      if not (Types.equal (rt a) (Types.Scalar s)) then
        fail "splat: lane type mismatch in %s" Func.(fn.name)
    | _ -> fail "splat: destination is not a vector in %s" Func.(fn.name))
  | Extract (d, a, lane) -> (
    match rt a with
    | Types.Vector (s, n) ->
      if lane < 0 || lane >= n then
        fail "extract: lane %d out of range in %s" lane Func.(fn.name);
      if not (Types.equal (rt d) (Types.Scalar s)) then
        fail "extract: destination type mismatch in %s" Func.(fn.name)
    | _ -> fail "extract: source is not a vector in %s" Func.(fn.name))
  | Reduce (op, d, a) -> (
    match rt a with
    | Types.Vector (s, _) ->
      if not (Types.equal (rt d) (Types.Scalar s)) then
        fail "reduce: destination type mismatch in %s" Func.(fn.name);
      if Types.is_float_scalar s then (
        match op with
        | Instr.Rumin | Instr.Rumax ->
          fail "reduce: unsigned reduction on float in %s" Func.(fn.name)
        | _ -> ())
    | _ -> fail "reduce: source is not a vector in %s" Func.(fn.name))

let check_term fn labels (t : Instr.term) =
  let check_label l =
    if not (List.mem l labels) then
      fail "terminator: no block %d in %s" l Func.(fn.name)
  in
  match t with
  | Br l -> check_label l
  | Cbr (c, l1, l2) ->
    if not (Types.equal (Func.reg_type fn c) Types.i32) then
      fail "cbr: condition must be i32 in %s" Func.(fn.name);
    check_label l1;
    check_label l2
  | Ret None ->
    if Func.(fn.ret) <> None then
      fail "ret: missing return value in %s" Func.(fn.name)
  | Ret (Some r) -> (
    match Func.(fn.ret) with
    | None -> fail "ret: unexpected return value in %s" Func.(fn.name)
    | Some ty ->
      if not (Types.equal (Func.reg_type fn r) ty) then
        fail "ret: return type mismatch in %s" Func.(fn.name))

(* Registers must be checked for *declaration* before any type rule runs:
   [Func.reg_type] raises [Invalid_argument] on an unknown register, and a
   decoded (untrusted) program can reference any register id it likes.
   This pre-check turns that into a typed [Error] at the boundary.  The
   range rule is what the engines size register files by: [next_reg]
   slots, indexed without a bounds check. *)
let check_regs_declared (fn : Func.t) =
  List.iter
    (fun r ->
      if r < 0 || r >= fn.next_reg then
        fail "register r%d outside [0, %d) in %s" r fn.next_reg fn.name;
      if not (Func.declared fn r) then
        fail "undeclared register r%d in %s" r fn.name)
    (Func.all_regs fn)

(* Runs once {!program} has checked every function's registers. *)
let check_func p (fn : Func.t) =
  if fn.blocks = [] then fail "function %s has no blocks" fn.name;
  let labels = List.map (fun (b : Func.block) -> b.label) fn.blocks in
  let sorted = List.sort compare labels in
  let rec dup = function
    | a :: (b :: _ as tl) -> if a = b then Some a else dup tl
    | _ -> None
  in
  (match dup sorted with
  | Some l -> fail "duplicate block label %d in %s" l fn.name
  | None -> ());
  List.iter
    (fun (b : Func.block) ->
      List.iter (check_instr p fn) b.instrs;
      check_term fn labels b.term)
    fn.blocks

(** [program p] raises {!Error} if [p] is ill-formed. *)
let program (p : Prog.t) =
  let names = List.map (fun (f : Func.t) -> f.name) p.funcs in
  let sorted = List.sort compare names in
  let rec dup = function
    | a :: (b :: _ as tl) -> if String.equal a b then Some a else dup tl
    | _ -> None
  in
  (match dup sorted with
  | Some n -> fail "duplicate function @%s" n
  | None -> ());
  (* all functions first: a call-site check reads the *callee*'s parameter
     types, which must be known declared before any caller is visited *)
  List.iter check_regs_declared p.funcs;
  List.iter (check_func p) p.funcs

(** [program_result p] is [Ok ()] or [Error message]. *)
let program_result p =
  match program p with () -> Ok () | exception Error m -> Error m
