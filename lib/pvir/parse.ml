(** Parser for the textual PVIR syntax emitted by {!Pp}.

    The textual form exists for tests, debugging and human inspection; the
    distribution format is the binary encoding in {!Serial}.  The grammar is
    exactly what {!Pp} prints, so [Parse.program (Pp.program_to_string p)]
    round-trips. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------------- lexer ---------------- *)

type token =
  | Word of string  (** identifiers, keywords, opcode names *)
  | Num of string  (** raw number spelling, int or hex float *)
  | Str of string
  | Punct of char

let is_word_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_word_char c =
  is_word_start c || (c >= '0' && c <= '9') || c = '.' || c = '_'

let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  (* Numbers: decimal ints, hex floats as printed by %h
     (e.g. 0x1.8p+3), inf / nan handled as words then reinterpreted. *)
  let lex_number () =
    let start = !i in
    if src.[!i] = '-' then incr i;
    let hex = peek 0 = Some '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
    if hex then i := !i + 2;
    let exp_char = if hex then ('p', 'P') else ('e', 'E') in
    let continue_ = ref true in
    while !continue_ && !i < n do
      let c = src.[!i] in
      let is_digit_here =
        is_digit c || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))
      in
      if is_digit_here || c = '.' then incr i
      else if c = fst exp_char || c = snd exp_char then (
        incr i;
        match peek 0 with
        | Some ('+' | '-') -> incr i
        | _ -> ())
      else continue_ := false
    done;
    push (Num (String.sub src start (!i - start)))
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_digit c then lex_number ()
    else if c = '-' && (match peek 1 with Some d -> is_digit d | None -> false)
    then lex_number ()
    else if is_word_start c then (
      let start = !i in
      while !i < n && is_word_char src.[!i] do
        incr i
      done;
      let w = String.sub src start (!i - start) in
      (* inf / nan are float spellings *)
      if w = "inf" || w = "nan" then push (Num w) else push (Word w))
    else if c = '"' then (
      (* OCaml %S escapes: decode with Scanf *)
      let start = !i in
      incr i;
      let continue_ = ref true in
      while !continue_ && !i < n do
        if src.[!i] = '\\' then i := !i + 2
        else if src.[!i] = '"' then (
          incr i;
          continue_ := false)
        else incr i
      done;
      let lit = String.sub src start (!i - start) in
      let s = Scanf.sscanf lit "%S" (fun s -> s) in
      push (Str s))
    else (
      push (Punct c);
      incr i)
  done;
  List.rev !toks

(* ---------------- token stream ---------------- *)

type stream = { mutable toks : token list }

let tok_to_string = function
  | Word w -> w
  | Num s -> s
  | Str s -> Printf.sprintf "%S" s
  | Punct c -> String.make 1 c

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: tl -> st.toks <- tl

let next st =
  match st.toks with
  | [] -> fail "unexpected end of input"
  | t :: tl ->
    st.toks <- tl;
    t

let expect_punct st c =
  match next st with
  | Punct c' when c = c' -> ()
  | t -> fail "expected '%c', got %s" c (tok_to_string t)

let expect_word st w =
  match next st with
  | Word w' when String.equal w w' -> ()
  | t -> fail "expected '%s', got %s" w (tok_to_string t)

let accept_punct st c =
  match peek st with
  | Some (Punct c') when c = c' ->
    advance st;
    true
  | _ -> false

let accept_word st w =
  match peek st with
  | Some (Word w') when String.equal w w' ->
    advance st;
    true
  | _ -> false

let word st =
  match next st with
  | Word w -> w
  | t -> fail "expected identifier, got %s" (tok_to_string t)

let int_lit st =
  match next st with
  | Num s -> (
    match Int64.of_string_opt s with
    | Some v -> Int64.to_int v
    | None -> fail "expected integer, got %s" s)
  | t -> fail "expected integer, got %s" (tok_to_string t)

let num_raw st =
  match next st with
  | Num s -> s
  | t -> fail "expected number, got %s" (tok_to_string t)

let reg st =
  let w = word st in
  if String.length w < 2 || w.[0] <> 'r' then fail "expected register, got %s" w;
  match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
  | Some r -> r
  | None -> fail "expected register, got %s" w

(* ---------------- types & values ---------------- *)

let scalar_of_word w =
  match Types.scalar_of_name w with
  | Some s -> s
  | None -> fail "expected scalar type, got %s" w

let parse_ty st =
  if accept_punct st '<' then (
    let lanes = int_lit st in
    expect_word st "x";
    let s = scalar_of_word (word st) in
    expect_punct st '>';
    Types.Vector (s, lanes))
  else
    let s = scalar_of_word (word st) in
    if accept_punct st '*' then Types.Ptr s else Types.Scalar s

let scalar_value_of st raw =
  expect_punct st ':';
  let s = scalar_of_word (word st) in
  if Types.is_float_scalar s then Value.float s (float_of_string raw)
  else
    match Int64.of_string_opt raw with
    | Some v -> Value.int s v
    | None -> fail "bad integer literal %s" raw

let rec parse_value st =
  if accept_punct st '<' then (
    let first = parse_value st in
    let elems = ref [ first ] in
    while accept_punct st ',' do
      elems := parse_value st :: !elems
    done;
    expect_punct st '>';
    Value.Vec (Array.of_list (List.rev !elems)))
  else
    let raw = num_raw st in
    scalar_value_of st raw

(* ---------------- annotations ---------------- *)

let rec parse_annot_value st =
  match peek st with
  | Some (Word "true") ->
    advance st;
    Annot.Bool true
  | Some (Word "false") ->
    advance st;
    Annot.Bool false
  | Some (Str s) ->
    advance st;
    Annot.Str s
  | Some (Punct '[') ->
    advance st;
    let elems = ref [] in
    let rec go () =
      match peek st with
      | Some (Punct ']') -> advance st
      | Some _ ->
        elems := parse_annot_value st :: !elems;
        go ()
      | None -> fail "unterminated annotation list"
    in
    go ();
    Annot.List (List.rev !elems)
  | Some (Num raw) ->
    advance st;
    (match Int64.of_string_opt raw with
    | Some v -> Annot.Int (Int64.to_int v)
    | None -> Annot.Flt (float_of_string raw))
  | t ->
    fail "expected annotation value, got %s"
      (match t with Some t -> tok_to_string t | None -> "<eof>")

(* one `!key = value` line, starting after the '!' *)
let parse_annot_binding st =
  let k = word st in
  expect_punct st '=';
  let v = parse_annot_value st in
  (k, v)

(* `k=v, k=v` inside loop braces *)
let parse_annot_set st =
  let a = ref Annot.empty in
  let rec go () =
    match peek st with
    | Some (Word _) ->
      let k = word st in
      expect_punct st '=';
      let v = parse_annot_value st in
      a := Annot.add k v !a;
      if accept_punct st ',' then go ()
    | _ -> ()
  in
  go ();
  !a

(* ---------------- instructions ---------------- *)

let parse_call_args st =
  expect_punct st '(';
  let args = ref [] in
  (if not (accept_punct st ')') then
     let rec go () =
       args := reg st :: !args;
       if accept_punct st ',' then go () else expect_punct st ')'
     in
     go ());
  List.rev !args

let binop_of_name w = List.find_opt (fun op -> Instr.binop_name op = w) Instr.all_binops
let redop_of_name w = List.find_opt (fun op -> Instr.redop_name op = w) Instr.all_redops

let conv_of_name w =
  List.find_opt
    (fun c -> Instr.conv_name c = w)
    Instr.[ Zext; Sext; Trunc; Sitofp; Uitofp; Fptosi; Fptoui; Fpconv ]

(* an instruction or terminator; distinguished by first word *)
type parsed_line =
  | Pinstr of Instr.t
  | Pterm of Instr.term
  | Pblock of int  (** `block N:` header *)
  | Pclose  (** '}' *)

let parse_rhs st d =
  (* after `rD = ` *)
  let w = word st in
  match w with
  | "const" -> Instr.Const (d, parse_value st)
  | "mov" -> Instr.Mov (d, reg st)
  | "gaddr" ->
    expect_punct st '@';
    Instr.Gaddr (d, word st)
  | "cmp" ->
    let opw = word st in
    let op =
      match List.find_opt (fun o -> Instr.relop_name o = opw) Instr.all_relops with
      | Some op -> op
      | None -> fail "unknown comparison %s" opw
    in
    let a = reg st in
    expect_punct st ',';
    Instr.Cmp (op, d, a, reg st)
  | "select" ->
    let c = reg st in
    expect_punct st ',';
    let a = reg st in
    expect_punct st ',';
    Instr.Select (d, c, a, reg st)
  | "load" ->
    let ty = parse_ty st in
    let base = reg st in
    expect_punct st '+';
    Instr.Load (ty, d, base, int_lit st)
  | "alloca" -> Instr.Alloca (d, int_lit st)
  | "call" ->
    expect_punct st '@';
    let name = word st in
    Instr.Call (Some d, name, parse_call_args st)
  | "splat" -> Instr.Splat (d, reg st)
  | "extract" ->
    let a = reg st in
    expect_punct st ',';
    Instr.Extract (d, a, int_lit st)
  | "neg" -> Instr.Unop (Instr.Neg, d, reg st)
  | "not" -> Instr.Unop (Instr.Not, d, reg st)
  | _ -> (
    match binop_of_name w with
    | Some op ->
      let a = reg st in
      expect_punct st ',';
      Instr.Binop (op, d, a, reg st)
    | None -> (
      match conv_of_name w with
      | Some c -> Instr.Conv (c, d, reg st)
      | None -> (
        match redop_of_name w with
        | Some op -> Instr.Reduce (op, d, reg st)
        | None -> fail "unknown instruction %s" w)))

let parse_line st : parsed_line =
  match peek st with
  | Some (Punct '}') ->
    advance st;
    Pclose
  | Some (Word "block") ->
    advance st;
    let label = int_lit st in
    expect_punct st ':';
    Pblock label
  | Some (Word "store") ->
    advance st;
    let ty = parse_ty st in
    let s = reg st in
    expect_punct st ',';
    let base = reg st in
    expect_punct st '+';
    Pinstr (Instr.Store (ty, s, base, int_lit st))
  | Some (Word "call") ->
    advance st;
    expect_punct st '@';
    let name = word st in
    Pinstr (Instr.Call (None, name, parse_call_args st))
  | Some (Word "br") ->
    advance st;
    Pterm (Instr.Br (int_lit st))
  | Some (Word "cbr") ->
    advance st;
    let c = reg st in
    expect_punct st ',';
    let l1 = int_lit st in
    expect_punct st ',';
    Pterm (Instr.Cbr (c, l1, int_lit st))
  | Some (Word "ret") -> (
    advance st;
    match peek st with
    | Some (Word w) when String.length w > 1 && w.[0] = 'r' && is_digit w.[1]
      ->
      Pterm (Instr.Ret (Some (reg st)))
    | _ -> Pterm (Instr.Ret None))
  | Some (Word _) ->
    let d = reg st in
    expect_punct st '=';
    Pinstr (parse_rhs st d)
  | t ->
    fail "unexpected token %s in function body"
      (match t with Some t -> tok_to_string t | None -> "<eof>")

(* ---------------- functions & programs ---------------- *)

let parse_func st : Func.t =
  expect_punct st '@';
  let name = word st in
  expect_punct st '(';
  let params = ref [] in
  (if not (accept_punct st ')') then
     let rec go () =
       let r = reg st in
       expect_punct st ':';
       let ty = parse_ty st in
       params := (r, ty) :: !params;
       if accept_punct st ',' then go () else expect_punct st ')'
     in
     go ());
  let params = List.rev !params in
  let ret = if accept_punct st ':' then Some (parse_ty st) else None in
  expect_punct st '{';
  (* register declarations, after the parameters' *)
  let rec parse_decls acc =
    if accept_word st "reg" then (
      let r = reg st in
      expect_punct st ':';
      let ty = parse_ty st in
      parse_decls ((r, ty) :: acc))
    else List.rev acc
  in
  let decls = params @ parse_decls [] in
  (* function annotations *)
  let annots = ref Annot.empty in
  while accept_punct st '!' do
    let k, v = parse_annot_binding st in
    annots := Annot.add k v !annots
  done;
  (* loop annotations *)
  let loop_annots = ref [] in
  while accept_word st "loop" do
    let header = int_lit st in
    expect_punct st '{';
    let a = parse_annot_set st in
    expect_punct st '}';
    loop_annots := (header, a) :: !loop_annots
  done;
  (* blocks *)
  let blocks = ref [] in
  let cur : Func.block option ref = ref None in
  let flush () =
    match !cur with
    | Some b ->
      b.Func.instrs <- List.rev b.Func.instrs;
      blocks := b :: !blocks;
      cur := None
    | None -> ()
  in
  let rec go () =
    match parse_line st with
    | Pclose -> flush ()
    | Pblock label ->
      flush ();
      cur := Some { Func.label; instrs = []; term = Instr.Ret None };
      go ()
    | Pinstr i ->
      (match !cur with
      | Some b -> b.Func.instrs <- i :: b.Func.instrs
      | None -> fail "instruction outside block in %s" name);
      go ()
    | Pterm t ->
      (match !cur with
      | Some b -> b.Func.term <- t
      | None -> fail "terminator outside block in %s" name);
      go ()
  in
  go ();
  let blocks = List.rev !blocks in
  let max_reg = List.fold_left (fun acc (r, _) -> max acc (r + 1)) 0 decls in
  let max_label =
    List.fold_left (fun acc (b : Func.block) -> max acc (b.label + 1)) 0 blocks
  in
  {
    Func.name;
    params = List.map fst params;
    ret;
    blocks;
    reg_ty = Func.reg_table max_reg decls;
    next_reg = max_reg;
    next_label = max_label;
    annots = !annots;
    loop_annots = List.rev !loop_annots;
    block_index = None;
  }

let parse_global st : Prog.global =
  expect_punct st '@';
  let gname = word st in
  expect_punct st ':';
  let gelem = scalar_of_word (word st) in
  expect_word st "x";
  let gcount = int_lit st in
  let ginit =
    if accept_punct st '=' then (
      expect_punct st '{';
      let elems = ref [] in
      (if not (accept_punct st '}') then
         let rec go () =
           elems := parse_value st :: !elems;
           if accept_punct st ',' then go () else expect_punct st '}'
         in
         go ());
      Some (Array.of_list (List.rev !elems)))
    else None
  in
  { gname; gelem; gcount; ginit; gannots = Annot.empty }

(** Parse a textual PVIR program.
    @raise Error on syntax errors. *)
let program (src : string) : Prog.t =
  let st = { toks = tokenize src } in
  expect_word st "program";
  let pname = match next st with Str s -> s | t -> fail "expected program name, got %s" (tok_to_string t) in
  let annots = ref Annot.empty in
  while accept_punct st '!' do
    let k, v = parse_annot_binding st in
    annots := Annot.add k v !annots
  done;
  let globals = ref [] in
  let funcs = ref [] in
  let externs = ref [] in
  let parse_extern () =
    expect_punct st '@';
    let ename = word st in
    expect_punct st '(';
    let eparams = ref [] in
    (if not (accept_punct st ')') then
       let rec go_p () =
         eparams := parse_ty st :: !eparams;
         if accept_punct st ',' then go_p () else expect_punct st ')'
       in
       go_p ());
    let eret = if accept_punct st ':' then Some (parse_ty st) else None in
    { Prog.ename; eparams = List.rev !eparams; eret }
  in
  let rec go () =
    match peek st with
    | None -> ()
    | Some (Word "extern") ->
      advance st;
      externs := parse_extern () :: !externs;
      go ()
    | Some (Word "global") ->
      advance st;
      globals := parse_global st :: !globals;
      go ()
    | Some (Word "func") ->
      advance st;
      funcs := parse_func st :: !funcs;
      go ()
    | Some t -> fail "expected 'global' or 'func', got %s" (tok_to_string t)
  in
  go ();
  {
    Prog.pname;
    globals = List.rev !globals;
    funcs = List.rev !funcs;
    externs = List.rev !externs;
    annots = !annots;
  }

(** Parse a single function given the surrounding program context (for
    tests). *)
let func (src : string) : Func.t =
  let st = { toks = tokenize src } in
  expect_word st "func";
  parse_func st
