(** PVIR functions: a CFG of basic blocks plus per-register type
    information and split-compilation annotations. *)

type block = {
  label : int;
  mutable instrs : Instr.t list;
  mutable term : Instr.term;
}

type t = {
  name : string;
  params : Instr.reg list;
  ret : Types.t option;
  mutable blocks : block list;  (** entry block first *)
  mutable reg_ty : Types.t array;
      (** register [r]'s type at index [r], one word per register;
          {!undeclared} where none is declared, or past the end.  Decode,
          parse and {!copy} size it to the highest declared register;
          {!fresh_reg} grows it by doubling. *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable annots : Annot.t;
  mutable loop_annots : (int * Annot.t) list;
      (** keyed by loop-header block label *)
  mutable block_index : (block list * (int, block) Hashtbl.t) option;
      (** memoized label→block table, valid only while the [blocks] list it
          was built from is physically the current one (passes that rebuild
          [blocks] invalidate it for free) *)
}

(* The slot value of a register with no declared type: one physical
   block, told apart by [==], never a type any constructor makes. *)
let undeclared : Types.t = Types.Vector (Types.I8, 0)

let create ~name ~params ~ret =
  let reg_ty = Array.of_list params in
  {
    name;
    params = List.mapi (fun i _ -> i) params;
    ret;
    blocks = [];
    reg_ty;
    next_reg = List.length params;
    next_label = 0;
    annots = Annot.empty;
    loop_annots = [];
    block_index = None;
  }

(** [declared fn r]: register [r] has a type in [fn]. *)
let declared fn r =
  r >= 0 && r < Array.length fn.reg_ty && fn.reg_ty.(r) != undeclared

(** @raise Invalid_argument if [r] is not declared. *)
let reg_type fn r =
  if declared fn r then fn.reg_ty.(r)
  else
    invalid_arg
      (Printf.sprintf "Func.reg_type: unknown register r%d in %s" r fn.name)

(** Declare (or redeclare) [r] with type [ty].
    @raise Invalid_argument if [r] is negative. *)
let set_reg_type fn r ty =
  let n = Array.length fn.reg_ty in
  if r >= n then begin
    let grown = Array.make (max (r + 1) (2 * n)) undeclared in
    Array.blit fn.reg_ty 0 grown 0 n;
    fn.reg_ty <- grown
  end;
  fn.reg_ty.(r) <- ty

(** Allocate a fresh virtual register of type [ty]. *)
let fresh_reg fn ty =
  let r = fn.next_reg in
  fn.next_reg <- r + 1;
  set_reg_type fn r ty;
  r

(** [fold_regs f fn acc] folds [f r ty] over the declared registers in
    increasing order. *)
let fold_regs f fn acc =
  let acc = ref acc in
  Array.iteri
    (fun r ty -> if ty != undeclared then acc := f r ty !acc)
    fn.reg_ty;
  !acc

(* One past the highest declared register: the exact size of a table. *)
let reg_extent tys =
  let n = ref (Array.length tys) in
  while !n > 0 && tys.(!n - 1) == undeclared do decr n done;
  !n

(** A register type table for [n] registers from [(r, ty)] declarations
    (a later one wins), for the decoders.  Each [r] must lie in
    [[0, n)]. *)
let reg_table n decls =
  let tys = Array.make n undeclared in
  List.iter (fun (r, ty) -> tys.(r) <- ty) decls;
  tys

(** Append an empty block (terminated by [Ret None] until sealed). *)
let add_block fn =
  let label = fn.next_label in
  fn.next_label <- label + 1;
  let b = { label; instrs = []; term = Instr.Ret None } in
  fn.blocks <- fn.blocks @ [ b ];
  b

(* O(1) after the first lookup: the table is rebuilt whenever [fn.blocks]
   is a different list from the one it was computed for.  Labels stay
   first-match to mirror the original [List.find_opt] behaviour. *)
let block_table fn =
  match fn.block_index with
  | Some (blocks, tbl) when blocks == fn.blocks -> tbl
  | _ ->
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b -> if not (Hashtbl.mem tbl b.label) then Hashtbl.add tbl b.label b)
      fn.blocks;
    fn.block_index <- Some (fn.blocks, tbl);
    tbl

let find_block fn label =
  match Hashtbl.find_opt (block_table fn) label with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Func.find_block: no block %d in %s" label fn.name)

let entry fn =
  match fn.blocks with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" fn.name)

let iter_blocks f fn = List.iter f fn.blocks

let iter_instrs f fn =
  List.iter (fun b -> List.iter (f b) b.instrs) fn.blocks

(** Number of instructions, terminators included — the unit in which the
    JIT work accountant measures pass costs. *)
let instr_count fn =
  List.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 fn.blocks

let loop_annot fn header =
  match List.assoc_opt header fn.loop_annots with
  | Some a -> a
  | None -> Annot.empty

let set_loop_annot fn header a =
  fn.loop_annots <- (header, a) :: List.remove_assoc header fn.loop_annots

let add_annot fn key v = fn.annots <- Annot.add key v fn.annots

(** All registers mentioned anywhere in the function (defs, uses, params). *)
let all_regs fn =
  let seen = Hashtbl.create 64 in
  let touch r = Hashtbl.replace seen r () in
  List.iter touch fn.params;
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          Option.iter touch (Instr.def i);
          List.iter touch (Instr.uses i))
        b.instrs;
      List.iter touch (Instr.term_uses b.term))
    fn.blocks;
  Hashtbl.fold (fun r () acc -> r :: acc) seen [] |> List.sort compare

(** Deep copy (blocks and tables are fresh; annotations are shared since
    they are immutable). *)
let copy fn =
  {
    fn with
    blocks =
      List.map (fun b -> { b with instrs = b.instrs }) fn.blocks;
    reg_ty = Array.sub fn.reg_ty 0 (reg_extent fn.reg_ty);
    block_index = None;
  }
