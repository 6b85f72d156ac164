(** Loaded program image: the runtime's view of a PVIR program after the
    load step of the program lifetime (§2.2 of the paper).

    Loading has two halves.  {!layout} verifies the bytecode and assigns
    every global its address in low memory; global addresses thereby
    become load-time constants, which is what lets the online compiler
    burn them into the generated code, and all it needs.  {!load} adds
    the memory: it reserves the VM address space and captures the global
    initializers' bytes, and every error loading can raise it raises
    here.  The address space is committed (allocated, zeroed and
    initialized) on first use — an activation of either executor, or a
    harness access such as {!read_global} — so an image that is compiled
    for but never run costs no more than its layout and initializers. *)

(** Where a verified program's globals live; no memory exists yet. *)
type layout = {
  global_addr : (string, int) Hashtbl.t;
  globals_end : int;  (** first free byte after the globals *)
}

type t = {
  prog : Pvir.Prog.t;
  mem : Memory.t;
  layout : layout;
}

let align8 n = (n + 7) land lnot 7

(* Globals sit in declaration order from address 8 up (address 0 stays an
   unmapped null), each 8-byte aligned.  [f] sees every global with its
   address; the result is the first free byte. *)
let place (prog : Pvir.Prog.t) f =
  List.fold_left
    (fun addr (g : Pvir.Prog.global) ->
      f g addr;
      align8 (addr + Pvir.Prog.global_size g))
    8 prog.globals

(** [layout prog] verifies [prog] and lays out its globals.
    @raise Pvir.Verify.Error if the bytecode does not verify or names an
    unresolved extern. *)
let layout (prog : Pvir.Prog.t) : layout =
  Pvir.Verify.program prog;
  (* a module with unresolved externs must be linked before it can run *)
  List.iter
    (fun (e : Pvir.Prog.extern) ->
      if
        Pvir.Prog.find_func prog e.Pvir.Prog.ename = None
        && Pvir.Prog.intrinsic_sig e.Pvir.Prog.ename = None
      then
        raise
          (Pvir.Verify.Error
             (Printf.sprintf "unresolved extern @%s: link the module first"
                e.Pvir.Prog.ename)))
    prog.Pvir.Prog.externs;
  let global_addr = Hashtbl.create 16 in
  let globals_end =
    place prog (fun g addr -> Hashtbl.replace global_addr g.gname addr)
  in
  { global_addr; globals_end }

(** The load-time address of global [name]. *)
let address (l : layout) name =
  match Hashtbl.find_opt l.global_addr name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Image.address: no global %s" name)

(** [load ?mem_size ?alloc_limit prog] verifies and loads [prog] into a
    fresh memory of [mem_size] bytes, reserved, not yet committed.
    @raise Pvir.Verify.Error if the bytecode does not verify.
    @raise Vm.Trap if the globals do not fit in [mem_size] bytes, or an
    initializer does.
    @raise Memory.Limit if [mem_size] exceeds [alloc_limit]
    (default {!Memory.default_alloc_limit}). *)
let load ?(mem_size = 1 lsl 20) ?alloc_limit (prog : Pvir.Prog.t) : t =
  let layout = layout prog in
  if layout.globals_end >= mem_size then
    Memory.fault "globals (%d bytes) exceed memory (%d bytes)"
      layout.globals_end mem_size;
  let mem = Memory.create ?alloc_limit mem_size in
  let inits = ref [] in
  ignore
    (place prog (fun g addr ->
         Option.iter (fun vs -> inits := (addr, vs) :: !inits) g.ginit));
  Memory.preset mem (List.rev !inits);
  { prog; mem; layout }

let global_address img name = address img.layout name

(** Initial stack pointer: the top of memory (the stack grows down). *)
let initial_sp img = Memory.size img.mem

let find_func img name = Pvir.Prog.find_func img.prog name

(** Read back a global array (test/bench helper). *)
let read_global img name =
  match Pvir.Prog.find_global img.prog name with
  | None -> invalid_arg (Printf.sprintf "Image.read_global: no global %s" name)
  | Some g ->
    Memory.load_array img.mem (global_address img name) g.gelem g.gcount

(** Overwrite a global array (test/bench helper for setting up inputs). *)
let write_global img name (vs : Pvir.Value.t array) =
  Memory.store_array img.mem (global_address img name) vs
