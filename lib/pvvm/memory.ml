(** Flat byte-addressed memory of the virtual machine.

    One address space shared by globals (low addresses) and the call stack
    (growing down from the top).  All accesses are bounds-checked; a fault
    is a guest trap ({!Vm.Trap} with a [memory fault: ...] message), the
    same exception every engine raises, rather than host corruption.

    Host allocation is capped: like the interpreter's fuel budget, the cap
    is a configurable resource limit ({!default_alloc_limit} bytes unless
    overridden), so a hostile module that talks a loader into a huge
    address space raises the structured {!Limit} instead of OOM-ing the
    host device.

    {!create} only reserves the address space: the buffer is committed
    (allocated zeroed, with the {!preset} bytes copied in) on first use.
    An uncommitted memory holds a zero-length buffer, so the bounds check
    every access already makes fails on it, and its slow path commits;
    an engine's hot path pays nothing for laziness.  Commit is
    unsynchronized: one Domain at a time may use a memory. *)

(** Structured resource-limit trap: the requested allocation exceeds the
    configured cap (distinct from a memory fault, which is an error of
    the guest program). *)
exception Limit of string

let fault fmt = Vm.trap ("memory fault: " ^^ fmt)

(** 256 MiB — generous for an embedded-device model, far below anything
    that threatens the host. *)
let default_alloc_limit = 256 * 1024 * 1024

type t = {
  mutable bytes : Bytes.t;
      (** the address space once committed, empty until then *)
  size : int;
  null_guard : int;
  alloc_limit : int;  (** the cap this memory was created under *)
  mutable preset : string;
      (** the bytes a commit copies to address 0, dropped once committed *)
}

(** [create ?null_guard ?alloc_limit size] reserves [size] bytes; the
    first [null_guard] (default 8) are unmapped, so null-pointer
    dereferences fault.
    @raise Limit if [size] exceeds [alloc_limit]. *)
let create ?(null_guard = 8) ?(alloc_limit = default_alloc_limit) size =
  if size <= 0 then invalid_arg "Memory.create: non-positive size";
  if size > alloc_limit then
    raise
      (Limit
         (Printf.sprintf
            "VM memory of %d bytes exceeds the allocation cap of %d bytes"
            size alloc_limit));
  if null_guard < 0 || null_guard >= size then
    invalid_arg "Memory.create: bad null guard";
  { bytes = Bytes.empty; size; null_guard; alloc_limit; preset = "" }

let size m = m.size

(** Headroom left under the allocation cap (telemetry). *)
let alloc_headroom m = m.alloc_limit - m.size

(** Allocate the zeroed buffer and copy the preset bytes in, unless that
    is done already.  Both executors commit on entering an activation, so
    compiled code, which binds [bytes] once per function, never sees an
    uncommitted buffer. *)
let commit m =
  if Bytes.length m.bytes = 0 then begin
    let b = Bytes.make m.size '\000' in
    Bytes.blit_string m.preset 0 b 0 (String.length m.preset);
    m.bytes <- b;
    m.preset <- ""
  end

let outside m addr len = addr < m.null_guard || len < 0 || addr + len > m.size

let fault_outside m addr len =
  fault "access [%d, %d) outside memory of %d bytes" addr (addr + len) m.size

let[@inline never] check_slow m addr len =
  if outside m addr len then fault_outside m addr len else commit m

(* The bound is the buffer's length: on an uncommitted memory every
   access takes the slow path, which faults or commits. *)
let[@inline] check m addr len =
  if addr < m.null_guard || len < 0 || addr + len > Bytes.length m.bytes then
    check_slow m addr len

(** [preset m inits] makes a fresh [m] commit as if each [(addr, vs)] of
    [inits] were stored by {!store_array} in order, faulting where such a
    store would, but captures the bytes now and commits nothing.  Later
    changes to the values in [inits] do not reach [m]. *)
let preset m (inits : (int * Pvir.Value.t array) list) =
  let each f =
    List.iter
      (fun (addr, vs) ->
        Array.iteri
          (fun i v ->
            let esz = Pvir.Types.size (Pvir.Value.ty v) in
            f (addr + (i * esz)) esz v)
          vs)
      inits
  in
  let hi = ref 0 in
  each (fun a len _ ->
      if outside m a len then fault_outside m a len;
      hi := max !hi (a + len));
  let b = Bytes.make !hi '\000' in
  each (fun a _ v -> Pvir.Value.write_bytes b a v);
  m.preset <- Bytes.unsafe_to_string b

(** [load m addr ty] reads a value of type [ty] at byte address [addr]. *)
let load m addr (ty : Pvir.Types.t) =
  check m addr (Pvir.Types.size ty);
  Pvir.Value.read_bytes m.bytes addr ty

(** [load_sized m addr size ty] is [load m addr ty] for callers that have
    already computed [size = Types.size ty] (the pre-decoded engines do,
    once per decoded instruction). *)
let load_sized m addr size (ty : Pvir.Types.t) =
  check m addr size;
  Pvir.Value.read_bytes m.bytes addr ty

(** [store m addr v] writes [v] at byte address [addr]. *)
let store m addr (v : Pvir.Value.t) =
  check m addr (Pvir.Types.size (Pvir.Value.ty v));
  Pvir.Value.write_bytes m.bytes addr v

(** Whole-image copy-out, for checkpointing: every byte, including the
    null guard (all zero by construction) — so two memories with equal
    contents produce equal snapshots. *)
let contents m =
  commit m;
  Bytes.to_string m.bytes

(** Whole-image copy-in, for restore.  The caller (snapshot validation)
    guarantees the size matches; a mismatch here is a host bug. *)
let overwrite m s =
  if String.length s <> m.size then
    invalid_arg "Memory.overwrite: image size mismatch";
  commit m;
  Bytes.blit_string s 0 m.bytes 0 m.size

let fill m ~addr ~len byte =
  check m addr len;
  Bytes.fill m.bytes addr len (Char.chr (byte land 0xFF))

(** Read a whole array of [count] elements of scalar type [s] at [addr]
    (convenient in tests and harnesses). *)
let load_array m addr s count =
  let esz = Pvir.Types.scalar_size s in
  check m addr (esz * count);
  Array.init count (fun i ->
      Pvir.Value.read_bytes m.bytes (addr + (i * esz)) (Pvir.Types.Scalar s))

let store_array m addr (vs : Pvir.Value.t array) =
  Array.iteri
    (fun i v ->
      let esz = Pvir.Types.size (Pvir.Value.ty v) in
      store m (addr + (i * esz)) v)
    vs
