(** Flat byte-addressed memory of the virtual machine.

    One address space shared by globals (low addresses) and the call stack
    (growing down from the top).  All accesses are bounds-checked; a fault
    is a guest trap ({!Vm.Trap} with a [memory fault: ...] message), the
    same exception every engine raises, rather than host corruption.

    Host allocation is capped: like the interpreter's fuel budget, the cap
    is a configurable resource limit ({!default_alloc_limit} bytes unless
    overridden), so a hostile module that talks a loader into a huge
    address space raises the structured {!Limit} instead of OOM-ing the
    host device. *)

(** Structured resource-limit trap: the requested allocation exceeds the
    configured cap (distinct from a memory fault, which is an error of
    the guest program). *)
exception Limit of string

let fault fmt = Vm.trap ("memory fault: " ^^ fmt)

(** 256 MiB — generous for an embedded-device model, far below anything
    that threatens the host. *)
let default_alloc_limit = 256 * 1024 * 1024

type t = {
  bytes : Bytes.t;
  size : int;
  null_guard : int;
  alloc_limit : int;  (** the cap this memory was created under *)
}

(** [create ?null_guard ?alloc_limit size] — the first [null_guard] bytes
    (default 8) are unmapped, so null-pointer dereferences fault.
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
  { bytes = Bytes.make size '\000'; size; null_guard; alloc_limit }

let size m = m.size

(** Headroom left under the allocation cap (telemetry). *)
let alloc_headroom m = m.alloc_limit - m.size

let check m addr len =
  if addr < m.null_guard || len < 0 || addr + len > m.size then
    fault "access [%d, %d) outside memory of %d bytes" addr (addr + len) m.size

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
let contents m = Bytes.to_string m.bytes

(** Whole-image copy-in, for restore.  The caller (snapshot validation)
    guarantees the size matches; a mismatch here is a host bug. *)
let overwrite m s =
  if String.length s <> m.size then
    invalid_arg "Memory.overwrite: image size mismatch";
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
