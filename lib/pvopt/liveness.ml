(** Backward block-level liveness: the one solver behind pvopt
    ({!Cfg.liveness} over PVIR, read by DCE, LICM and the pressure
    estimate) and the JIT's linear-scan allocator
    ([Pvjit.Regalloc.liveness] over MIR).

    An adapter hands over its blocks in layout order and says how to read
    one: its label, its successors' labels, and its register reads and
    writes in execution order.  Live sets come back indexed by a block's
    position in that list; a successor label that names no block
    contributes nothing.

    Live sets are bitsets over registers.  Precondition: every register a
    block reads or writes lies in [\[0, nregs)].  PVIR registers do by the
    verifier's range rule ([\[0, next_reg)]); MIR virtual registers lie in
    [\[0, next_vreg)].

    Each round visits every block, last to first, and the solver stops
    after a round that changes no live-in set.  The result is the least
    fixpoint, which does not depend on the visiting order. *)

(** A set of registers: bit [r mod Sys.int_size] of word
    [r / Sys.int_size] is register [r]. *)
type set = int array

let bits = Sys.int_size
let words nregs = (nregs + bits - 1) / bits
let create nregs : set = Array.make (words nregs) 0
let copy : set -> set = Array.copy
let mem (s : set) r = s.(r / bits) land (1 lsl (r mod bits)) <> 0

let add (s : set) r =
  let w = r / bits in
  s.(w) <- s.(w) lor (1 lsl (r mod bits))

let remove (s : set) r =
  let w = r / bits in
  s.(w) <- s.(w) land lnot (1 lsl (r mod bits))

(** [iter f s] applies [f] to the members of [s] in increasing order. *)
let iter f (s : set) =
  Array.iteri
    (fun w x ->
      if x <> 0 then
        for b = 0 to bits - 1 do
          if x land (1 lsl b) <> 0 then f ((w * bits) + b)
        done)
    s

let cardinal (s : set) =
  let rec pop n x = if x = 0 then n else pop (n + 1) (x land (x - 1)) in
  Array.fold_left pop 0 s

type t = { live_in : set array; live_out : set array }

(** [scan b ~use ~def] calls [use r] for each register [b] reads and
    [def r] for each it writes, in execution order (an instruction's reads
    before its write). *)
let solve ~nregs ~(label : 'b -> int) ~(succs : 'b -> int list)
    ~(scan : 'b -> use:(int -> unit) -> def:(int -> unit) -> unit)
    (blocks : 'b list) : t =
  let n = List.length blocks in
  let index = Hashtbl.create n in
  List.iteri (fun i b -> Hashtbl.replace index (label b) i) blocks;
  (* per block: upward-exposed uses (read before any write) and defs *)
  let gen = Array.init n (fun _ -> create nregs) in
  let kill = Array.init n (fun _ -> create nregs) in
  let succ = Array.make n [] in
  List.iteri
    (fun i b ->
      let g = gen.(i) and k = kill.(i) in
      scan b ~use:(fun r -> if not (mem k r) then add g r) ~def:(add k);
      succ.(i) <- List.filter_map (Hashtbl.find_opt index) (succs b))
    blocks;
  let live_in = Array.map copy gen in
  let live_out = Array.init n (fun _ -> create nregs) in
  let nw = words nregs in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out = live_out.(i) and inn = live_in.(i) in
      List.iter
        (fun s ->
          let sin = live_in.(s) in
          for w = 0 to nw - 1 do
            out.(w) <- out.(w) lor sin.(w)
          done)
        succ.(i);
      let g = gen.(i) and k = kill.(i) in
      for w = 0 to nw - 1 do
        let x = g.(w) lor (out.(w) land lnot k.(w)) in
        if x <> inn.(w) then (
          inn.(w) <- x;
          changed := true)
      done
    done
  done;
  { live_in; live_out }
