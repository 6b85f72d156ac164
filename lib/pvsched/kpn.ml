(** Kahn process networks.

    The paper (§4) names KPNs as the semantic basis for the "portable,
    deterministic and composable concurrency information" future bytecode
    should carry.  This module implements the deterministic core: processes
    connected by unbounded FIFO channels, each process firing when every
    input has a token.  Determinism — the stream on every channel is
    independent of the scheduling order — is the property the property
    tests check (it is what makes the mapping freedom of {!Mapper} safe).

    Tokens are {!Pvir.Value.t} vectors, so a process can stand for a
    compiled kernel invocation over a block of data. *)

type token = Pvir.Value.t array

type process = {
  pname : string;
  inputs : string list;  (** channel names consumed, one token each *)
  outputs : string list;  (** channel names produced, one token each *)
  fire : token list -> token list;
      (** pure function: one token per input -> one token per output *)
  annots : Pvir.Annot.t;  (** hardware preferences etc. *)
  work : int;  (** abstract work per firing (for cost models) *)
}

type t = {
  processes : process list;
  mutable channels : (string, token Queue.t) Hashtbl.t;
}

exception Deadlock of string

let create (processes : process list) : t =
  let channels = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem channels c) then
            Hashtbl.replace channels c (Queue.create ()))
        (p.inputs @ p.outputs))
    processes;
  { processes; channels }

let channel t name =
  match Hashtbl.find_opt t.channels name with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Kpn.channel: no channel %s" name)

(** Feed external input tokens into a channel. *)
let push t name (tok : token) = Queue.add tok (channel t name)

(** Drain all tokens currently in a channel. *)
let drain t name : token list =
  let q = channel t name in
  let acc = ref [] in
  while not (Queue.is_empty q) do
    acc := Queue.pop q :: !acc
  done;
  List.rev !acc

let enabled t (p : process) =
  List.for_all (fun c -> not (Queue.is_empty (channel t c))) p.inputs

(** Fire [p] once (inputs must be available). *)
let fire_once t (p : process) =
  let ins = List.map (fun c -> Queue.pop (channel t c)) p.inputs in
  let outs = p.fire ins in
  if List.length outs <> List.length p.outputs then
    invalid_arg (Printf.sprintf "Kpn.fire: %s produced %d tokens, declared %d"
                   p.pname (List.length outs) (List.length p.outputs));
  List.iter2 (fun c tok -> Queue.add tok (channel t c)) p.outputs outs

(* The firing core of [run] and [trace]: fire the lowest-ranked enabled
   process until none is enabled, a process's rank being its position in
   [order t.processes].  Enabled processes wait in a heap keyed by rank.
   A firing only removes tokens from its own inputs and adds them to its
   outputs, so it can only enable the consumers of its outputs: those
   are the only processes rechecked, and a process it disabled is
   dropped when it reaches the top of the heap.  [f] sees each process
   just before it fires.  Linear in firings (times log P for the heap). *)
let fire_loop ~order ~max_firings t (f : process -> unit) : int =
  let ranked = Array.of_list (order t.processes) in
  let inputs = Array.map (fun p -> List.map (channel t) p.inputs) ranked in
  let readers = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      List.iter
        (fun c ->
          Hashtbl.replace readers c
            (i :: Option.value ~default:[] (Hashtbl.find_opt readers c)))
        p.inputs)
    ranked;
  let wakes =
    Array.map
      (fun p ->
        List.concat_map
          (fun c -> Option.value ~default:[] (Hashtbl.find_opt readers c))
          p.outputs)
      ranked
  in
  let enabled i = List.for_all (fun q -> not (Queue.is_empty q)) inputs.(i) in
  let ready = Heap.create (fun (a : int) b -> a < b) in
  let queued = Array.make (Array.length ranked) false in
  let offer i =
    if (not queued.(i)) && enabled i then begin
      queued.(i) <- true;
      Heap.push ready i
    end
  in
  Array.iteri (fun i _ -> offer i) ranked;
  let firings = ref 0 in
  let rec loop () =
    match Heap.pop_opt ready with
    | None -> ()
    | Some i ->
      queued.(i) <- false;
      if enabled i then begin
        if !firings >= max_firings then
          raise (Deadlock "firing budget exhausted (unbounded network?)");
        incr firings;
        f ranked.(i);
        fire_once t ranked.(i);
        offer i;
        List.iter offer wakes.(i)
      end;
      loop ()
  in
  loop ();
  !firings

(** Run until no process is enabled.  [order] permutes the scheduling
    preference — by Kahn's theorem the resulting channel streams are
    identical for every order, which the test suite verifies.  Returns the
    number of firings. *)
let run ?(order = fun ps -> ps) ?(max_firings = 1_000_000) t : int =
  fire_loop ~order ~max_firings t ignore

(** Firing trace in dataflow order, for the makespan simulation: each entry
    is (process, firing index of that process). *)
let trace ?(order = fun ps -> ps) ?(max_firings = 1_000_000) t :
    (process * int) list =
  let counts = Hashtbl.create 8 in
  let tr = ref [] in
  ignore
    (fire_loop ~order ~max_firings t (fun p ->
         let k = try Hashtbl.find counts p.pname with Not_found -> 0 in
         Hashtbl.replace counts p.pname (k + 1);
         tr := (p, k) :: !tr));
  List.rev !tr
