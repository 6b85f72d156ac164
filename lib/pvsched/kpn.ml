(** Kahn process networks.

    The paper (§4) names KPNs as the semantic basis for the "portable,
    deterministic and composable concurrency information" future bytecode
    should carry.  This module implements the deterministic core: processes
    connected by unbounded FIFO channels, each process firing when every
    input holds the tokens one firing pops.  Determinism — the stream on
    every channel is independent of the scheduling order — is the property
    the property tests check (it is what makes the mapping freedom of
    {!Mapper} safe).

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

(* The dense net the executors run on.  [create] numbers each channel
   the first time a process names it and resolves every input and
   output once; the executors index arrays and hash no name. *)
type view = {
  procs : process array;
  names : string array;
  queues : token Queue.t array;
  ins : int array array;
  outs : int array array;
  readers : int array;
  readers_at : int array;
  producer : int array;
  first : int array;
}

(* tables keyed by process or channel name, compared with
   [String.equal] rather than polymorphic compare *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = { processes : process list; net : net }

and net = {
  ids : int Names.t;
      (* the one name table: channel name -> id, in order of first
         appearance *)
  mutable dense : view;  (* in identity order *)
}

exception Deadlock of string

let id t name =
  match Names.find_opt t.net.ids name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Kpn.channel: no channel %s" name)

(* Per process, the index of the first process of [procs] with its
   name. *)
let first_by_name (procs : process array) : int array =
  let seen = Names.create (Array.length procs) in
  Array.mapi
    (fun i p ->
      match Names.find_opt seen p.pname with
      | Some g -> g
      | None ->
        Names.add seen p.pname i;
        i)
    procs

(* The readers of every channel, channel after channel, in process
   order (count them, then fill each channel's run), and each channel's
   first producer. *)
let wire nch (ins : int array array) (outs : int array array) =
  let readers_at = Array.make (nch + 1) 0 in
  Array.iter (Array.iter (fun c -> readers_at.(c + 1) <- readers_at.(c + 1) + 1)) ins;
  for c = 1 to nch do
    readers_at.(c) <- readers_at.(c) + readers_at.(c - 1)
  done;
  let readers = Array.make readers_at.(nch) 0 in
  let next = Array.sub readers_at 0 nch in
  let producer = Array.make nch (-1) in
  for i = 0 to Array.length ins - 1 do
    let ins = ins.(i) and outs = outs.(i) in
    for k = 0 to Array.length ins - 1 do
      let c = ins.(k) in
      readers.(next.(c)) <- i;
      next.(c) <- next.(c) + 1
    done;
    for k = 0 to Array.length outs - 1 do
      if producer.(outs.(k)) < 0 then producer.(outs.(k)) <- i
    done
  done;
  (readers, readers_at, producer)

let create (processes : process list) : t =
  let procs = Array.of_list processes in
  (* nets average about two channels per process *)
  let ids = Names.create (2 * Array.length procs) in
  let names = ref [] in
  (* [a.(k)..] <- the ids of [l], numbering the new names *)
  let rec number (a : int array) k = function
    | [] -> a
    | name :: rest ->
      (a.(k) <-
         match Names.find_opt ids name with
         | Some c -> c
         | None ->
           let c = Names.length ids in
           Names.add ids name c;
           names := name :: !names;
           c);
      number a (k + 1) rest
  in
  let ids_of l = number (Array.make (List.length l) 0) 0 l in
  let ins = Array.make (Array.length procs) [||]
  and outs = Array.make (Array.length procs) [||] in
  Array.iteri
    (fun i p ->
      ins.(i) <- ids_of p.inputs;
      outs.(i) <- ids_of p.outputs)
    procs;
  let names = Array.of_list (List.rev !names) in
  let nch = Array.length names in
  let readers, readers_at, producer = wire nch ins outs in
  let dense =
    {
      procs;
      names;
      queues = Array.init nch (fun _ -> Queue.create ());
      ins;
      outs;
      readers;
      readers_at;
      producer;
      first = first_by_name procs;
    }
  in
  { processes; net = { ids; dense } }

(** Register an empty channel [name] unless [t] already has one.  No
    process names it, so it has no reader and no producer. *)
let add_channel t name =
  let net = t.net in
  if not (Names.mem net.ids name) then begin
    let v = net.dense in
    Names.add net.ids name (Array.length v.names);
    net.dense <-
      {
        v with
        names = Array.append v.names [| name |];
        queues = Array.append v.queues [| Queue.create () |];
        (* a channel after the last one read has no readers *)
        readers_at = Array.append v.readers_at [| Array.length v.readers |];
        producer = Array.append v.producer [| -1 |];
      }
  end

let channel t name = t.net.dense.queues.(id t name)

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

(* The readiness rule: a firing pops one token per listed input, so a
   process is enabled when each input channel holds as many tokens as
   its inputs list names it. *)
let enabled t (p : process) =
  List.for_all
    (fun c ->
      Queue.length (channel t c)
      >= List.length (List.filter (String.equal c) p.inputs))
    p.inputs

let produced_error who (p : process) outs declared =
  invalid_arg
    (Printf.sprintf "%s: %s produced %d tokens, declared %d" who p.pname
       (List.length outs) declared)

(** Fire [p] once. *)
let fire_once t (p : process) =
  if not (enabled t p) then
    invalid_arg (Printf.sprintf "Kpn.fire: %s is not enabled" p.pname);
  let ins = List.map (fun c -> Queue.pop (channel t c)) p.inputs in
  let outs = p.fire ins in
  if List.length outs <> List.length p.outputs then
    produced_error "Kpn.fire" p outs (List.length p.outputs);
  List.iter2 (fun c tok -> Queue.add tok (channel t c)) p.outputs outs

(* ------------------------------------------------------------------ *)
(* The executors' view                                                 *)
(* ------------------------------------------------------------------ *)

let view ?order t =
  let v = t.net.dense in
  match order with
  | None -> v
  | Some order ->
    (* the reordered processes' ids, through the one name table *)
    let procs = Array.of_list (order t.processes) in
    let ids l = Array.of_list (List.map (id t) l) in
    let ins = Array.map (fun p -> ids p.inputs) procs
    and outs = Array.map (fun p -> ids p.outputs) procs in
    let readers, readers_at, producer = wire (Array.length v.names) ins outs in
    let first = first_by_name procs in
    { v with procs; ins; outs; readers; readers_at; producer; first }

let consumer v c =
  if v.readers_at.(c) < v.readers_at.(c + 1) then v.readers.(v.readers_at.(c))
  else -1

let occurrences (a : int array) c =
  let n = ref 0 in
  for k = 0 to Array.length a - 1 do
    if a.(k) = c then incr n
  done;
  !n

let satisfied v i =
  let ins = v.ins.(i) in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length ins do
    let c = ins.(!k) in
    ok := Queue.length v.queues.(c) >= occurrences ins c;
    incr k
  done;
  !ok

let take v i =
  let ins = v.ins.(i) in
  let rec from k =
    if k = Array.length ins then []
    else
      let tok = Queue.pop v.queues.(ins.(k)) in
      tok :: from (k + 1)
  in
  from 0

(* push [toks] onto the channels [outs.(k)..], in order *)
let rec put v (outs : int array) k = function
  | [] -> ()
  | tok :: rest ->
    Queue.add tok v.queues.(outs.(k));
    put v outs (k + 1) rest

let firing_index v =
  let count = Array.make (Array.length v.procs) 0 in
  fun i ->
    let s = v.first.(i) in
    let k = count.(s) in
    count.(s) <- k + 1;
    k

(* The firing core of [run], [trace] and [Mapper.list_schedule]: fire
   the lowest-indexed enabled process of [v] until none is enabled.
   Enabled processes wait in a heap keyed by index.  A firing only
   removes tokens from its own inputs and adds them to its outputs, so
   it can only enable the readers of its outputs: those are the only
   processes rechecked, and a process it disabled is dropped when it
   reaches the top of the heap.  [f] sees each process index just
   before it fires.  Linear in firings (times log P for the heap). *)
let fire_loop v ~max_firings (f : int -> unit) : int =
  let ready = Heap.create (fun (a : int) b -> a < b) in
  let queued = Array.make (Array.length v.procs) false in
  let offer i =
    if (not queued.(i)) && satisfied v i then begin
      queued.(i) <- true;
      Heap.push ready i
    end
  in
  Array.iteri (fun i _ -> offer i) v.procs;
  let firings = ref 0 in
  let rec loop () =
    match Heap.pop_opt ready with
    | None -> ()
    | Some i ->
      queued.(i) <- false;
      if satisfied v i then begin
        if !firings >= max_firings then
          raise (Deadlock "firing budget exhausted (unbounded network?)");
        incr firings;
        f i;
        let p = v.procs.(i) and outs = v.outs.(i) in
        let toks = p.fire (take v i) in
        if List.length toks <> Array.length outs then
          produced_error "Kpn.fire" p toks (Array.length outs);
        put v outs 0 toks;
        offer i;
        for k = 0 to Array.length outs - 1 do
          let c = outs.(k) in
          for r = v.readers_at.(c) to v.readers_at.(c + 1) - 1 do
            offer v.readers.(r)
          done
        done
      end;
      loop ()
  in
  loop ();
  !firings

(** Run until no process is enabled.  [order] permutes the scheduling
    preference — by Kahn's theorem the resulting channel streams are
    identical for every order, which the test suite verifies.  Returns the
    number of firings. *)
let run ?order ?(max_firings = 1_000_000) t : int =
  fire_loop (view ?order t) ~max_firings ignore

(** Firing trace in dataflow order, for the makespan simulation: each entry
    is (process, firing index of that process). *)
let trace ?order ?(max_firings = 1_000_000) t : (process * int) list =
  let v = view ?order t in
  let index = firing_index v in
  let tr = ref [] in
  ignore
    (fire_loop v ~max_firings (fun i -> tr := (v.procs.(i), index i) :: !tr));
  List.rev !tr
