(** Kahn process networks — the deterministic concurrency substrate the
    paper (§4) proposes as the semantic basis for portable parallel
    bytecode.

    Processes connected by unbounded FIFO channels; a process fires when
    every input holds its tokens.  By Kahn's theorem the stream on every
    channel is independent of scheduling order (checked by the property
    tests), which is what makes {!Mapper}'s placement freedom safe.

    {b Readiness.}  A firing pops one token per entry of [inputs], in
    declaration order, so a process that lists a channel [k] times pops
    [k] tokens from it.  A process is enabled when each distinct input
    channel holds at least as many tokens as [inputs] names it.  This is
    the one rule {!enabled}, {!run}, {!trace}, {!Mapper.schedule} and
    {!Sched.execute} apply ([Sched] adds backpressure on top). *)

type token = Pvir.Value.t array

type process = {
  pname : string;
  inputs : string list;  (** channels consumed, one token each per firing *)
  outputs : string list;  (** channels produced, one token each per firing *)
  fire : token list -> token list;
      (** pure function: one token per input -> one token per output *)
  annots : Pvir.Annot.t;  (** hardware preferences etc. *)
  work : int;  (** abstract work per firing (for cost models) *)
}

(** A net: its processes, in declaration order, and the dense form
    {!create} builds once (see {!view}). *)
type t = private { processes : process list; net : net }

and net

exception Deadlock of string

(** [create processes] numbers each channel the first time a process
    names it (inputs before outputs, process after process) and
    resolves every process's inputs and outputs to channel ids, once:
    the executors run on the result and look up no name. *)
val create : process list -> t

(** [add_channel t name] registers an empty channel [name] (a source no
    process reads, say); a no-op when [t] already has one.  It copies
    the channel arrays, one more slot each: nets add few sources after
    {!create}. *)
val add_channel : t -> string -> unit

(** @raise Invalid_argument on an unknown channel name. *)
val channel : t -> string -> token Queue.t

(** Feed an external input token into a channel. *)
val push : t -> string -> token -> unit

(** Drain all tokens currently in a channel, in FIFO order. *)
val drain : t -> string -> token list

(** The readiness rule (see above). *)
val enabled : t -> process -> bool

(** Fire [p] once: [fire] gets its inputs in declaration order and the
    tokens it returns are pushed to [outputs] in declaration order.
    @raise Invalid_argument when [p] is not {!enabled}, or when [fire]
    returns the wrong number of tokens. *)
val fire_once : t -> process -> unit

(** {1 The executors' view}

    The dense form of a net: channel ids index the net's own queues, and
    per-firing bookkeeping is done on ints, with no lookup by name. *)

type view = private {
  procs : process array;  (** the processes, in the order viewed *)
  names : string array;  (** channel id -> name *)
  queues : token Queue.t array;  (** channel id -> the net's own queue *)
  ins : int array array;  (** per process, input ids in declaration order *)
  outs : int array array;  (** per process, output ids in declaration order *)
  readers : int array;
      (** the processes that read each channel, in process order, one
          channel after another *)
  readers_at : int array;
      (** channel [c]'s readers are [readers.(readers_at.(c))] up to
          [readers.(readers_at.(c + 1) - 1)] *)
  producer : int array;  (** per channel, its first producer, or -1 *)
  first : int array;
      (** per process, the index of the first process viewed with its
          name: what {!firing_index} counts by *)
}

(** [view t] is the net {!create} built, in declaration order: it
    hashes nothing and copies nothing.  [view ~order t] views the
    processes [order t.processes] over the same channels, resolving
    their channel names through [t]'s one name table (the property
    tests' reorderings; the executors' own calls pass no order).
    @raise Invalid_argument when a process names an unknown channel. *)
val view : ?order:(process list -> process list) -> t -> view

(** [first_by_name procs] — per process, the index of the first process
    of [procs] with its name ({!view}'s [first] for [procs]). *)
val first_by_name : process array -> int array

(** [consumer v c] — channel [c]'s first reader, or -1. *)
val consumer : view -> int -> int

(** [occurrences a c] — how many times [a] lists [c]. *)
val occurrences : int array -> int -> int

(** [satisfied v i] — process [i] meets the readiness rule. *)
val satisfied : view -> int -> bool

(** [take v i] pops one token per input of process [i], in declaration
    order (the process must be {!satisfied}). *)
val take : view -> int -> token list

(** [firing_index v] returns a counter: each application to a process
    index returns how many times a process of that name has fired
    before, and counts this firing.  It counts by [v.first], so it
    hashes no name. *)
val firing_index : view -> int -> int

(** [fire_loop v ~max_firings f] fires the lowest-indexed enabled
    process until none is enabled, calling [f i] just before process [i]
    fires, and returns the number of firings.  A firing rechecks only
    itself and the readers of its outputs.
    @raise Deadlock when [max_firings] is exceeded. *)
val fire_loop : view -> max_firings:int -> (int -> unit) -> int

(** Run until no process is enabled, always firing the enabled process
    that comes first in [order processes] ([order] is applied once and
    permutes scheduling preference; the streams are the same for every
    order).  Linear in firings, up to a log factor: a firing rechecks
    only the consumers of its output channels.  Returns the number of
    firings.
    @raise Deadlock when [max_firings] is exceeded. *)
val run : ?order:(process list -> process list) -> ?max_firings:int -> t -> int

(** Like {!run}, returning the firing trace in dataflow order:
    [(process, per-process firing index)]. *)
val trace :
  ?order:(process list -> process list) ->
  ?max_firings:int ->
  t ->
  (process * int) list
