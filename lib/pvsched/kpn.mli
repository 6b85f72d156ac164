(** Kahn process networks — the deterministic concurrency substrate the
    paper (§4) proposes as the semantic basis for portable parallel
    bytecode.

    Processes connected by unbounded FIFO channels; a process fires when
    every input has a token.  By Kahn's theorem the stream on every
    channel is independent of scheduling order (checked by the property
    tests), which is what makes {!Mapper}'s placement freedom safe. *)

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

type t = {
  processes : process list;
  mutable channels : (string, token Queue.t) Hashtbl.t;
}

exception Deadlock of string

val create : process list -> t

(** @raise Invalid_argument on an unknown channel name. *)
val channel : t -> string -> token Queue.t

(** Feed an external input token into a channel. *)
val push : t -> string -> token -> unit

(** Drain all tokens currently in a channel, in FIFO order. *)
val drain : t -> string -> token list

val enabled : t -> process -> bool

(** Fire [p] once (inputs must be available). *)
val fire_once : t -> process -> unit

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
