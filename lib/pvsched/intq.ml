(** FIFO of native ints in a growable ring buffer: the per-channel token
    arrivals of {!Mapper.timing}, kept unboxed beside the net's own token
    queues. *)

type t = { mutable a : int array; mutable head : int; mutable len : int }

let create () = { a = [||]; head = 0; len = 0 }

let push q x =
  let cap = Array.length q.a in
  if q.len = cap then begin
    (* capacities stay powers of two, so positions wrap with a mask *)
    let a = Array.make (Int.max 8 (2 * cap)) 0 in
    for k = 0 to q.len - 1 do
      a.(k) <- q.a.((q.head + k) land (cap - 1))
    done;
    q.a <- a;
    q.head <- 0
  end;
  q.a.((q.head + q.len) land (Array.length q.a - 1)) <- x;
  q.len <- q.len + 1

(** @raise Invalid_argument when [q] is empty. *)
let pop q =
  if q.len = 0 then invalid_arg "Intq.pop: empty";
  let x = q.a.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.a - 1);
  q.len <- q.len - 1;
  x
