(** Binary min-heap of ints (process indices) under a caller-given
    strict order: the ready sets of {!Kpn}'s firing core and of the
    {!Sched} priority policy. *)

type t = { lt : int -> int -> bool; mutable a : int array; mutable n : int }

let create lt = { lt; a = Array.make 16 0; n = 0 }

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let push h x =
  if h.n = Array.length h.a then begin
    let a = Array.make (2 * h.n) 0 in
    Array.blit h.a 0 a 0 h.n;
    h.a <- a
  end;
  h.a.(h.n) <- x;
  let i = ref h.n in
  h.n <- h.n + 1;
  while !i > 0 && h.lt h.a.(!i) h.a.((!i - 1) / 2) do
    swap h.a !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(** Remove and return the least element. *)
let pop_opt h =
  if h.n = 0 then None
  else begin
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < h.n && h.lt h.a.(l) h.a.(!m) then m := l;
      if l + 1 < h.n && h.lt h.a.(l + 1) h.a.(!m) then m := l + 1;
      if !m = !i then settled := true
      else begin
        swap h.a !i !m;
        i := !m
      end
    done;
    Some top
  end
