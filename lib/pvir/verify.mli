(** PVIR verifier: the gate every program passes offline after compilation
    and online at load time — a device never JITs an ill-typed program.

    Checks that every register is declared and lies in [\[0, next_reg)],
    register typing of every instruction, branch-target existence,
    call signatures against visible callees (program functions and
    intrinsics), pointer-typed memory operands, return-type agreement, and
    name uniqueness.  The VM's pre-decoders rely on these checks: decode
    of a verified program always succeeds. *)

exception Error of string

(** @raise Error describing the first problem found. *)
val program : Prog.t -> unit

(** [Ok ()] or [Error message]. *)
val program_result : Prog.t -> (unit, string) result
