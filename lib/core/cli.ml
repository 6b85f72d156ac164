(** Shared command-line plumbing for the drivers (pvsc, pvrun, pvfuzz,
    bench).  One mode vocabulary, one decode-limits helper, and
    the usage face of the VM's one engine vocabulary ({!Pvvm.Vm.engine},
    which both executors share) — so the tools cannot drift apart on
    spelling or defaults. *)

let engine_names =
  String.concat ", " (List.map Pvvm.Vm.cli_name Pvvm.Vm.engines)

(** [engine_of_string s] — [Error] carries a usage message listing the
    valid spellings. *)
let engine_of_string s =
  match Pvvm.Vm.engine_of_string s with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown engine %s (valid engines: %s)" s engine_names)

(** [mode_of_string s] — same contract as {!engine_of_string}. *)
let mode_of_string = function
  | "traditional" -> Ok Splitc.Traditional_deferred
  | "split" -> Ok Splitc.Split
  | "pure-online" -> Ok Splitc.Pure_online
  | s ->
    Error
      (Printf.sprintf "unknown mode %s (valid modes: traditional, split, \
                       pure-online)" s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Decode-time resource bounds: the defaults, overridden per flag. *)
let build_limits ?lanes ?regs ?globals ?annot_depth () : Pvir.Serial.limits =
  let d = Pvir.Serial.default_limits in
  {
    Pvir.Serial.max_vec_lanes =
      Option.value lanes ~default:d.Pvir.Serial.max_vec_lanes;
    max_regs = Option.value regs ~default:d.Pvir.Serial.max_regs;
    max_global_elems =
      Option.value globals ~default:d.Pvir.Serial.max_global_elems;
    max_annot_depth =
      Option.value annot_depth ~default:d.Pvir.Serial.max_annot_depth;
  }
