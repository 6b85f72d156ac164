(* Integration tests for the command-line tools: pvsc (offline compiler)
   and pvrun (device VM), exercised as real processes over real files. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let pvsc = "../bin/pvsc.exe"
let pvrun = "../bin/pvrun.exe"

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* run a command, capture stdout, return (exit code, output) *)
let run cmd =
  let out = Filename.temp_file "cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
      (code, read_file out))

(* same, but capture stderr (where usage errors go) *)
let run_err cmd =
  let out = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s 2> %s >/dev/null" cmd out) in
      (code, read_file out))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let sample_source =
  {|
f64 acc_store;

f64 triangle(i64 n) {
  f64 s = 0.0;
  for (i64 i = 1; i <= n; i = i + 1) {
    s = s + (f64)i;
  }
  acc_store = s;
  return s;
}

i64 main() {
  f64 t = triangle(100);
  print_f64(t);
  return (i64)t;
}
|}

let with_compiled f =
  let src = Filename.temp_file "cli" ".mc" in
  let out = Filename.temp_file "cli" ".pvir" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove src;
      if Sys.file_exists out then Sys.remove out)
    (fun () ->
      write_file src sample_source;
      let code, _ = run (Printf.sprintf "%s %s -o %s" pvsc src out) in
      check int_t "pvsc exit code" 0 code;
      f out)

let test_pvsc_produces_bytecode () =
  with_compiled (fun out ->
      let bc = read_file out in
      check bool_t "magic" true (String.length bc > 4 && String.sub bc 0 4 = "PVIR");
      (* and it decodes + verifies *)
      let p = Pvir.Serial.decode bc in
      Pvir.Verify.program p)

let test_pvsc_emit_text () =
  let src = Filename.temp_file "cli" ".mc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      write_file src sample_source;
      let code, text = run (Printf.sprintf "%s %s --emit-text" pvsc src) in
      check int_t "exit" 0 code;
      check bool_t "textual program" true
        (String.length text > 0
        && String.sub text 0 7 = "program");
      (* the emitted text parses back *)
      let p = Pvir.Parse.program text in
      Pvir.Verify.program p)

let test_pvsc_rejects_bad_source () =
  let src = Filename.temp_file "cli" ".mc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      write_file src "i64 main( { return }";
      let code, _ = run (Printf.sprintf "%s %s" pvsc src) in
      check bool_t "nonzero exit" true (code <> 0))

let test_pvrun_executes () =
  with_compiled (fun out ->
      List.iter
        (fun target ->
          let code, output =
            run (Printf.sprintf "%s %s -e main -t %s" pvrun out target)
          in
          check int_t (target ^ " exit") 0 code;
          (* triangle(100) = 5050 *)
          check bool_t (target ^ " prints 5050") true
            (let re = "5050" in
             let rec find i =
               i + String.length re <= String.length output
               && (String.sub output i (String.length re) = re || find (i + 1))
             in
             find 0))
        [ "x86ish"; "sparcish"; "ppcish"; "dspish"; "uchost" ])

let test_pvrun_interp_matches () =
  with_compiled (fun out ->
      let _, jit_out = run (Printf.sprintf "%s %s -e main -t x86ish" pvrun out) in
      let _, int_out = run (Printf.sprintf "%s %s -e main --interp" pvrun out) in
      let first_line s =
        match String.index_opt s '\n' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      check Alcotest.string "same printed value" (first_line jit_out)
        (first_line int_out))

let test_pvrun_entry_args () =
  with_compiled (fun out ->
      let code, output =
        run (Printf.sprintf "%s %s -e triangle -t ppcish 10" pvrun out)
      in
      check int_t "exit" 0 code;
      check bool_t "result 55" true
        (let re = "55" in
         let rec find i =
           i + String.length re <= String.length output
           && (String.sub output i (String.length re) = re || find (i + 1))
         in
         find 0))

let test_pvrun_rejects_unknown_target () =
  with_compiled (fun out ->
      let code, _ = run (Printf.sprintf "%s %s -t z80" pvrun out) in
      check bool_t "nonzero exit" true (code <> 0))

let test_pvrun_rejects_corrupt_file () =
  let path = Filename.temp_file "cli" ".pvir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "definitely not bytecode";
      let code, _ = run (Printf.sprintf "%s %s -e main" pvrun path) in
      check bool_t "nonzero exit" true (code <> 0))

(* ---------------- exit-code taxonomy ----------------

   The documented contract (DESIGN.md / Core.Splitc.exit_code): 0 ok,
   2 frontend/usage, 3 decode, 4 verify, 5 link, 6 jit, 7 runtime trap,
   8 resource limit, 9 i/o.  These tests pin the codes the tools actually
   return — and that hostile inputs produce a clean one-line diagnostic,
   never a backtrace. *)

let test_exit_code_frontend () =
  let src = Filename.temp_file "cli" ".mc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      write_file src "i64 main( { return }";
      let code, _ = run (Printf.sprintf "%s %s" pvsc src) in
      check int_t "frontend error is exit 2" 2 code)

let test_exit_code_decode () =
  let path = Filename.temp_file "cli" ".pvir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "PVIR garbage that is definitely not a module";
      let code, _ = run (Printf.sprintf "%s %s -e main" pvrun path) in
      check int_t "corrupt bytecode is exit 3" 3 code)

let test_exit_code_decode_truncated () =
  with_compiled (fun out ->
      let bc = read_file out in
      let cut = Filename.temp_file "cli" ".pvir" in
      Fun.protect
        ~finally:(fun () -> Sys.remove cut)
        (fun () ->
          write_file cut (String.sub bc 0 (String.length bc / 2));
          let code, _ = run (Printf.sprintf "%s %s -e main" pvrun cut) in
          check int_t "truncated bytecode is exit 3" 3 code))

let test_exit_code_usage () =
  with_compiled (fun out ->
      (* triangle expects one argument; give it three *)
      let code, _ = run (Printf.sprintf "%s %s -e triangle 1 2 3" pvrun out) in
      check int_t "bad argument count is exit 2" 2 code;
      let code, _ = run (Printf.sprintf "%s %s -e no_such_fn" pvrun out) in
      check int_t "unknown entry is exit 2" 2 code;
      let code, _ = run (Printf.sprintf "%s %s -e triangle banana" pvrun out) in
      check int_t "unparseable argument is exit 2" 2 code)

(* --engine: one parser for every spelling; unknown names are usage
   errors (exit 2) whose message lists the valid engines. *)
let test_engine_selection () =
  with_compiled (fun out ->
      let code, reference = run (Printf.sprintf "%s %s --interp" pvrun out) in
      check int_t "threaded default runs" 0 code;
      List.iter
        (fun engine ->
          List.iter
            (fun extra ->
              let code, o =
                run
                  (Printf.sprintf "%s %s %s --engine %s" pvrun out extra engine)
              in
              check int_t
                (Printf.sprintf "engine %s%s exit code" engine extra)
                0 code;
              if extra = "--interp" then
                check Alcotest.string
                  (Printf.sprintf "engine %s output" engine)
                  reference o)
            [ ""; "--interp" ])
        [ "tree"; "tree-walk"; "threaded"; "aot" ];
      let code, err =
        run_err (Printf.sprintf "%s %s --engine bogus" pvrun out)
      in
      check int_t "unknown engine is exit 2" 2 code;
      check bool_t "message lists the valid engines" true
        (contains err "valid engines: tree, threaded, aot"))

(* Guest traps — a memory fault included — exit 7 with the same message
   on the simulator and the interpreter, under every engine. *)
let test_exit_code_trap () =
  let src = Filename.temp_file "cli" ".mc" in
  let out = Filename.temp_file "cli" ".pvir" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove src;
      if Sys.file_exists out then Sys.remove out)
    (fun () ->
      List.iter
        (fun (source, msg) ->
          write_file src source;
          let code, _ = run (Printf.sprintf "%s %s -o %s" pvsc src out) in
          check int_t "compiles" 0 code;
          List.iter
            (fun engine ->
              List.iter
                (fun extra ->
                  let what = Printf.sprintf "%s under %s%s" msg engine extra in
                  let code, err =
                    run_err
                      (Printf.sprintf "%s %s -e main --engine %s%s" pvrun out
                         engine extra)
                  in
                  check int_t (what ^ ": exit 7") 7 code;
                  check bool_t (what ^ ": message") true (contains err msg))
                [ ""; " --interp" ])
            [ "tree"; "tree-walk"; "threaded"; "aot" ])
        [
          ("i64 main() { i64 z = 0; return 5 / z; }", "trap: division by zero");
          ( "i64 a[4]; i64 main() { return a[300000]; }",
            "trap: memory fault: access [2400008, 2400016) outside memory of \
             1048576 bytes" );
        ])

let test_exit_code_io () =
  (* cmdliner validates `pos file` existence itself (exit 124); reach our
     i/o path via pvsc's output file instead *)
  let src = Filename.temp_file "cli" ".mc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      write_file src sample_source;
      let code, _ =
        run (Printf.sprintf "%s %s -o /nonexistent-dir/out.pvir" pvsc src)
      in
      check int_t "unwritable output is exit 9" 9 code)

let () =
  Alcotest.run "cli"
    [
      ( "pvsc",
        [
          Alcotest.test_case "produces bytecode" `Quick test_pvsc_produces_bytecode;
          Alcotest.test_case "emit text" `Quick test_pvsc_emit_text;
          Alcotest.test_case "rejects bad source" `Quick test_pvsc_rejects_bad_source;
        ] );
      ( "pvrun",
        [
          Alcotest.test_case "executes on all targets" `Quick test_pvrun_executes;
          Alcotest.test_case "interp matches jit" `Quick test_pvrun_interp_matches;
          Alcotest.test_case "entry with args" `Quick test_pvrun_entry_args;
          Alcotest.test_case "unknown target" `Quick test_pvrun_rejects_unknown_target;
          Alcotest.test_case "corrupt file" `Quick test_pvrun_rejects_corrupt_file;
          Alcotest.test_case "engine selection" `Quick test_engine_selection;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "frontend = 2" `Quick test_exit_code_frontend;
          Alcotest.test_case "decode = 3" `Quick test_exit_code_decode;
          Alcotest.test_case "truncated = 3" `Quick test_exit_code_decode_truncated;
          Alcotest.test_case "usage = 2" `Quick test_exit_code_usage;
          Alcotest.test_case "trap = 7" `Quick test_exit_code_trap;
          Alcotest.test_case "io = 9" `Quick test_exit_code_io;
        ] );
    ]
