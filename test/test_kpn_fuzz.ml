(* Tier-1 tests for the KPN fuzzing stack (PR 9): generator
   determinism for the new recursive / process-network shapes, a short
   clean Kpncheck campaign, a planted scheduler bug caught and shrunk
   to a minimal network, coverage-guided vs uniform seed scheduling,
   and the fuel-exhaustion regression for generated recursive programs.

   Campaigns are deterministic in their seed.  The cross-engine /
   cross-scheduler properties additionally run under a random seed
   (printed with a replay command) unless PVCHECK_SEED pins it, same
   contract as test_props.ml. *)

module Gen = Pvcheck.Gen
module K = Pvcheck.Kpncheck
module Sched = Pvsched.Sched

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let env_seed =
  match Sys.getenv_opt "PVCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg "PVCHECK_SEED must be an integer")
  | None ->
    Random.self_init ();
    Random.int 0x3FFFFFFF

let seed_printed = ref false

let announce_seed name =
  if not !seed_printed then begin
    seed_printed := true;
    Printf.printf
      "[%s] random campaign seed %d; replay with\n\
      \   PVCHECK_SEED=%d dune exec test/test_kpn_fuzz.exe\n\
       %!"
      name env_seed env_seed
  end

(* ---------------- generator determinism ---------------- *)

let test_recursive_gen_deterministic () =
  for seed = 0 to 9 do
    let p0 = Gen.program_recursive ~seed in
    let p1 = Gen.program_recursive ~seed in
    check string_t
      (Printf.sprintf "recursive seed %d reproducible" seed)
      (Pvir.Pp.program_to_string p0)
      (Pvir.Pp.program_to_string p1);
    match Pvir.Verify.program_result p0 with
    | Ok () -> ()
    | Error m -> Alcotest.failf "recursive seed %d fails verify: %s" seed m
  done;
  let a = Pvir.Pp.program_to_string (Gen.program_recursive ~seed:1) in
  let b = Pvir.Pp.program_to_string (Gen.program_recursive ~seed:2) in
  check bool_t "different seeds differ" true (a <> b)

let test_kpn_gen_deterministic () =
  let p0, pool0 = Gen.node_program ~seed:11 ~count:5 in
  let p1, pool1 = Gen.node_program ~seed:11 ~count:5 in
  check string_t "node program reproducible"
    (Pvir.Pp.program_to_string p0)
    (Pvir.Pp.program_to_string p1);
  check bool_t "function pool reproducible" true (pool0 = pool1);
  check int_t "pool size" 5 (List.length pool0);
  for s = 0 to 9 do
    let cfg =
      {
        K.cprocs = 8;
        ctokens = 2;
        cfanin = 2;
        cfanout = 40;
        cfeedback = 20;
        ccapacity = 3;
        cnet_seed = s;
      }
    in
    check string_t
      (Printf.sprintf "net seed %d reproducible" s)
      (K.net_to_string (K.generate ~fn_pool:pool0 cfg))
      (K.net_to_string (K.generate ~fn_pool:pool1 cfg))
  done

(* ---------------- clean campaign ---------------- *)

let test_short_clean_campaign () =
  announce_seed "clean campaign";
  let findings, stats = K.campaign ~shrink:true ~seed:env_seed ~count:30 () in
  List.iter
    (fun f ->
      Printf.printf "FAIL %s: %s (%s)\nconfig: %s\n%s%!" f.K.kpath f.K.kwhat
        f.K.kdetail
        (K.config_to_string f.K.kconfig)
        (K.net_to_string f.K.knet))
    findings;
  check int_t "no findings" 0 (List.length findings);
  check int_t "all cases ran" 30 stats.K.cs_cases;
  check bool_t "features discovered" true (stats.K.cs_features > 0);
  check bool_t "corpus retained" true (stats.K.cs_corpus > 0)

let test_campaign_pinned_seed_reproducible () =
  (* the whole campaign — programs, configs, corpus growth — is a pure
     function of the seed *)
  let run () =
    let fs, st = K.campaign ~seed:42 ~count:25 () in
    (List.length fs, st.K.cs_cases, st.K.cs_features, st.K.cs_corpus)
  in
  let a = run () in
  let b = run () in
  check bool_t "campaign stats reproducible" true (a = b)

(* ---------------- planted scheduler bug ---------------- *)

let chaos = Pvsched.Sched.Drop_fanin_token

let test_planted_bug_caught_and_shrunk () =
  let prog, fn_pool = Gen.node_program ~seed:7 ~count:6 in
  let cfg =
    {
      K.cprocs = 6;
      ctokens = 2;
      cfanin = 3;
      cfanout = 40;
      cfeedback = 0;
      ccapacity = 4;
      cnet_seed = 0;
    }
  in
  let net = K.generate ~fn_pool cfg in
  let ms = K.check ~chaos ~prog net in
  check bool_t "planted bug caught" true (ms <> []);
  (* the dropped token must be visible to the Kahn oracles *)
  check bool_t "determinism or conservation flagged" true
    (List.exists
       (fun m ->
         let w = m.Pvcheck.Oracle.what in
         w = "determinism" || w = "conservation" || w = "completion"
         || w = "residual" || w = "deadlock")
       ms);
  (* clean scheduler on the same net: no mismatch, so the finding is
     really the planted bug and not a generator artifact *)
  check int_t "net is clean without chaos" 0 (List.length (K.check ~prog net));
  let pred nn = K.check ~chaos ~prog nn <> [] in
  let minimal = K.shrink_net ~pred net in
  check bool_t "still failing after shrink" true (pred minimal);
  check bool_t "shrunk to <= 5 processes" true
    (List.length minimal.K.nodes <= 5);
  check bool_t "shrinking made progress" true
    (List.length minimal.K.nodes < List.length net.K.nodes)

let test_guided_beats_uniform () =
  (* Fresh configs cap data fan-in at 2, and the planted bug needs a
     data fan-in >= 3 join — reachable only by corpus mutation.  So the
     coverage-guided campaign must find the bug and uniform sampling
     must not (or only later). *)
  let guided, _ = K.campaign ~guided:true ~chaos ~seed:5 ~count:200 () in
  let uniform, _ = K.campaign ~guided:false ~chaos ~seed:5 ~count:200 () in
  (match guided with
  | [] -> Alcotest.fail "guided campaign missed the planted bug"
  | f :: _ ->
    check bool_t "guided reached the buggy shape" true (f.K.kcase < 200);
    (match uniform with
    | [] -> () (* uniform never reached fan-in >= 3: strictly worse *)
    | u :: _ ->
      check bool_t "guided found it in fewer cases" true (f.K.kcase < u.K.kcase)));
  ()

(* ---------------- fuel regression ---------------- *)

let engines =
  [
    ("tw", Pvvm.Interp.Tree_walk);
    ("th", Pvvm.Interp.Threaded);
    ("aot", Pvvm.Interp.Aot);
  ]

let run_with_fuel ~fuel ~engine prog =
  if engine = Pvvm.Interp.Aot then Pvaot.install ();
  let it = Pvvm.Interp.create ~engine ~fuel (Pvvm.Image.load (Pvir.Prog.copy prog)) in
  match Pvvm.Interp.run it "main" [] with
  | Some v -> Ok (Pvir.Value.to_string v)
  | None -> Ok "(none)"
  | exception Pvvm.Vm.Trap m -> Error m

let test_recursive_fuel_regression () =
  for seed = 0 to 4 do
    let prog = Gen.program_recursive ~seed in
    (* generous fuel: the generated fuel counter bounds the recursion,
       so every engine terminates with the same value *)
    let ok =
      List.map (fun (tag, e) -> (tag, run_with_fuel ~fuel:100_000_000L ~engine:e prog))
        engines
    in
    (match ok with
    | (_, r0) :: rest ->
      (match r0 with
      | Ok _ -> ()
      | Error m ->
        Alcotest.failf "recursive seed %d trapped under full fuel: %s" seed m);
      List.iter
        (fun (tag, r) ->
          check bool_t
            (Printf.sprintf "seed %d engine %s agrees" seed tag)
            true (r = r0))
        rest
    | [] -> ());
    (* starved fuel: the canonical fuel-exhaustion trap, byte-identical
       on every engine *)
    List.iter
      (fun (tag, e) ->
        match run_with_fuel ~fuel:3L ~engine:e prog with
        | Error m ->
          check string_t
            (Printf.sprintf "seed %d engine %s canonical trap" seed tag)
            Pvvm.Interp.fuel_exhausted_msg m
        | Ok v ->
          Alcotest.failf "seed %d engine %s finished (%s) on 3 fuel" seed tag v)
      engines
  done

let () =
  Alcotest.run "kpn-fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "recursive deterministic" `Quick
            test_recursive_gen_deterministic;
          Alcotest.test_case "kpn deterministic" `Quick
            test_kpn_gen_deterministic;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "short clean campaign" `Quick
            test_short_clean_campaign;
          Alcotest.test_case "pinned seed reproducible" `Quick
            test_campaign_pinned_seed_reproducible;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "caught and shrunk" `Quick
            test_planted_bug_caught_and_shrunk;
          Alcotest.test_case "guided beats uniform" `Quick
            test_guided_beats_uniform;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "recursive fuel regression" `Quick
            test_recursive_fuel_regression;
        ] );
    ]
