(* Tests for the Kahn process network runtime and the heterogeneous
   mapper. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let tok x = [| Pvir.Value.i64 (Int64.of_int x) |]
let tok_val (t : Pvsched.Kpn.token) = Int64.to_int (Pvir.Value.to_int64 t.(0))

(* a 3-stage pipeline: double -> add1 -> out *)
let pipeline () =
  let map name inputs outputs f =
    {
      Pvsched.Kpn.pname = name;
      inputs;
      outputs;
      fire =
        (fun toks -> List.map (fun t -> tok (f (tok_val t))) toks);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  [
    map "double" [ "in" ] [ "mid" ] (fun x -> x * 2);
    map "add1" [ "mid" ] [ "out" ] (fun x -> x + 1);
  ]

let test_kpn_pipeline () =
  let net = Pvsched.Kpn.create (pipeline ()) in
  List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) [ 1; 2; 3 ];
  let firings = Pvsched.Kpn.run net in
  check int_t "firings" 6 firings;
  let out = List.map tok_val (Pvsched.Kpn.drain net "out") in
  check bool_t "fifo order preserved" true (out = [ 3; 5; 7 ])

let test_kpn_determinism () =
  (* Kahn's theorem: any scheduling order produces the same streams *)
  let run_with order =
    let net = Pvsched.Kpn.create (pipeline ()) in
    List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) [ 5; 6; 7; 8 ];
    ignore (Pvsched.Kpn.run ~order net);
    List.map tok_val (Pvsched.Kpn.drain net "out")
  in
  let forward = run_with (fun ps -> ps) in
  let reverse = run_with List.rev in
  let rotated = run_with (fun ps -> List.tl ps @ [ List.hd ps ]) in
  check bool_t "reverse order same" true (forward = reverse);
  check bool_t "rotated order same" true (forward = rotated)

let test_kpn_multi_input () =
  (* a join process consumes one token from each input per firing *)
  let join =
    {
      Pvsched.Kpn.pname = "join";
      inputs = [ "a"; "b" ];
      outputs = [ "sum" ];
      fire =
        (fun toks ->
          match toks with
          | [ x; y ] -> [ tok (tok_val x + tok_val y) ]
          | _ -> assert false);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let net = Pvsched.Kpn.create [ join ] in
  List.iter (fun x -> Pvsched.Kpn.push net "a" (tok x)) [ 1; 2; 3 ];
  List.iter (fun x -> Pvsched.Kpn.push net "b" (tok x)) [ 10; 20 ];
  ignore (Pvsched.Kpn.run net);
  (* only two firings possible: channel b has two tokens *)
  let out = List.map tok_val (Pvsched.Kpn.drain net "sum") in
  check bool_t "join sums pairwise" true (out = [ 11; 22 ]);
  (* the unmatched token remains *)
  check int_t "leftover" 1 (List.length (Pvsched.Kpn.drain net "a"))

let test_kpn_firing_budget () =
  (* a self-feeding process never terminates: the budget must trip *)
  let loop_p =
    {
      Pvsched.Kpn.pname = "loop";
      inputs = [ "c" ];
      outputs = [ "c" ];
      fire = (fun toks -> toks);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let net = Pvsched.Kpn.create [ loop_p ] in
  Pvsched.Kpn.push net "c" (tok 1);
  match Pvsched.Kpn.run ~max_firings:100 net with
  | exception Pvsched.Kpn.Deadlock _ -> ()
  | _ -> Alcotest.fail "self-feeding network terminated"

(* ---------------- kpn edge cases ---------------- *)

let test_kpn_unknown_channel () =
  let net = Pvsched.Kpn.create (pipeline ()) in
  (match Pvsched.Kpn.push net "nonesuch" (tok 1) with
  | exception Invalid_argument m ->
    check bool_t "names the channel" true
      (String.length m > 0 && String.sub m (String.length m - 8) 8 = "nonesuch")
  | () -> Alcotest.fail "push on unknown channel succeeded");
  (match Pvsched.Kpn.drain net "nonesuch" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "drain on unknown channel succeeded")

let test_kpn_feedback_initial_tokens () =
  (* a two-process cycle is dead without an initial marking and runs
     exactly as far as its input supply with one *)
  let stage name src dst =
    {
      Pvsched.Kpn.pname = name;
      inputs = [ src ];
      outputs = [ dst ];
      fire = (fun toks -> List.map (fun t -> tok (tok_val t + 1)) toks);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let gate =
    (* consumes one external token and one loop token per firing *)
    {
      Pvsched.Kpn.pname = "gate";
      inputs = [ "in"; "loop" ];
      outputs = [ "fwd" ];
      fire =
        (fun toks ->
          match toks with
          | [ x; c ] -> [ tok (tok_val x + tok_val c) ]
          | _ -> assert false);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let ps = [ gate; stage "back" "fwd" "loop" ] in
  (* no initial marking: the cycle is dead *)
  let dead = Pvsched.Kpn.create ps in
  List.iter (fun x -> Pvsched.Kpn.push dead "in" (tok x)) [ 1; 2; 3 ];
  check int_t "unmarked cycle never fires" 0 (Pvsched.Kpn.run dead);
  (* one initial token on the feedback edge: 3 external tokens flow *)
  let live = Pvsched.Kpn.create ps in
  List.iter (fun x -> Pvsched.Kpn.push live "in" (tok x)) [ 1; 2; 3 ];
  Pvsched.Kpn.push live "loop" (tok 0);
  check int_t "marked cycle fires through" 6 (Pvsched.Kpn.run live);
  (* the marking is conserved: one token is back on the loop *)
  check int_t "marking conserved" 1
    (List.length (Pvsched.Kpn.drain live "loop"))

let test_kpn_starvation () =
  (* a process whose input channel never receives a token never fires,
     while the rest of the net quiesces normally *)
  let ps =
    pipeline ()
    @ [
        {
          Pvsched.Kpn.pname = "starved";
          inputs = [ "never" ];
          outputs = [ "unreached" ];
          fire = (fun toks -> toks);
          annots = Pvir.Annot.empty;
          work = 1;
        };
      ]
  in
  let net = Pvsched.Kpn.create ps in
  List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) [ 1; 2 ];
  check int_t "only the pipeline fires" 4 (Pvsched.Kpn.run net);
  check int_t "starved produced nothing" 0
    (List.length (Pvsched.Kpn.drain net "unreached"));
  let r = Pvsched.Sched.execute (Pvsched.Kpn.create ps) in
  check bool_t "sched reports starvation" true
    (r.Pvsched.Sched.stats.Pvsched.Sched.starved = [ "double"; "add1"; "starved" ])

let test_kpn_drain_ordering () =
  let net = Pvsched.Kpn.create (pipeline ()) in
  List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) [ 9; 1; 4 ];
  ignore (Pvsched.Kpn.run net);
  check bool_t "drain is FIFO" true
    (List.map tok_val (Pvsched.Kpn.drain net "out") = [ 19; 3; 9 ]);
  check bool_t "drain empties" true (Pvsched.Kpn.drain net "out" = [])

let test_kpn_channels_after_create () =
  (* sources no process names, added one by one after [create]: every
     executor sees them *)
  let net = Pvsched.Kpn.create (pipeline ()) in
  let extra = List.init 20 (Printf.sprintf "x%02d") in
  List.iteri
    (fun i c ->
      Pvsched.Kpn.add_channel net c;
      Pvsched.Kpn.add_channel net c;
      Pvsched.Kpn.push net c (tok i))
    extra;
  List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) [ 1; 2 ];
  let r = Pvsched.Sched.execute net in
  check int_t "the pipeline fires" 4 r.Pvsched.Sched.stats.Pvsched.Sched.firings;
  check (Alcotest.list Alcotest.string) "every channel, in name order"
    ([ "in"; "mid"; "out" ] @ extra)
    (List.map fst r.Pvsched.Sched.residual);
  check (Alcotest.list int_t) "added channels keep their tokens"
    (List.init 20 Fun.id)
    (List.map
       (fun c -> tok_val (List.hd (List.assoc c r.Pvsched.Sched.streams)))
       extra);
  Pvsched.Kpn.add_channel net "late";
  Pvsched.Kpn.push net "late" (tok 7);
  check (Alcotest.list int_t) "a channel added after a run" [ 7 ]
    (List.map tok_val (Pvsched.Kpn.drain net "late"));
  check int_t "the view names it" 24
    (Array.length (Pvsched.Kpn.view net).Pvsched.Kpn.names)

(* ---------------- bounded scheduler ---------------- *)

let sched_pipeline_net tokens =
  let net = Pvsched.Kpn.create (pipeline ()) in
  List.iter (fun x -> Pvsched.Kpn.push net "in" (tok x)) tokens;
  net

let stream_of r name =
  List.map (fun (t : Pvsched.Kpn.token) -> Int64.to_int (Pvir.Value.to_int64 t.(0)))
    (List.assoc name r.Pvsched.Sched.streams)

let test_kpn_doubled_input () =
  (* a process that lists a channel twice pops two tokens from it per
     firing: every executor applies the one readiness rule, so with a
     single token nothing fires (and nothing raises Queue.Empty) *)
  let got = ref [] in
  let twice =
    {
      Pvsched.Kpn.pname = "twice";
      inputs = [ "a"; "a" ];
      outputs = [ "out" ];
      fire =
        (fun toks ->
          got := List.map tok_val toks;
          [ tok (List.fold_left (fun s t -> s + tok_val t) 0 toks) ]);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let net tokens =
    let t = Pvsched.Kpn.create [ twice ] in
    List.iter (fun x -> Pvsched.Kpn.push t "a" (tok x)) tokens;
    t
  in
  let plat = Pvsched.Sched.default_platform ~cores:2 () in
  let pl = Pvsched.Mapper.place plat Pvsched.Sched.default_cost [ twice ] in
  let executors =
    [
      ("run", fun t -> Pvsched.Kpn.run t);
      ("trace", fun t -> List.length (Pvsched.Kpn.trace t));
      ( "Mapper.schedule",
        fun t ->
          List.length
            (Pvsched.Mapper.schedule plat Pvsched.Sched.default_cost pl t) );
    ]
    @ List.map
        (fun policy ->
          ( Pvsched.Sched.policy_name policy,
            fun t ->
              (Pvsched.Sched.execute ~policy ~platform:plat t).Pvsched.Sched.stats
                .Pvsched.Sched.firings ))
        Pvsched.Sched.all_policies
  in
  (* each executor on a fresh net: firings, what [fire] received, and
     what the net's own queues hold afterwards *)
  let run_all tokens =
    List.map
      (fun (what, exec) ->
        got := [];
        let t = net tokens in
        let n = exec t in
        let left = List.length (Pvsched.Kpn.drain t "a") in
        (what, n, !got, left, List.map tok_val (Pvsched.Kpn.drain t "out")))
      executors
  in
  check bool_t "one token: not enabled" false
    (Pvsched.Kpn.enabled (net [ 7 ]) twice);
  List.iter
    (fun (what, n, _, left, out) ->
      check int_t ("one token: " ^ what) 0 n;
      check int_t ("one token: " ^ what ^ " leaves it") 1 left;
      check (Alcotest.list int_t) ("one token: " ^ what ^ " output") [] out)
    (run_all [ 7 ]);
  (match Pvsched.Kpn.fire_once (net [ 7 ]) twice with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "fire_once fired without its tokens");
  check bool_t "two tokens: enabled" true
    (Pvsched.Kpn.enabled (net [ 7; 9 ]) twice);
  List.iter
    (fun (what, n, got, left, out) ->
      check int_t ("two tokens: " ^ what) 1 n;
      check (Alcotest.list int_t) (what ^ ": fire gets both, in order") [ 7; 9 ] got;
      check int_t (what ^ ": both consumed") 0 left;
      check (Alcotest.list int_t) (what ^ ": output") [ 16 ] out)
    (run_all [ 7; 9 ])

let test_sched_policies_agree () =
  let digests =
    List.map
      (fun policy ->
        let r = Pvsched.Sched.execute ~policy (sched_pipeline_net [ 1; 2; 3; 4 ]) in
        check int_t "all firings happen" 8 r.Pvsched.Sched.stats.Pvsched.Sched.firings;
        Pvsched.Sched.streams_digest r)
      Pvsched.Sched.all_policies
  in
  match digests with
  | d :: rest -> List.iter (check Alcotest.string "streams identical" d) rest
  | [] -> ()

let test_sched_backpressure () =
  (* capacity 1 forces strict alternation but cannot change the streams
     (deadlock-free by the marked-graph argument) *)
  let r1 = Pvsched.Sched.execute ~capacity:1 (sched_pipeline_net [ 1; 2; 3 ]) in
  let r8 = Pvsched.Sched.execute ~capacity:8 (sched_pipeline_net [ 1; 2; 3 ]) in
  check bool_t "bounded streams match unbounded" true
    (Pvsched.Sched.streams_digest r1 = Pvsched.Sched.streams_digest r8);
  check bool_t "output stream correct" true (stream_of r1 "out" = [ 3; 5; 7 ]);
  check int_t "sink keeps its tokens" 3 (List.assoc "out" r1.Pvsched.Sched.residual);
  check int_t "consumed channels drained" 0 (List.assoc "mid" r1.Pvsched.Sched.residual)

let test_sched_conservation () =
  let r = Pvsched.Sched.execute (sched_pipeline_net [ 1; 2; 3; 4; 5 ]) in
  (* 5 external + 10 produced = 10 consumed + 5 residual *)
  check int_t "produced" 10 r.Pvsched.Sched.produced;
  check int_t "consumed" 10 r.Pvsched.Sched.consumed;
  let residual =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.Pvsched.Sched.residual
  in
  check int_t "residual" 5 residual

let test_sched_work_stealing_steals () =
  (* many independent single-firing processes homed by the placement:
     an idle core must steal rather than sit idle *)
  let ps =
    List.init 16 (fun i ->
        let name = Printf.sprintf "w%d" i in
        {
          Pvsched.Kpn.pname = name;
          inputs = [ name ^ "_in" ];
          outputs = [ name ^ "_out" ];
          fire = (fun toks -> toks);
          annots = Pvir.Annot.empty;
          work = 10;
        })
  in
  let net = Pvsched.Kpn.create ps in
  List.iteri (fun i _ -> Pvsched.Kpn.push net (Printf.sprintf "w%d_in" i) (tok i)) ps;
  (* pathological placement: everything on core0 *)
  let platform = Pvsched.Sched.default_platform ~cores:4 () in
  let c0 = List.hd platform.Pvsched.Mapper.cores in
  let placement = Pvsched.Mapper.place_all_on c0 ps in
  let fifo =
    Pvsched.Sched.execute ~policy:Pvsched.Sched.Fifo ~platform ~placement
      (Pvsched.Kpn.create ps |> fun t ->
       List.iteri (fun i _ -> Pvsched.Kpn.push t (Printf.sprintf "w%d_in" i) (tok i)) ps;
       t)
  in
  let ws =
    Pvsched.Sched.execute ~policy:Pvsched.Sched.Work_stealing ~platform
      ~placement net
  in
  check bool_t "steals happened" true (ws.Pvsched.Sched.stats.Pvsched.Sched.steals > 0);
  check bool_t "stealing beats the pile-up" true
    (Int64.compare ws.Pvsched.Sched.stats.Pvsched.Sched.makespan
       fifo.Pvsched.Sched.stats.Pvsched.Sched.makespan
    < 0);
  check bool_t "same streams anyway" true
    (Pvsched.Sched.streams_digest ws = Pvsched.Sched.streams_digest fifo)

let test_sched_deadlock_budget () =
  let loop_p =
    {
      Pvsched.Kpn.pname = "loop";
      inputs = [ "c" ];
      outputs = [ "c"; "out" ];
      fire = (fun toks -> [ List.hd toks; List.hd toks ]);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let net = Pvsched.Kpn.create [ loop_p ] in
  Pvsched.Kpn.push net "c" (tok 1);
  match Pvsched.Sched.execute ~max_firings:64 net with
  | exception Pvsched.Kpn.Deadlock _ -> ()
  | _ -> Alcotest.fail "self-feeding network terminated under Sched"

(* The digest's text before it wrote integers itself: every value
   through [Value.to_string] ([Printf]'s [%Ld], [%h]). *)
let printf_streams_digest (r : Pvsched.Sched.result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, toks) ->
      Printf.bprintf b "%s=" name;
      List.iter
        (fun (tok : Pvsched.Kpn.token) ->
          Buffer.add_char b '[';
          Array.iter
            (fun v -> Printf.bprintf b "%s;" (Pvir.Value.to_string v))
            tok;
          Buffer.add_char b ']')
        toks;
      Buffer.add_char b '\n')
    r.Pvsched.Sched.streams;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_streams_digest_text () =
  let result streams =
    {
      Pvsched.Sched.events = [];
      stats =
        {
          Pvsched.Sched.firings = 0;
          steals = 0;
          makespan = 0L;
          busy = [];
          starved = [];
        };
      streams;
      residual = [];
      consumed = 0;
      produced = 0;
    }
  in
  let ints s lo hi =
    List.map
      (fun x -> [| Pvir.Value.int s x |])
      [ 0L; 1L; -1L; lo; hi; Int64.succ lo; Int64.pred hi ]
  in
  let around x =
    List.concat_map
      (fun d -> [ Int64.add x d; Int64.neg (Int64.add x d) ])
      [ -1L; 0L; 1L ]
  in
  let wide =
    List.map
      (fun x -> [| Pvir.Value.i64 x |])
      (around 1_000_000_000L @ around 1_000_000_000_000_000_000L
      @ [ Int64.min_int; Int64.max_int; 10L; -10L; 9L; -9L ])
  in
  let floats s =
    List.map
      (fun x -> [| Pvir.Value.float s x |])
      [ 0.0; -0.0; 1.5; -2.25; Float.nan; Float.infinity; Float.neg_infinity ]
  in
  let vectors =
    [
      [| Pvir.Value.vec [| Pvir.Value.i32 (-7); Pvir.Value.i32 0x7fffffff |] |];
      [| Pvir.Value.vec [| Pvir.Value.f64 (-0.0); Pvir.Value.f64 nan |] |];
      [| Pvir.Value.i8 (-128); Pvir.Value.f32 0.5; Pvir.Value.i16 (-32768) |];
    ]
  in
  let cases =
    [
      ("empty result", []);
      ("empty channel", [ ("c", []) ]);
      ("empty tokens", [ ("c", [ [||]; [||] ]); ("d", [ [||] ]) ]);
      ( "every integer width",
        [
          ("i8", ints Pvir.Types.I8 (-128L) 127L);
          ("i16", ints Pvir.Types.I16 (-32768L) 32767L);
          ("i32", ints Pvir.Types.I32 (-2147483648L) 2147483647L);
          ("i64", ints Pvir.Types.I64 Int64.min_int Int64.max_int);
        ] );
      ("around 10^9 and 10^18", [ ("w", wide) ]);
      ( "floats",
        [ ("f32", floats Pvir.Types.F32); ("f64", floats Pvir.Types.F64) ] );
      ("vectors and mixed tokens", [ ("v", vectors) ]);
    ]
  in
  List.iter
    (fun (what, streams) ->
      let r = result streams in
      check Alcotest.string what (printf_streams_digest r)
        (Pvsched.Sched.streams_digest r))
    cases

(* ---------------- mapper ---------------- *)

let platform () =
  let host = { Pvsched.Mapper.cname = "host"; machine = Pvmach.Machine.ppcish } in
  let accel = { Pvsched.Mapper.cname = "accel"; machine = Pvmach.Machine.dspish } in
  (host, accel, { Pvsched.Mapper.cores = [ host; accel ]; transfer_cost = 100 })

let offload_processes () =
  let control name inputs outputs =
    {
      Pvsched.Kpn.pname = name;
      inputs;
      outputs;
      fire = (fun toks -> toks);
      annots = Pvir.Annot.empty;
      work = 1;
    }
  in
  let numeric =
    {
      Pvsched.Kpn.pname = "numeric";
      inputs = [ "raw" ];
      outputs = [ "cooked" ];
      fire = (fun toks -> toks);
      annots =
        Pvir.Annot.add Pvir.Annot.key_hw_prefs
          (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
          Pvir.Annot.empty;
      work = 100;
    }
  in
  [ control "src" [ "in" ] [ "raw" ]; numeric; control "snk" [ "cooked" ] [ "out" ] ]

let cost (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
  match p.Pvsched.Kpn.pname with
  | "numeric" -> if c.Pvsched.Mapper.cname = "accel" then 500 else 2000
  | _ -> if c.Pvsched.Mapper.cname = "accel" then 400 else 50

let test_mapper_placement () =
  let _, accel, plat = platform () in
  let ps = offload_processes () in
  let placement = Pvsched.Mapper.place plat cost ps in
  check bool_t "numeric offloaded" true
    (List.assoc "numeric" placement == accel);
  check bool_t "control on host" true
    ((List.assoc "src" placement).Pvsched.Mapper.cname = "host")

let fresh_net n =
  let net = Pvsched.Kpn.create (offload_processes ()) in
  for i = 1 to n do
    Pvsched.Kpn.push net "in" (tok i)
  done;
  net

let test_mapper_makespan_offload_wins () =
  let host, _, plat = platform () in
  let ps = offload_processes () in
  let host_only = Pvsched.Mapper.place_all_on host ps in
  let auto = Pvsched.Mapper.place plat cost ps in
  let t_host = Pvsched.Mapper.makespan plat cost host_only (fresh_net 32) in
  let t_auto = Pvsched.Mapper.makespan plat cost auto (fresh_net 32) in
  check bool_t "offload faster" true (Int64.compare t_auto t_host < 0);
  (* with the numeric stage dominant, the win approaches the stage ratio *)
  let ratio = Int64.to_float t_host /. Int64.to_float t_auto in
  check bool_t "meaningful speedup" true (ratio > 1.5)

let test_mapper_transfer_cost_matters () =
  (* an extreme transfer cost makes offload lose *)
  let host, _, plat0 = platform () in
  let plat = { plat0 with Pvsched.Mapper.transfer_cost = 1_000_000 } in
  let ps = offload_processes () in
  let host_only = Pvsched.Mapper.place_all_on host ps in
  let auto = Pvsched.Mapper.place plat0 cost ps in
  let t_host = Pvsched.Mapper.makespan plat cost host_only (fresh_net 8) in
  let t_auto = Pvsched.Mapper.makespan plat cost auto (fresh_net 8) in
  check bool_t "expensive transfers kill offload" true
    (Int64.compare t_auto t_host > 0)

let test_makespan_monotone_in_tokens () =
  let host, _, plat = platform () in
  let ps = offload_processes () in
  let pl = Pvsched.Mapper.place_all_on host ps in
  let t8 = Pvsched.Mapper.makespan plat cost pl (fresh_net 8) in
  let t16 = Pvsched.Mapper.makespan plat cost pl (fresh_net 16) in
  check bool_t "more tokens, more time" true (Int64.compare t16 t8 > 0)


let test_mapper_balances_two_accelerators () =
  (* two heavy parallel numeric stages, one host + two identical
     accelerators: load-aware placement must use both accelerators *)
  let accel1 = { Pvsched.Mapper.cname = "dsp1"; machine = Pvmach.Machine.dspish } in
  let accel2 = { Pvsched.Mapper.cname = "dsp2"; machine = Pvmach.Machine.dspish } in
  let host2 = { Pvsched.Mapper.cname = "host"; machine = Pvmach.Machine.ppcish } in
  let plat =
    { Pvsched.Mapper.cores = [ host2; accel1; accel2 ]; transfer_cost = 50 }
  in
  let numeric name =
    {
      Pvsched.Kpn.pname = name;
      inputs = [ name ^ "_in" ];
      outputs = [ name ^ "_out" ];
      fire = (fun toks -> toks);
      annots =
        Pvir.Annot.add Pvir.Annot.key_hw_prefs
          (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
          Pvir.Annot.empty;
      work = 100;
    }
  in
  let ps = [ numeric "fft"; numeric "filter2" ] in
  let cost2 (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
    ignore p;
    if c.Pvsched.Mapper.cname = "host" then 2000 else 500
  in
  let pl = Pvsched.Mapper.place plat cost2 ps in
  let c1 = (List.assoc "fft" pl).Pvsched.Mapper.cname in
  let c2 = (List.assoc "filter2" pl).Pvsched.Mapper.cname in
  check bool_t "both on accelerators" true
    (c1 <> "host" && c2 <> "host");
  check bool_t "spread across both" true (c1 <> c2)

let test_placement_off_platform () =
  (* a placement naming a core the platform does not have is rejected,
     not silently run on core 0 or on a phantom core *)
  let host, _, plat = platform () in
  let ps = offload_processes () in
  let ghost = { host with Pvsched.Mapper.cname = "ghost" } in
  let pl = Pvsched.Mapper.place_all_on ghost ps in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted an off-platform core" what
  in
  rejects "Sched.execute" (fun () ->
      ignore (Pvsched.Sched.execute ~platform:plat ~placement:pl (fresh_net 2)));
  rejects "Mapper.schedule" (fun () ->
      ignore (Pvsched.Mapper.schedule plat cost pl (fresh_net 2)));
  let failure = { Pvsched.Mapper.dead_core = "accel"; at = 0L } in
  rejects "Mapper.schedule_with_failure" (fun () ->
      ignore
        (Pvsched.Mapper.schedule_with_failure plat cost pl ~failure (fresh_net 2)));
  rejects "Mapper.schedule_with_migration" (fun () ->
      ignore
        (Pvsched.Mapper.schedule_with_migration plat cost pl ~failure
           (fresh_net 2)))

(* ---------------- equivalence at scale ---------------- *)

module Kc = Pvcheck.Kpncheck

(* a seeded 300-process generated net; the firing functions are trivial,
   since schedules depend only on the net's structure *)
let eq_net =
  Kc.generate ~fn_pool:[ ("f", 1) ]
    {
      Kc.cprocs = 300;
      ctokens = 4;
      cfanin = 3;
      cfanout = 35;
      cfeedback = 10;
      ccapacity = 2;
      cnet_seed = 7;
    }

let eq_procs =
  List.map
    (fun (nd : Kc.node) ->
      {
        Pvsched.Kpn.pname = nd.Kc.nname;
        inputs = nd.Kc.nins;
        outputs = nd.Kc.nouts;
        fire = (fun _ -> List.map (fun _ -> tok 0) nd.Kc.nouts);
        annots = Pvir.Annot.empty;
        work = nd.Kc.nwork;
      })
    eq_net.Kc.nodes

let fresh_eq () =
  let t = Pvsched.Kpn.create eq_procs in
  List.iter
    (fun c ->
      Pvsched.Kpn.add_channel t c;
      for i = 1 to eq_net.Kc.ntokens do
        Pvsched.Kpn.push t c (tok i)
      done)
    eq_net.Kc.sources;
  List.iter
    (fun (c, k) ->
      for j = 1 to k do
        Pvsched.Kpn.push t c (tok j)
      done)
    eq_net.Kc.feedback;
  t

(* the naive firing loop: before every firing, scan the ordered process
   list for the first enabled process *)
let reference_trace ~order t =
  let counts = Hashtbl.create 8 in
  let tr = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match List.find_opt (Pvsched.Kpn.enabled t) (order t.Pvsched.Kpn.processes) with
    | Some p ->
      let k = try Hashtbl.find counts p.Pvsched.Kpn.pname with Not_found -> 0 in
      Hashtbl.replace counts p.Pvsched.Kpn.pname (k + 1);
      tr := (p.Pvsched.Kpn.pname, k) :: !tr;
      Pvsched.Kpn.fire_once t p
    | None -> continue_ := false
  done;
  List.rev !tr

let test_trace_matches_reference () =
  let rotate ps = List.filteri (fun i _ -> i >= 97) ps @ List.filteri (fun i _ -> i < 97) ps in
  List.iter
    (fun (what, order) ->
      let expected = reference_trace ~order (fresh_eq ()) in
      let got =
        List.map
          (fun ((p : Pvsched.Kpn.process), k) -> (p.Pvsched.Kpn.pname, k))
          (Pvsched.Kpn.trace ~order (fresh_eq ()))
      in
      check int_t (what ^ ": every process fires ntokens times") 1200
        (List.length got);
      check bool_t (what ^ ": same firing order") true (got = expected);
      check int_t (what ^ ": run agrees") 1200 (Pvsched.Kpn.run ~order (fresh_eq ())))
    [ ("identity", Fun.id); ("reverse", List.rev); ("rotated", rotate) ]

let eq_platform =
  {
    Pvsched.Mapper.cores =
      List.init 4 (fun i ->
          { Pvsched.Mapper.cname = Printf.sprintf "core%d" i; machine = Pvmach.Machine.ppcish });
    transfer_cost = 3;
  }

(* odd cores run everything at half speed *)
let eq_cost (p : Pvsched.Kpn.process) (c : Pvsched.Mapper.core) =
  max 1 p.Pvsched.Kpn.work
  * if c.Pvsched.Mapper.cname = "core1" || c.Pvsched.Mapper.cname = "core3" then 2 else 1

let events_digest evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Pvsched.Mapper.sched_event) ->
      Printf.bprintf b "%s#%d@%s:%Ld-%Ld:%b:%b;" e.Pvsched.Mapper.se_proc
        e.Pvsched.Mapper.se_firing e.Pvsched.Mapper.se_core e.Pvsched.Mapper.se_start
        e.Pvsched.Mapper.se_end e.Pvsched.Mapper.se_remapped e.Pvsched.Mapper.se_migrated)
    evs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [Sched.execute] with no placement places by process index; on a net
   whose processes share names and carry hardware preferences it must
   run exactly as with [Mapper.place]'s placement passed in. *)
let test_default_placement_is_place () =
  let core cname machine = { Pvsched.Mapper.cname; machine } in
  let plat =
    {
      Pvsched.Mapper.cores =
        [
          core "host" Pvmach.Machine.ppcish;
          core "dsp1" Pvmach.Machine.dspish;
          core "dsp2" Pvmach.Machine.dspish;
        ];
      transfer_cost = 7;
    }
  in
  let simd =
    Pvir.Annot.add Pvir.Annot.key_hw_prefs
      (Pvir.Annot.List [ Pvir.Annot.Str "simd128" ])
      Pvir.Annot.empty
  in
  let proc pname inputs outputs work annots =
    {
      Pvsched.Kpn.pname;
      inputs;
      outputs;
      fire =
        (fun toks ->
          let s = List.fold_left (fun s t -> s + tok_val t) 0 toks in
          List.mapi (fun k _ -> tok (s + k)) outputs);
      annots;
      work;
    }
  in
  (* the two "dup"s and the two "join"s each share a name *)
  let ps =
    [
      proc "src" [ "in" ] [ "a"; "b" ] 2 Pvir.Annot.empty;
      proc "dup" [ "a" ] [ "c" ] 5 simd;
      proc "dup" [ "b" ] [ "d" ] 5 Pvir.Annot.empty;
      proc "join" [ "c"; "d" ] [ "e" ] 5 simd;
      proc "join" [ "e" ] [ "f" ] 3 Pvir.Annot.empty;
      proc "solo" [ "f" ] [ "out" ] 5 simd;
    ]
  in
  let net () =
    let t = Pvsched.Kpn.create ps in
    List.iter (fun x -> Pvsched.Kpn.push t "in" (tok x)) [ 1; 2; 3; 4 ];
    t
  in
  let pl = Pvsched.Mapper.place plat Pvsched.Sched.default_cost ps in
  List.iter
    (fun policy ->
      let what = Pvsched.Sched.policy_name policy in
      let default =
        Pvsched.Sched.execute ~policy ~capacity:2 ~platform:plat (net ())
      in
      let placed =
        Pvsched.Sched.execute ~policy ~capacity:2 ~platform:plat ~placement:pl
          (net ())
      in
      check int_t (what ^ ": every process fires") 24
        default.Pvsched.Sched.stats.Pvsched.Sched.firings;
      check Alcotest.string (what ^ ": events")
        (events_digest placed.Pvsched.Sched.events)
        (events_digest default.Pvsched.Sched.events))
    Pvsched.Sched.all_policies;
  (* both "dup"s run where the first placed of them does *)
  let cores_of name =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (n, c) -> if n = name then Some c.Pvsched.Mapper.cname else None)
         pl)
  in
  check int_t "one core per name" 1 (List.length (cores_of "dup"));
  check int_t "one core per name (join)" 1 (List.length (cores_of "join"))

let test_schedules_pinned () =
  (* digests of the schedules the three separate Mapper list schedulers
     and the scan-based priority pick produced on this net *)
  let pl = Pvsched.Mapper.place eq_platform eq_cost eq_procs in
  check Alcotest.string "schedule" "7672d3990620d7dd1513da11bde9f3b5"
    (events_digest (Pvsched.Mapper.schedule eq_platform eq_cost pl (fresh_eq ())));
  List.iter
    (fun (dead_core, at, with_failure, with_migration, splits) ->
      let failure = { Pvsched.Mapper.dead_core; at } in
      let what = Printf.sprintf "%s dies at %Ld" dead_core at in
      check Alcotest.string (what ^ ": rerun") with_failure
        (events_digest
           (Pvsched.Mapper.schedule_with_failure eq_platform eq_cost pl ~failure
              (fresh_eq ())));
      let evs =
        Pvsched.Mapper.schedule_with_migration eq_platform eq_cost pl ~failure
          (fresh_eq ())
      in
      check Alcotest.string (what ^ ": migrated") with_migration (events_digest evs);
      check int_t (what ^ ": split spans") splits
        (List.length (List.filter (fun e -> e.Pvsched.Mapper.se_migrated) evs)))
    [
      ("core1", 0L, "84611f2739fb962b32067ebe4ccc513a", "84611f2739fb962b32067ebe4ccc513a", 0);
      ("core1", 97L, "dc3206e6d324c970c86da2e3ed9acec8", "dc3206e6d324c970c86da2e3ed9acec8", 0);
      ("core1", 401L, "7097dba4efe0f5041b03354b08fdbaf8", "44852d7860f07472a9f9bef26f9b2d44", 2);
      ("core1", 803L, "c0f0584a6d9aba37be8073179832afae", "c0f0584a6d9aba37be8073179832afae", 0);
      ("core1", 1207L, "f01ed73a81720dd52059ab99ada79f7b", "67292f45ed77ab98c036fd51c314cc6d", 2);
      ("core1", 1609L, "15f3c7405ca52ae4b50dffc65887b30f", "5d7de4963d48b91b52cdf49b3af1e9ec", 2);
      ("core0", 2003L, "526db2cc174c15c5ca5efcc9628ee8ba", "526db2cc174c15c5ca5efcc9628ee8ba", 0);
      ("core0", 3001L, "b9eacd7dc459bd1dc38642bc8d9f55bc", "eda59fa381fa5f33249d78d86432d18a", 2);
    ];
  List.iter
    (fun (policy, digest) ->
      let r =
        Pvsched.Sched.execute ~policy ~capacity:2 ~platform:eq_platform ~cost:eq_cost
          (fresh_eq ())
      in
      check Alcotest.string (Pvsched.Sched.policy_name policy) digest
        (events_digest r.Pvsched.Sched.events))
    [
      (Pvsched.Sched.Fifo, "76cc5cfdf4915933d306973da6f6153f");
      (Pvsched.Sched.Priority, "da690a3f547dabff7441d8b0bdeec5e3");
      (Pvsched.Sched.Work_stealing, "dcc94aeb213b2bec6bba388068c14031");
    ]

(* E15's net (bench/main.exe kpn): 2,000 generated processes whose
   kernels run in the threaded interpreter.  Unlike the constant-token
   nets above, these pins hold the values every channel carries. *)
let test_e15_pinned () =
  let prog, fn_pool = Pvcheck.Gen.node_program ~seed:15 ~count:8 in
  let net =
    Kc.generate ~fn_pool
      {
        Kc.cprocs = 2_000;
        ctokens = 1;
        cfanin = 3;
        cfanout = 35;
        cfeedback = 10;
        ccapacity = 2;
        cnet_seed = 15;
      }
  in
  let platform = Pvsched.Sched.default_platform ~cores:8 () in
  let fresh () = Kc.instantiate ~prog ~engine:Pvvm.Vm.Threaded net in
  List.iter
    (fun (policy, digest, makespan, steals) ->
      let r =
        Pvsched.Sched.execute ~policy ~capacity:net.Kc.ncapacity ~platform
          (fresh ())
      in
      let what = Pvsched.Sched.policy_name policy ^ ": " in
      let s = r.Pvsched.Sched.stats in
      check Alcotest.string (what ^ "streams") "d62f0e0260980f41fe1545af2e91ba10"
        (Pvsched.Sched.streams_digest r);
      check Alcotest.string (what ^ "events") digest
        (events_digest r.Pvsched.Sched.events);
      check Alcotest.int64 (what ^ "makespan") makespan s.Pvsched.Sched.makespan;
      check int_t (what ^ "steals") steals s.Pvsched.Sched.steals;
      check int_t (what ^ "firings") 2000 s.Pvsched.Sched.firings)
    [
      (Pvsched.Sched.Fifo, "56385b244c6a38082cd86c1924f5a340", 8617L, 0);
      (Pvsched.Sched.Priority, "f048d3257ffdfe177b9fad9395aa29cf", 8635L, 0);
      (Pvsched.Sched.Work_stealing, "10f4b0bebb5a1a2eba1e56f0591ea13e", 8587L, 1748);
    ];
  let t = fresh () in
  let pl = Pvsched.Mapper.place platform Pvsched.Sched.default_cost t.Pvsched.Kpn.processes in
  let evs = Pvsched.Mapper.schedule platform Pvsched.Sched.default_cost pl t in
  check Alcotest.string "mapper: events" "04d17bd69b79f67410a7527c9df53ba4"
    (events_digest evs);
  check Alcotest.int64 "mapper: makespan" 8631L (Pvsched.Mapper.makespan_of_events evs);
  (* Kpn.run, then every channel drained, in name order *)
  let t = fresh () in
  check int_t "run: firings" 2000 (Pvsched.Kpn.run t);
  let b = Buffer.create 65536 in
  Array.to_list (Pvsched.Kpn.view t).Pvsched.Kpn.names
  |> List.sort String.compare
  |> List.iter (fun c ->
         Printf.bprintf b "%s=" c;
         List.iter
           (fun (tok : Pvsched.Kpn.token) ->
             Array.iter
            (fun v -> Printf.bprintf b "%s;" (Pvir.Value.to_string v))
            tok;
             Buffer.add_char b '|')
           (Pvsched.Kpn.drain t c);
         Buffer.add_char b '\n');
  check Alcotest.string "run: drained channels" "14143c80e4819f609afaf61090d0df84"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "pvsched"
    [
      ( "kpn",
        [
          Alcotest.test_case "pipeline" `Quick test_kpn_pipeline;
          Alcotest.test_case "determinism" `Quick test_kpn_determinism;
          Alcotest.test_case "multi input" `Quick test_kpn_multi_input;
          Alcotest.test_case "firing budget" `Quick test_kpn_firing_budget;
          Alcotest.test_case "unknown channel" `Quick test_kpn_unknown_channel;
          Alcotest.test_case "feedback initial tokens" `Quick
            test_kpn_feedback_initial_tokens;
          Alcotest.test_case "starvation" `Quick test_kpn_starvation;
          Alcotest.test_case "drain ordering" `Quick test_kpn_drain_ordering;
          Alcotest.test_case "doubled input" `Quick test_kpn_doubled_input;
          Alcotest.test_case "channels added after create" `Quick
            test_kpn_channels_after_create;
        ] );
      ( "sched",
        [
          Alcotest.test_case "policies agree" `Quick test_sched_policies_agree;
          Alcotest.test_case "backpressure" `Quick test_sched_backpressure;
          Alcotest.test_case "conservation" `Quick test_sched_conservation;
          Alcotest.test_case "work stealing steals" `Quick
            test_sched_work_stealing_steals;
          Alcotest.test_case "deadlock budget" `Quick test_sched_deadlock_budget;
          Alcotest.test_case "streams digest text" `Quick
            test_streams_digest_text;
          Alcotest.test_case "default placement is Mapper.place" `Quick
            test_default_placement_is_place;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "placement" `Quick test_mapper_placement;
          Alcotest.test_case "offload wins" `Quick test_mapper_makespan_offload_wins;
          Alcotest.test_case "transfer cost" `Quick test_mapper_transfer_cost_matters;
          Alcotest.test_case "monotone" `Quick test_makespan_monotone_in_tokens;
          Alcotest.test_case "balances accelerators" `Quick test_mapper_balances_two_accelerators;
          Alcotest.test_case "placement off platform" `Quick test_placement_off_platform;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "trace matches naive scan" `Quick
            test_trace_matches_reference;
          Alcotest.test_case "schedules pinned" `Quick test_schedules_pinned;
          Alcotest.test_case "E15 streams pinned" `Quick test_e15_pinned;
        ] );
    ]
