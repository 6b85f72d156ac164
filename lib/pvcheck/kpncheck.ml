(** Generative Kahn-determinism oracle for KPN workloads.

    A test case is a seeded random process network — pipeline stages,
    fan-in/fan-out, feedback self-loops with initial tokens — whose node
    bodies are pure generated PVIR kernels ({!Gen.node_program}).  The
    case is executed to quiescence under every scheduling policy of
    {!Pvsched.Sched} and every execution engine, and the oracle demands:

    - {b Kahn determinism}: the complete token stream on every channel
      is byte-identical across all scheduler × engine combinations;
    - {b conservation}: tokens actually pushed/popped match what the
      firing counts declare — a scheduler that silently drops or
      duplicates a token cannot balance the books;
    - {b completion}: generated nets satisfy a uniform-N invariant
      (every data channel carries exactly [ntokens] tokens, every node
      fires exactly [ntokens] times), so starvation, premature
      quiescence and deadlock on an acyclic net all surface as count
      mismatches;
    - {b residual shape}: consumed channels drain to empty, sink
      channels retain exactly [ntokens], feedback loops retain their
      initial marking.

    Failures shrink structurally ({!shrink_net}) to a minimal failing
    network.  {!campaign} adds coverage-guided seed scheduling over
    {!Cover}: configs that light up new structural or executed-block
    features join a corpus that mutation favors over fresh sampling. *)

open Pvir
module R = Pvinject.Inject
module Sched = Pvsched.Sched
module Kpn = Pvsched.Kpn

(* ------------------------------------------------------------------ *)
(* Network description (pure data, so the shrinker can transform it)  *)
(* ------------------------------------------------------------------ *)

type node = {
  nname : string;
  nfun : string;  (** kernel function in the node program *)
  narity : int;  (** kernel arity; inputs are padded/truncated to fit *)
  nins : string list;
  nouts : string list;
  nwork : int;
}

type net = {
  nodes : node list;
  sources : string list;  (** external channels, [ntokens] tokens each *)
  feedback : (string * int) list;  (** self-loop channel -> initial marking *)
  ntokens : int;  (** the uniform N: tokens per channel, firings per node *)
  ncapacity : int;
  vseed : int;  (** seed for the external token values *)
}

type config = {
  cprocs : int;
  ctokens : int;
  cfanin : int;  (** max data fan-in per node *)
  cfanout : int;  (** pct chance a node has two outputs *)
  cfeedback : int;  (** pct chance of a feedback self-loop per node *)
  ccapacity : int;
  cnet_seed : int;
}

let config_to_string c =
  Printf.sprintf
    "procs=%d tokens=%d fanin=%d fanout=%d%% feedback=%d%% capacity=%d seed=%d"
    c.cprocs c.ctokens c.cfanin c.cfanout c.cfeedback c.ccapacity c.cnet_seed

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(** Build a closed net from [cfg], drawing node bodies from [fn_pool]
    (function name, arity).  Construction keeps every channel
    single-producer / single-consumer — the Kahn precondition — by
    tracking "open" channels awaiting their one consumer; whatever is
    still open at the end becomes a sink.  Acyclic except for feedback
    self-loops carrying an initial token, so the net satisfies the
    uniform-N invariant by construction. *)
let generate ~(fn_pool : (string * int) list) (cfg : config) : net =
  if fn_pool = [] then invalid_arg "Kpncheck.generate: empty function pool";
  let r = R.rng cfg.cnet_seed in
  let nprocs = max 1 cfg.cprocs in
  let fanin = max 1 cfg.cfanin in
  let chan = ref 0 in
  let fresh_chan () =
    incr chan;
    Printf.sprintf "c%d" !chan
  in
  let sources = ref [] in
  let new_source () =
    let c = fresh_chan () in
    sources := c :: !sources;
    c
  in
  (* open channels: produced (or external) but not yet consumed *)
  let open_ = ref (List.init (1 + R.rand_int r fanin) (fun _ -> new_source ())) in
  let take_open () =
    match !open_ with
    | [] -> new_source ()
    | l ->
      let i = R.rand_int r (List.length l) in
      let c = List.nth l i in
      open_ := List.filteri (fun j _ -> j <> i) l;
      c
  in
  let nodes = ref [] in
  let feedback = ref [] in
  for i = 0 to nprocs - 1 do
    let d = 1 + R.rand_int r fanin in
    let ins = List.init d (fun _ -> take_open ()) in
    let nouts = if R.rand_int r 100 < cfg.cfanout then 2 else 1 in
    let outs = List.init nouts (fun _ -> fresh_chan ()) in
    open_ := outs @ !open_;
    let fb =
      if R.rand_int r 100 < cfg.cfeedback then begin
        let c = fresh_chan () in
        feedback := (c, 1) :: !feedback;
        [ c ]
      end
      else []
    in
    let fname, arity = List.nth fn_pool (R.rand_int r (List.length fn_pool)) in
    nodes :=
      {
        nname = Printf.sprintf "p%d" i;
        nfun = fname;
        narity = arity;
        nins = ins @ fb;
        nouts = outs @ fb;
        nwork = 1 + R.rand_int r 8;
      }
      :: !nodes
  done;
  {
    nodes = List.rev !nodes;
    sources = List.rev !sources;
    feedback = List.rev !feedback;
    ntokens = max 1 cfg.ctokens;
    ncapacity = max 1 cfg.ccapacity;
    vseed = cfg.cnet_seed lxor 0x5bf03635;
  }

(** Human-readable (and diff-stable) net dump for reproducer artifacts. *)
let net_to_string (net : net) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "kpn net: nodes=%d tokens=%d capacity=%d vseed=%d\n"
    (List.length net.nodes) net.ntokens net.ncapacity net.vseed;
  List.iter (Printf.bprintf b "source %s\n") net.sources;
  List.iter (fun (c, k) -> Printf.bprintf b "feedback %s init=%d\n" c k)
    net.feedback;
  List.iter
    (fun nd ->
      Printf.bprintf b "node %s fn=%s/%d work=%d ins=[%s] outs=[%s]\n"
        nd.nname nd.nfun nd.narity nd.nwork
        (String.concat "," nd.nins)
        (String.concat "," nd.nouts))
    net.nodes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

(** Bind [net] to runnable processes: one interpreter per instantiation
    (under [engine]) firing the node kernels of [prog], and the external
    source tokens pushed ([vseed]-deterministic values).  Each node's
    kernel is resolved once; each fire pads or truncates its input heads
    to the kernel's arity, so structural shrinking never breaks
    invocation. *)
let instantiate ~(prog : Prog.t) ?profile ~(engine : Pvvm.Vm.engine)
    (net : net) : Kpn.t =
  if engine = Pvvm.Vm.Aot then Pvaot.install ();
  let img = Pvvm.Image.load (Prog.copy prog) in
  let it = Pvvm.Interp.create ?profile ~engine img in
  let zero = Value.i64 0L in
  (* the kernel arguments: each token's head, padded or truncated to [k] *)
  let rec args k (toks : Kpn.token list) =
    if k = 0 then []
    else
      match toks with
      | t :: rest -> (if Array.length t > 0 then t.(0) else zero) :: args (k - 1) rest
      | [] -> zero :: args (k - 1) []
  in
  let procs =
    List.map
      (fun nd ->
        let fn = Pvvm.Image.find_func img nd.nfun in
        let fire toks =
          let args = args nd.narity toks in
          let result =
            match fn with
            | Some fn -> Pvvm.Interp.call it fn args
            | None -> Pvvm.Vm.trap "no function %s" nd.nfun
          in
          let v = Option.value ~default:zero result in
          List.map (fun _ -> [| v |]) nd.nouts
        in
        {
          Kpn.pname = nd.nname;
          inputs = nd.nins;
          outputs = nd.nouts;
          fire;
          annots = Annot.empty;
          work = nd.nwork;
        })
      net.nodes
  in
  let t = Kpn.create procs in
  (* a source the topology never wired to a consumer (or that shrinking
     orphaned) still gets its channel: it simply quiesces as a sink *)
  List.iter (Kpn.add_channel t) net.sources;
  let vr = R.rng net.vseed in
  List.iter
    (fun c ->
      for _ = 1 to net.ntokens do
        Kpn.push t c [| Value.i64 (R.next_int64 vr) |]
      done)
    net.sources;
  List.iter
    (fun (c, k) ->
      for j = 1 to k do
        Kpn.push t c [| Value.i64 (Int64.of_int j) |]
      done)
    net.feedback;
  t

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let run_one ~prog ?profile ~engine ~policy ?chaos (net : net) :
    (Sched.result, string) Stdlib.result =
  let t = instantiate ~prog ?profile ~engine net in
  match Sched.execute ~policy ~capacity:net.ncapacity ?chaos t with
  | r -> Ok r
  | exception Kpn.Deadlock m -> Error m

(** Check one net against the full oracle.  [profile], when given, is
    attached to the reference instantiation (first engine, first
    policy) so a campaign can harvest executed-block coverage. *)
let check ?(engines = Pvvm.Vm.engines) ?(policies = Sched.all_policies)
    ?chaos ?profile ~(prog : Prog.t) (net : net) : Oracle.mismatch list =
  let ms = ref [] in
  let add path what detail = ms := !ms @ [ { Oracle.path; what; detail } ] in
  let n = net.ntokens in
  let consumer_known =
    let tbl = Hashtbl.create 32 in
    List.iter (fun nd -> List.iter (fun c -> Hashtbl.replace tbl c ()) nd.nins)
      net.nodes;
    fun c -> Hashtbl.mem tbl c
  in
  let fb_init c = List.assoc_opt c net.feedback in
  (* the per-net invariant checks, run against one result *)
  let check_invariants path (r : Sched.result) =
    let fired = Hashtbl.create 32 in
    List.iter
      (fun (e : Pvsched.Mapper.sched_event) ->
        Hashtbl.replace fired e.Pvsched.Mapper.se_proc
          (1 + (try Hashtbl.find fired e.Pvsched.Mapper.se_proc with Not_found -> 0)))
      r.Sched.events;
    let declared_prod = ref 0 and declared_cons = ref 0 in
    List.iter
      (fun nd ->
        let k = try Hashtbl.find fired nd.nname with Not_found -> 0 in
        declared_prod := !declared_prod + (k * List.length nd.nouts);
        declared_cons := !declared_cons + (k * List.length nd.nins);
        if k <> n then
          add path "completion"
            (Printf.sprintf "process %s fired %d times, expected %d" nd.nname
               k n))
      net.nodes;
    if r.Sched.produced <> !declared_prod then
      add path "conservation"
        (Printf.sprintf "%d tokens pushed but firing counts declare %d"
           r.Sched.produced !declared_prod);
    if r.Sched.consumed <> !declared_cons then
      add path "conservation"
        (Printf.sprintf "%d tokens popped but firing counts declare %d"
           r.Sched.consumed !declared_cons);
    List.iter
      (fun (c, left) ->
        let expect =
          match fb_init c with
          | Some k -> k  (* feedback keeps its initial marking *)
          | None -> if consumer_known c then 0 else n
        in
        if left <> expect then
          add path "residual"
            (Printf.sprintf "channel %s holds %d tokens at quiescence, expected %d"
               c left expect))
      r.Sched.residual
  in
  (* the first result, and its streams digest, computed once *)
  let reference = ref None in
  List.iteri
    (fun ei engine ->
      List.iteri
        (fun pi policy ->
          let path =
            Printf.sprintf "kpn-%s/%s" (Pvvm.Vm.tag engine)
              (Sched.policy_name policy)
          in
          let profile = if ei = 0 && pi = 0 then profile else None in
          match run_one ~prog ?profile ~engine ~policy ?chaos net with
          | Error m -> add path "deadlock" m
          | Ok r -> (
            check_invariants path r;
            match !reference with
            | None -> reference := Some (path, r, Sched.streams_digest r)
            | Some (rpath, r0, d0) ->
              if not (String.equal d0 (Sched.streams_digest r)) then begin
                (* name the first channel whose stream differs *)
                let rec first_diff l0 l1 =
                  match (l0, l1) with
                  | (c0, s0) :: t0, (c1, s1) :: t1 ->
                    if not (String.equal c0 c1) || s0 <> s1 then
                      Some (c0, s0, s1)
                    else first_diff t0 t1
                  | _ -> None
                in
                let detail =
                  match first_diff r0.Sched.streams r.Sched.streams with
                  | Some (c0, s0, s1) ->
                    Printf.sprintf "channel %s: %d tokens vs %d under %s" c0
                      (List.length s0) (List.length s1) rpath
                  | None -> "stream sets differ in shape"
                in
                add path "determinism" detail
              end))
        policies)
    engines;
  !ms

(* ------------------------------------------------------------------ *)
(* Structural shrinking                                                *)
(* ------------------------------------------------------------------ *)

(** Shrink candidates, cheapest-win first.  Every transformation keeps
    the net closed (every node input fed by a source, a producer, or a
    feedback marking), so [pred] never sees a malformed net:
    - drop a terminal node (all outputs sinks); its inputs become sinks;
    - bypass a 1-in/1-out node: its consumer reads its input directly;
    - cut one input of a fan-in node (the channel becomes a sink);
    - drop a feedback self-loop;
    - halve the token count. *)
let shrink_candidates (net : net) : net list =
  let consumers c =
    List.filter (fun nd -> List.mem c nd.nins) net.nodes
  in
  let is_fb c = List.mem_assoc c net.feedback in
  let drop_terminal =
    if List.length net.nodes <= 1 then []
    else
      List.filter_map
        (fun nd ->
          if List.for_all (fun c -> consumers c = [] && not (is_fb c)) nd.nouts
          then
            Some
              {
                net with
                nodes = List.filter (fun x -> x.nname <> nd.nname) net.nodes;
              }
          else None)
        net.nodes
  in
  let bypass =
    List.filter_map
      (fun nd ->
        match (nd.nins, nd.nouts) with
        | [ a ], [ b ] when not (is_fb a) && not (is_fb b) ->
          let rewire x =
            {
              x with
              nins = List.map (fun c -> if String.equal c b then a else c) x.nins;
            }
          in
          Some
            {
              net with
              nodes =
                List.filter_map
                  (fun x ->
                    if x.nname = nd.nname then None else Some (rewire x))
                  net.nodes;
            }
        | _ -> None)
      net.nodes
  in
  let cut_input =
    List.concat_map
      (fun nd ->
        let data_ins = List.filter (fun c -> not (is_fb c)) nd.nins in
        if List.length data_ins < 2 then []
        else
          List.map
            (fun victim ->
              let nd' =
                {
                  nd with
                  nins =
                    (let dropped = ref false in
                     List.filter
                       (fun c ->
                         if String.equal c victim && not !dropped then begin
                           dropped := true;
                           false
                         end
                         else true)
                       nd.nins);
                }
              in
              {
                net with
                nodes =
                  List.map (fun x -> if x.nname = nd.nname then nd' else x)
                    net.nodes;
              })
            data_ins)
      net.nodes
  in
  let drop_fb =
    List.map
      (fun (c, _) ->
        let strip x =
          {
            x with
            nins = List.filter (fun i -> not (String.equal i c)) x.nins;
            nouts = List.filter (fun o -> not (String.equal o c)) x.nouts;
          }
        in
        {
          net with
          nodes = List.map strip net.nodes;
          feedback = List.remove_assoc c net.feedback;
        })
      net.feedback
  in
  let halve =
    if net.ntokens > 1 then [ { net with ntokens = net.ntokens / 2 } ] else []
  in
  drop_terminal @ bypass @ cut_input @ drop_fb @ halve

(** Greedy structural reduction: keep applying the first candidate that
    still satisfies [pred] until none does or [budget] predicate calls
    are spent. *)
let shrink_net ?(budget = 400) ~(pred : net -> bool) (net : net) : net =
  let tries = ref 0 in
  let rec loop cur =
    if !tries >= budget then cur
    else
      let next =
        List.find_opt
          (fun c -> !tries < budget && (incr tries; pred c))
          (shrink_candidates cur)
      in
      match next with Some c -> loop c | None -> cur
  in
  loop net

(* ------------------------------------------------------------------ *)
(* Features + coverage-guided campaign                                 *)
(* ------------------------------------------------------------------ *)

(** Feature ids for {!Cover}: structural net shape (degree profile,
    token/capacity buckets, feedback) plus executed kernel blocks from
    the reference run's profile. *)
let features (net : net) (prof : Pvvm.Profile.t option) : int list =
  let structural =
    [ "procs"; string_of_int (min 12 (List.length net.nodes / 2)) ]
    :: [ "tokens"; string_of_int net.ntokens ]
    :: [ "cap"; string_of_int net.ncapacity ]
    :: [ "fb"; string_of_bool (net.feedback <> []) ]
    :: List.concat_map
         (fun nd ->
           [
             [ "deg"; string_of_int (List.length nd.nins);
               string_of_int (List.length nd.nouts) ];
             [ "fn"; nd.nfun; string_of_int (List.length nd.nins) ];
           ])
         net.nodes
  in
  let blocks =
    match prof with
    | None -> []
    | Some p ->
      Hashtbl.fold
        (fun (fname, label) _ acc ->
          [ "blk"; fname; string_of_int label ] :: acc)
        p.Pvvm.Profile.block_visits []
  in
  List.map Cover.feature (structural @ blocks)

type kfinding = {
  kcase : int;
  kconfig : config;
  kpath : string;
  kwhat : string;
  kdetail : string;
  knet : net;
  kshrunk : net option;
}

type campaign_stats = {
  cs_cases : int;  (** cases actually executed *)
  cs_features : int;  (** distinct features discovered *)
  cs_corpus : int;  (** configs retained in the seed corpus *)
}

let clamp lo hi x = max lo (min hi x)

let draw r = Int64.to_int (Int64.logand (R.next_int64 r) 0x3FFFFFFFFFFFFFFFL)

(** Fresh configs sample a deliberately narrow envelope (fan-in <= 2);
    richer shapes are only reachable by corpus mutation, which is what
    makes coverage guidance measurably better than uniform sampling. *)
let fresh_config r =
  {
    cprocs = 2 + R.rand_int r 8;
    ctokens = 1 + R.rand_int r 3;
    cfanin = 1 + R.rand_int r 2;
    cfanout = 20 + R.rand_int r 40;
    cfeedback = R.rand_int r 30;
    ccapacity = 1 + R.rand_int r 4;
    cnet_seed = draw r;
  }

(** Perturb one field of a corpus config (always with a fresh topology
    seed, so a mutant explores a new net, not the same one again). *)
let mutate_config r cfg =
  let cfg = { cfg with cnet_seed = draw r } in
  match R.rand_int r 6 with
  | 0 -> { cfg with cprocs = clamp 1 24 (cfg.cprocs + R.rand_int r 5 - 2) }
  | 1 -> { cfg with ctokens = clamp 1 6 (cfg.ctokens + R.rand_int r 3 - 1) }
  | 2 -> { cfg with cfanin = clamp 1 4 (cfg.cfanin + R.rand_int r 3 - 1) }
  | 3 -> { cfg with cfanout = clamp 0 100 (cfg.cfanout + R.rand_int r 31 - 15) }
  | 4 -> { cfg with cfeedback = clamp 0 60 (cfg.cfeedback + R.rand_int r 21 - 10) }
  | _ -> { cfg with ccapacity = clamp 1 6 (cfg.ccapacity + R.rand_int r 3 - 1) }

(** Fuzz campaign over generated networks.  One kernel pool is generated
    per campaign (so the AOT plugin compiles once) and shared by every
    case; each case draws or mutates a {!config}, generates a net, runs
    the full oracle, and feeds the feature map.  With [guided] (the
    default) 70% of cases after the first corpus hit mutate a stored
    config; [guided:false] is the uniform-sampling baseline the
    planted-bug comparison measures against.  Everything replays from
    [(seed, case)].  *)
let campaign ?(guided = true) ?chaos ?(engines = Pvvm.Vm.engines)
    ?(policies = Sched.all_policies) ?(shrink = false) ?(max_findings = 1)
    ?(fn_count = 6)
    ?(on_progress = fun (_ : Harness.progress) -> ()) ~seed ~count () :
    kfinding list * campaign_stats =
  let r = R.rng seed in
  let fn_seed = draw r in
  let fn_prog, fn_pool = Gen.node_program ~seed:fn_seed ~count:fn_count in
  let cover = Cover.create () in
  let corpus = ref [] in
  let corpus_n = ref 0 in
  let findings = ref [] in
  let case = ref 0 in
  while !case < count && List.length !findings < max_findings do
    let cfg =
      if guided && !corpus_n > 0 && R.rand_int r 100 < 70 then
        mutate_config r (List.nth !corpus (R.rand_int r !corpus_n))
      else fresh_config r
    in
    let net = generate ~fn_pool cfg in
    let profile = Pvvm.Profile.create () in
    let ms = check ~engines ~policies ?chaos ~profile ~prog:fn_prog net in
    let news = Cover.note_all cover (features net (Some profile)) in
    if news > 0 then begin
      corpus := cfg :: !corpus;
      incr corpus_n
    end;
    (match ms with
    | [] ->
      on_progress (Harness.Case_ok !case)
    | (m : Oracle.mismatch) :: _ ->
      let kshrunk =
        if shrink then begin
          let pred q =
            List.exists
              (fun (m' : Oracle.mismatch) ->
                String.equal m'.Oracle.what m.Oracle.what)
              (check ~engines ~policies ?chaos ~prog:fn_prog q)
          in
          if pred net then Some (shrink_net ~pred net) else None
        end
        else None
      in
      let f =
        {
          kcase = !case;
          kconfig = cfg;
          kpath = m.Oracle.path;
          kwhat = m.Oracle.what;
          kdetail = m.Oracle.detail;
          knet = net;
          kshrunk;
        }
      in
      findings := !findings @ [ f ];
      on_progress
        (Harness.Case_failed
           {
             Harness.case = !case;
             gen_seed = cfg.cnet_seed;
             stage = m.Oracle.path;
             what = m.Oracle.what;
             detail = m.Oracle.detail;
             prog = fn_prog;
             shrunk = None;
           }));
    incr case
  done;
  ( !findings,
    {
      cs_cases = !case;
      cs_features = Cover.count cover;
      cs_corpus = !corpus_n;
    } )
