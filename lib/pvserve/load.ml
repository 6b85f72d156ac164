(** Deterministic load generator: a simulated fleet of heterogeneous
    devices hammering the split-compilation service.

    The request population is the cross product of a program corpus
    (Table-1 + extra kernels through the offline Split pipeline, plus
    {!Pvcheck.Gen} random programs) and a set of machine descriptors.
    Millions of users induce a heavy-tailed popularity distribution over
    that population, modelled as Zipf(s): the rank-r item is requested
    with probability proportional to [1/r^s].  Rank is decoupled from
    corpus order by a seeded shuffle so popularity does not accidentally
    correlate with program size.

    Everything is driven by a splitmix64 stream from [spec.seed], so a
    run is reproducible bit-for-bit — which is what lets the oracle
    demand byte-identical artifacts.

    The oracle (on by default): every served artifact for a key must be
    byte-identical to (a) every other reply for that key and (b) a fresh
    single-threaded compile of the same request on the coordinating
    domain.  Tracing happens here, on the coordinator, never in the
    workers ({!Pvtrace.Trace} is not domain-safe): one span per
    submission window plus running hit-rate counter samples. *)

type spec = {
  requests : int;
  workers : int;
  zipf : float;  (** popularity exponent [s]; 0 = uniform *)
  seed : int;
  queue_capacity : int;
  cache_budget : int;  (** artifact-cache byte budget *)
  machines : Pvmach.Machine.t list;
  gen_seeds : int list;  (** extra corpus from {!Pvcheck.Gen.program} *)
  window : int;  (** requests submitted before draining replies *)
  oracle : bool;
}

let default_spec =
  {
    requests = 10_000;
    workers = 4;
    zipf = 1.0;
    seed = 42;
    queue_capacity = 256;
    cache_budget = 1 lsl 22;
    machines = Pvmach.Machine.all;
    gen_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    window = 64;
    oracle = true;
  }

type report = {
  r_requests : int;
  r_population : int;  (** corpus x machines *)
  r_unique_keys : int;  (** distinct keys actually requested *)
  r_hits : int;
  r_compiled : int;
  r_coalesced : int;
  r_compiles : int;  (** worker compiles (= unique keys when nothing evicts) *)
  r_evictions : int;
  r_errors : int;
  r_hit_rate : float;  (** hits / requests *)
  r_oracle_mismatches : int;
  r_wall_s : float;
  r_throughput_rps : float;
}

(* ---------------- deterministic randomness ---------------- *)

let splitmix64 (st : int64 ref) : int64 =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0,1): top 53 bits over 2^53 *)
let uniform st =
  Int64.to_float (Int64.shift_right_logical (splitmix64 st) 11)
  /. 9007199254740992.0

let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Int64.to_int (Int64.rem (splitmix64 st) (Int64.of_int (i + 1))) in
    let j = abs j in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* ---------------- corpus ---------------- *)

(** Build the program corpus as distribution bytecode: every kernel and
    every generated program runs through the offline Split optimizer (so
    requests carry real annotation sets) and {!Core.Splitc.distribute}.
    Generated programs the pipeline rejects are skipped — the corpus
    must be whatever survives the real offline path. *)
let corpus ~gen_seeds () : (string * string) list =
  let kernels =
    List.map
      (fun (k : Pvkernels.Kernels.t) ->
        let p =
          Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
            k.Pvkernels.Kernels.source
        in
        ( k.Pvkernels.Kernels.name,
          Core.Splitc.distribute (Core.Splitc.offline ~mode:Core.Splitc.Split p)
        ))
      Pvkernels.Kernels.all
  in
  let generated =
    List.filter_map
      (fun seed ->
        match
          let p = Pvcheck.Gen.program ~seed in
          Core.Splitc.distribute (Core.Splitc.offline ~mode:Core.Splitc.Split p)
        with
        | bc -> Some (Printf.sprintf "gen-%d" seed, bc)
        | exception _ -> None)
      gen_seeds
  in
  kernels @ generated

(* ---------------- zipf popularity ---------------- *)

(* Cumulative weights over [n] ranks; sample by binary search. *)
let zipf_cumulative ~s n =
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
    cum.(r) <- !total
  done;
  cum

let sample_rank cum st =
  let n = Array.length cum in
  let u = uniform st *. cum.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------------- the run ---------------- *)

type item = {
  i_name : string;
  i_bytecode : string;
  i_machine : Pvmach.Machine.t;
  i_key : string;
}

let run ?tr ?(metrics = Pvtrace.Metrics.create ()) ?ledger (spec : spec) :
    report =
  if spec.requests <= 0 then invalid_arg "Load.run: requests must be positive";
  if spec.machines = [] then invalid_arg "Load.run: no machines";
  let progs = corpus ~gen_seeds:spec.gen_seeds () in
  let population =
    Array.of_list
      (List.concat_map
         (fun (name, bc) ->
           List.map
             (fun m ->
               let key =
                 match Pvir.Serial.decode_result bc with
                 | Ok p -> Key.to_string (Key.of_program ~machine:m p)
                 | Error _ -> assert false (* we just encoded it *)
               in
               {
                 i_name = name;
                 i_bytecode = bc;
                 i_machine = m;
                 i_key = key;
               })
             spec.machines)
         progs)
  in
  let st = ref (Int64.of_int spec.seed) in
  shuffle st population;
  let cum = zipf_cumulative ~s:spec.zipf (Array.length population) in
  let svc =
    Service.create ?ledger ~metrics ~queue_capacity:spec.queue_capacity
      ~cache_budget:spec.cache_budget ~workers:spec.workers ()
  in
  (* first Ok artifact seen per key; later replies must match it *)
  let first_artifact : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let requested : (string, item) Hashtbl.t = Hashtbl.create 64 in
  let hits = ref 0
  and compiled = ref 0
  and coalesced = ref 0
  and errors = ref 0
  and mismatches = ref 0 in
  let serve_reply (it : item) (r : Service.reply) =
    (match r.Service.origin with
    | Service.Hit -> incr hits
    | Service.Compiled -> incr compiled
    | Service.Coalesced -> incr coalesced);
    match r.Service.outcome with
    | Error _ -> incr errors
    | Ok artifact -> (
      match Hashtbl.find_opt first_artifact it.i_key with
      | None -> Hashtbl.replace first_artifact it.i_key artifact
      | Some a0 -> if not (String.equal a0 artifact) then incr mismatches)
  in
  let t0 = Monotonic_clock.now () in
  let submitted = ref 0 in
  let wi = ref 0 in
  while !submitted < spec.requests do
    let n = min spec.window (spec.requests - !submitted) in
    incr wi;
    Pvtrace.Trace.with_span tr ~cat:"load"
      ~args:[ ("requests", string_of_int n) ]
      (Printf.sprintf "window:%d" !wi)
      (fun () ->
        let batch =
          List.init n (fun _ ->
              let it = population.(sample_rank cum st) in
              Hashtbl.replace requested it.i_key it;
              ( it,
                Service.submit svc
                  {
                    Service.bytecode = it.i_bytecode;
                    Service.machine = it.i_machine;
                  } ))
        in
        List.iter (fun (it, tk) -> serve_reply it (Service.await tk)) batch);
    submitted := !submitted + n;
    Option.iter
      (fun tr ->
        (* counter values are int64; scale the rate to basis points *)
        Pvtrace.Trace.counter tr ~cat:"load" "hit-rate"
          [ ("hit_bp", Int64.of_int (10_000 * !hits / !submitted)) ])
      tr
  done;
  Service.shutdown svc;
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  (* oracle second half: fresh single-threaded compiles must reproduce
     every served artifact byte-for-byte *)
  if spec.oracle then
    Hashtbl.iter
      (fun key (it : item) ->
        match
          ( Hashtbl.find_opt first_artifact key,
            Service.compile_artifact ~machine:it.i_machine it.i_bytecode )
        with
        | Some served, Ok fresh ->
          if not (String.equal served fresh) then incr mismatches
        | Some _, Error _ -> incr mismatches
        | None, _ -> ()  (* every reply for this key errored *))
      requested;
  let cs = Service.cache_stats svc in
  let requests = spec.requests in
  {
    r_requests = requests;
    r_population = Array.length population;
    r_unique_keys = Hashtbl.length requested;
    r_hits = !hits;
    r_compiled = !compiled;
    r_coalesced = !coalesced;
    r_compiles = Service.compile_count svc;
    r_evictions = cs.Cache.s_evictions;
    r_errors = !errors;
    r_hit_rate = float_of_int !hits /. float_of_int requests;
    r_oracle_mismatches = !mismatches;
    r_wall_s = wall;
    r_throughput_rps = float_of_int requests /. wall;
  }

let report_to_string r =
  Printf.sprintf
    "requests=%d population=%d unique-keys=%d hits=%d compiled=%d \
     coalesced=%d compiles=%d evictions=%d errors=%d hit-rate=%.4f \
     oracle-mismatches=%d wall=%.3fs throughput=%.0f req/s"
    r.r_requests r.r_population r.r_unique_keys r.r_hits r.r_compiled
    r.r_coalesced r.r_compiles r.r_evictions r.r_errors r.r_hit_rate
    r.r_oracle_mismatches r.r_wall_s r.r_throughput_rps
