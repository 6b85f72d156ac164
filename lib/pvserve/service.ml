(** The split-compilation service: a pool of {!Domain} JIT workers behind
    a bounded request queue, fronted by the content-addressed artifact
    cache with in-flight deduplication.

    A request carries distribution bytecode (what a device would upload)
    plus the machine descriptor to compile for.  A worker decodes it,
    derives the {!Key.t}, and then takes exactly one of three paths:

    - {b hit} — the artifact is in the cache; reply immediately;
    - {b miss, first} — mark the key in-flight, compile {e outside} the
      service lock, insert, reply, and wake every waiter that piled up
      behind the same key meanwhile;
    - {b miss, coalesced} — the key is already in flight; park the ticket
      on the in-flight waiter list and move on to the next job.  N
      concurrent misses on one key therefore cost exactly one compile.

    Locking protocol (acyclic, in acquisition order): the queue lock
    covers only the job queue; [smu] covers the cache-lookup/in-flight
    decision (and may take the cache's internal lock below it); the
    compile itself runs lock-free.  Replies are fulfilled through a
    per-ticket mutex+condvar, so callers block only on their own ticket.

    The per-process trace ({!Pvtrace.Trace}) is {e not} domain-safe and
    is deliberately absent here: tracing of a load run happens on the
    coordinating domain only (see {!Load}). *)

type request = {
  bytecode : string;  (** distribution-format bytecode, untrusted *)
  machine : Pvmach.Machine.t;
}

type origin =
  | Hit  (** served from cache *)
  | Compiled  (** this request triggered the compile *)
  | Coalesced  (** waited on another request's in-flight compile *)

let origin_name = function
  | Hit -> "hit"
  | Compiled -> "compiled"
  | Coalesced -> "coalesced"

type reply = {
  outcome : (string, string) result;  (** artifact text, or error *)
  origin : origin;
}

type ticket = {
  req : request;
  tmu : Mutex.t;
  tcv : Condition.t;
  mutable treply : reply option;
}

type job = Job of ticket | Quit

type t = {
  cache : Cache.t;
  metrics : Pvtrace.Metrics.t;
  ledger : Pvtrace.Ledger.t option;
  (* bounded job queue *)
  queue : job Queue.t;
  capacity : int;
  qmu : Mutex.t;
  qnonempty : Condition.t;
  qnonfull : Condition.t;
  (* cache-lookup / in-flight decision *)
  smu : Mutex.t;
  inflight : (string, ticket list ref) Hashtbl.t;
  compiles : int Atomic.t;  (** exact compile count, asserted by tests *)
  mutable workers : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Compilation proper (pure w.r.t. service state)                      *)

(* Deterministic text rendering of a compile result: header, key, then
   every function's MIR sorted by name.  Byte-equality of two artifacts
   is the service's correctness oracle, so nothing non-deterministic
   (timestamps, hash order) may leak in here. *)
let render_artifact ~(machine : Pvmach.Machine.t) (key : string)
    (compiled : (Pvmach.Mir.func * Pvjit.Jit.func_report) list) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "pvserve-artifact v1\nmachine %s\nkey %s\n"
    machine.Pvmach.Machine.name key;
  let funcs =
    List.sort
      (fun (_, (a : Pvjit.Jit.func_report)) (_, b) ->
        String.compare a.Pvjit.Jit.fname b.Pvjit.Jit.fname)
      compiled
  in
  Printf.bprintf buf "funcs %d\n" (List.length funcs);
  List.iter
    (fun (mf, (fr : Pvjit.Jit.func_report)) ->
      Printf.bprintf buf "func %s spills=%d/%d annots=%s mir=%d\n"
        fr.Pvjit.Jit.fname fr.Pvjit.Jit.ra.Pvjit.Regalloc.spilled_regs
        fr.Pvjit.Jit.ra.Pvjit.Regalloc.spill_instrs
        (Pvjit.Annot_check.status_name fr.Pvjit.Jit.annot_status)
        fr.Pvjit.Jit.mir_size;
      Buffer.add_string buf (Pvmach.Mir.func_to_string mf))
    funcs;
  Buffer.contents buf

let decode bytecode =
  Result.map_error
    (fun c -> "decode: " ^ Pvir.Serial.corruption_to_string c)
    (Pvir.Serial.decode_result bytecode)

(** JIT-compile a decoded request for [machine] and render its artifact
    under [key] (the flat {!Key.to_string}): the work a cache miss pays.
    The JIT needs only the program's layout, that is, where its globals
    live, so no VM memory or simulator is built.  {!Pvvm.Image.layout}
    also verifies the untrusted program before any of it reaches the
    JIT. *)
let compile ~(machine : Pvmach.Machine.t) (key : string) (prog : Pvir.Prog.t)
    : (string, string) result =
  match
    let layout = Pvvm.Image.layout prog in
    List.map
      (Pvjit.Jit.compile_func ~machine
         ~resolve_global:(Pvvm.Image.address layout)
         ~hints:Pvjit.Jit.Hints_annotation)
      prog.Pvir.Prog.funcs
  with
  | compiled -> Ok (render_artifact ~machine key compiled)
  | exception e -> Error ("compile: " ^ Printexc.to_string e)

(** Decode and compile [bytecode] for [machine].  Also the
    single-threaded oracle: the load generator recompiles served keys
    through this very function and demands byte-identical artifacts. *)
let compile_artifact ~(machine : Pvmach.Machine.t) (bytecode : string) :
    (string, string) result =
  Result.bind (decode bytecode) (fun prog ->
      compile ~machine (Key.to_string (Key.of_program ~machine prog)) prog)

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)

let fulfill (tk : ticket) (r : reply) =
  Mutex.lock tk.tmu;
  tk.treply <- Some r;
  Condition.broadcast tk.tcv;
  Mutex.unlock tk.tmu

(** Block until the ticket's request has been answered. *)
let await (tk : ticket) : reply =
  Mutex.lock tk.tmu;
  let rec wait () =
    match tk.treply with
    | Some r ->
      Mutex.unlock tk.tmu;
      r
    | None ->
      Condition.wait tk.tcv tk.tmu;
      wait ()
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)

let protect mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let reply_metrics t (r : reply) =
  Pvtrace.Metrics.inc1 t.metrics ("serve." ^ origin_name r.origin);
  match r.outcome with
  | Ok _ -> ()
  | Error _ -> Pvtrace.Metrics.inc1 t.metrics "serve.errors"

let serve_job t (tk : ticket) =
  let machine = tk.req.machine in
  (* Derive the key outside any lock: decoding is per-request work. *)
  match decode tk.req.bytecode with
  | Error _ as outcome ->
    let r = { outcome; origin = Compiled } in
    reply_metrics t r;
    fulfill tk r
  | Ok prog -> (
    let key = Key.to_string (Key.of_program ~machine prog) in
    (* One critical section decides hit / first-miss / coalesce, so two
       concurrent misses on one key can never both elect to compile. *)
    let decision =
      protect t.smu (fun () ->
          match Cache.find t.cache key with
          | Some artifact -> `Hit artifact
          | None -> (
            match Hashtbl.find_opt t.inflight key with
            | Some waiters ->
              waiters := tk :: !waiters;
              `Parked
            | None ->
              Hashtbl.replace t.inflight key (ref []);
              `Compile))
    in
    match decision with
    | `Hit artifact ->
      let r = { outcome = Ok artifact; origin = Hit } in
      reply_metrics t r;
      fulfill tk r
    | `Parked -> ()  (* the compiling worker will fulfill this ticket *)
    | `Compile ->
      let t0 = Monotonic_clock.now () in
      let outcome = compile ~machine key prog in
      Atomic.incr t.compiles;
      Pvtrace.Metrics.inc1 t.metrics "serve.compiles";
      Pvtrace.Metrics.observe t.metrics "serve.compile_us"
        (Int64.div (Int64.sub (Monotonic_clock.now ()) t0) 1000L);
      (* Publish before unparking: insert on success, then claim the
         waiter list and drop the in-flight mark in the same critical
         section that decided it. *)
      let waiters =
        protect t.smu (fun () ->
            (match outcome with
            | Ok artifact -> Cache.insert t.cache key artifact
            | Error _ -> ());
            let ws =
              match Hashtbl.find_opt t.inflight key with
              | Some ws -> !ws
              | None -> []
            in
            Hashtbl.remove t.inflight key;
            ws)
      in
      let self = { outcome; origin = Compiled } in
      reply_metrics t self;
      fulfill tk self;
      List.iter
        (fun w ->
          let r = { outcome; origin = Coalesced } in
          reply_metrics t r;
          fulfill w r)
        (List.rev waiters);
      let cs = Cache.stats t.cache in
      Pvtrace.Metrics.seti t.metrics "serve.cache_bytes" cs.Cache.s_bytes;
      Pvtrace.Metrics.seti t.metrics "serve.evictions"
        cs.Cache.s_evictions)

let worker_loop t () =
  let rec next () =
    let job =
      protect t.qmu (fun () ->
          while Queue.is_empty t.queue do
            Condition.wait t.qnonempty t.qmu
          done;
          let j = Queue.pop t.queue in
          Condition.signal t.qnonfull;
          j)
    in
    match job with
    | Quit -> ()
    | Job tk ->
      (* A worker must never die: any escape would strand its ticket and
         every future job.  Unexpected exceptions become error replies. *)
      (try serve_job t tk
       with e ->
         fulfill tk
           { outcome = Error ("worker: " ^ Printexc.to_string e);
             origin = Compiled });
      next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?ledger ?(metrics = Pvtrace.Metrics.create ())
    ?(queue_capacity = 256) ?(cache_budget = 1 lsl 20) ~workers () : t =
  if workers <= 0 then invalid_arg "Service.create: workers must be positive";
  if queue_capacity <= 0 then
    invalid_arg "Service.create: queue_capacity must be positive";
  let t =
    {
      cache = Cache.create ?ledger ~budget_bytes:cache_budget ();
      metrics;
      ledger;
      queue = Queue.create ();
      capacity = queue_capacity;
      qmu = Mutex.create ();
      qnonempty = Condition.create ();
      qnonfull = Condition.create ();
      smu = Mutex.create ();
      inflight = Hashtbl.create 32;
      compiles = Atomic.make 0;
      workers = [];
    }
  in
  t.workers <-
    List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t

let push_job t job =
  protect t.qmu (fun () ->
      while Queue.length t.queue >= t.capacity do
        Condition.wait t.qnonfull t.qmu
      done;
      Queue.push job t.queue;
      Condition.signal t.qnonempty)

(** Enqueue a request; blocks while the queue is at capacity
    (backpressure toward the fleet).  The returned ticket is fulfilled
    by a worker; {!await} it. *)
let submit t (req : request) : ticket =
  let tk =
    { req; tmu = Mutex.create (); tcv = Condition.create (); treply = None }
  in
  Pvtrace.Metrics.inc1 t.metrics "serve.requests";
  push_job t (Job tk);
  tk

(** Drain-and-join: workers finish every queued job, then exit. *)
let shutdown t =
  List.iter (fun _ -> push_job t Quit) t.workers;
  List.iter Domain.join t.workers;
  t.workers <- []

let metrics t = t.metrics
let cache_stats t = Cache.stats t.cache
let compile_count t = Atomic.get t.compiles
