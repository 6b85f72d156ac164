(** Heterogeneous mapping of process networks onto multicore platforms.

    Implements the paper's §3 scenario: "the JIT compiler for an IBM Cell
    processor could process the same code and decide to offload some of the
    numerical computations to a vector accelerator (SPU), running the
    control-oriented code on the PowerPC core."  Because the final code
    generation happens at run time, the mapper knows the actual platform;
    because the bytecode carries {!Pvir.Annot.key_hw_prefs} annotations, it
    knows what each kernel wants.

    The makespan simulation is a simple list schedule over the KPN firing
    trace: a firing starts when its core is free and all its input tokens
    have arrived (plus an inter-core transfer latency when producer and
    consumer sit on different cores). *)

type core = {
  cname : string;
  machine : Pvmach.Machine.t;
}

type platform = {
  cores : core list;
  transfer_cost : int;  (** cycles to move one token between cores *)
}

(** Per-(process, core) firing cost in cycles.  Typically obtained by
    JIT-compiling the process kernel for each core's machine and measuring
    (or statically estimating) it — see the offload example. *)
type cost_model = Kpn.process -> core -> int

type placement = (string * core) list  (** process name -> core *)

(** [core_of pl] indexes [pl] once (the first binding of a name wins, as
    with [List.assoc]) and returns the process -> core lookup; apply it
    to [pl] once and reuse the result.
    @raise Invalid_argument for an unplaced process. *)
let core_of (pl : placement) : Kpn.process -> core =
  let idx = Hashtbl.create (List.length pl) in
  List.iter
    (fun (name, c) -> if not (Hashtbl.mem idx name) then Hashtbl.add idx name c)
    pl;
  fun p ->
    match Hashtbl.find_opt idx p.Kpn.pname with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Mapper.core_of: %s unplaced" p.Kpn.pname)

(** [core_slot cores] maps a core to its index in [cores]: the first
    core of that name.  Per-core state lives in arrays over these
    indices.  Apply it to [cores] once and reuse the result: the cores of
    [cores] themselves resolve without hashing their names.
    @raise Invalid_argument for a core that is not in [cores]. *)
let core_slot (cores : core array) : core -> int =
  let idx = Hashtbl.create 8 in
  Array.iteri
    (fun i c -> if not (Hashtbl.mem idx c.cname) then Hashtbl.add idx c.cname i)
    cores;
  let by_name name =
    match Hashtbl.find_opt idx name with
    | Some i -> i
    | None ->
      invalid_arg (Printf.sprintf "Mapper: core %s is not on the platform" name)
  in
  let own = Array.map (fun c -> by_name c.cname) cores in
  fun c ->
    let i = ref 0 in
    while !i < Array.length cores && cores.(!i) != c do
      incr i
    done;
    if !i < Array.length cores then own.(!i) else by_name c.cname

(* Greedy list placement shared by [place_indices] and [remap]: the
   processes of [procs] heaviest first (declaration order on ties), each
   to the core of [cores] with the least [load + cost], then the
   greatest [bonus p core] (the first such core on ties), whose [load]
   then grows by the firing cost.  [load] is indexed by core slot;
   [bonus p] is applied once per process.  Returns the placing order
   (process indices) and each process's own choice (an index into
   [cores]). *)
let greedy (cost : cost_model) (cores : core array) (load : int array)
    (bonus : Kpn.process -> core -> int) (procs : Kpn.process array) :
    int array * int array =
  let slots = Array.map (core_slot cores) cores in
  let order = Array.init (Array.length procs) Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare procs.(b).Kpn.work procs.(a).Kpn.work)
    order;
  let choice = Array.make (Array.length procs) 0 in
  Array.iter
    (fun i ->
      let p = procs.(i) in
      let bonus_p = bonus p in
      let best = ref 0
      and best_load = ref (load.(slots.(0)) + cost p cores.(0))
      and best_bonus = ref (bonus_p cores.(0)) in
      for c = 1 to Array.length cores - 1 do
        let l = load.(slots.(c)) + cost p cores.(c) in
        let b = bonus_p cores.(c) in
        if l < !best_load || (l = !best_load && b > !best_bonus) then begin
          best := c;
          best_load := l;
          best_bonus := b
        end
      done;
      load.(slots.(!best)) <- load.(slots.(!best)) + cost p cores.(!best);
      choice.(i) <- !best)
    order;
  (order, choice)

(* [greedy]'s choices under the duplicate-name rule: every process
   takes the choice made for the first process of its group ([first],
   as {!Kpn.first_by_name} groups) in placing [order]. *)
let by_first ~(first : int array) (order : int array) (choice : int array) :
    int array =
  let chosen = Array.make (Array.length first) (-1) in
  Array.iter
    (fun i ->
      let g = first.(i) in
      if chosen.(g) < 0 then chosen.(g) <- choice.(i))
    order;
  Array.map (fun g -> chosen.(g)) first

let rec met machine = function
  | [] -> 0
  | cap :: caps ->
    (if Pvmach.Machine.has_cap machine cap then 1 else 0) + met machine caps

(* hardware preferences met: {!place}'s tie-breaker after load + cost *)
let prefs_met (p : Kpn.process) =
  let prefs =
    match Pvir.Annot.find_list Pvir.Annot.key_hw_prefs p.Kpn.annots with
    | Some l ->
      List.filter_map
        (function Pvir.Annot.Str s -> Pvmach.Capability.of_string s | _ -> None)
        l
    | None -> []
  in
  fun c -> met c.machine prefs

(** [place_indices platform cost ~first procs] is {!place} by process
    index: per process of [procs], the index in [platform.cores] of its
    core.  [first] groups the processes by name, as
    {!Kpn.first_by_name} does; every process of a name takes the core
    chosen for the one of that name placed first.  It looks up no
    name. *)
let place_indices (platform : platform) (cost : cost_model)
    ~(first : int array) (procs : Kpn.process array) : int array =
  if platform.cores = [] then invalid_arg "Mapper.place: empty platform";
  let cores = Array.of_list platform.cores in
  let order, choice =
    greedy cost cores (Array.make (Array.length cores) 0) prefs_met procs
  in
  by_first ~first order choice

(** Greedy annotation- and load-aware placement.  Processes are placed
    heaviest-first; each goes to the core minimizing
    [accumulated load + firing cost], with hardware-preference
    satisfaction breaking ties.  The load term spreads parallel numeric
    stages across multiple accelerators instead of piling them onto the
    single cheapest core.  Processes that share a name share the core
    chosen for the first of them placed. *)
let place (platform : platform) (cost : cost_model) (ps : Kpn.process list) :
    placement =
  let procs = Array.of_list ps in
  let at =
    place_indices platform cost ~first:(Kpn.first_by_name procs) procs
  in
  let cores = Array.of_list platform.cores in
  (* in the caller's process order *)
  List.mapi (fun i (p : Kpn.process) -> (p.Kpn.pname, cores.(at.(i)))) ps

(** Place everything on a single core (the baseline the paper's scenario
    contrasts against: third-party code confined to the host). *)
let place_all_on (c : core) (ps : Kpn.process list) : placement =
  List.map (fun (p : Kpn.process) -> (p.Kpn.pname, c)) ps

(** One scheduled firing: what ran where, and when.  The list of these is
    the ground truth both for the makespan numbers and for the execution
    timeline exported to the trace viewer. *)
type sched_event = {
  se_proc : string;
  se_firing : int;  (** per-process firing index *)
  se_core : string;
  se_start : int64;
  se_end : int64;
  se_remapped : bool;
      (** this firing ran on a core other than its original placement
          (accelerator-failure recovery) *)
  se_migrated : bool;
      (** this span is half of a live migration: either the truncated
          span on the dying core or the resumed remainder on the
          survivor (both carry the same firing index) *)
}

let makespan_of_events (evs : sched_event list) : int64 =
  List.fold_left
    (fun acc e -> if Int64.compare e.se_end acc > 0 then e.se_end else acc)
    0L evs

(** Where one firing runs: the per-firing decision {!list_schedule} asks
    for. *)
type decision =
  | Run of core * bool
      (** the whole firing on this core; [true] when that is not the
          process's original placement *)
  | Split of { dying : core; survivor : core; at : int64; overhead : int }
      (** caught mid-execution by [dying]'s failure at cycle [at]:
          checkpointed there, then resumed on [survivor] after
          [overhead] cycles *)

(** The firing-time rule of both list schedulers, {!list_schedule} and
    [Sched.execute]:
    - a firing starts when its core is free and its last input token has
      arrived;
    - a token produced on another core arrives [transfer_cost] cycles
      later;
    - a firing's output tokens arrive at its end cycle, from its core.

    Cores are slots, [0 .. ncores - 1].  Per channel of the view, each
    token not yet consumed has an arrival: two ints in one FIFO, the
    cycle and the slot of the core that produced it.  Tokens already
    queued are external: they arrive at cycle 0 from slot -1, so on
    every core at once. *)
type timing = {
  transfer : int;
  arrivals : Intq.t array;  (** per channel *)
  free : int array;  (** per core slot: the cycle it is next free *)
  arrived : int array;  (** the taken inputs' arrival cycles… *)
  source : int array;  (** …and producing slots *)
  mutable n_taken : int;
}

let timing (platform : platform) (v : Kpn.view) : timing =
  let max_ins =
    Array.fold_left (fun m a -> Int.max m (Array.length a)) 0 v.Kpn.ins
  in
  {
    transfer = platform.transfer_cost;
    arrivals =
      Array.map
        (fun q ->
          let a = Intq.create () in
          for _ = 1 to Queue.length q do
            Intq.push a 0;
            Intq.push a (-1)
          done;
          a)
        v.Kpn.queues;
    free = Array.make (List.length platform.cores) 0;
    arrived = Array.make max_ins 0;
    source = Array.make max_ins (-1);
    n_taken = 0;
  }

(** Take the arrival of one token from each channel of [ins], the inputs
    of the firing about to be scheduled. *)
let take_inputs tm (ins : int array) =
  for k = 0 to Array.length ins - 1 do
    let a = tm.arrivals.(ins.(k)) in
    tm.arrived.(k) <- Intq.pop a;
    tm.source.(k) <- Intq.pop a
  done;
  tm.n_taken <- Array.length ins

(** The cycle the firing whose inputs were just taken could start on
    core slot [s]. *)
let earliest_start tm s =
  let start = ref tm.free.(s) in
  for k = 0 to tm.n_taken - 1 do
    let t =
      if tm.source.(k) < 0 || tm.source.(k) = s then tm.arrived.(k)
      else tm.arrived.(k) + tm.transfer
    in
    if t > !start then start := t
  done;
  !start

(** Core slot [s] is busy until cycle [until]. *)
let occupy tm s until = tm.free.(s) <- until

(** One token on channel [ch] arrives at cycle [at], produced on core
    slot [s]. *)
let arrive tm ch ~at s =
  let a = tm.arrivals.(ch) in
  Intq.push a at;
  Intq.push a s

(** The firing ran on core slot [s] until [t_end]: the core is free from
    then on, and one token on each channel of [outs] arrives then. *)
let finish tm s t_end (outs : int array) =
  occupy tm s t_end;
  Array.iter (fun ch -> arrive tm ch ~at:t_end s) outs

(** The list scheduler behind {!schedule}, {!schedule_with_failure} and
    {!schedule_with_migration}.  It schedules [net]'s firings in dataflow
    order, as {!Kpn.fire_loop} fires them.  [decide i start_on] places
    each firing of process [i] (an index into [net.processes]), where
    [start_on c] is the cycle the firing could start on core [c] under
    the {!timing} rule.  The cost is linear in the number of firings.  A
    [Split] firing is a truncated span on the dying core up to [at],
    then the remaining work, rescaled to the survivor's cost for the
    kernel, on the survivor.  Both spans carry [se_migrated = true] and
    each split is recorded in [ledger] as a {!Pvtrace.Ledger.Migrate}
    event.
    @raise Invalid_argument when a firing is placed on a core that is not
    on [platform]. *)
let list_schedule ?ledger (platform : platform) (cost : cost_model)
    (decide : int -> (core -> int64) -> decision) (net : Kpn.t) :
    sched_event list =
  let cores = Array.of_list platform.cores in
  let slot = core_slot cores in
  let v = Kpn.view net in
  let tm = timing platform v in
  let start_on c = earliest_start tm (slot c) in
  let start_on64 c = Int64.of_int (start_on c) in
  let index = Kpn.firing_index v in
  let events = ref [] in
  let emit (p : Kpn.process) firing c start t_end ~remapped ~migrated =
    events :=
      {
        se_proc = p.Kpn.pname;
        se_firing = firing;
        se_core = c.cname;
        se_start = Int64.of_int start;
        se_end = Int64.of_int t_end;
        se_remapped = remapped;
        se_migrated = migrated;
      }
      :: !events
  in
  let step i =
    let p = v.Kpn.procs.(i) in
    let firing = index i in
    take_inputs tm v.Kpn.ins.(i);
    match decide i start_on64 with
    | Run (c, remapped) ->
      let start = start_on c in
      let t_end = start + cost p c in
      finish tm (slot c) t_end v.Kpn.outs.(i);
      emit p firing c start t_end ~remapped ~migrated:false
    | Split { dying; survivor; at; overhead } ->
      let at = Int64.to_int at in
      let start0 = start_on dying in
      let cost0 = cost p dying in
      let done0 = at - start0 in
      (* remaining work, rescaled to the survivor's speed for this
         kernel (ceiling so a nonzero remainder costs >= 1) *)
      let rem1 =
        if cost0 <= 0 then 0
        else (((cost0 - done0) * cost p survivor) + cost0 - 1) / cost0
      in
      emit p firing dying start0 at ~remapped:false ~migrated:true;
      (* the dying core was occupied right up to the failure; later
         firings must not be list-scheduled onto it in the past *)
      occupy tm (slot dying) at;
      let start1 = Int.max (at + overhead) tm.free.(slot survivor) in
      let end1 = start1 + rem1 in
      finish tm (slot survivor) end1 v.Kpn.outs.(i);
      emit p firing survivor start1 end1 ~remapped:true ~migrated:true;
      Pvtrace.Ledger.record_opt ledger Pvtrace.Ledger.Migrate
        ~subject:p.Kpn.pname
        ~detail:
          (Printf.sprintf
             "firing #%d checkpointed on %s at cycle %d, resumed on %s at \
              cycle %d"
             firing dying.cname at survivor.cname start1)
  in
  ignore (Kpn.fire_loop v ~max_firings:1_000_000 step);
  List.rev !events

(* [core_of pl] for each process of [ps] by index, looked up on first
   use: a process that never fires need not be placed *)
let homes (pl : placement) (ps : Kpn.process list) : core Lazy.t array =
  let core_of = core_of pl in
  Array.of_list (List.map (fun p -> lazy (core_of p)) ps)

(** Simulate [net]'s firing trace under a placement as a list schedule and
    return the per-firing schedule: a firing starts when its core is free
    and all its input tokens have arrived (plus an inter-core transfer
    latency when producer and consumer sit on different cores). *)
let schedule (platform : platform) (cost : cost_model) (pl : placement)
    (net : Kpn.t) : sched_event list =
  let home = homes pl net.Kpn.processes in
  list_schedule platform cost (fun i _ -> Run (Lazy.force home.(i), false)) net

(** Simulate the makespan of running [net]'s firing trace under a
    placement.  Returns total cycles (on the slowest path). *)
let makespan (platform : platform) (cost : cost_model) (pl : placement)
    (net : Kpn.t) : int64 =
  makespan_of_events (schedule platform cost pl net)

(** {1 Accelerator failure}

    A heterogeneous platform can lose an accelerator mid-run (thermal
    shutdown, bus fault).  Because final code generation happens at run
    time, the runtime can respond by re-JITting the displaced kernels for
    the surviving cores — and because the concurrency substrate is a KPN,
    the remapping cannot change any computed stream (Kahn determinism):
    only the makespan moves.  That is the property the fault-injection
    tests pin down. *)

type failure = {
  dead_core : string;  (** name of the core that dies *)
  at : int64;  (** cycle at which it stops accepting work *)
}

(** [remap platform cost pl ~dead ps] reassigns every process placed on
    [dead] to the best surviving core — same greedy load + cost scoring as
    {!place}, seeded with the load the surviving placements already carry.
    Processes on live cores keep their placement (their code is already
    compiled).  Each displaced process is a graceful degradation, recorded
    in [ledger] as an {!Pvtrace.Ledger.Accel_remap} event.
    @raise Invalid_argument if [dead] is the only core, or if [pl] uses a
    core that is not on [platform]. *)
let remap ?ledger (platform : platform) (cost : cost_model) (pl : placement)
    ~(dead : string) (ps : Kpn.process list) : placement =
  let survivors =
    Array.of_list
      (List.filter (fun c -> not (String.equal c.cname dead)) platform.cores)
  in
  if survivors = [||] then invalid_arg "Mapper.remap: no surviving core";
  let slot = core_slot survivors in
  let load = Array.make (Array.length survivors) 0 in
  let core_of = core_of pl in
  let displaced, staying =
    List.partition
      (fun (p : Kpn.process) -> String.equal (core_of p).cname dead)
      ps
  in
  List.iter
    (fun (p : Kpn.process) ->
      let c = core_of p in
      load.(slot c) <- load.(slot c) + cost p c)
    staying;
  let displaced = Array.of_list displaced in
  let order, choice = greedy cost survivors load (fun _ _ -> 0) displaced in
  Array.iter
    (fun i ->
      Pvtrace.Ledger.record_opt ledger Pvtrace.Ledger.Accel_remap
        ~subject:displaced.(i).Kpn.pname
        ~detail:
          (Printf.sprintf "core %s failed; re-JITted for %s" dead
             survivors.(choice.(i)).cname))
    order;
  let at = by_first ~first:(Kpn.first_by_name displaced) order choice in
  let moved = Hashtbl.create (Array.length displaced) in
  Array.iteri
    (fun i (p : Kpn.process) ->
      Hashtbl.replace moved p.Kpn.pname survivors.(at.(i)))
    displaced;
  List.map
    (fun (name, c) ->
      match Hashtbl.find_opt moved name with
      | Some c' -> (name, c')
      | None -> (name, c))
    pl

(* The decision under [failure]: firings on the dead core that complete
   by [failure.at] still run there, later ones run on the {!remap}ped
   placement.  With [overhead] (live migration) a firing caught
   mid-execution is split instead of rerun. *)
let recovering ?ledger platform cost pl ~(failure : failure) ~overhead
    (net : Kpn.t) =
  let pl' =
    remap ?ledger platform cost pl ~dead:failure.dead_core net.Kpn.processes
  in
  let procs = Array.of_list net.Kpn.processes in
  let home = homes pl net.Kpn.processes
  and survivor = homes pl' net.Kpn.processes in
  fun i start_on ->
    let p = procs.(i) and c0 = Lazy.force home.(i) in
    if not (String.equal c0.cname failure.dead_core) then Run (c0, false)
    else
      let start0 = start_on c0 in
      if Int64.compare (Int64.add start0 (Int64.of_int (cost p c0))) failure.at <= 0
      then Run (c0, false)
      else
        match overhead with
        | Some overhead when Int64.compare start0 failure.at < 0 ->
          Split
            {
              dying = c0;
              survivor = Lazy.force survivor.(i);
              at = failure.at;
              overhead;
            }
        | _ -> Run (Lazy.force survivor.(i), true)

(** Per-firing schedule under an accelerator failure: firings on the dead
    core that would complete by [failure.at] still run there; everything
    later runs on the {!remap}ed placement.  The schedule stays a
    deterministic list schedule over the same KPN firing trace, so the
    computed streams are untouched — only timing changes.  Remapped
    firings carry [se_remapped = true]; displaced processes are recorded
    in [ledger]. *)
let schedule_with_failure ?ledger (platform : platform) (cost : cost_model)
    (pl : placement) ~(failure : failure) (net : Kpn.t) : sched_event list =
  list_schedule platform cost
    (recovering ?ledger platform cost pl ~failure ~overhead:None net)
    net

(** Makespan under an accelerator failure (see {!schedule_with_failure}). *)
let makespan_with_failure ?ledger (platform : platform) (cost : cost_model)
    (pl : placement) ~(failure : failure) (net : Kpn.t) : int64 =
  makespan_of_events
    (schedule_with_failure ?ledger platform cost pl ~failure net)

(** {1 Live migration}

    {!schedule_with_failure} models the pre-checkpoint runtime: a firing
    caught mid-execution by the failure is thrown away and rerun from
    scratch on a survivor.  With safepoint checkpointing (see
    [Pvvm.Snapshot]) the runtime can do better — capture the in-flight
    kernel at its last safepoint, re-JIT it for a surviving core, restore
    the snapshot there and resume, paying only the migration overhead
    instead of the lost work. *)

type migration = {
  checkpoint_cost : int;
      (** cycles to reach a safepoint and encode the snapshot on the
          dying core's host VM *)
  restore_cost : int;
      (** cycles to transfer the snapshot, re-JIT the kernel for the
          survivor and restore the VM state there *)
}

let default_migration = { checkpoint_cost = 64; restore_cost = 256 }

(** Per-firing schedule under an accelerator failure with live
    migration.  Firings on the dead core that complete by [failure.at]
    run there untouched; firings that have not yet started run wholly on
    the {!remap}ed placement ([se_remapped = true], as in
    {!schedule_with_failure}).  A firing caught *mid-execution* is
    split: a truncated span on the dying core up to [failure.at], then —
    after [migration]'s checkpoint + restore overhead — a resumed span
    on the survivor covering only the work not yet done (scaled to the
    survivor's cost for the kernel).  Both halves carry
    [se_migrated = true] and the same firing index, and each migration
    is recorded in [ledger] as a {!Pvtrace.Ledger.Migrate} event.
    Kahn determinism means the computed streams are untouched either
    way; what migration buys is makespan, which the migration tests pin
    against the rerun-from-scratch schedule. *)
let schedule_with_migration ?ledger (platform : platform) (cost : cost_model)
    (pl : placement) ~(failure : failure)
    ?(migration = default_migration) (net : Kpn.t) : sched_event list =
  let overhead = Some (migration.checkpoint_cost + migration.restore_cost) in
  list_schedule ?ledger platform cost
    (recovering ?ledger platform cost pl ~failure ~overhead net)
    net

(** Makespan under an accelerator failure with live migration (see
    {!schedule_with_migration}). *)
let makespan_with_migration ?ledger (platform : platform) (cost : cost_model)
    (pl : placement) ~(failure : failure) ?migration (net : Kpn.t) : int64 =
  makespan_of_events
    (schedule_with_migration ?ledger platform cost pl ~failure ?migration net)

(** {1 Timeline export}

    Render a schedule onto a trace: one track per core (named after it),
    one span per firing, an instant marker on every remapped firing, and a
    channel-occupancy counter series derived from the schedule (a firing
    consumes one token per input at its start and produces one per output
    at its end; [channels] gives the external tokens present at time 0). *)
let emit_trace ?(channels : (string * int) list = []) (platform : platform)
    (ps : Kpn.process list) (evs : sched_event list)
    (tr : Pvtrace.Trace.t) : unit =
  let tid_of =
    let tids = Hashtbl.create 8 in
    List.iteri
      (fun i (c : core) ->
        let tid = Pvtrace.Trace.track_sched_base + i in
        Hashtbl.replace tids c.cname tid;
        Pvtrace.Trace.name_track tr tid ("core:" ^ c.cname))
      platform.cores;
    Pvtrace.Trace.name_track tr
      (Pvtrace.Trace.track_sched_base - 1)
      "channels";
    fun cname ->
      match Hashtbl.find_opt tids cname with
      | Some tid -> tid
      | None -> Pvtrace.Trace.track_sched_base
  in
  let proc_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun (p : Kpn.process) -> Hashtbl.replace tbl p.Kpn.pname p) ps;
    fun name -> Hashtbl.find_opt tbl name
  in
  (* channel occupancy over time: (ts, chan, delta), starts and ends
     interleaved in time order (stable sort keeps same-ts causality) *)
  let occ = Hashtbl.create 16 in
  List.iter (fun (c, n) -> Hashtbl.replace occ c n) channels;
  let deltas =
    List.concat_map
      (fun e ->
        match proc_of e.se_proc with
        | None -> []
        | Some p ->
          List.map (fun c -> (e.se_start, c, -1)) p.Kpn.inputs
          @ List.map (fun c -> (e.se_end, c, 1)) p.Kpn.outputs)
      evs
  in
  let deltas =
    List.stable_sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) deltas
  in
  (* firing spans + remap markers *)
  List.iter
    (fun e ->
      let tid = tid_of e.se_core in
      let name = Printf.sprintf "%s#%d" e.se_proc e.se_firing in
      if e.se_migrated then
        Pvtrace.Trace.instant_at tr ~ts:e.se_start ~tid ~cat:"sched"
          ~args:
            [ ("process", e.se_proc); ("firing", string_of_int e.se_firing) ]
          ("migrate:" ^ e.se_proc)
      else if e.se_remapped then
        Pvtrace.Trace.instant_at tr ~ts:e.se_start ~tid ~cat:"sched"
          ~args:[ ("process", e.se_proc) ]
          ("remap:" ^ e.se_proc);
      Pvtrace.Trace.begin_at tr ~ts:e.se_start ~tid ~cat:"sched"
        ~args:
          [ ("process", e.se_proc); ("firing", string_of_int e.se_firing) ]
        name;
      Pvtrace.Trace.end_at tr ~ts:e.se_end ~tid name)
    evs;
  (* counter series, one sample per occupancy change *)
  List.iter
    (fun (ts, chan, d) ->
      let n = (try Hashtbl.find occ chan with Not_found -> 0) + d in
      Hashtbl.replace occ chan n;
      Pvtrace.Trace.counter_at tr ~ts
        ~tid:(Pvtrace.Trace.track_sched_base - 1)
        ~cat:"sched" ("chan:" ^ chan)
        [ ("tokens", Int64.of_int (max 0 n)) ])
    deltas
