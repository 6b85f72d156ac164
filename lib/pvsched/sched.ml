(** Pluggable multicore schedulers for bounded Kahn process networks.

    {!Kpn.run} executes a network with unbounded channels under a single
    scheduling preference.  This module is the "at scale" counterpart the
    KPN fuzzing campaign drives: bounded channels with backpressure, plus
    three interchangeable scheduling policies — FIFO arrival order,
    greedy priority (heaviest work first), and per-core work stealing —
    all layered over the existing {!Mapper} cost model and platform
    description, and all producing {!Mapper.sched_event} lists so the
    per-core timelines render through {!Mapper.emit_trace} unchanged.

    The load-bearing property (and the one {!Pvcheck.Kpncheck} checks
    generatively): because the network is a KPN with single-producer /
    single-consumer channels, {e every} policy computes byte-identical
    channel streams — only the timing differs.  Backpressure cannot break
    this; on an acyclic net with capacity >= 1 it cannot deadlock either
    (a blocked producer is always unblocked by a consumer closer to the
    sinks, the standard marked-graph argument).

    [chaos] plants a deliberate scheduler bug for the fuzzer's oracle to
    catch — see {!chaos}. *)

type policy =
  | Fifo  (** run processes in the order they became ready *)
  | Priority
      (** always run the heaviest ready process (max [work], ties by
          process index) — a greedy critical-path heuristic *)
  | Work_stealing
      (** per-core ready queues seeded by placement; an idle core steals
          from the longest queue *)

let all_policies = [ Fifo; Priority; Work_stealing ]

let policy_name = function
  | Fifo -> "fifo"
  | Priority -> "priority"
  | Work_stealing -> "work-stealing"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "priority" | "prio" -> Some Priority
  | "work-stealing" | "ws" | "steal" -> Some Work_stealing
  | _ -> None

(** Planted scheduler bugs, for oracle validation: [Drop_fanin_token]
    makes the {!Priority} policy silently discard the first output token
    of the second firing of any process with data fan-in >= 3 (self-loop
    feedback channels do not count) — a "priority inversion lost a
    token" defect that only Kahn-determinism / conservation checking can
    see. *)
type chaos = Drop_fanin_token

type stats = {
  firings : int;
  steals : int;  (** work-stealing only; 0 under other policies *)
  makespan : int64;
  busy : (string * int64) list;  (** per-core busy cycles *)
  starved : string list;  (** processes that never fired *)
}

type result = {
  events : Mapper.sched_event list;
  stats : stats;
  streams : (string * Kpn.token list) list;
      (** complete per-channel token history (externally pushed tokens
          first), sorted by channel name — the Kahn-determinism witness *)
  residual : (string * int) list;  (** tokens left per channel, sorted *)
  consumed : int;  (** total tokens popped by firings *)
  produced : int;  (** total tokens pushed by firings *)
}

let default_platform ?(cores = 4) () : Mapper.platform =
  let machine = Pvmach.Machine.find_exn "ppcish" in
  {
    Mapper.cores =
      List.init cores (fun i ->
          { Mapper.cname = Printf.sprintf "core%d" i; machine });
    transfer_cost = 0;
  }

let default_cost : Mapper.cost_model = fun p _ -> Int.max 1 p.Kpn.work

(** Execute [net] to quiescence under [policy] with channels bounded to
    [capacity] tokens (sink channels — no consumer — stay unbounded, and
    a channel's initial tokens may exceed [capacity]; backpressure only
    gates {e new} production).  A process is ready when it meets
    {!Kpn}'s readiness rule {e and} every consumed output channel has
    room.  Firings are simulated as a list schedule over [platform] using
    [cost] (default: [max 1 work] cycles anywhere), [placement]
    (default: {!Mapper.place}'s, computed by process index with
    {!Mapper.place_indices}) and {!Mapper.timing}'s firing-time rule;
    FIFO and priority firings run on their placed core, work stealing
    may run a firing on the idle thief.

    Channel values are computed for real — [fire] runs — and the full
    per-channel history is returned in [streams].
    @raise Kpn.Deadlock when [max_firings] is exceeded. *)
let execute ?(policy = Fifo) ?(capacity = 4) ?platform ?(cost = default_cost)
    ?placement ?chaos ?(max_firings = 1_000_000) (net : Kpn.t) : result =
  if capacity < 1 then invalid_arg "Sched.execute: capacity < 1";
  let platform =
    match platform with Some p -> p | None -> default_platform ()
  in
  let cores = Array.of_list platform.Mapper.cores in
  let ncores = Array.length cores in
  if ncores = 0 then invalid_arg "Sched.execute: empty platform";
  let v = Kpn.view net in
  let procs = v.Kpn.procs and queues = v.Kpn.queues in
  let n = Array.length procs in
  let slot = Mapper.core_slot cores in
  (* each process's core slot *)
  let home =
    match placement with
    | Some pl ->
      let core_of = Mapper.core_of pl in
      Array.map (fun p -> slot (core_of p)) procs
    | None ->
      Array.map
        (fun c -> slot cores.(c))
        (Mapper.place_indices platform cost ~first:v.Kpn.first procs)
  in
  (* token arrivals and core free times parallel the value queues *)
  let tm = Mapper.timing platform v in
  (* per channel, every token it has carried, newest first *)
  let history =
    Array.map (fun q -> Queue.fold (fun acc t -> t :: acc) [] q) queues
  in
  (* backpressure: every bounded (consumed) output channel has room for
     the net tokens one firing adds to it — tokens it pops from the
     same channel (self-loop) free room before the push lands; sink
     channels are unbounded.  A channel's consumer is its first reader
     in process order (generated nets have exactly one). *)
  let has_room i =
    let ins = v.Kpn.ins.(i) and outs = v.Kpn.outs.(i) in
    let ok = ref true and k = ref 0 in
    while !ok && !k < Array.length outs do
      let c = outs.(!k) in
      if Kpn.consumer v c >= 0 then
        ok :=
          Queue.length queues.(c) + Kpn.occurrences outs c - Kpn.occurrences ins c
          <= capacity;
      incr k
    done;
    !ok
  in
  let ready i = Kpn.satisfied v i && has_room i in
  (* ready bookkeeping: [is_ready] mirrors [ready]; the per-policy
     containers use lazy deletion guarded by [queued] *)
  let is_ready = Array.make n false in
  let queued = Array.make n false in
  let n_ready = ref 0 in
  let fifo_q : int Queue.t = Queue.create () in
  (* heaviest first, ties by lowest process index *)
  let prio_h =
    Heap.create (fun i j ->
        let wi = procs.(i).Kpn.work and wj = procs.(j).Kpn.work in
        wi > wj || (wi = wj && i < j))
  in
  let core_q : int Queue.t array = Array.init ncores (fun _ -> Queue.create ()) in
  let enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      match policy with
      | Fifo -> Queue.add i fifo_q
      | Priority -> Heap.push prio_h i
      | Work_stealing -> Queue.add i core_q.(home.(i))
    end
  in
  let update i =
    let r = ready i in
    if r <> is_ready.(i) then begin
      is_ready.(i) <- r;
      n_ready := !n_ready + if r then 1 else -1
    end;
    if r then enqueue i
  in
  for i = 0 to n - 1 do
    update i
  done;
  (* cycle counts are native ints, exact to 2^62; int64 appears only in
     the events and stats returned *)
  let busy = Array.make ncores 0 in
  let fired = Array.make n 0 in
  let steals = ref 0 in
  let firings = ref 0 in
  let consumed = ref 0 in
  let produced = ref 0 in
  let events = ref [] in
  let makespan = ref 0 in
  (* take a valid (still-ready) entry with [take]; stale entries are
     dropped *)
  let rec pop_valid take =
    match take () with
    | None -> None
    | Some i ->
      queued.(i) <- false;
      if is_ready.(i) then Some i else pop_valid take
  in
  let pick_fifo () = pop_valid (fun () -> Queue.take_opt fifo_q) in
  let pick_priority () = pop_valid (fun () -> Heap.pop_opt prio_h) in
  (* thief = idle core: try its own queue, then steal from the longest *)
  let pick_steal thief =
    match pop_valid (fun () -> Queue.take_opt core_q.(thief)) with
    | Some i -> Some (i, false)
    | None ->
      let victim = ref (-1) in
      for c = 0 to ncores - 1 do
        if
          c <> thief
          && Queue.length core_q.(c) > 0
          && (!victim < 0
             || Queue.length core_q.(c) > Queue.length core_q.(!victim))
        then victim := c
      done;
      if !victim < 0 then None
      else
        match pop_valid (fun () -> Queue.take_opt core_q.(!victim)) with
        | Some i -> Some (i, true)
        | None -> None
  in
  let fire i ~core_i =
    let p = procs.(i) in
    let ins = v.Kpn.ins.(i) and outs = v.Kpn.outs.(i) in
    let toks = Kpn.take v i in
    Mapper.take_inputs tm ins;
    consumed := !consumed + Array.length ins;
    let start = Mapper.earliest_start tm core_i in
    let c = cost p cores.(core_i) in
    let t_end = start + c in
    Mapper.occupy tm core_i t_end;
    busy.(core_i) <- busy.(core_i) + c;
    if t_end > !makespan then makespan := t_end;
    let results = p.Kpn.fire toks in
    if List.length results <> Array.length outs then
      invalid_arg
        (Printf.sprintf "Sched: %s produced %d tokens, declared %d" p.Kpn.pname
           (List.length results) (Array.length outs));
    (* the planted bug: priority inversion drops the first output token
       of a high-fan-in join's second firing.  Only data inputs count —
       a self-loop feedback channel is part of the node itself. *)
    let buggy =
      match (chaos, policy) with
      | Some Drop_fanin_token, Priority ->
        let data_fanin =
          Array.fold_left
            (fun k c -> if Array.mem c outs then k else k + 1)
            0 ins
        in
        data_fanin >= 3 && fired.(i) = 1
      | _ -> false
    in
    List.iteri
      (fun k tok ->
        if not (buggy && k = 0) then begin
          let ch = outs.(k) in
          Queue.add tok queues.(ch);
          Mapper.arrive tm ch ~at:t_end core_i;
          history.(ch) <- tok :: history.(ch);
          incr produced
        end)
      results;
    events :=
      {
        Mapper.se_proc = p.Kpn.pname;
        se_firing = fired.(i);
        se_core = cores.(core_i).Mapper.cname;
        se_start = Int64.of_int start;
        se_end = Int64.of_int t_end;
        se_remapped = core_i <> home.(i);
        se_migrated = false;
      }
      :: !events;
    fired.(i) <- fired.(i) + 1;
    incr firings;
    (* only this process, its channel peers, and (under backpressure)
       the producers feeding its inputs can change readiness *)
    update i;
    for k = 0 to Array.length outs - 1 do
      let j = Kpn.consumer v outs.(k) in
      if j >= 0 && j <> i then update j
    done;
    for k = 0 to Array.length ins - 1 do
      let j = v.Kpn.producer.(ins.(k)) in
      if j >= 0 && j <> i then update j
    done
  in
  let continue_ = ref true in
  while !continue_ && !n_ready > 0 do
    if !firings >= max_firings then
      raise (Kpn.Deadlock "firing budget exhausted (unbounded network?)");
    match policy with
    | Fifo -> (
      match pick_fifo () with
      | Some i -> fire i ~core_i:home.(i)
      | None -> continue_ := false)
    | Priority -> (
      match pick_priority () with
      | Some i -> fire i ~core_i:home.(i)
      | None -> continue_ := false)
    | Work_stealing -> (
      (* next decision point: the earliest-free core (ties: lowest
         index) *)
      let free = tm.Mapper.free in
      let thief = ref 0 in
      for c = 1 to ncores - 1 do
        if free.(c) < free.(!thief) then thief := c
      done;
      match pick_steal !thief with
      | Some (i, stolen) ->
        if stolen then incr steals;
        fire i ~core_i:(if stolen then !thief else home.(i))
      | None -> continue_ := false)
  done;
  (* channel ids in name order *)
  let by_name = Array.init (Array.length queues) Fun.id in
  Array.stable_sort
    (fun a b -> String.compare v.Kpn.names.(a) v.Kpn.names.(b))
    by_name;
  let per_channel f =
    Array.fold_right (fun c acc -> (v.Kpn.names.(c), f c) :: acc) by_name []
  in
  let starved =
    Array.to_list
      (Array.mapi (fun i p -> if fired.(i) = 0 then Some p.Kpn.pname else None) procs)
    |> List.filter_map Fun.id
  in
  {
    events = List.rev !events;
    stats =
      {
        firings = !firings;
        steals = !steals;
        makespan = Int64.of_int !makespan;
        busy =
          Array.to_list
            (Array.mapi
               (fun c b -> (cores.(c).Mapper.cname, Int64.of_int b))
               busy);
        starved;
      };
    streams = per_channel (fun c -> List.rev history.(c));
    residual = per_channel (fun c -> Queue.length queues.(c));
    consumed = !consumed;
    produced = !produced;
  }

(* [x]'s decimal digits, as [%Ld] prints them, onto [b], built from the
   right in [scratch]; the digits of a non-positive value, so that
   [Int64.min_int] needs no negation *)
let add_int64 b (scratch : Bytes.t) x =
  let neg = Int64.compare x 0L < 0 in
  if neg then Buffer.add_char b '-';
  let m = ref (if neg then x else Int64.neg x) in
  let pos = ref (Bytes.length scratch) in
  let continue_ = ref true in
  while !continue_ do
    decr pos;
    Bytes.unsafe_set scratch !pos
      (Char.unsafe_chr (48 - Int64.to_int (Int64.rem !m 10L)));
    m := Int64.div !m 10L;
    continue_ := !m <> 0L
  done;
  Buffer.add_subbytes b scratch !pos (Bytes.length scratch - !pos)

(** [streams_digest r] — canonical fingerprint of the per-channel token
    streams, for cheap byte-identity comparison across policies and
    engines.  The digested text is one line per channel: its name, [=],
    then each token as [\[v;v;…\]], each value [v] as
    {!Pvir.Value.to_string} prints it.  Integers, the common case, are
    written into the buffer digit by digit rather than through
    [Printf]. *)
let streams_digest (r : result) : string =
  let b = Buffer.create 65536 and scratch = Bytes.create 20 in
  List.iter
    (fun (name, toks) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      List.iter
        (fun (tok : Kpn.token) ->
          Buffer.add_char b '[';
          for k = 0 to Array.length tok - 1 do
            (match tok.(k) with
            | Pvir.Value.Int (s, x) ->
              add_int64 b scratch x;
              Buffer.add_char b ':';
              Buffer.add_string b (Pvir.Types.scalar_name s)
            | (Pvir.Value.Float _ | Pvir.Value.Vec _) as v ->
              Buffer.add_string b (Pvir.Value.to_string v));
            Buffer.add_char b ';'
          done;
          Buffer.add_char b ']')
        toks;
      Buffer.add_char b '\n')
    r.streams;
  Digest.to_hex (Digest.string (Buffer.contents b))
