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

let default_cost : Mapper.cost_model = fun p _ -> max 1 p.Kpn.work

(** Execute [net] to quiescence under [policy] with channels bounded to
    [capacity] tokens (sink channels — no consumer — stay unbounded, and
    a channel's initial tokens may exceed [capacity]; backpressure only
    gates {e new} production).  A process is ready when every input
    channel holds enough tokens {e and} every consumed output channel has
    room.  Firings are simulated as a list schedule over [platform] using
    [cost] (default: [max 1 work] cycles anywhere) and [placement]
    (default: {!Mapper.place}); FIFO and priority firings run on their
    placed core, work stealing may run a firing on the idle thief.

    Channel values are computed for real — [fire] runs — and the full
    per-channel history is returned in [streams].
    @raise Kpn.Deadlock when [max_firings] is exceeded. *)
let execute ?(policy = Fifo) ?(capacity = 4) ?platform ?(cost = default_cost)
    ?placement ?chaos ?(max_firings = 1_000_000) (net : Kpn.t) : result =
  if capacity < 1 then invalid_arg "Sched.execute: capacity < 1";
  let platform =
    match platform with Some p -> p | None -> default_platform ()
  in
  let procs = Array.of_list net.Kpn.processes in
  let n = Array.length procs in
  let placement =
    match placement with
    | Some pl -> pl
    | None -> Mapper.place platform cost net.Kpn.processes
  in
  let cores = Array.of_list platform.Mapper.cores in
  let ncores = Array.length cores in
  if ncores = 0 then invalid_arg "Sched.execute: empty platform";
  let core_of = Mapper.core_of placement and slot = Mapper.core_slot cores in
  let home = Array.map (fun p -> slot (core_of p).Mapper.cname) procs in
  (* single consumer / single producer maps (generated nets guarantee
     uniqueness; on hand-built nets the first claimant wins) *)
  let consumer_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let producer_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem consumer_of c) then Hashtbl.replace consumer_of c i)
        p.Kpn.inputs;
      List.iter
        (fun c ->
          if not (Hashtbl.mem producer_of c) then Hashtbl.replace producer_of c i)
        p.Kpn.outputs)
    procs;
  (* token availability times parallel the value queues: (ready time,
     producing core), [None] core = external input at time 0 *)
  let times : (string, (int64 * int option) Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let history : (string, Kpn.token list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name q ->
      let tq = Queue.create () in
      Queue.iter (fun _ -> Queue.add (0L, None) tq) q;
      Hashtbl.replace times name tq;
      (* history refs are kept reversed (newest first) until the end *)
      Hashtbl.replace history name (ref (Queue.fold (fun acc t -> t :: acc) [] q)))
    net.Kpn.channels;
  let hist_of name =
    match Hashtbl.find_opt history name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace history name r;
      r
  in
  (* what [ready] checks, per process: each distinct input channel with
     the tokens one firing pops from it, and each bounded (consumed)
     output channel with the net tokens one firing adds to it — tokens
     it pops from the same channel (self-loop) free room before the push
     lands; sink channels are unbounded *)
  let count_in l c = List.fold_left (fun k c' -> if String.equal c c' then k + 1 else k) 0 l in
  let needs =
    Array.map
      (fun p ->
        let ins, outs = (p.Kpn.inputs, p.Kpn.outputs) in
        ( List.map
            (fun c -> (Kpn.channel net c, count_in ins c))
            (List.sort_uniq compare ins),
          List.filter_map
            (fun c ->
              if Hashtbl.mem consumer_of c then
                Some (Kpn.channel net c, count_in outs c - count_in ins c)
              else None)
            (List.sort_uniq compare outs) ))
      procs
  in
  let ready i =
    let ins, outs = needs.(i) in
    List.for_all (fun (q, k) -> Queue.length q >= k) ins
    && List.for_all (fun (q, d) -> Queue.length q + d <= capacity) outs
  in
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
    if r && not is_ready.(i) then begin
      is_ready.(i) <- true;
      incr n_ready
    end
    else if (not r) && is_ready.(i) then begin
      is_ready.(i) <- false;
      decr n_ready
    end;
    if is_ready.(i) then enqueue i
  in
  for i = 0 to n - 1 do
    update i
  done;
  let free_at = Array.make ncores 0L in
  let busy = Array.make ncores 0L in
  let fired = Array.make n 0 in
  let steals = ref 0 in
  let firings = ref 0 in
  let consumed = ref 0 in
  let produced = ref 0 in
  let events = ref [] in
  let makespan = ref 0L in
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
    let core = cores.(core_i) in
    (* pop values and availability times together *)
    let ins =
      List.map
        (fun c ->
          let v = Queue.pop (Kpn.channel net c) in
          let t, src = Queue.pop (Hashtbl.find times c) in
          incr consumed;
          (v, t, src))
        p.Kpn.inputs
    in
    let inputs_ready =
      List.fold_left
        (fun acc (_, t, src) ->
          let t =
            match src with
            | Some c when c <> core_i ->
              Int64.add t (Int64.of_int platform.Mapper.transfer_cost)
            | _ -> t
          in
          if Int64.compare t acc > 0 then t else acc)
        0L ins
    in
    let start =
      if Int64.compare free_at.(core_i) inputs_ready > 0 then free_at.(core_i)
      else inputs_ready
    in
    let c = Int64.of_int (cost p core) in
    let t_end = Int64.add start c in
    free_at.(core_i) <- t_end;
    busy.(core_i) <- Int64.add busy.(core_i) c;
    if Int64.compare t_end !makespan > 0 then makespan := t_end;
    let outs = p.Kpn.fire (List.map (fun (v, _, _) -> v) ins) in
    if List.length outs <> List.length p.Kpn.outputs then
      invalid_arg
        (Printf.sprintf "Sched: %s produced %d tokens, declared %d" p.Kpn.pname
           (List.length outs) (List.length p.Kpn.outputs));
    (* the planted bug: priority inversion drops the first output token
       of a high-fan-in join's second firing.  Only data inputs count —
       a self-loop feedback channel is part of the node itself. *)
    let buggy =
      match (chaos, policy) with
      | Some Drop_fanin_token, Priority ->
        let data_fanin =
          List.length
            (List.filter
               (fun c -> not (List.mem c p.Kpn.outputs))
               p.Kpn.inputs)
        in
        data_fanin >= 3 && fired.(i) = 1
      | _ -> false
    in
    List.iteri
      (fun k (ch, tok) ->
        if buggy && k = 0 then ()
        else begin
          Queue.add tok (Kpn.channel net ch);
          Queue.add (t_end, Some core_i) (Hashtbl.find times ch);
          let h = hist_of ch in
          h := tok :: !h;
          incr produced
        end)
      (List.combine p.Kpn.outputs outs);
    events :=
      {
        Mapper.se_proc = p.Kpn.pname;
        se_firing = fired.(i);
        se_core = core.Mapper.cname;
        se_start = start;
        se_end = t_end;
        se_remapped = core_i <> home.(i);
        se_migrated = false;
      }
      :: !events;
    fired.(i) <- fired.(i) + 1;
    incr firings;
    (* only this process, its channel peers, and (under backpressure)
       the producers feeding its inputs can change readiness *)
    update i;
    List.iter
      (fun ch ->
        match Hashtbl.find_opt consumer_of ch with
        | Some j when j <> i -> update j
        | _ -> ())
      p.Kpn.outputs;
    List.iter
      (fun ch ->
        match Hashtbl.find_opt producer_of ch with
        | Some j when j <> i -> update j
        | _ -> ())
      p.Kpn.inputs
  in
  let continue_ = ref true in
  while !continue_ && !n_ready > 0 do
    if !firings >= max_firings then
      raise (Kpn.Deadlock "firing budget exhausted (unbounded network?)");
    (* next decision point: the earliest-free core (ties: lowest index) *)
    let thief = ref 0 in
    for c = 1 to ncores - 1 do
      if Int64.compare free_at.(c) free_at.(!thief) < 0 then thief := c
    done;
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
      match pick_steal !thief with
      | Some (i, stolen) ->
        if stolen then incr steals;
        fire i ~core_i:(if stolen then !thief else home.(i))
      | None -> continue_ := false)
  done;
  let streams =
    Hashtbl.fold (fun name h acc -> (name, List.rev !h) :: acc) history []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let residual =
    Hashtbl.fold
      (fun name q acc -> (name, Queue.length q) :: acc)
      net.Kpn.channels []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
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
        makespan = !makespan;
        busy =
          Array.to_list
            (Array.mapi (fun c b -> (cores.(c).Mapper.cname, b)) busy);
        starved;
      };
    streams;
    residual;
    consumed = !consumed;
    produced = !produced;
  }

(** [streams_digest r] — canonical fingerprint of the per-channel token
    streams, for cheap byte-identity comparison across policies and
    engines. *)
let streams_digest (r : result) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, toks) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      List.iter
        (fun tok ->
          Buffer.add_char b '[';
          Array.iter
            (fun v ->
              Buffer.add_string b (Pvir.Value.to_string v);
              Buffer.add_char b ';')
            tok;
          Buffer.add_char b ']')
        toks;
      Buffer.add_char b '\n')
    r.streams;
  Digest.to_hex (Digest.string (Buffer.contents b))
