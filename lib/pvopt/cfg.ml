(** Control-flow-graph utilities over {!Pvir.Func} used by every pass:
    predecessor maps, reachability, reverse postorder and dominators, plus
    the PVIR adapter of the shared {!Liveness} solver. *)

open Pvir

type t = {
  fn : Func.t;
  preds : (int, int list) Hashtbl.t;
  succs : (int, int list) Hashtbl.t;
  rpo : int list;  (** reverse postorder of reachable labels, entry first *)
}

let successors (b : Func.block) = Instr.successors b.term

let build (fn : Func.t) : t =
  let preds = Hashtbl.create 16 in
  let succs = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      Hashtbl.replace succs b.label (successors b);
      if not (Hashtbl.mem preds b.label) then Hashtbl.replace preds b.label [])
    fn.blocks;
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun s ->
          let old = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.label :: old))
        (successors b))
    fn.blocks;
  (* depth-first postorder from entry *)
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then (
      Hashtbl.replace visited l ();
      List.iter dfs (try Hashtbl.find succs l with Not_found -> []);
      order := l :: !order)
  in
  dfs (Func.entry fn).label;
  { fn; preds; succs; rpo = !order }

let preds t l = try Hashtbl.find t.preds l with Not_found -> []
let succs t l = try Hashtbl.find t.succs l with Not_found -> []
let reachable t l = List.mem l t.rpo

(** Remove blocks unreachable from the entry.  Returns true if anything
    changed. *)
let prune_unreachable (fn : Func.t) : bool =
  let t = build fn in
  let keep = List.filter (fun (b : Func.block) -> reachable t b.label) fn.blocks in
  let changed = List.length keep <> List.length fn.blocks in
  if changed then fn.blocks <- keep;
  changed

(* ---------------- dominators (Cooper-Harvey-Kennedy) ---------------- *)

type dom = { idom : (int, int) Hashtbl.t (* entry maps to itself *) }

let dominators (t : t) : dom =
  let rpo = Array.of_list t.rpo in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) rpo;
  let idom = Hashtbl.create 16 in
  let entry = (Func.entry t.fn).label in
  Hashtbl.replace idom entry entry;
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let ia = Hashtbl.find index a and ib = Hashtbl.find index b in
        if ia > ib then go (Hashtbl.find idom a) b else go a (Hashtbl.find idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        if l <> entry then
          let processed =
            List.filter (fun p -> Hashtbl.mem idom p && Hashtbl.mem index p)
              (preds t l)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if Hashtbl.find_opt idom l <> Some new_idom then (
              Hashtbl.replace idom l new_idom;
              changed := true))
      rpo
  done;
  { idom }

(** [dominates dom a b] — does block [a] dominate block [b]? *)
let dominates (d : dom) a b =
  let rec go b =
    if a = b then true
    else
      match Hashtbl.find_opt d.idom b with
      | Some p when p <> b -> go p
      | _ -> false
  in
  go b

(* ---------------- liveness ---------------- *)

(** Block-level liveness of [fn] by {!Liveness.solve}: live sets are
    indexed by position in [fn.blocks], unreachable blocks included. *)
let liveness (fn : Func.t) : Liveness.t =
  Liveness.solve ~nregs:fn.next_reg
    ~label:(fun (b : Func.block) -> b.label)
    ~succs:successors
    ~scan:(fun (b : Func.block) ~use ~def ->
      List.iter
        (fun i ->
          List.iter use (Instr.uses i);
          Option.iter def (Instr.def i))
        b.instrs;
      List.iter use (Instr.term_uses b.term))
    fn.blocks
