module Simtime = Engine.Simtime

type entry = { container : Container.t; mutable last_used : Simtime.t }

(* [sched_set] is the scheduler binding, newest entry first; its order is
   observable (the stable sort in [scheduler_binding], the float sums the
   timeshare policy folds over [iter_scheduler_containers]) and is exactly
   the order a plain cons-on-miss list gives.  [index] maps each member's
   container id to its entry, so the membership test on a rebind is a
   probe instead of a walk; [current] is the resource binding's own entry
   (valid while [live]), so the per-slice [touch] is one field store. *)
type t = {
  mutable resource : Container.t;
  mutable current : entry;
  mutable sched_set : entry list;
  index : (int, entry) Hashtbl.t;
  mutable live : bool;
}

let create ~now container =
  Container.incr_bindings container;
  let e = { container; last_used = now } in
  let index = Hashtbl.create 8 in
  Hashtbl.add index (Container.id container) e;
  { resource = container; current = e; sched_set = [ e ]; index; live = true }

let resource_binding t = t.resource

(* The set entry for [container], refreshed to [now]; a new member goes on
   the front of the list. *)
let refresh t container ~now =
  let cid = Container.id container in
  match Hashtbl.find t.index cid with
  | e ->
      e.last_used <- now;
      e
  | exception Not_found ->
      let e = { container; last_used = now } in
      t.sched_set <- e :: t.sched_set;
      Hashtbl.add t.index cid e;
      e

let set_resource_binding t ~now container =
  if not t.live then invalid_arg "Binding: used after drop";
  if Container.id container = Container.id t.resource then t.current.last_used <- now
  else begin
    Container.incr_bindings container;
    Container.decr_bindings t.resource;
    t.resource <- container;
    t.current <- refresh t container ~now
  end

let scheduler_binding t =
  let sorted =
    List.sort (fun a b -> Simtime.compare b.last_used a.last_used) t.sched_set
  in
  List.map (fun e -> e.container) sorted

(* Recency-unordered view of the same set, for order-independent consumers
   (a sum or max over the set): no sort, no list, no allocation. *)
let iter_scheduler_containers t f =
  let rec go = function
    | [] -> ()
    | e :: rest ->
        f e.container;
        go rest
  in
  go t.sched_set

let touch t ~now =
  if t.live then t.current.last_used <- now
  else (* after [drop] the set is empty: re-admit the resource binding *)
    ignore (refresh t t.resource ~now)

let prune t ~now ~max_age =
  let rid = Container.id t.resource in
  let keep e =
    Container.id e.container = rid
    || Simtime.span_compare (Simtime.diff now e.last_used) max_age <= 0
  in
  let kept, dropped = List.partition keep t.sched_set in
  List.iter (fun e -> Hashtbl.remove t.index (Container.id e.container)) dropped;
  t.sched_set <- kept;
  List.length dropped

let reset_scheduler_binding t ~now =
  let e = { container = t.resource; last_used = now } in
  Hashtbl.reset t.index;
  Hashtbl.add t.index (Container.id t.resource) e;
  t.current <- e;
  t.sched_set <- [ e ]

let drop t =
  if t.live then begin
    t.live <- false;
    Container.decr_bindings t.resource;
    Hashtbl.reset t.index;
    t.sched_set <- []
  end

let size t = Hashtbl.length t.index
