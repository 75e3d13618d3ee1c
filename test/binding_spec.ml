(* Executable specification of Rescont.Binding's scheduler-binding set: the
   plain list implementation, every operation a walk of the whole set.
   The production module indexes the same list; the lockstep property in
   test_rescont_rest.ml drives both with one random operation sequence and
   demands identical observations.  Thread-binding reference counts on the
   containers are left to the production binding under test. *)

module Simtime = Engine.Simtime
module Container = Rescont.Container

type entry = { container : Container.t; mutable last_used : Simtime.t }
type t = { mutable resource : Container.t; mutable sched_set : entry list; mutable live : bool }

let create ~now container =
  { resource = container; sched_set = [ { container; last_used = now } ]; live = true }

let resource_binding t = t.resource

let find_entry t container =
  List.find_opt (fun e -> Container.id e.container = Container.id container) t.sched_set

let set_resource_binding t ~now container =
  if not t.live then invalid_arg "Binding: used after drop";
  t.resource <- container;
  match find_entry t container with
  | Some e -> e.last_used <- now
  | None -> t.sched_set <- { container; last_used = now } :: t.sched_set

let scheduler_binding t =
  let sorted = List.sort (fun a b -> Simtime.compare b.last_used a.last_used) t.sched_set in
  List.map (fun e -> e.container) sorted

let iter_scheduler_containers t f = List.iter (fun e -> f e.container) t.sched_set

let touch t ~now =
  match find_entry t t.resource with
  | Some e -> e.last_used <- now
  | None -> t.sched_set <- { container = t.resource; last_used = now } :: t.sched_set

let prune t ~now ~max_age =
  let keep e =
    Container.id e.container = Container.id t.resource
    || Simtime.span_compare (Simtime.diff now e.last_used) max_age <= 0
  in
  let before = List.length t.sched_set in
  t.sched_set <- List.filter keep t.sched_set;
  before - List.length t.sched_set

let reset_scheduler_binding t ~now = t.sched_set <- [ { container = t.resource; last_used = now } ]

let drop t =
  if t.live then begin
    t.live <- false;
    t.sched_set <- []
  end

let size t = List.length t.sched_set
