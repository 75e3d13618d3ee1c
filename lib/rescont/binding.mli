(** Thread ↔ container bindings (paper §4.2–§4.3).

    A thread's {e resource binding} is the single container its consumption
    is charged to right now; the application rebinds it as the thread
    switches between activities.  The {e scheduler binding} is the set of
    containers the thread has recently served; the CPU scheduler derives
    the thread's scheduling parameters from this whole set.  The kernel
    grows the set implicitly on every rebind, prunes entries not used
    recently, and lets the application reset it explicitly. *)

type t

val create : now:Engine.Simtime.t -> Container.t -> t
(** A fresh binding (e.g. for a new thread), initially bound to the given
    container — a new process's first thread is bound to the process's
    default container.  Counts as a thread binding on the container.
    @raise Container.Error if the container is not a leaf. *)

val resource_binding : t -> Container.t

val set_resource_binding : t -> now:Engine.Simtime.t -> Container.t -> unit
(** Rebind.  The new container joins the scheduler-binding set; the old one
    stays until pruned.  Thread-binding reference counts are maintained on
    both containers.  O(1): the set is indexed by container, so neither a
    hit nor a miss walks it.  @raise Container.Error if the target is
    destroyed or not a leaf. *)

val scheduler_binding : t -> Container.t list
(** Containers currently in the scheduler binding, most recently used
    first.  Always contains the resource binding. *)

val iter_scheduler_containers : t -> (Container.t -> unit) -> unit
(** Apply a function to every container in the scheduler binding, in
    unspecified order and without allocating.  For order-independent
    aggregations (the timeshare scheduler's usage sum / priority max over
    a combined binding) on the per-dispatch path. *)

val touch : t -> now:Engine.Simtime.t -> unit
(** Record use of the current resource binding (called when the thread is
    charged), refreshing its recency in the scheduler-binding set.  O(1):
    one store into the resource binding's cached set entry. *)

val prune : t -> now:Engine.Simtime.t -> max_age:Engine.Simtime.span -> int
(** Drop set entries whose last use is older than [max_age]; the resource
    binding itself is never dropped.  Returns the number removed.  The
    kernel calls this periodically (§4.3).  O(set size). *)

val reset_scheduler_binding : t -> now:Engine.Simtime.t -> unit
(** Explicit reset to exactly the current resource binding (§4.3, §4.6). *)

val drop : t -> unit
(** Release the thread's bindings entirely (thread exit). *)

val size : t -> int
(** Number of containers in the scheduler-binding set.  O(1). *)
