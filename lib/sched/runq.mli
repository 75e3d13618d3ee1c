(** Per-container run queues shared by the scheduling policies.

    Runnable tasks queue FIFO under their current resource-binding
    container; policies choose a container, then this module supplies
    round-robin order within it.  A task whose binding changes while
    runnable is moved with {!requeue}. *)

type t

val create : unit -> t

val enqueue : t -> Task.t -> unit
(** Add under the task's current container; no-op if already queued. *)

val dequeue : t -> Task.t -> unit
(** Remove wherever it is queued; no-op if absent. *)

val requeue : t -> Task.t -> unit
(** [dequeue] then [enqueue] under the (possibly new) binding. *)

val mem : t -> Task.t -> bool
val count : t -> int

val front : t -> Rescont.Container.t -> Task.t option
(** Head of the container's queue. *)

val rotate : t -> Rescont.Container.t -> unit
(** Move the container's head task to the tail (round-robin step). *)

val container_has_work : t -> Rescont.Container.t -> bool

val subtree_has_work : t -> Rescont.Container.t -> bool
(** Does the container or any descendant have a queued task?  O(1): live
    per-subtree task counts are maintained incrementally along each
    queue's cached ancestor chain on enqueue/dequeue, plus the
    re-chaining {!sync} does after the container tree is re-shaped. *)

val subtree_count_ref : t -> Rescont.Container.t -> int ref
(** The live-task counter backing {!subtree_has_work} for one container.
    The ref's identity is stable across topology changes, so policies may
    cache it in per-node indexes and read it on the pick fast path.
    Callers must never write through it. *)

val sync : t -> unit
(** Revalidate the subtree counters against the current container
    topology.  O(1) while the topology generation is unchanged; after a
    re-parent or destroy, each queue holding live tasks whose ancestry
    changed moves its count from its old ancestor chain to its new one, so
    the cost is O(busy queues x depth), independent of how many queues and
    counters were ever created.  Idle queues re-chain at their next
    enqueue.  Policies call this once per pick before trusting cached
    {!subtree_count_ref} values. *)

val rechain_work : t -> int
(** Cumulative number of counter refs {!sync}'s re-chaining has written
    (each moved queue counts its old chain plus its new one).  A
    deterministic cost counter for tests. *)

val containers_with_work : t -> Rescont.Container.t list
(** Distinct containers with non-empty queues, in no specified order. *)

val iter_busy : t -> (Rescont.Container.t -> unit) -> unit
(** [iter_busy t f] applies [f] to every container with live queued work,
    visiting in the same traversal order {!containers_with_work} builds
    its list from — but without allocating it.  The per-dispatch pick
    path of the timeshare policy runs on this. *)

val validate : t -> (unit, string) result
(** Conservation check: re-derives per-container live counts and subtree
    occupancy from the membership table and compares them with the
    incrementally maintained counters.  [Ok ()] iff they all agree.  Used
    as the [sched.runq-counts] invariant law. *)
