(** A hierarchical timer wheel (Varghese & Lauck) keyed by integer
    nanosecond priorities, with O(1) insert and O(1) eager cancellation.

    The wheel is {!Sim}'s event queue, tuned for the simulator's dominant
    insert pattern — [Sim.after] / [Sim.every] timers landing a bounded
    distance past the clock.  A binary heap kept in the test suite is its
    executable specification: under the event-queue discipline
    (priorities never below the last extraction) a QCheck property
    demands the same extraction order from both, including
    insertion-order FIFO among equal priorities, under random
    insert/cancel/pop schedules.

    Unlike a heap, the wheel maintains a monotone {e lower bound}
    [lower_bound t]: inserting below it is an error.  {!Sim} guarantees
    this by construction (events are never scheduled in the past), which
    is exactly what lets every operation skip a heap's O(log n)
    sifting.  Equal priorities extract in insertion order: equal-priority
    nodes always share a bucket, buckets are appended to, and cascades
    preserve list order. *)

type 'a t

type 'a handle
(** A handle onto an inserted element, usable to cancel or re-arm it
    later.  Handles are generation-stamped indexes into the wheel's
    node arena: a handle onto a recycled {!insert_oneshot} slot is
    detected as stale and refused, never misdirected at the slot's new
    occupant. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of queued (inserted and neither cancelled nor popped)
    elements. *)

val is_empty : 'a t -> bool

val lower_bound : 'a t -> int
(** All queued elements have priority [>= lower_bound t], and future
    inserts must respect it.  Advances on extraction and when
    {!pop_min_until} commits a horizon. *)

val insert : 'a t -> prio:int -> 'a -> 'a handle
(** [insert t ~prio v] queues [v].  [prio] must be [>= lower_bound t].
    Ties extract in insertion order.  The returned handle {e pins} its
    arena slot: the node survives pops and cancellations and can be
    re-queued with {!rearm} indefinitely, so the slot is never recycled
    — use {!insert_oneshot} for cancellable events that fire once.
    @raise Invalid_argument if [prio < lower_bound t]. *)

val insert_oneshot : 'a t -> prio:int -> 'a -> 'a handle
(** Cancellable fire-once {!insert}: the handle can {!cancel} the
    element but never {!rearm} it, and the arena slot recycles through
    the free list the moment the element pops or the cancel lands.  A
    cancel arriving after the pop safely returns [false] (the handle's
    generation stamp no longer matches), even if the slot has since
    been reused.  Same ordering semantics as {!insert}.
    @raise Invalid_argument if [prio < lower_bound t]. *)

val insert_pooled : 'a t -> prio:int -> 'a -> unit
(** Fire-and-forget {!insert}: no handle is returned, so the element can
    never be cancelled or re-armed — in exchange the wheel recycles its
    node through an internal free list when it is popped, making
    steady-state one-shot traffic (scheduler kicks, packet-delivery
    events) allocation-free.  Same ordering semantics as {!insert}.
    @raise Invalid_argument if [prio < lower_bound t]. *)

val rearm : 'a t -> 'a handle -> prio:int -> unit
(** [rearm t h ~prio] re-queues the {e popped} (or cancelled) node behind
    [h] at a new priority, reusing its storage — the allocation-free
    re-arm used by {!Sim.every}'s periodic fast lane.  The node carries
    its original value.
    @raise Invalid_argument if the node is still queued or
    [prio < lower_bound t]. *)

val cancel : 'a t -> 'a handle -> bool
(** Remove the element behind the handle; [false] if it was already
    popped or cancelled.  Eager O(1) unlink — cancelled elements hold no
    memory and no residual slot. *)

val pop_min : 'a t -> (int * 'a) option
(** Extract the minimum-priority element.  Advances [lower_bound] to the
    extracted priority; leaves it unchanged when empty. *)

val pop_until : 'a t -> horizon:int -> none:'a -> 'a
(** [pop_until t ~horizon ~none] is {!pop_min_until} without the option
    and the pair, so it allocates nothing: it returns the extracted
    payload, whose priority is then [lower_bound t], or [none] itself
    (compared physically: pass a value no payload can be) when nothing is
    due, committing [lower_bound t] to [horizon] as {!pop_min_until}
    does. *)

val pop_min_until : 'a t -> horizon:int -> (int * 'a) option
(** [pop_min_until t ~horizon] extracts the minimum element if its
    priority is [<= horizon]; otherwise returns [None] {e and commits}
    [lower_bound t] to [horizon] (the caller promises, as {!Sim.run_until}
    does with its clock, that nothing will ever be inserted below the
    horizon it asked about). *)

val clear : 'a t -> unit
(** Drop every queued element.  [lower_bound] is preserved. *)
