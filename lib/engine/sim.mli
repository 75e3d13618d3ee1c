(** The discrete-event simulation driver.

    A [Sim.t] owns the simulated clock and a queue of pending events.  An
    event is a closure fired at a scheduled instant; firing an event may
    schedule or cancel further events.  Events at the same instant fire in
    the order they were scheduled, so runs are fully deterministic. *)

type t

type event
(** A handle on a scheduled event, usable for cancellation. *)

val create : unit -> t
(** An empty simulator at time zero.  The event queue is a hierarchical
    timer wheel ({!Timer_wheel}) with O(1) schedule and cancel. *)

val now : t -> Simtime.t
(** Current simulated time.  Advances only inside [run_until] / [run]. *)

val at : t -> Simtime.t -> (unit -> unit) -> event
(** [at sim time f] schedules [f] to fire at [time].
    @raise Invalid_argument if [time] is in the past. *)

val after : t -> Simtime.span -> (unit -> unit) -> event
(** [after sim span f] is [at sim (add (now sim) span) f].  A non-positive
    span schedules for the current instant (fires after the running event
    completes). *)

val post_at : t -> Simtime.t -> (unit -> unit) -> unit
(** [at] without the handle: the event cannot be cancelled, and in
    exchange the wheel recycles its queue node when the event fires, so
    fire-and-forget scheduling allocates nothing in steady state.  Fires in exactly the position an [at] at the same instant
    would.
    @raise Invalid_argument if [time] is in the past. *)

val post : t -> Simtime.span -> (unit -> unit) -> unit
(** [post sim span f] is [post_at sim (add (now sim) span) f], clamping
    non-positive spans to the current instant like {!after}. *)

val cancel : t -> event -> bool
(** Cancel a pending event; [false] if it already fired or was cancelled. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val run_until : t -> Simtime.t -> unit
(** Fire events in timestamp order until the queue is empty or the next
    event lies strictly beyond the horizon; the clock finishes at the
    horizon (or at the last fired event if the queue drains early, never
    moving backwards).  Firing an event allocates nothing here (what
    the event's own closure allocates aside). *)

val run : t -> unit
(** Fire events until the queue is empty. *)

val step : t -> bool
(** Fire exactly the next event; [false] when the queue is empty. *)

val every : t -> Simtime.span -> (unit -> unit) -> event
(** [every sim period f] schedules [f] periodically, starting one period
    from now.  The returned handle cancels the whole series.  The series
    reuses a single closure, event body and queue node across ticks, so a
    period allocates nothing.
    @raise Invalid_argument if [period] is not positive. *)
