(** The simulated uniprocessor machine: threads, blocking, dispatching.

    Threads are OCaml effect-based coroutines, so simulated kernel and
    application code is written in direct style: [Machine.cpu] consumes
    simulated CPU, [Waitq.wait] blocks, and the dispatcher interleaves
    threads under the machine's scheduling policy in quanta, charging every
    consumed slice to the running thread's resource-binding container.

    Interrupt-level work (NIC interrupts, softirq protocol processing in
    the unmodified-kernel model) runs at strictly higher precedence than
    any thread: it {e steals} time from whatever slice is in progress — see
    {!steal_time} — which is exactly the behaviour that produces receive
    livelock under overload. *)

type t
type thread

val create :
  ?cpus:int ->
  ?shard_policy:(int -> Sched.Policy.t) ->
  ?rebalance_interval:Engine.Simtime.span ->
  ?quantum:Engine.Simtime.span ->
  ?prune_interval:Engine.Simtime.span ->
  ?prune_age:Engine.Simtime.span ->
  ?trace:Engine.Tracelog.t ->
  ?metrics:Engine.Metrics.t ->
  ?invariants:Engine.Invariant.t ->
  sim:Engine.Sim.t ->
  policy:Sched.Policy.t ->
  root:Rescont.Container.t ->
  unit ->
  t
(** [cpus] is the number of processors (default 1; every experiment in the
    paper runs on a uniprocessor).  Interrupt-level work is taken on
    processor 0 unless steered (see {!steal_time}).  [quantum] is the
    time-slice length (default 1 ms).  [prune_interval] / [prune_age]
    control the periodic pruning of scheduler-binding sets (paper §4.3;
    defaults 100 ms / 500 ms).

    [policy] serves processor 0.  With [shard_policy], processors
    [1 .. cpus-1] each get their own run-queue shard [shard_policy i] and
    the machine runs as a real SMP kernel: tasks are stamped with a home
    CPU at spawn (least-loaded shard, or the [?cpu] pin), an idle processor
    steals runnable work from other shards, and a periodic container-aware
    rebalance (every [rebalance_interval], default 5 ms) moves tasks from
    the deepest to the shallowest queue.  Migration only ever moves a task
    to a strictly less-loaded shard, so fixed-share guarantees cannot be
    diluted by it.  Without [shard_policy], all processors share [policy]
    — one global queue, the pre-SMP behaviour. *)

val sim : t -> Engine.Sim.t
val now : t -> Engine.Simtime.t
val root : t -> Rescont.Container.t

val system_container : t -> Rescont.Container.t
(** Where consumption "charged to no process at all" lands (the root). *)

val policy : t -> Sched.Policy.t
(** Processor 0's scheduling policy (the only one unless the machine was
    created with [shard_policy]). *)

val shard : t -> int -> Sched.Policy.t
(** The run-queue shard serving the given processor. *)

val sharded : t -> bool
(** [true] iff the machine runs distinct per-CPU run-queue shards. *)

val busy_time : t -> Engine.Simtime.span
(** Total CPU time consumed so far (slices + stolen interrupt time),
    summed over every processor — at [cpus > 1] this can exceed elapsed
    simulated time (it is bounded by [cpus ×] elapsed). *)

val busy_time_on : t -> int -> Engine.Simtime.span
(** CPU time consumed on one processor; never exceeds elapsed simulated
    time plus the in-flight committed slice.  The per-processor values sum
    to {!busy_time} (law [cpu.per-cpu-conservation]). *)

(** {1 Threads} *)

val spawn :
  t ->
  ?kernel:bool ->
  ?cpu:int ->
  name:string ->
  container:Rescont.Container.t ->
  (unit -> unit) ->
  thread
(** Create a thread whose first resource binding is [container] and make it
    runnable.  The body runs inside the machine's effect handler.  [cpu]
    pins the thread to a processor's shard (it is placed there and never
    migrated — used for per-CPU kernel threads); without it the thread
    starts on the least-loaded shard and may migrate.
    @raise Container.Error if [container] is not a leaf. *)

val thread_name : thread -> string
val binding : thread -> Rescont.Binding.t
val is_done : thread -> bool

val rebind : t -> thread -> Rescont.Container.t -> unit
(** Change the thread's resource binding (the [rc_bind_thread] primitive).
    Settles any in-progress slice against the old container first. *)

val kill : t -> thread -> unit
(** Terminate the thread: its continuation is discarded, it leaves every
    queue, and its container bindings are released.  A thread currently on
    a processor completes the in-flight slice (that work is already
    committed) and is reaped at the slice boundary.  Idempotent. *)

val reset_scheduler_binding : t -> thread -> unit

(** {1 Effects — callable only from inside a thread body} *)

val cpu : ?kernel:bool -> Engine.Simtime.span -> unit
(** Consume simulated CPU.  The calling thread competes for the processor
    under the machine's policy; the call returns once the full span has
    been consumed and charged. *)

val sleep : Engine.Simtime.span -> unit
(** Block without consuming CPU. *)

val yield : unit -> unit
(** Return to the dispatcher; runs again when next picked. *)

val self : unit -> thread
(** The currently executing thread. *)

(** {1 Blocking} *)

module Waitq : sig
  type machine := t
  type t

  val create : ?name:string -> machine -> t

  val wait : t -> unit
  (** Block the calling thread until signalled (effect). *)

  val signal : t -> unit
  (** Wake the longest-waiting thread, if any. *)

  val broadcast : t -> unit
  val waiters : t -> int
end

(** {1 Interrupt-level work} *)

val steal_time :
  ?cpu:int ->
  t ->
  cost:Engine.Simtime.span ->
  charge:[ `Current_or_system | `Container of Rescont.Container.t ] ->
  unit
(** Execute interrupt-level work costing [cost] {e now} on processor [cpu]
    (default 0 — the classic single-interrupt-CPU kernel; a steered
    interrupt names the CPU its connection hashes to).  If a slice is in
    progress on that processor it is extended by [cost] (the running
    thread loses wall-clock time); otherwise that processor's dispatcher
    is pushed back by [cost].  The cost is charged to that processor's
    running thread's container ([`Current_or_system] — the unmodified
    kernel's misaccounting; the system container when idle) or to an
    explicit container. *)

val run_until : t -> Engine.Simtime.t -> unit
(** Drive the simulation to the horizon.  When the machine's invariant
    registry is armed, every conservation law is re-checked at the horizon
    (simulation quiesce); @raise Engine.Invariant.Violation on failure. *)

(** {1 Conservation-law invariants} *)

val invariants : t -> Engine.Invariant.t
(** The machine's invariant registry (fresh unless one was passed at
    creation).  The machine registers [cpu.conservation] (every nanosecond
    of {!busy_time} rolled up into the root's subtree usage),
    [cpu.per-cpu-conservation] (the per-processor busy counters partition
    the global sum and no processor exceeds its committed time horizon),
    [cpu.subtree-rollup], [memory.non-negative] (no container's memory
    balance below zero) and [sched.no-idle-starvation] (no non-idle
    runnable thread competing for a processor waits past a bound while an
    idle-class thread holds that processor — per-CPU on a sharded
    machine); the network stack, scheduler and caches sharing the machine
    register their own laws here. *)

val check_invariants : t -> Engine.Invariant.violation list
(** Run every registered law now (independent of arming). *)

val arm_invariants :
  ?interval:Engine.Simtime.span -> ?starvation_bound:Engine.Simtime.span -> t -> unit
(** Arm the registry: check every law every [interval] of simulated time
    (default 10 ms) and at every {!run_until} horizon, raising
    {!Engine.Invariant.Violation} on the first broken law.  Also switches
    {!Rescont.Usage.set_strict_memory} on process-wide, so double refunds
    raise at the charge site.  [starvation_bound] (default 100 ms) tunes
    [sched.no-idle-starvation]. *)

val set_on_idle : t -> (unit -> unit) -> unit
(** [on_idle] fires when the dispatcher finds no eligible task {e and}
    every processor slot is free — never while another CPU is mid-slice.
    The network stack uses it to run idle-class protocol processing
    (priority-0 containers, paper §4.8) only when the machine would
    otherwise idle.  The hook must not unconditionally wake a thread, or
    the dispatcher will spin. *)

val runnable_tasks : t -> int
(** Number of tasks currently queued across every shard.  Tasks occupying
    a processor are dequeued while they run, so from inside a running
    thread this counts the {e other} runnable tasks. *)

val runnable_tasks_on : t -> int -> int
(** Number of tasks queued in one processor's shard. *)

val cpus : t -> int

val trace : t -> Engine.Tracelog.t
(** The machine's trace log (disabled unless the log passed at creation was
    enabled).  Categories: "spawn", "dispatch", "preempt", "rebind", "kill",
    "irq", "migrate", "charge". *)

val metrics : t -> Engine.Metrics.t
(** The machine's metrics registry (fresh unless one was passed at
    creation).  The machine registers the [sched.*] and [machine.*]
    counters and gauges plus root-subtree [rc.root.*] gauges; other
    subsystems sharing the machine register their own instruments here. *)
