(** Sharded deterministic execution: a conservative time-window barrier
    executor over OCaml 5 domains.

    One simulation is partitioned into [shards] independent event cores
    (each a {!Sim.t} plus the state its events touch).  All shards advance
    in lockstep windows: during a window every shard runs its own events
    up to the window end with {!Sim.run_until}; between windows exactly
    one domain (the caller) runs an [exchange] step that moves cross-shard
    messages from mailboxes into the destination sims.  Provided every
    cross-shard message generated inside a window carries a timestamp at
    or beyond the window end (the conservative-lookahead condition:
    window length <= minimum cross-shard latency), the protocol computes
    the same result for every shard count and every domain count — the
    windows, the mailbox drain order and the barrier schedule are all
    functions of simulated time alone, never of wall clock or domain
    identity.

    Memory model: shard state (sims, mailboxes being filled) is written
    only by the domain running that shard during a window; the exchange
    step reads and writes any shard's state while the workers wait at the
    barrier.  The barrier's own [Atomic]s provide the happens-before edges
    in both directions: a worker's decrement of the pending-lane count
    publishes its window's writes to the caller, and the caller's bump of
    the window generation publishes the exchange's writes to the workers.
    So the shard state and the mailboxes need no atomics of their own. *)

(** Flat integer mailbox: a growable [int array] written by one domain
    during a window and drained by the exchange step at the barrier.
    Fixed-arity records are pushed as consecutive ints, so a mailbox
    allocates nothing in steady state (the buffer doubles until the
    high-water mark, then is reused). *)
module Intbox : sig
  type t

  val create : unit -> t
  val push2 : t -> int -> int -> unit
  val push3 : t -> int -> int -> int -> unit

  val length : t -> int
  (** Number of ints currently stored (a multiple of the record arity). *)

  val get : t -> int -> int
  val clear : t -> unit
end

type t

val create : ?domains:int -> shards:int -> unit -> t
(** An executor for [shards] event cores.  [domains] is the number of OS
    domains that run windows, including the calling one; it is clamped to
    [shards].  By default it is further capped at
    [Domain.recommended_domain_count ()] — oversubscribing domains on a
    small host is strictly slower (every domain shares the stop-the-world
    minor GC), and because the protocol is deterministic the capped
    executor computes bit-identical results, so the cap is safe.  Passing
    [domains] explicitly overrides the cap (tests use this to force real
    cross-domain execution on any host).
    @raise Invalid_argument if [shards < 1] or [domains < 1]. *)

val shards : t -> int
val domains : t -> int

type stats = {
  windows : int;  (** horizons [next] returned, over every [run_windows] call *)
  waits : int;
      (** times a domain found the barrier closed and had to wait for it: a
          worker for the next window, or the caller for the workers *)
  parks : int;  (** waits that gave up spinning and blocked on the mutex *)
}

val stats : t -> stats
(** Host-side counters of this executor's barrier, summed over its
    [run_windows] calls (a worker's counts are added when it is joined).
    They describe the simulator, not the simulated system: they are never
    part of any simulated metric or result.  With one domain there is no
    barrier, so [waits = parks = 0]. *)

val run_windows :
  t ->
  next:(unit -> int option) ->
  work:(int -> int -> unit) ->
  exchange:(int -> unit) ->
  unit
(** Drive the window loop.  [next ()] returns the next window-end horizon
    (a nanosecond timestamp), or [None] when done; [work shard horizon]
    advances one shard to the horizon (called once per shard per window,
    possibly on another domain); [exchange horizon] runs on the calling
    domain after every shard has reached the horizon — including after
    the final window.

    Shards are assigned to domains statically ([shard mod domains]) and
    the caller's own lane runs shard 0, so with one domain the loop is a
    plain sequential iteration with no synchronisation.  With several
    domains, a domain that reaches the barrier first spins on it for about
    one window of lane work and then parks on a condition variable until
    it opens.  When [domains] exceeds [Domain.recommended_domain_count ()]
    no domain spins: spinning would only take the core a lagging domain
    needs, so every wait parks at once.  An exception raised by any
    [work] (on any domain) or by [exchange] is re-raised on the calling
    domain after the workers are parked and joined; when several raise,
    the first one recorded wins. *)
