(** Exponentially time-decayed CPU-usage accumulator.

    The traditional UNIX scheduler modifies numeric priorities by a
    time-decayed measure of recent CPU usage (paper §4.3); this module is
    that measure.  Decay is applied lazily at read/update time, so idle
    principals cost nothing.  {!Sched.Timeshare} applies the same decay
    over flat per-slot arrays; this record form is the unit-tested
    reference. *)

type t

val create : tau:Engine.Simtime.span -> t
(** [tau] is the exponential time constant: usage recorded [tau] ago counts
    for 1/e of its original weight.  @raise Invalid_argument if [tau] is
    not positive. *)

val add : t -> now:Engine.Simtime.t -> Engine.Simtime.span -> unit
(** Record consumption at time [now]. *)

val read : t -> now:Engine.Simtime.t -> float
(** Current decayed value, in nanoseconds of recent CPU. *)

val reset : t -> unit
