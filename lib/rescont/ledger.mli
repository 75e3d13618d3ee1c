(** Struct-of-arrays accumulator arena behind {!Usage} — internal.

    One arena per domain; every {!Usage.create} takes one slot, every
    accumulator is a flat [int array] indexed by slot, and hierarchical
    roll-up walks the [parent] slot array instead of a chain of boxed
    records.  Use {!Usage} (and {!Container}'s charge operations) rather
    than this module directly; the record-based executable specification
    of these semantics is [Spec.Usage_ref] (test/spec), and a QCheck
    lockstep test holds the two to field-for-field agreement.

    Slots are never reclaimed — the arena grows monotonically with the
    number of containers ever created in the domain (two slots per
    container), which keeps destroyed containers' totals readable and
    the memory bound linear in lifetime container count. *)

type t

exception Negative_memory of { have : int; delta : int }

val get : unit -> t
(** The calling domain's arena. *)

val renew : unit -> unit
(** Swap in a fresh, empty arena for the calling domain.  Outstanding
    usages stay readable (each pins the arena it was allocated in), but
    slots stop being handed out of the old arena, so its growth stops
    being live heap once the last view drops.  Only call between rigs:
    a container created after the renewal cannot be attached under one
    created before it (different arenas refuse to chain-link). *)

val alloc : t -> int
(** Claim a fresh slot, all accumulators zero, no parent. *)

val used : t -> int
(** Number of slots allocated so far (exclusive upper bound on live slot
    indices). *)

val set_parent : t -> slot:int -> parent:int -> unit
(** Link [slot]'s chain to [parent] ([-1] to unlink); both slots must
    belong to [t]. *)

val parent : t -> int -> int

(** {1 Per-slot charging} *)

val add_cpu : t -> int -> kernel:bool -> int -> unit
val add_rx : t -> int -> packets:int -> bytes:int -> unit
val add_tx : t -> int -> packets:int -> bytes:int -> unit

val add_memory : t -> int -> strict:bool -> int -> unit
(** @raise Negative_memory when [strict] and the delta would drive the
    slot's balance negative; saturates at zero otherwise. *)

val add_disk : t -> int -> bytes:int -> int -> unit
val add_kernel_objects : t -> int -> int -> unit

(** {1 Ancestor-chain charging}

    Apply a charge at [slot] and at every slot reachable by [parent]
    links, self first — the index-walk form of "roll up into every
    ancestor's subtree usage". *)

val add_cpu_chain : t -> int -> kernel:bool -> int -> unit
val add_rx_chain : t -> int -> packets:int -> bytes:int -> unit
val add_tx_chain : t -> int -> packets:int -> bytes:int -> unit
val add_memory_chain : t -> int -> strict:bool -> int -> unit
val add_disk_chain : t -> int -> bytes:int -> int -> unit

(** {1 Reading} *)

val cpu_user : t -> int -> int
val cpu_kernel : t -> int -> int
val rx_packets : t -> int -> int
val rx_bytes : t -> int -> int
val tx_packets : t -> int -> int
val tx_bytes : t -> int -> int
val memory_bytes : t -> int -> int
val kernel_objects : t -> int -> int
val disk_reads : t -> int -> int
val disk_bytes : t -> int -> int
val disk_time : t -> int -> int
val reset : t -> int -> unit
