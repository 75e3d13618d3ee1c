(** Cluster-wide usage rollup for principals that span machines.

    A tenant owns one container per machine; machines have separate ledger
    arenas, so those containers cannot be chained into one hierarchy.  A
    rollup {e group} aggregates them instead: enroll each machine's
    [Usage.t] (typically [Container.subtree_usage] of the tenant's
    per-machine container) and call {!aggregate} periodically — deltas
    since the previous reading fold into flat per-group totals through the
    allocation-free scalar readers.

    The "cluster.usage-rollup" conservation law ({!law}, {!register})
    re-derives every group's totals by a fresh sum over the members'
    current ledger readings and compares with the incremental counters
    plus un-aggregated deltas: sum of per-machine tenant usage must equal
    the cluster rollup at every quiesce point. *)

type t
(** A rollup: a set of named groups (one per tenant). *)

type group

val create : unit -> t

val group : t -> name:string -> group
(** Add a named group (a tenant's cluster-wide totals). *)

val groups : t -> group list
(** In creation order. *)

val enroll : group -> Usage.t -> unit
(** Add one machine's usage to the group.  The current reading becomes the
    member's baseline: only consumption after enrollment rolls up. *)

val aggregate : t -> unit
(** Fold every member's delta since its last reading into its group's
    totals.  Allocation-free; run from a periodic simulation event. *)

val aggregations : t -> int
(** Number of {!aggregate} sweeps performed. *)

(** {1 Cluster totals (as of the last {!aggregate})} *)

val cpu_ns : group -> int
val mem_bytes : group -> int
val rx_bytes : group -> int
val tx_bytes : group -> int
val disk_ns : group -> int

(** {1 The conservation law} *)

val law : t -> unit -> (unit, string) result
(** Check every group: incremental totals plus pending deltas must equal a
    fresh sum over the member ledgers, in every dimension. *)

val register : t -> Engine.Invariant.t -> unit
(** Register {!law} as ["cluster.usage-rollup"] in an invariant registry. *)
