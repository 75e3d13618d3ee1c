(** Shared rig construction for the reproduction experiments.

    A rig is one simulated server machine: event engine, CPU dispatcher
    with the scheduling policy matching the system under test, network
    stack in the matching processing mode, a server process, and a warmed
    document cache.  The three system configurations correspond to the
    curves in the paper's evaluation:

    - [Unmodified]: classic decay-usage timeshare scheduler over process
      principals; softirq network processing (misaccounted, FIFO).
    - [Lrp_sys]: same scheduler; LRP network processing (charged to the
      receiving process).
    - [Rc_sys]: the prototype's multi-level container scheduler; RC network
      processing (per-container queues in priority order). *)

type system = Unmodified | Lrp_sys | Rc_sys

val system_name : system -> string

type rig = {
  sim : Engine.Sim.t;
  root : Rescont.Container.t;
  machine : Procsim.Machine.t;
  server_proc : Procsim.Process.t;
  stack : Netsim.Stack.t;
  cache : Httpsim.File_cache.t;
}

val make_rig :
  ?cpus:int ->
  ?quantum:Engine.Simtime.span ->
  ?limit_window:Engine.Simtime.span ->
  ?server_attrs:Rescont.Attrs.t ->
  system ->
  rig
(** Build a rig.  The cache is pre-loaded with "/doc/1k" (1 024 bytes,
    warm) and a few other documents.  [server_attrs] sets the server
    process's default container attributes (default: fixed-share class
    with share 0 — i.e. a node that may own child containers but competes
    via the timeshare residual; see {!Sched.Multilevel}). *)

val run_for : rig -> Engine.Simtime.span -> unit
(** Advance the simulation by a span. *)

val default_port : int
val doc_path : string
val cgi_path : string

(** {1 Observability}

    Trace/metrics export for the CLI drivers: call {!observe} before
    building rigs, run the experiment, then {!export} the last rig. *)

val observe : ?capacity:int -> unit -> unit
(** Arm observability: every rig built afterwards gets an enabled trace log
    retaining up to [capacity] entries (default 65536). *)

val observing : unit -> bool

val last_rig : unit -> rig option
(** The most recently built rig, if any. *)

val export : ?trace_out:string -> ?metrics_out:string -> rig -> unit
(** Write the rig's trace as JSON lines to [trace_out] and a metrics
    snapshot as JSON to [metrics_out] (each omitted: not written). *)

(** {1 Parallel sweeps}

    Independent experiment points (client counts × seeds × stack modes)
    fanned across domains.  Results come back in input order regardless of
    [jobs], and every point derives its randomness from its own seed —
    never from domain identity — so the output is a pure function of the
    input array.  [map ~jobs:4] and [map ~jobs:1] produce identical
    results (checked byte-for-byte by the determinism test). *)
module Sweep : sig
  val recommended_jobs : unit -> int
  (** [Domain.recommended_domain_count ()]. *)

  val map : ?jobs:int -> ?oversubscribe:bool -> ('a -> 'b) -> 'a array -> 'b array
  (** [map ~jobs f points] applies [f] to every point, running up to
      [jobs] domains in parallel (default 1 = fully sequential).  The
      result array is in input order and is a pure function of the input
      whatever [jobs] is.  If any point raises, the first failure is
      re-raised after in-flight points finish and the remaining points
      are abandoned.

      Domains come from a persistent pool capped at
      {!recommended_jobs} — running more busy domains than cores makes
      every minor GC's stop-the-world rendezvous slower than the
      parallelism is worth, so extra [jobs] beyond the core count are
      ignored (on a 1-core host every sweep is serial).
      [oversubscribe] (default false, for tests of the pool machinery)
      lifts that cap. *)
end
