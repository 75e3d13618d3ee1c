(** The server's document store and in-memory file cache.

    The paper's experiments serve a cached 1 KB static file; this module
    also models misses (a disk read costing {!Costs.cache_miss}) so that
    tests and examples can exercise cold-cache behaviour.  Eviction is LRU
    over a byte-capacity budget.

    Internally a struct-of-arrays arena with an intrusive doubly-linked
    LRU list (DESIGN.md §15): lookup, touch, and eviction are O(1) and
    allocation-free, so one machine serves a 10^6-document Zipf working
    set at the same per-request cost as the seed's 4 documents.  Documents
    are identified by {!Docset} ids on the hot path; the [~path] API is
    the compat view over the same state.  [Spec.File_cache_ref] is the
    executable spec this implementation is QCheck-lockstepped against. *)

type t

val create : ?capacity_bytes:int -> unit -> t
(** Default capacity 64 MB (the paper's machine had 128 MB of RAM). *)

val add_document : t -> path:string -> bytes:int -> unit
(** Register a servable document (interning [path] into the global
    {!Docset}).  Documents start uncached; re-registration is ignored. *)

val add_doc : t -> doc:int -> bytes:int -> unit
(** Register by interned doc id (the non-allocating form used by bulk
    docset builders). *)

val document_size : t -> path:string -> int option

type outcome = Hit of int | Miss of int | Not_found_doc

val lookup : t -> path:string -> outcome
(** Look a path up, updating cache state: a [Miss] loads the document
    (evicting LRU entries if needed) so a repeat lookup hits.  The [int]
    is the document size in bytes. *)

val lookup_doc : t -> doc:int -> outcome
(** {!lookup} by interned doc id — the request hot path; O(1), allocation
    free.  Ids the cache never saw (including negative ones) are
    [Not_found_doc]. *)

val lookup_cost : outcome -> Engine.Simtime.span
(** CPU to charge for the lookup: {!Costs.cache_hit}, {!Costs.cache_miss},
    or a hit-priced scan for misses of unknown documents. *)

val warm : t -> unit
(** Load every registered document that fits, in registration order, as
    the paper's warm-cache experiments assume.  Warm loads count as
    (unmetered) lookups for recency purposes: each loaded document is
    stamped and becomes most-recently-used in turn. *)

val is_cached : t -> path:string -> bool
(** Residency probe (no LRU side effects); for tests and lockstep checks. *)

val hits : t -> int
val misses : t -> int
val cached_bytes : t -> int

val registered : t -> int
(** Number of registered documents. *)

val register_metrics : t -> Engine.Metrics.t -> unit
(** Register the cache's hit/miss counters and a [cache.cached_bytes]
    gauge into [registry].  {!hits}/{!misses} remain views over the same
    counters, so the registry and the accessors always agree. *)

val register_invariants : t -> Engine.Invariant.t -> unit
(** Register the [cache.bytes-consistency] law: {!cached_bytes} equals the
    sum of resident entries' sizes, is non-negative, never exceeds the
    configured capacity, and the intrusive LRU list threads exactly the
    resident slots. *)
