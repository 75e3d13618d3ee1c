(* Struct-of-arrays document cache with an intrusive LRU list.

   The pre-PR cache was a string-keyed hashtable whose eviction folded the
   whole table per victim — O(n) per miss — and registered documents with a
   quadratic list append.  At the seed's 4 documents that was invisible; a
   Zipf working set of 10^5-10^6 documents lives or dies on it.  Layout
   follows the PR 6 Ledger/Conn_table idiom: every per-document field is a
   flat int array indexed by a dense per-cache slot, and recency is
   structural — a doubly-linked list threaded through [prev]/[next] index
   arrays (head = MRU, tail = LRU) — so lookup, touch, and eviction are all
   O(1) and allocation-free.

   Slots are per-cache and dense in registration order; the global
   {!Docset} id is translated on entry via [index].  Nothing may depend on
   global-id order (interning order can vary between runs when parallel
   domains race to intern): warm order, eviction order, and the invariant
   fold all iterate slots, which are deterministic per cache.

   [Spec.File_cache_ref] (test/spec) is the executable spec: the historic
   hashtable implementation with clock-stamp LRU, lockstepped in QCheck.  The two
   agree because every stamp the spec writes is unique except for warm
   loads, which both sides define as stamped lookups in registration
   order. *)

let nil = -1 (* list end *)
let absent = -2 (* [prev] value of a slot not in the resident list *)

type t = {
  capacity : int;
  mutable index : int array; (* global doc id -> slot, [nil] if unregistered *)
  mutable doc : int array; (* slot -> global doc id *)
  mutable size : int array; (* slot -> document bytes *)
  mutable last_used : int array; (* slot -> clock stamp of last lookup *)
  mutable prev : int array; (* slot -> more-recent neighbour | nil | absent *)
  mutable next : int array; (* slot -> less-recent neighbour | nil *)
  mutable head : int; (* most recently used resident slot, or nil *)
  mutable tail : int; (* least recently used resident slot, or nil *)
  mutable used : int; (* registered slots: 0..used-1 are live *)
  mutable resident : int;
  mutable cached_bytes : int;
  mutable clock : int;
  hits : Engine.Metrics.counter;
  misses : Engine.Metrics.counter;
}

let create ?(capacity_bytes = 64 * 1024 * 1024) () =
  if capacity_bytes <= 0 then invalid_arg "File_cache.create: capacity must be positive";
  {
    capacity = capacity_bytes;
    index = Array.make 256 nil;
    doc = Array.make 256 nil;
    size = Array.make 256 0;
    last_used = Array.make 256 0;
    prev = Array.make 256 absent;
    next = Array.make 256 nil;
    head = nil;
    tail = nil;
    used = 0;
    resident = 0;
    cached_bytes = 0;
    clock = 0;
    hits = Engine.Metrics.make_counter "cache.hits";
    misses = Engine.Metrics.make_counter "cache.misses";
  }

let register_metrics t registry =
  Engine.Metrics.register_counter registry t.hits;
  Engine.Metrics.register_counter registry t.misses;
  Engine.Metrics.gauge registry "cache.cached_bytes" (fun () -> float_of_int t.cached_bytes)

let resident t s = Array.unsafe_get t.prev s <> absent

(* {2 Intrusive list plumbing}

   [link_front]/[unlink] maintain only the list; [load]/[evict_lru] own the
   residency counters, so a touch (unlink + relink) never churns them. *)

let link_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head <> nil then t.prev.(t.head) <- s;
  t.head <- s;
  if t.tail = nil then t.tail <- s

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p <> nil then t.next.(p) <- n else t.head <- n;
  if n <> nil then t.prev.(n) <- p else t.tail <- p;
  t.prev.(s) <- absent;
  t.next.(s) <- nil

let evict_lru t =
  match t.tail with
  | s when s = nil -> false
  | s ->
      unlink t s;
      t.resident <- t.resident - 1;
      t.cached_bytes <- t.cached_bytes - t.size.(s);
      true

let load t s =
  let bytes = t.size.(s) in
  if bytes <= t.capacity then begin
    while t.cached_bytes + bytes > t.capacity && evict_lru t do
      ()
    done;
    link_front t s;
    t.resident <- t.resident + 1;
    t.cached_bytes <- t.cached_bytes + bytes
  end

(* {2 Registration} *)

let grow_to arr len fill =
  let bigger = Array.make (max len (2 * Array.length arr)) fill in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let ensure_doc t doc =
  if doc >= Array.length t.index then t.index <- grow_to t.index (doc + 1) nil

let ensure_slot t =
  if t.used >= Array.length t.doc then begin
    let n = 2 * Array.length t.doc in
    t.doc <- grow_to t.doc n nil;
    t.size <- grow_to t.size n 0;
    t.last_used <- grow_to t.last_used n 0;
    t.prev <- grow_to t.prev n absent;
    t.next <- grow_to t.next n nil
  end

let add_doc t ~doc ~bytes =
  if bytes < 0 then invalid_arg "File_cache.add_doc: negative size";
  if doc < 0 then invalid_arg "File_cache.add_doc: negative doc id";
  ensure_doc t doc;
  if t.index.(doc) = nil then begin
    ensure_slot t;
    let s = t.used in
    t.used <- s + 1;
    t.index.(doc) <- s;
    t.doc.(s) <- doc;
    t.size.(s) <- bytes;
    t.last_used.(s) <- 0;
    t.prev.(s) <- absent;
    t.next.(s) <- nil
  end

let add_document t ~path ~bytes = add_doc t ~doc:(Docset.intern path) ~bytes

let slot_of_doc t doc =
  if doc < 0 || doc >= Array.length t.index then nil else t.index.(doc)

let document_size t ~path =
  match slot_of_doc t (Docset.find_id path) with s when s = nil -> None | s -> Some t.size.(s)

(* {2 The hot path} *)

type outcome = Hit of int | Miss of int | Not_found_doc

let lookup_doc t ~doc =
  t.clock <- t.clock + 1;
  let s = slot_of_doc t doc in
  if s = nil then Not_found_doc
  else begin
    Array.unsafe_set t.last_used s t.clock;
    if resident t s then begin
      if t.head <> s then begin
        unlink t s;
        link_front t s
      end;
      Engine.Metrics.incr t.hits;
      Hit (Array.unsafe_get t.size s)
    end
    else begin
      Engine.Metrics.incr t.misses;
      load t s;
      Miss (Array.unsafe_get t.size s)
    end
  end

let lookup t ~path = lookup_doc t ~doc:(Docset.find_id path)

let lookup_cost = function
  | Hit _ | Not_found_doc -> Costs.cache_hit
  | Miss _ -> Costs.cache_miss

(* Warm loads are stamped lookups in registration order (minus the
   hit/miss counters): both this and the spec define them so, keeping
   structural LRU equal to clock LRU after a warm that follows traffic. *)
let warm t =
  for s = 0 to t.used - 1 do
    if (not (resident t s)) && t.size.(s) <= t.capacity then begin
      t.clock <- t.clock + 1;
      t.last_used.(s) <- t.clock;
      load t s
    end
  done

let is_cached t ~path =
  match slot_of_doc t (Docset.find_id path) with s when s = nil -> false | s -> resident t s

let hits t = Engine.Metrics.counter_value t.hits
let misses t = Engine.Metrics.counter_value t.misses
let cached_bytes t = t.cached_bytes
let registered t = t.used

let register_invariants t registry =
  Engine.Invariant.register registry ~law:"cache.bytes-consistency" (fun () ->
      let actual = ref 0 and count = ref 0 in
      for s = 0 to t.used - 1 do
        if resident t s then begin
          actual := !actual + t.size.(s);
          incr count
        end
      done;
      match Engine.Invariant.equal_int ~what:"cache cached_bytes" !actual t.cached_bytes with
      | Error _ as e -> e
      | Ok () -> (
          match Engine.Invariant.equal_int ~what:"cache resident count" !count t.resident with
          | Error _ as e -> e
          | Ok () -> (
              match Engine.Invariant.non_negative ~what:"cache cached_bytes" t.cached_bytes with
              | Error _ as e -> e
              | Ok () -> (
                  match
                    Engine.Invariant.leq_int ~what:"cache cached_bytes" t.cached_bytes
                      t.capacity
                  with
                  | Error _ as e -> e
                  | Ok () ->
                      (* The LRU list must thread exactly the resident
                         slots: walk from head, checking back-links, and
                         land on tail in [resident] steps. *)
                      let steps = ref 0 and s = ref t.head and ok = ref true in
                      let last = ref nil in
                      while !ok && !s <> nil && !steps <= t.resident do
                        if t.prev.(!s) <> !last then ok := false
                        else begin
                          last := !s;
                          s := t.next.(!s);
                          incr steps
                        end
                      done;
                      if (not !ok) || !s <> nil || !last <> t.tail then
                        Error
                          (Printf.sprintf
                             "cache LRU list corrupt: walked %d of %d resident slots \
                              (head %d, tail %d)"
                             !steps t.resident t.head t.tail)
                      else Engine.Invariant.equal_int ~what:"cache LRU list length" !steps
                             t.resident))))
