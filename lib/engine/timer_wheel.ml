(* Hierarchical timer wheel: [levels] wheels of 64 slots each, slot
   granularity 64^l ns at level [l], so 11 levels cover the full 63-bit
   priority range.  Every queued node lives in the bucket given by its
   priority's level-l digit, where [l] is the highest 6-bit digit in
   which the priority differs from the wheel's lower bound [cur]; as
   [cur] advances into a bucket, the bucket cascades one level down.

   The resulting invariants carry all the correctness weight:

   - every queued priority is [>= cur];
   - at level 0 all nodes sit in the current 64 ns window, one exact
     priority per slot, at slots [>= cur land 63];
   - at level [l >= 1] all nodes share [cur]'s digits above [l] and sit
     in slots strictly beyond [cur]'s level-l digit (the slot [cur] is
     inside was emptied by the cascade that moved [cur] into it);
   - equal priorities always share one bucket: a bucket is a function of
     (prio, cur) only, so a later equal-priority insert lands where the
     earlier node already is, behind it.  Buckets append at the tail and
     cascades walk head-to-tail, so insertion-order FIFO is structural.

   {2 Arena layout}

   Storage is a struct-of-arrays arena: a node is an [int] index into
   parallel arrays ([prio]/[link_next]/[link_prev]/[meta], plus a
   [values] payload array), not a boxed record.  Indices
   [0 .. levels*64 - 1] are the bucket sentinels (sentinel of level [l],
   slot [s] is [l*64 + s]); dynamic nodes start right after and are
   recycled through an intrusive free list threaded through
   [link_next].  Cascades and pops therefore walk contiguous int arrays
   instead of chasing heap pointers, and the wheel performs zero GC
   allocation in steady state.

   A node's bookkeeping is packed into one [meta] word:

     bits 0..7   level + 2         (-2 = solo lane, -1 = free/idle)
     bit  8      queued
     bit  9      pinned            (caller owns the slot; never recycled)
     bits 10..39 generation stamp  (bumped when the slot is recycled)

   Handles are ints too: [index | stamp lsl 30].  A handle is valid only
   while its stamp matches the slot's current stamp, so a cancel racing
   a recycled slot is detected and safely refused — slot reuse can never
   cancel an innocent newer node.  Pinned nodes ({!insert}) keep their
   stamp for the lifetime of the wheel, which is what lets {!rearm}
   revive them arbitrarily often under one handle.

   Buckets are circular doubly-linked lists through a per-slot sentinel,
   which makes cancellation a true O(1) unlink — no dead nodes, no
   compaction, and a cancel-heavy workload (TCP timers under SYN flood)
   releases its payloads immediately.

   Each level also keeps a 64-bit occupancy bitmap (two 32-bit halves,
   since the OCaml int has 63 value bits) with one bit per non-empty
   bucket.  Extraction finds the next busy slot with a find-first-set
   instead of walking up to 64 empty sentinels — this is what closes the
   wheel-vs-heap gap on sparse periodic workloads, where a lone timer
   used to pay a full-window scan per tick. *)

let bits = 6
let slot_count = 64
let levels = 11 (* 11 * 6 = 66 bits >= the 62 of max_int *)
let nsent = levels * slot_count (* arena indices below this are sentinels *)
let mask = slot_count - 1

(* meta word accessors *)
let m_queued = 0x100
let m_pinned = 0x200
let lvl_of m = (m land 0xff) - 2
let queued m = m land m_queued <> 0
let pinned m = m land m_pinned <> 0
let stamp_of m = (m lsr 10) land 0x3FFFFFFF

(* handle = index | stamp lsl 30; both fields 30 bits wide *)
let h_idx h = h land 0x3FFFFFFF
let h_stamp h = (h lsr 30) land 0x3FFFFFFF
let mk_handle i stamp = i lor (stamp lsl 30)

type 'a handle = int

type 'a t = {
  mutable prio : int array;
  mutable link_next : int array;
  mutable link_prev : int array;
  mutable meta : int array;
  mutable values : 'a array;
  counts : int array; (* queued nodes per level *)
  occ : int array; (* [levels*2] occupancy: slots 0-31 at [2l], 32-63 at [2l+1] *)
  mutable live : int;
  mutable cur : int; (* lower bound on every queued priority *)
  mutable solo : int; (* when [live = 1]: the queued node, held OUT of the buckets; -1 = none *)
  mutable free : int; (* free list of recyclable nodes, chained by [link_next]; -1 = end *)
  mutable used : int; (* high-water mark: indices >= this were never allocated *)
}

(* Solo fast lane: while exactly one node is queued it lives in [solo]
   and in no bucket (lvl = -2, counts and occupancy untouched), so the
   pop/re-arm cycle of a lone periodic timer — the steady state of a
   scheduler quantum or sweep timer — is a handful of stores, no digit
   arithmetic, no sentinel traffic.  A second insert first demotes the
   solo node into its proper bucket (its priority is >= cur, so [place]
   is valid), preserving FIFO order for equal priorities because the
   earlier node is placed first. *)

(* The payload of a free or sentinel slot is never read; the immediate 0
   keeps the values array from pinning popped payloads. *)
let dummy () : 'a = Obj.magic 0

let initial_cap = nsent + 256

let create () =
  {
    (* every slot starts self-linked; sentinels stay that way until used *)
    prio = Array.make initial_cap min_int;
    link_next = Array.init initial_cap (fun i -> i);
    link_prev = Array.init initial_cap (fun i -> i);
    meta = Array.make initial_cap 0;
    values = Array.make initial_cap (dummy ());
    counts = Array.make levels 0;
    occ = Array.make (levels * 2) 0;
    live = 0;
    cur = 0;
    solo = -1;
    free = -1;
    used = nsent;
  }

let length t = t.live
let is_empty t = t.live = 0
let lower_bound t = t.cur

let grow t =
  let cap = Array.length t.prio in
  let ncap = cap * 2 in
  let gi a =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 cap;
    n
  in
  t.prio <- gi t.prio;
  t.link_next <- gi t.link_next;
  t.link_prev <- gi t.link_prev;
  t.meta <- gi t.meta;
  let nv = Array.make ncap (dummy ()) in
  Array.blit t.values 0 nv 0 cap;
  t.values <- nv

(* Take a slot off the free list (or extend the high-water mark), keep
   its generation stamp, and initialise it queued at level 0. *)
let alloc_node t ~prio ~value ~pin =
  let i =
    if t.free >= 0 then begin
      let i = t.free in
      t.free <- t.link_next.(i);
      i
    end
    else begin
      if t.used = Array.length t.prio then grow t;
      let i = t.used in
      t.used <- i + 1;
      i
    end
  in
  t.prio.(i) <- prio;
  t.values.(i) <- value;
  t.link_next.(i) <- i;
  t.link_prev.(i) <- i;
  t.meta.(i) <- (t.meta.(i) land lnot 0x3ff) lor m_queued lor (if pin then m_pinned else 0) lor 2;
  i

(* Recycle a slot: drop the payload, bump the generation stamp (which
   invalidates every outstanding handle onto it) and push it on the free
   list. *)
let free_node t i =
  t.values.(i) <- dummy ();
  t.meta.(i) <- ((stamp_of t.meta.(i) + 1) land 0x3FFFFFFF) lsl 10;
  t.link_next.(i) <- t.free;
  t.free <- i

let append t sentinel i =
  let tail = t.link_prev.(sentinel) in
  t.link_prev.(i) <- tail;
  t.link_next.(i) <- sentinel;
  t.link_next.(tail) <- i;
  t.link_prev.(sentinel) <- i

let unlink t i =
  let p = t.link_prev.(i) and n = t.link_next.(i) in
  t.link_next.(p) <- n;
  t.link_prev.(n) <- p;
  t.link_prev.(i) <- i;
  t.link_next.(i) <- i

(* {2 Occupancy bitmaps} *)

let occ_set t lvl slot =
  let i = (lvl lsl 1) + (slot lsr 5) in
  t.occ.(i) <- t.occ.(i) lor (1 lsl (slot land 31))

let occ_clear t lvl slot =
  let i = (lvl lsl 1) + (slot lsr 5) in
  t.occ.(i) <- t.occ.(i) land lnot (1 lsl (slot land 31))

(* Index of the lowest set bit of a non-zero 32-bit word, by de Bruijn
   multiplication (Leiserson/Prokop/Randall). *)
let debruijn_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ntz32 x = debruijn_table.(((x land -x) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Smallest occupied slot [>= from] at [lvl], or [slot_count] if none. *)
let first_occupied t lvl ~from =
  if from >= slot_count then slot_count
  else begin
    let hi = t.occ.((lvl lsl 1) + 1) in
    if from < 32 then begin
      let lo = t.occ.(lvl lsl 1) land lnot ((1 lsl from) - 1) in
      if lo <> 0 then ntz32 lo else if hi <> 0 then 32 + ntz32 hi else slot_count
    end
    else begin
      let hi = hi land lnot ((1 lsl (from - 32)) - 1) in
      if hi <> 0 then 32 + ntz32 hi else slot_count
    end
  end

let rec level_of_diff l d = if d < slot_count then l else level_of_diff (l + 1) (d lsr bits)

let place t i =
  let prio = t.prio.(i) in
  let lvl = level_of_diff 0 (prio lxor t.cur) in
  let slot = (prio lsr (bits * lvl)) land mask in
  t.meta.(i) <- (t.meta.(i) land lnot 0xff) lor (lvl + 2);
  append t ((lvl lsl bits) lor slot) i;
  occ_set t lvl slot;
  t.counts.(lvl) <- t.counts.(lvl) + 1

(* Unlink a queued node and keep counts and occupancy honest; the slot is
   recomputed from the node's own (prio, lvl), which [unlink] preserves. *)
let remove t i =
  let lvl = lvl_of t.meta.(i) in
  let slot = (t.prio.(i) lsr (bits * lvl)) land mask in
  unlink t i;
  t.counts.(lvl) <- t.counts.(lvl) - 1;
  let sentinel = (lvl lsl bits) lor slot in
  if t.link_next.(sentinel) = sentinel then occ_clear t lvl slot

let enqueue_node t i =
  if t.live = 0 then begin
    t.meta.(i) <- t.meta.(i) land lnot 0xff; (* lvl2 = 0, i.e. lvl = -2 *)
    t.solo <- i
  end
  else begin
    if t.solo >= 0 then begin
      place t t.solo;
      t.solo <- -1
    end;
    place t i
  end;
  t.live <- t.live + 1

let insert t ~prio value =
  if prio < t.cur then
    invalid_arg
      (Printf.sprintf "Timer_wheel.insert: priority %d below lower bound %d" prio t.cur);
  let i = alloc_node t ~prio ~value ~pin:true in
  enqueue_node t i;
  mk_handle i (stamp_of t.meta.(i))

(* Cancellable fire-once insertion: like {!insert} the caller gets a
   handle, but the slot recycles the moment the node pops or the cancel
   lands — the generation stamp makes the dangling handle inert. *)
let insert_oneshot t ~prio value =
  if prio < t.cur then
    invalid_arg
      (Printf.sprintf "Timer_wheel.insert_oneshot: priority %d below lower bound %d" prio t.cur);
  let i = alloc_node t ~prio ~value ~pin:false in
  enqueue_node t i;
  mk_handle i (stamp_of t.meta.(i))

let rearm t h ~prio =
  let i = h_idx h in
  if i < nsent || i >= t.used || h_stamp h <> stamp_of t.meta.(i) then
    invalid_arg "Timer_wheel.rearm: stale handle (node was recycled)";
  if queued t.meta.(i) then invalid_arg "Timer_wheel.rearm: node is still queued";
  if prio < t.cur then
    invalid_arg
      (Printf.sprintf "Timer_wheel.rearm: priority %d below lower bound %d" prio t.cur);
  t.prio.(i) <- prio;
  t.meta.(i) <- t.meta.(i) lor m_queued;
  enqueue_node t i

(* Fire-and-forget insertion: the node never escapes the wheel, so there
   is nothing to cancel and the node can be recycled through the free list
   the moment it is popped.  This is what makes the simulator's internal
   one-shot events (scheduler kicks, packet delivery, think-time wakeups —
   the bulk of all events) allocation-free in steady state. *)
let insert_pooled t ~prio value =
  if prio < t.cur then
    invalid_arg
      (Printf.sprintf "Timer_wheel.insert_pooled: priority %d below lower bound %d" prio t.cur);
  let i = alloc_node t ~prio ~value ~pin:false in
  enqueue_node t i

let cancel t h =
  let i = h_idx h in
  if i < nsent || i >= t.used then false
  else begin
    let m = t.meta.(i) in
    if h_stamp h <> stamp_of m || not (queued m) then false
    else begin
      t.meta.(i) <- m land lnot m_queued;
      if i = t.solo then t.solo <- -1 else remove t i;
      t.live <- t.live - 1;
      if not (pinned m) then free_node t i;
      true
    end
  end

(* Move every node of a cascading bucket down; [t.cur] has just advanced
   to the bucket's window start, so [place] lands each node at a strictly
   lower level, head-to-tail order preserved by tail-append. *)
let rec cascade_drain t sentinel lvl =
  let i = t.link_next.(sentinel) in
  if i <> sentinel then begin
    unlink t i;
    t.counts.(lvl) <- t.counts.(lvl) - 1;
    place t i;
    cascade_drain t sentinel lvl
  end

let cascade t sentinel lvl slot =
  cascade_drain t sentinel lvl;
  occ_clear t lvl slot

(* Pop bookkeeping shared by every extraction path: mark unqueued,
   capture the payload, recycle the slot unless the caller pinned it. *)
let take_payload t i =
  let m = t.meta.(i) in
  t.meta.(i) <- m land lnot m_queued;
  let v = t.values.(i) in
  if not (pinned m) then free_node t i;
  v

(* Extract the minimum-priority node with priority <= horizon, advancing
   [cur] no further than [min next-priority horizon]; [commit] decides
   whether an empty wheel pins [cur] to the horizon.  Returns the payload
   (its priority is then [t.cur]) or [none] when nothing is due, so a pop
   allocates nothing. *)
let rec extract t ~horizon ~commit ~none =
  if t.live = 0 then begin
    if commit && horizon > t.cur then t.cur <- horizon;
    none
  end
  else if t.solo >= 0 then begin
    (* The lone queued node lives outside the buckets, so this branch is
       the whole story: pop it, or commit [cur] toward the horizon —
       which is safe without any digit reasoning precisely because no
       bucket placement depends on [cur] right now. *)
    let i = t.solo in
    let prio = t.prio.(i) in
    if prio > horizon then begin
      if horizon > t.cur then t.cur <- horizon;
      none
    end
    else begin
      t.live <- 0;
      t.solo <- -1;
      t.cur <- prio;
      take_payload t i
    end
  end
  else if t.counts.(0) > 0 then begin
    (* Level 0: the first busy slot at or after cur's slot holds exactly
       the next priority, in FIFO order. *)
    let s = first_occupied t 0 ~from:(t.cur land mask) in
    if s = slot_count then invalid_arg "Timer_wheel: inconsistent level-0 count"
    else begin
      let i = t.link_next.(s) in
      let prio = t.prio.(i) in
      if prio > horizon then begin
        if horizon > t.cur then t.cur <- horizon;
        none
      end
      else begin
        remove t i;
        t.live <- t.live - 1;
        t.cur <- prio;
        take_payload t i
      end
    end
  end
  else scan_levels t ~horizon ~commit ~none 1

(* Levels >= 1: find the next busy bucket beyond cur's digit, cascade it,
   and retry from level 0.  [t.live > 0] guarantees some level is busy. *)
and scan_levels t ~horizon ~commit ~none lvl =
  if lvl >= levels then begin
    (* Unreachable while the level counts agree with [live]; fail loudly
       rather than spin if they ever do not. *)
    invalid_arg "Timer_wheel: inconsistent level counts"
  end
  else if t.counts.(lvl) = 0 then scan_levels t ~horizon ~commit ~none (lvl + 1)
  else begin
    let shift = bits * lvl in
    let j = first_occupied t lvl ~from:(((t.cur lsr shift) land mask) + 1) in
    if j = slot_count then scan_levels t ~horizon ~commit ~none (lvl + 1)
    else begin
      (* Window start of the found bucket: cur's digits above [lvl],
         digit [lvl] = j, zeros below.  At the top level there are no
         digits above — and shifting by [shift + bits > 63] would be
         unspecified, so that case must short-circuit. *)
      let above =
        (* [lsl]/[lsr] are right-associative, so the rounding-down needs
           explicit parens; and a shift amount > 62 is unspecified, so the
           top level (which has no digits above it) must short-circuit. *)
        let top = shift + bits in
        if top > 62 then 0 else (t.cur lsr top) lsl top
      in
      let bucket_start = above lor (j lsl shift) in
      if bucket_start > horizon then begin
        if horizon > t.cur then t.cur <- horizon;
        none
      end
      else begin
        let sentinel = (lvl lsl bits) lor j in
        let i = t.link_next.(sentinel) in
        if t.link_next.(i) = sentinel && t.prio.(i) <= horizon then begin
          (* Single-occupant bucket.  The first busy bucket at the lowest
             busy level holds the wheel's minimum (lower levels share
             [cur]'s digits above them, so they sort first; equal
             priorities always share a bucket), so a lone occupant IS the
             global minimum: pop it here and skip the cascade staircase
             entirely.  [cur] jumps straight to [node.prio], which keeps
             every other node's bucket valid — the digits above [lvl] are
             unchanged and the level-[lvl] digit advances exactly to [j],
             which this pop empties.  This is what makes a lone periodic
             timer O(1)-cheap per tick instead of one cascade per level. *)
          let prio = t.prio.(i) in
          unlink t i;
          t.counts.(lvl) <- t.counts.(lvl) - 1;
          occ_clear t lvl j;
          t.live <- t.live - 1;
          t.cur <- prio;
          take_payload t i
        end
        else begin
          t.cur <- bucket_start;
          cascade t sentinel lvl j;
          extract t ~horizon ~commit ~none
        end
      end
    end
  end

let pop_until t ~horizon ~none = extract t ~horizon ~commit:true ~none

(* The option-returning pops are for tests and one-off callers: they
   allocate the result, [pop_until] does not.  [absent] is a private
   block, so no payload can be physically equal to it. *)
let absent : Obj.t = Obj.repr (ref 0)

let boxed t v = if v == Obj.magic absent then None else Some (t.cur, v)
let pop_min t = boxed t (extract t ~horizon:max_int ~commit:false ~none:(Obj.magic absent))
let pop_min_until t ~horizon = boxed t (pop_until t ~horizon ~none:(Obj.magic absent))

let clear t =
  (* Unqueue every allocated node; non-pinned slots recycle, pinned ones
     stay owned by their handle (still rearm-able, as after a pop). *)
  for i = nsent to t.used - 1 do
    let m = t.meta.(i) in
    if queued m then begin
      t.meta.(i) <- m land lnot m_queued;
      if not (pinned m) then free_node t i
    end
  done;
  for s = 0 to nsent - 1 do
    t.link_next.(s) <- s;
    t.link_prev.(s) <- s
  done;
  Array.fill t.counts 0 levels 0;
  Array.fill t.occ 0 (levels * 2) 0;
  t.solo <- -1;
  t.live <- 0
