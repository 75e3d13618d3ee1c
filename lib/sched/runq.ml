module Container = Rescont.Container

(* Queues use lazy deletion over flat ring buffers: each per-container
   queue is a pair of parallel arrays (tasks and enqueue stamps), and an
   entry is live only while the task's own intrusive membership fields
   ([rq_owner]/[rq_cid]/[rq_stamp] on {!Task.t}) still match it.  Dequeue
   is therefore O(1) field stores; stale entries are skipped when they
   reach the front and bulk-compacted if they ever dominate a ring.

   Membership lives on the task rather than in a hash table, so the
   per-packet enqueue/dequeue cycle does no hashing and no allocation.
   A task can only carry one queue's fields; the rare second queue (the
   scheduler equivalence tests enqueue one task into an optimised and a
   reference policy at once) falls back to a per-queue [overflow] table
   with the exact same semantics.

   [counts] holds, per container, the number of live tasks queued anywhere
   in its subtree, maintained incrementally along the cached ancestor chain
   on enqueue/dequeue — so [subtree_has_work] is an O(1) lookup instead of
   a recursive walk.  Each ring caches its container's chain of count
   refs, keyed on the physical identity of [Container.ancestry] (which is
   rebuilt exactly when the topology above the container changes), so the
   common bump is a straight array walk with no table lookups.

   Every count is the sum, over the busy queues (live > 0) whose cached
   chain holds it, of their live tasks.  When the container topology
   generation moves, only the busy queues can hold stale contributions:
   [sync] moves each one whose ancestry array changed from its old chain to
   its new one, so a re-shape costs O(busy queues x depth) however many
   queues and counters the run queue has ever created.  An idle queue
   contributes nothing and re-chains at its next bump.  [busy] is that
   dense set of busy queues, each queue knowing its own slot. *)

type cq = {
  mutable tasks : Task.t array; (* ring buffer, capacity always a power of two *)
  mutable stamps : int array; (* enqueue stamp of the parallel [tasks] entry *)
  mutable head : int;
  mutable len : int; (* ring entries, live or stale *)
  container : Container.t;
  mutable live : int;
  mutable chain : int ref array; (* cached subtree count refs along the ancestry *)
  mutable chain_key : Container.t array; (* the ancestry array [chain] was built from *)
  mutable busy_ix : int; (* slot in [t.busy] while live > 0, else -1 *)
}

type t = {
  id : int; (* matches Task.rq_owner for tasks this queue tracks intrusively *)
  queues : (int, cq) Hashtbl.t; (* container id -> queue *)
  overflow : (int, int * int) Hashtbl.t; (* task id -> (container id, stamp) *)
  counts : (int, int ref) Hashtbl.t; (* container id -> live tasks in subtree *)
  mutable total : int; (* live tasks across all queues *)
  mutable next_stamp : int;
  mutable topo_gen : int;
  mutable busy : cq array; (* [busy.(0 .. nbusy-1)]: the queues with live > 0 *)
  mutable nbusy : int;
  mutable rechain_refs : int; (* count refs written by [sync]'s re-chaining *)
}

(* Queue ids only ever participate in equality tests against
   [Task.rq_owner]; nothing may depend on their absolute values. *)
let next_rqid = Atomic.make 0

let dummy_task : Task.t = Obj.magic 0

let dummy_cq : cq = Obj.magic 0

let create () =
  {
    id = Atomic.fetch_and_add next_rqid 1;
    queues = Hashtbl.create 64;
    overflow = Hashtbl.create 8;
    counts = Hashtbl.create 64;
    total = 0;
    next_stamp = 0;
    topo_gen = Container.topology_generation ();
    busy = Array.make 8 dummy_cq;
    nbusy = 0;
    rechain_refs = 0;
  }

let subtree_count_ref t container =
  let cid = Container.id container in
  match Hashtbl.find t.counts cid with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.replace t.counts cid r;
      r

(* The count refs keep their identity across topology rebuilds, so the
   cached chains here and the multilevel scheduler's child index stay
   valid; only the ancestry ARRAY changes identity, which is exactly the
   event that invalidates a ring's cached chain. *)
let refresh_chain t cq =
  let ancestry = Container.ancestry cq.container in
  if not (cq.chain_key == ancestry) then begin
    cq.chain <- Array.map (fun c -> subtree_count_ref t c) ancestry;
    cq.chain_key <- ancestry
  end

let bump_cq t cq delta =
  refresh_chain t cq;
  let chain = cq.chain in
  for i = 0 to Array.length chain - 1 do
    let r = Array.unsafe_get chain i in
    r := !r + delta
  done

(* Move a busy queue's contribution from its cached chain to its current
   ancestry, if that changed since the chain was built. *)
let rechain t cq =
  let ancestry = Container.ancestry cq.container in
  if not (cq.chain_key == ancestry) then begin
    let old = cq.chain in
    for i = 0 to Array.length old - 1 do
      let r = Array.unsafe_get old i in
      r := !r - cq.live
    done;
    bump_cq t cq cq.live;
    t.rechain_refs <- t.rechain_refs + Array.length old + Array.length cq.chain
  end

let sync t =
  let g = Container.topology_generation () in
  if g <> t.topo_gen then begin
    t.topo_gen <- g;
    for i = 0 to t.nbusy - 1 do
      rechain t (Array.unsafe_get t.busy i)
    done
  end

let rechain_work t = t.rechain_refs

let add_busy t cq =
  if t.nbusy = Array.length t.busy then begin
    let nb = Array.make (2 * t.nbusy) dummy_cq in
    Array.blit t.busy 0 nb 0 t.nbusy;
    t.busy <- nb
  end;
  cq.busy_ix <- t.nbusy;
  t.busy.(t.nbusy) <- cq;
  t.nbusy <- t.nbusy + 1

let remove_busy t cq =
  let last = t.nbusy - 1 in
  let moved = t.busy.(last) in
  t.busy.(cq.busy_ix) <- moved;
  moved.busy_ix <- cq.busy_ix;
  t.busy.(last) <- dummy_cq;
  t.nbusy <- last;
  cq.busy_ix <- -1

let queue_for t container =
  let cid = Container.id container in
  match Hashtbl.find t.queues cid with
  | cq -> cq
  | exception Not_found ->
      let cq =
        {
          tasks = Array.make 8 dummy_task;
          stamps = Array.make 8 0;
          head = 0;
          len = 0;
          container;
          live = 0;
          chain = [||];
          chain_key = [||];
          busy_ix = -1;
        }
      in
      Hashtbl.replace t.queues cid cq;
      cq

let owns t (task : Task.t) = task.Task.rq_owner = t.id

let mem t (task : Task.t) = owns t task || Hashtbl.mem t.overflow task.Task.id

(* Liveness of a ring entry: the fast path is three field compares on the
   task itself; overflow membership is consulted only for tasks owned by
   another queue. *)
let entry_live t cid (task : Task.t) stamp =
  if task.Task.rq_owner = t.id then task.Task.rq_cid = cid && task.Task.rq_stamp = stamp
  else
    match Hashtbl.find t.overflow task.Task.id with
    | c, s -> c = cid && s = stamp
    | exception Not_found -> false

let ring_push cq task stamp =
  let cap = Array.length cq.tasks in
  if cq.len = cap then begin
    let ncap = cap * 2 in
    let nt = Array.make ncap dummy_task in
    let ns = Array.make ncap 0 in
    for i = 0 to cq.len - 1 do
      let j = (cq.head + i) land (cap - 1) in
      nt.(i) <- cq.tasks.(j);
      ns.(i) <- cq.stamps.(j)
    done;
    cq.tasks <- nt;
    cq.stamps <- ns;
    cq.head <- 0
  end;
  let i = (cq.head + cq.len) land (Array.length cq.tasks - 1) in
  cq.tasks.(i) <- task;
  cq.stamps.(i) <- stamp;
  cq.len <- cq.len + 1

(* Drop stale entries sitting at the front, releasing their task pointers
   so the ring never pins a dequeued task. *)
let skim t cid cq =
  let continue = ref true in
  while !continue && cq.len > 0 do
    let i = cq.head land (Array.length cq.tasks - 1) in
    let task = cq.tasks.(i) in
    if entry_live t cid task cq.stamps.(i) then continue := false
    else begin
      cq.tasks.(i) <- dummy_task;
      cq.head <- cq.head + 1;
      cq.len <- cq.len - 1
    end
  done

(* Fresh arrays rather than in-place: compaction runs only when stale
   entries outnumber live ones, and copying sidesteps the read-after-
   overwrite hazard of sliding a wrapped ring over itself. *)
let compact_cq t cid cq =
  let cap = Array.length cq.tasks in
  let nt = Array.make cap dummy_task in
  let ns = Array.make cap 0 in
  let j = ref 0 in
  for i = 0 to cq.len - 1 do
    let src = (cq.head + i) land (cap - 1) in
    let task = cq.tasks.(src) in
    if entry_live t cid task cq.stamps.(src) then begin
      nt.(!j) <- task;
      ns.(!j) <- cq.stamps.(src);
      incr j
    end
  done;
  cq.tasks <- nt;
  cq.stamps <- ns;
  cq.head <- 0;
  cq.len <- !j

let enqueue t (task : Task.t) =
  if not (mem t task) then begin
    sync t;
    let container = Task.container task in
    let cid = Container.id container in
    let cq = queue_for t container in
    let stamp = t.next_stamp in
    t.next_stamp <- stamp + 1;
    ring_push cq task stamp;
    if task.Task.rq_owner < 0 then begin
      task.Task.rq_owner <- t.id;
      task.Task.rq_cid <- cid;
      task.Task.rq_stamp <- stamp
    end
    else Hashtbl.replace t.overflow task.Task.id (cid, stamp);
    cq.live <- cq.live + 1;
    if cq.live = 1 then add_busy t cq;
    t.total <- t.total + 1;
    bump_cq t cq 1;
    if cq.len > 8 + (2 * cq.live) then compact_cq t cid cq
  end

let dequeue t (task : Task.t) =
  let cid =
    if owns t task then begin
      let cid = task.Task.rq_cid in
      task.Task.rq_owner <- -1;
      task.Task.rq_cid <- -1;
      cid
    end
    else
      match Hashtbl.find t.overflow task.Task.id with
      | cid, _stamp ->
          Hashtbl.remove t.overflow task.Task.id;
          cid
      | exception Not_found -> -1
  in
  if cid >= 0 then begin
    sync t;
    match Hashtbl.find t.queues cid with
    | cq ->
        cq.live <- cq.live - 1;
        if cq.live = 0 then remove_busy t cq;
        t.total <- t.total - 1;
        bump_cq t cq (-1)
    | exception Not_found -> ()
  end

let requeue t task =
  dequeue t task;
  enqueue t task

let count t = t.total

let front t container =
  let cid = Container.id container in
  match Hashtbl.find t.queues cid with
  | exception Not_found -> None
  | cq when cq.live > 0 ->
      skim t cid cq;
      if cq.len > 0 then Some cq.tasks.(cq.head land (Array.length cq.tasks - 1)) else None
  | _ -> None

let rotate t container =
  let cid = Container.id container in
  match Hashtbl.find t.queues cid with
  | exception Not_found -> ()
  | cq when cq.live > 1 ->
      skim t cid cq;
      if cq.len > 0 then begin
        let cap = Array.length cq.tasks in
        let i = cq.head land (cap - 1) in
        let task = cq.tasks.(i) in
        let stamp = cq.stamps.(i) in
        cq.tasks.(i) <- dummy_task;
        cq.head <- cq.head + 1;
        cq.len <- cq.len - 1;
        ring_push cq task stamp
      end
  | _ -> ()

let container_has_work t container =
  match Hashtbl.find t.queues (Container.id container) with
  | cq -> cq.live > 0
  | exception Not_found -> false

let subtree_has_work t container =
  sync t;
  match Hashtbl.find t.counts (Container.id container) with
  | r -> !r > 0
  | exception Not_found -> false

let containers_with_work t =
  Hashtbl.fold (fun _ cq acc -> if cq.live > 0 then cq.container :: acc else acc) t.queues []

(* Visit every container with live queued work, in the same traversal
   order [containers_with_work] uses, without building the list. *)
let iter_busy t f = Hashtbl.iter (fun _ cq -> if cq.live > 0 then f cq.container) t.queues

(* Re-derive every maintained count from the ring contents and compare:
   the incremental bookkeeping ([live], [total], [counts] and the
   task-resident membership fields) must agree with a from-scratch
   recomputation at any event boundary. *)
let validate t =
  sync t;
  let mismatch = ref None in
  let total = ref 0 in
  let busy = ref 0 in
  Hashtbl.iter
    (fun cid cq ->
      let live = ref 0 in
      let cap = Array.length cq.tasks in
      for i = 0 to cq.len - 1 do
        let j = (cq.head + i) land (cap - 1) in
        if entry_live t cid cq.tasks.(j) cq.stamps.(j) then incr live
      done;
      total := !total + !live;
      if cq.live > 0 then incr busy;
      if !mismatch = None && cq.live <> !live then
        mismatch :=
          Some
            (Printf.sprintf "queue %s: live=%d but %d ring entries are live"
               (Container.name cq.container) cq.live !live);
      let listed = cq.busy_ix >= 0 && cq.busy_ix < t.nbusy && t.busy.(cq.busy_ix) == cq in
      if !mismatch = None && listed <> (cq.live > 0) then
        mismatch :=
          Some
            (Printf.sprintf "queue %s: live=%d but busy-set membership is %b"
               (Container.name cq.container) cq.live listed))
    t.queues;
  if !mismatch = None && t.nbusy <> !busy then
    mismatch := Some (Printf.sprintf "busy set holds %d queues, %d are busy" t.nbusy !busy);
  if !mismatch = None && t.total <> !total then
    mismatch := Some (Printf.sprintf "total=%d but queues hold %d live entries" t.total !total);
  Hashtbl.iter
    (fun task_id (cid, _stamp) ->
      if !mismatch = None && not (Hashtbl.mem t.queues cid) then
        mismatch :=
          Some (Printf.sprintf "overflow task#%d mapped to container #%d with no queue" task_id cid))
    t.overflow;
  (match !mismatch with
  | Some _ -> ()
  | None ->
      (* Subtree occupancy: rebuild the ancestor-chain sums and compare
         with the incrementally maintained counters. *)
      let fresh = Hashtbl.create 16 in
      Hashtbl.iter
        (fun _ cq ->
          if cq.live > 0 then begin
            let chain = Container.ancestry cq.container in
            for i = 0 to Array.length chain - 1 do
              let cid = Container.id (Array.unsafe_get chain i) in
              let n = match Hashtbl.find_opt fresh cid with Some n -> n | None -> 0 in
              Hashtbl.replace fresh cid (n + cq.live)
            done
          end)
        t.queues;
      Hashtbl.iter
        (fun cid r ->
          let expected = match Hashtbl.find_opt fresh cid with Some n -> n | None -> 0 in
          if !mismatch = None && !r <> expected then
            mismatch :=
              Some
                (Printf.sprintf "subtree count for container #%d: cached %d, recomputed %d" cid
                   !r expected))
        t.counts;
      Hashtbl.iter
        (fun cid n ->
          if !mismatch = None && not (Hashtbl.mem t.counts cid) then
            mismatch :=
              Some (Printf.sprintf "container #%d has %d queued in subtree but no counter" cid n))
        fresh);
  match !mismatch with None -> Ok () | Some msg -> Error msg
