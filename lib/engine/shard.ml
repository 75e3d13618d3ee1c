(* Conservative time-window barrier executor.  See shard.mli for the
   protocol and its determinism argument.

   The barrier is a generation counter and a pending-lane counter, both
   [Atomic]s.  The caller publishes a window by setting [pending] and
   [horizon] and then bumping [gen]; each worker waits for [gen] to move,
   runs the shards of its lane and counts [pending] down; the caller waits
   for [pending = 0], runs the exchange, and publishes the next window.
   The atomics carry the happens-before edges both ways: everything a
   lane wrote before its decrement is visible to the caller once it reads
   0, and everything the exchange wrote before the bump is visible to a
   worker that reads the new generation.

   A waiter spins on its atomic with [Domain.cpu_relax] for [spin_budget]
   iterations, about one window of lane work, and then parks on a
   condition variable.  A sleeper registers in a [sleepers] count and
   re-checks its condition under the mutex before it waits; a waker
   changes the atomic first and then, only if someone is registered,
   broadcasts under the mutex, so no wake-up is lost and the unparked
   path takes no lock.  When there are more domains than the host
   recommends, a spinner would only burn the core its partner needs, so
   every wait parks at once.  Workers are spawned per [run_windows] call
   and joined on exit (including the exception paths), so the executor
   owns no long-lived threads. *)

module Intbox = struct
  type t = { mutable buf : int array; mutable len : int }

  let create () = { buf = Array.make 64 0; len = 0 }

  let ensure t extra =
    let cap = Array.length t.buf in
    if t.len + extra > cap then begin
      let cap' = ref (cap * 2) in
      while t.len + extra > !cap' do
        cap' := !cap' * 2
      done;
      let buf = Array.make !cap' 0 in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let push2 t a b =
    ensure t 2;
    t.buf.(t.len) <- a;
    t.buf.(t.len + 1) <- b;
    t.len <- t.len + 2

  let push3 t a b c =
    ensure t 3;
    t.buf.(t.len) <- a;
    t.buf.(t.len + 1) <- b;
    t.buf.(t.len + 2) <- c;
    t.len <- t.len + 3

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Shard.Intbox.get: out of bounds";
    t.buf.(i)

  let clear t = t.len <- 0
end

type stats = { windows : int; waits : int; parks : int }

type t = {
  shards : int;
  domains : int;
  spin : int; (* relax iterations before a wait parks; 0 = park at once *)
  mutable windows : int;
  mutable waits : int;
  mutable parks : int;
}

(* Sized to about one window of lane work (on a 2-vCPU x86 VM, 36 ns per
   relax, ~70 us in all), so that a lane waiting for its partner or for
   the next window is usually released before it parks. *)
let spin_budget = 2_000

let create ?domains ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let recommended = Domain.recommended_domain_count () in
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Shard.create: domains must be >= 1";
        Stdlib.min d shards
    | None -> Stdlib.min shards recommended
  in
  let spin = if domains > recommended then 0 else spin_budget in
  { shards; domains; spin; windows = 0; waits = 0; parks = 0 }

let shards t = t.shards
let domains t = t.domains
let stats t = { windows = t.windows; waits = t.waits; parks = t.parks }

let run_sequential t ~next ~work ~exchange =
  let rec loop () =
    match next () with
    | None -> ()
    | Some h ->
        t.windows <- t.windows + 1;
        for s = 0 to t.shards - 1 do
          work s h
        done;
        exchange h;
        loop ()
  in
  loop ()

(* Per-lane wait counters: each lane writes only its own, and the
   caller adds the workers' in after joining them. *)
type counts = { mutable n_waits : int; mutable n_parks : int }

type barrier = {
  horizon : int Atomic.t;
  gen : int Atomic.t; (* bumped once per published window, and at stop *)
  pending : int Atomic.t; (* worker lanes still running this window *)
  stop : bool Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t; (* first one wins *)
  m : Mutex.t;
  go : Condition.t; (* workers park here for the next generation *)
  idle : Condition.t; (* the caller parks here for pending = 0 *)
  sleepers : int Atomic.t; (* domains registered to park on [go] or [idle] *)
}

let record b e bt = ignore (Atomic.compare_and_set b.failure None (Some (e, bt)))

let wake b cond =
  if Atomic.get b.sleepers > 0 then begin
    Mutex.lock b.m;
    Condition.broadcast cond;
    Mutex.unlock b.m
  end

(* Wait until [ready b arg]: spin up to [spin] relaxes, then park on
   [cond].  [ready] is one of the two closed functions below, never a
   fresh closure, so waiting allocates nothing. *)
let await b ~spin c cond ready arg =
  if not (ready b arg) then begin
    c.n_waits <- c.n_waits + 1;
    let i = ref spin in
    while !i > 0 && not (ready b arg) do
      Domain.cpu_relax ();
      decr i
    done;
    if !i = 0 then begin
      c.n_parks <- c.n_parks + 1;
      Mutex.lock b.m;
      Atomic.incr b.sleepers;
      while not (ready b arg) do
        Condition.wait cond b.m
      done;
      Atomic.decr b.sleepers;
      Mutex.unlock b.m
    end
  end

let gen_moved b seen = Atomic.get b.gen <> seen
let lanes_done b () = Atomic.get b.pending = 0

let run_parallel t ~next ~work ~exchange =
  let b =
    {
      horizon = Atomic.make 0;
      gen = Atomic.make 0;
      pending = Atomic.make 0;
      stop = Atomic.make false;
      failure = Atomic.make None;
      m = Mutex.create ();
      go = Condition.create ();
      idle = Condition.create ();
      sleepers = Atomic.make 0;
    }
  in
  let spin = t.spin in
  (* Lane [l] owns shards l, l+domains, l+2*domains, ... — a static
     assignment, so which domain runs a shard never depends on timing. *)
  let lane_work lane h =
    let s = ref lane in
    while !s < t.shards do
      work !s h;
      s := !s + t.domains
    done
  in
  let worker lane () =
    let c = { n_waits = 0; n_parks = 0 } in
    let seen = ref 0 in
    await b ~spin c b.go gen_moved !seen;
    while not (Atomic.get b.stop) do
      seen := Atomic.get b.gen;
      (match Atomic.get b.failure with
      | Some _ -> () (* a window already failed; just drain the barrier *)
      | None -> (
          try lane_work lane (Atomic.get b.horizon)
          with e -> record b e (Printexc.get_raw_backtrace ())));
      if Atomic.fetch_and_add b.pending (-1) = 1 then wake b b.idle;
      await b ~spin c b.go gen_moved !seen
    done;
    c
  in
  let workers = Array.init (t.domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let own = { n_waits = 0; n_parks = 0 } in
  let shutdown () =
    Atomic.set b.stop true;
    Atomic.incr b.gen;
    wake b b.go;
    Array.iter
      (fun d ->
        let c = Domain.join d in
        own.n_waits <- own.n_waits + c.n_waits;
        own.n_parks <- own.n_parks + c.n_parks)
      workers;
    t.waits <- t.waits + own.n_waits;
    t.parks <- t.parks + own.n_parks
  in
  Fun.protect ~finally:shutdown (fun () ->
      let rec loop () =
        match next () with
        | None -> ()
        | Some h ->
            t.windows <- t.windows + 1;
            Atomic.set b.pending (t.domains - 1);
            Atomic.set b.horizon h;
            Atomic.incr b.gen;
            wake b b.go;
            (try lane_work 0 h with e -> record b e (Printexc.get_raw_backtrace ()));
            await b ~spin own b.idle lanes_done ();
            (match Atomic.get b.failure with
            | Some (e, bt) -> Printexc.raise_with_backtrace e bt
            | None -> ());
            exchange h;
            loop ()
      in
      loop ())

let run_windows t ~next ~work ~exchange =
  if t.domains = 1 then run_sequential t ~next ~work ~exchange
  else run_parallel t ~next ~work ~exchange
