(* The event queue is a hierarchical timer wheel ([Timer_wheel]): O(1)
   schedule and cancel for the dominant [after]/[every] pattern.  It
   extracts in (timestamp, insertion-order) order, so runs are
   deterministic; test_timer_wheel holds it in lockstep with a binary-heap
   specification kept in the test suite.

   An event is represented as thinly as possible: a one-shot event IS its
   wheel handle behind a one-word constructor (the wheel refuses a cancel
   after extraction and reports it as [false]), so [at]/[after] add two
   words over the queue node itself.  Only [every] — one record per
   periodic SERIES, not per tick — needs a mutable cell, so a cancel from
   inside the series' own callback can stop the re-arm. *)

type t = { mutable clock : Simtime.t; wheel : (unit -> unit) Timer_wheel.t }
type series = {
  mutable cancelled : bool;
  mutable handle : (unit -> unit) Timer_wheel.handle option;
}
type event = Oneshot of (unit -> unit) Timer_wheel.handle | Series of series

let create () = { clock = Simtime.zero; wheel = Timer_wheel.create () }
let now t = t.clock

let check_time t time =
  if Simtime.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Sim.at: %a is before current time %a" Simtime.pp time Simtime.pp t.clock)

(* One-shot events use the wheel's stamped oneshot lane: the node's
   arena slot recycles as soon as it fires or is cancelled, and a cancel
   arriving after the firing is refused by the generation stamp — so the
   cancellable [at]/[after] traffic (scheduler slice-end events, TCP-ish
   timeouts) is leak-free and allocates only its two-word handle. *)
let at t time f =
  check_time t time;
  Oneshot (Timer_wheel.insert_oneshot t.wheel ~prio:(Simtime.to_ns time) f)

let after t span f =
  let span = Simtime.span_max span Simtime.span_zero in
  at t (Simtime.add t.clock span) f

(* Fire-and-forget scheduling: most events in a run — scheduler kicks,
   packet deliveries, think-time wakeups — are never cancelled, so
   returning a cancellable handle for them is pure overhead.  [post] lets
   the wheel recycle the queue node through its free list, making these
   events allocation-free in steady state. *)
let post_at t time f =
  check_time t time;
  Timer_wheel.insert_pooled t.wheel ~prio:(Simtime.to_ns time) f

let post t span f =
  let span = Simtime.span_max span Simtime.span_zero in
  post_at t (Simtime.add t.clock span) f

let cancel t = function
  | Oneshot h -> Timer_wheel.cancel t.wheel h
  | Series s ->
      if s.cancelled then false
      else begin
        s.cancelled <- true;
        match s.handle with None -> false | Some h -> Timer_wheel.cancel t.wheel h
      end

let pending t = Timer_wheel.length t.wheel

let step t =
  match Timer_wheel.pop_min t.wheel with
  | None -> false
  | Some (prio, f) ->
      t.clock <- Simtime.of_ns prio;
      f ();
      true

(* The wheel's "nothing due" answer: a closure no caller can schedule. *)
let nothing_due () = ()

(* A top-level loop with no free variables and [Timer_wheel.pop_until]'s
   payload-or-sentinel result: firing an event allocates nothing here.
   The wheel commits its lower bound to the horizon when nothing is due;
   that is sound because [run_until] then advances the clock to the
   horizon, and no event is ever scheduled before the clock. *)
let rec fire_until t horizon_ns =
  let f = Timer_wheel.pop_until t.wheel ~horizon:horizon_ns ~none:nothing_due in
  if f != nothing_due then begin
    t.clock <- Simtime.of_ns (Timer_wheel.lower_bound t.wheel);
    f ();
    fire_until t horizon_ns
  end

let run_until t horizon =
  fire_until t (Simtime.to_ns horizon);
  if Simtime.(horizon > t.clock) then t.clock <- horizon

let run t = while step t do () done

(* One closure, one series record and one pinned queue node serve the
   whole periodic series: each tick [Timer_wheel.rearm]s the node it just
   fired from, so steady-state periodic timers (a scheduler quantum, an
   invariant sweep) allocate nothing per period.  The handle never
   changes across re-arms, so [cancel] keeps working on whichever
   incarnation is queued.  A re-arm lands at the same bucket position a
   fresh insert would, so the series fires where re-inserting would. *)
let every t period f =
  if not (Simtime.span_is_positive period) then invalid_arg "Sim.every: period must be positive";
  let body = { cancelled = false; handle = None } in
  let tick () =
    if not body.cancelled then begin
      f ();
      if not body.cancelled then
        match body.handle with
        | Some h -> Timer_wheel.rearm t.wheel h ~prio:(Simtime.to_ns (Simtime.add t.clock period))
        | None -> assert false
    end
  in
  body.handle <-
    Some (Timer_wheel.insert t.wheel ~prio:(Simtime.to_ns (Simtime.add t.clock period)) tick);
  Series body
