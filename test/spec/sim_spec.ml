(* Executable specification of [Engine.Sim]: the same driver over the
   binary heap ([Heapq]), written for obviousness rather than speed.
   Events extract in (timestamp, insertion-order) order; a periodic
   series re-inserts itself after every tick; [run_until] peeks before it
   pops.  test_timer_wheel runs one script against both drivers and
   demands the same firing sequence at the same simulated times. *)

module Simtime = Engine.Simtime

type t = { mutable clock : Simtime.t; queue : (unit -> unit) Heapq.t }
type series = { mutable cancelled : bool; mutable handle : Heapq.handle option }
type event = Oneshot of Heapq.handle | Series of series

let create () = { clock = Simtime.zero; queue = Heapq.create () }
let now t = t.clock

let at t time f =
  if Simtime.(time < t.clock) then invalid_arg "Sim_spec.at: time is in the past";
  Oneshot (Heapq.insert t.queue ~prio:(Simtime.to_ns time) f)

let after t span f = at t (Simtime.add t.clock (Simtime.span_max span Simtime.span_zero)) f
let post_at t time f = ignore (at t time f)
let post t span f = ignore (after t span f)

let cancel t = function
  | Oneshot h -> Heapq.cancel t.queue h
  | Series s ->
      if s.cancelled then false
      else begin
        s.cancelled <- true;
        match s.handle with None -> false | Some h -> Heapq.cancel t.queue h
      end

let pending t = Heapq.length t.queue

let step t =
  match Heapq.pop_min t.queue with
  | None -> false
  | Some (prio, f) ->
      t.clock <- Simtime.of_ns prio;
      f ();
      true

let rec run_until t horizon =
  match Heapq.peek_min_prio t.queue with
  | Some prio when prio <= Simtime.to_ns horizon ->
      ignore (step t);
      run_until t horizon
  | Some _ | None -> if Simtime.(horizon > t.clock) then t.clock <- horizon

let run t = while step t do () done

let every t period f =
  if not (Simtime.span_is_positive period) then
    invalid_arg "Sim_spec.every: period must be positive";
  let s = { cancelled = false; handle = None } in
  let rec arm () =
    s.handle <- Some (Heapq.insert t.queue ~prio:(Simtime.to_ns (Simtime.add t.clock period)) tick)
  and tick () =
    if not s.cancelled then begin
      f ();
      if not s.cancelled then arm ()
    end
  in
  arm ();
  Series s
