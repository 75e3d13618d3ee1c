(* Unit and property tests for Engine.Timer_wheel, centred on its
   equivalence with the binary heap it is specified by (Spec.Heapq): under
   the event-queue discipline (priorities never below the last
   extraction) both must produce identical extraction sequences — same
   priorities, same insertion-order FIFO among ties, same response to
   cancellation.  One level up, Engine.Sim is held in lockstep with
   Spec.Sim_spec, the same driver over the heap. *)

module Heapq = Spec.Heapq
module Wheel = Engine.Timer_wheel
module Sim = Engine.Sim
module Simtime = Engine.Simtime

let test_empty () =
  let w = Wheel.create () in
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  Alcotest.(check int) "length" 0 (Wheel.length w);
  Alcotest.(check bool) "pop empty" true (Wheel.pop_min w = None);
  Alcotest.(check int) "lower bound starts at 0" 0 (Wheel.lower_bound w)

let drain_wheel w =
  let rec go acc = match Wheel.pop_min w with Some (_, v) -> go (v :: acc) | None -> List.rev acc in
  go []

let test_ordering () =
  let w = Wheel.create () in
  List.iter (fun p -> ignore (Wheel.insert w ~prio:p p)) [ 5; 1; 4; 1; 3; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5 ] (drain_wheel w)

let test_fifo_ties () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:7 "first");
  ignore (Wheel.insert w ~prio:7 "second");
  ignore (Wheel.insert w ~prio:7 "third");
  Alcotest.(check (list string))
    "insertion order at equal priority" [ "first"; "second"; "third" ] (drain_wheel w)

let test_cancel () =
  let w = Wheel.create () in
  let _a = Wheel.insert w ~prio:1 "a" in
  let b = Wheel.insert w ~prio:2 "b" in
  let _c = Wheel.insert w ~prio:3 "c" in
  Alcotest.(check bool) "cancel live" true (Wheel.cancel w b);
  Alcotest.(check bool) "cancel twice" false (Wheel.cancel w b);
  Alcotest.(check int) "length after cancel" 2 (Wheel.length w);
  Alcotest.(check bool) "a first" true (Wheel.pop_min w = Some (1, "a"));
  Alcotest.(check bool) "b skipped" true (Wheel.pop_min w = Some (3, "c"));
  Alcotest.(check bool) "drained" true (Wheel.pop_min w = None)

let test_far_priorities () =
  (* Spread across many wheel levels, including the top ones. *)
  let w = Wheel.create () in
  let prios = [ 0; 1; 63; 64; 4095; 4096; 1_000_000; 1_000_000_000; max_int / 2; max_int ] in
  List.iter (fun p -> ignore (Wheel.insert w ~prio:p p)) (List.rev prios);
  Alcotest.(check (list int)) "cascades through all levels" prios (drain_wheel w)

let test_insert_below_lower_bound_rejected () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:100 "x");
  Alcotest.(check bool) "pop" true (Wheel.pop_min w = Some (100, "x"));
  Alcotest.check_raises "past insert rejected"
    (Invalid_argument "Timer_wheel.insert: priority 99 below lower bound 100") (fun () ->
      ignore (Wheel.insert w ~prio:99 "y"))

let test_insert_at_lower_bound_ok () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:50 "a");
  Alcotest.(check bool) "a" true (Wheel.pop_min w = Some (50, "a"));
  ignore (Wheel.insert w ~prio:50 "b");
  (* scheduling "now" keeps working, and fires after what was queued *)
  ignore (Wheel.insert w ~prio:50 "c");
  Alcotest.(check bool) "b" true (Wheel.pop_min w = Some (50, "b"));
  Alcotest.(check bool) "c" true (Wheel.pop_min w = Some (50, "c"))

let test_pop_min_until_commits_horizon () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:10_000 "later");
  Alcotest.(check bool) "nothing before 5000" true (Wheel.pop_min_until w ~horizon:5_000 = None);
  Alcotest.(check int) "lower bound committed" 5_000 (Wheel.lower_bound w);
  Alcotest.(check bool) "event still queued" true (Wheel.length w = 1);
  Alcotest.(check bool) "fires within horizon" true
    (Wheel.pop_min_until w ~horizon:20_000 = Some (10_000, "later"))

let test_clear () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    ignore (Wheel.insert w ~prio:(i * 37) i)
  done;
  Wheel.clear w;
  Alcotest.(check bool) "cleared" true (Wheel.is_empty w);
  ignore (Wheel.insert w ~prio:1 1);
  Alcotest.(check int) "usable after clear" 1 (Wheel.length w)

(* {1 The equivalence property}

   Random schedules of interleaved inserts, cancellations and pops are
   applied to the wheel and the heap; extraction sequences (priority AND identity,
   so same-priority FIFO ties are compared too) must match exactly.
   Inserted priorities respect the event-queue discipline: each is the
   current lower bound plus a random non-negative delta, with deltas
   drawn across several orders of magnitude to exercise every wheel
   level. *)

type op =
  | Insert of int (* delta *)
  | Insert_pooled of int (* delta; wheel-side uses the free-list path *)
  | Cancel of int (* index hint *)
  | Pop

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           ( 4,
             map
               (fun (mag, d) -> Insert (d mod (1 lsl mag)))
               (pair (int_range 0 40) (int_range 0 max_int)) );
           ( 3,
             map
               (fun (mag, d) -> Insert_pooled (d mod (1 lsl mag)))
               (pair (int_range 0 40) (int_range 0 max_int)) );
           (2, map (fun i -> Cancel i) (int_range 0 1000));
           (3, return Pop);
         ]))

let prop_wheel_matches_heap =
  QCheck2.Test.make ~name:"wheel and heap extract identical sequences" ~count:300 gen_ops
    (fun ops ->
      let h = Heapq.create () in
      let w = Wheel.create () in
      let bound = ref 0 in
      let seq = ref 0 in
      let handles = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Insert delta ->
              let prio = if !bound > max_int - delta then max_int else !bound + delta in
              let id = !seq in
              incr seq;
              let hh = Heapq.insert h ~prio id in
              let wh = Wheel.insert w ~prio id in
              handles := (hh, wh) :: !handles;
              Heapq.length h = Wheel.length w
          | Insert_pooled delta ->
              (* Pooled nodes have no handle and recycle through the free
                 list on pop; interleaved with handled inserts, cancels
                 and pops they must still extract in exactly the heap's
                 order, across solo-lane transitions and node reuse. *)
              let prio = if !bound > max_int - delta then max_int else !bound + delta in
              let id = !seq in
              incr seq;
              ignore (Heapq.insert h ~prio id);
              Wheel.insert_pooled w ~prio id;
              Heapq.length h = Wheel.length w
          | Cancel i -> (
              match !handles with
              | [] -> true
              | hs ->
                  let hh, wh = List.nth hs (i mod List.length hs) in
                  let a = Heapq.cancel h hh in
                  let b = Wheel.cancel w wh in
                  a = b && Heapq.length h = Wheel.length w)
          | Pop -> (
              match (Heapq.pop_min h, Wheel.pop_min w) with
              | None, None -> true
              | Some (hp, hv), Some (wp, wv) ->
                  bound := hp;
                  hp = wp && hv = wv && Heapq.length h = Wheel.length w
              | _ -> false))
        ops)

let prop_pop_until_equals_peek_and_pop =
  (* pop_min_until must agree with the heap's peek-then-pop under
     monotonically growing horizons. *)
  QCheck2.Test.make ~name:"wheel pop_min_until matches heap peek+pop" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 100) (int_range 0 100_000))
        (list_size (int_range 1 40) (int_range 0 20_000)))
    (fun (prios, steps) ->
      let h = Heapq.create () in
      let w = Wheel.create () in
      List.iteri
        (fun i p ->
          ignore (Heapq.insert h ~prio:p i);
          ignore (Wheel.insert w ~prio:p i))
        prios;
      let horizon = ref 0 in
      List.for_all
        (fun step ->
          horizon := !horizon + step;
          let rec drain_until () =
            let from_heap =
              match Heapq.peek_min_prio h with
              | Some p when p <= !horizon -> Heapq.pop_min h
              | _ -> None
            in
            let from_wheel = Wheel.pop_min_until w ~horizon:!horizon in
            if from_heap <> from_wheel then false
            else match from_heap with Some _ -> drain_until () | None -> true
          in
          drain_until ())
        steps)

(* {1 Sim-level equivalence}

   The same scenario — a mix of one-shot timers, nested scheduling,
   cancellations and periodic timers — run on Engine.Sim and on the
   heap-backed Spec.Sim_spec must fire events in exactly the same order
   at exactly the same simulated times.  Each script is written once,
   against this signature, and run on both drivers. *)

module type SIM = sig
  type t
  type event

  val create : unit -> t
  val now : t -> Simtime.t
  val at : t -> Simtime.t -> (unit -> unit) -> event
  val after : t -> Simtime.span -> (unit -> unit) -> event
  val post_at : t -> Simtime.t -> (unit -> unit) -> unit
  val post : t -> Simtime.span -> (unit -> unit) -> unit
  val cancel : t -> event -> bool
  val run_until : t -> Simtime.t -> unit
  val run : t -> unit
  val every : t -> Simtime.span -> (unit -> unit) -> event
end

let engine_sim = (module Sim : SIM)
let spec_sim = (module Spec.Sim_spec : SIM)

let scripted_run (module Sim : SIM) =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := (Simtime.to_ns (Sim.now sim), tag) :: !log in
  ignore (Sim.at sim (Simtime.of_ns 50) (record "a50"));
  ignore (Sim.at sim (Simtime.of_ns 50) (record "b50"));
  let cancelled = Sim.at sim (Simtime.of_ns 75) (record "never") in
  ignore (Sim.cancel sim cancelled);
  ignore
    (Sim.after sim (Simtime.us 1) (fun () ->
         record "outer" ();
         ignore (Sim.after sim Simtime.span_zero (record "inner-now"));
         ignore (Sim.after sim (Simtime.us 3) (record "inner-later"))));
  let periodic = Sim.every sim (Simtime.us 2) (record "tick") in
  ignore (Sim.at sim (Simtime.of_ns 9_000) (fun () -> ignore (Sim.cancel sim periodic)));
  Sim.run_until sim (Simtime.of_ns 20_000);
  ignore (Sim.after sim (Simtime.us 5) (record "late"));
  Sim.run sim;
  (List.rev !log, Simtime.to_ns (Sim.now sim))

let test_sim_matches_spec () =
  let heap_log, heap_clock = scripted_run spec_sim in
  let wheel_log, wheel_clock = scripted_run engine_sim in
  Alcotest.(check (list (pair int string))) "same firing sequence" heap_log wheel_log;
  Alcotest.(check int) "same final clock" heap_clock wheel_clock

let prop_sim_random_schedule_equivalence =
  QCheck2.Test.make ~name:"random Sim schedules fire identically on both backends" ~count:100
    QCheck2.Gen.(list_size (int_range 1 120) (pair (int_range 0 50_000) (int_range 0 10)))
    (fun script ->
      let run (module Sim : SIM) =
        let sim = Sim.create () in
        let log = ref [] in
        List.iteri
          (fun i (t, kind) ->
            let t = Simtime.of_ns t in
            match kind with
            | 0 | 1 | 2 | 3 ->
                ignore (Sim.at sim t (fun () -> log := (Simtime.to_ns (Sim.now sim), i) :: !log))
            | 9 | 10 ->
                (* fire-and-forget lane; pooled on the wheel *)
                Sim.post_at sim t (fun () -> log := (Simtime.to_ns (Sim.now sim), 3000 + i) :: !log)
            | 4 | 5 ->
                (* schedule then immediately cancel: must never fire *)
                let ev = Sim.at sim t (fun () -> log := (-1, i) :: !log) in
                ignore (Sim.cancel sim ev)
            | 6 ->
                (* nested re-arm at fire time *)
                ignore
                  (Sim.at sim t (fun () ->
                       ignore
                         (Sim.after sim (Simtime.ns 17) (fun () ->
                              log := (Simtime.to_ns (Sim.now sim), 1000 + i) :: !log))))
            | _ ->
                let count = ref 0 in
                let ev = ref None in
                ev :=
                  Some
                    (Sim.every sim (Simtime.ns 997) (fun () ->
                         incr count;
                         log := (Simtime.to_ns (Sim.now sim), 2000 + i) :: !log;
                         if !count > 5 then Option.iter (fun e -> ignore (Sim.cancel sim e)) !ev)))
          script;
        Sim.run_until sim (Simtime.of_ns 30_000);
        Sim.run sim;
        List.rev !log
      in
      run spec_sim = run engine_sim)

(* The periodic fast lane's primitive: a popped node goes back in at a
   later priority, keeping the same handle (so cancellation still works),
   and a rearm while the node is queued, or into the past, is refused. *)
let test_rearm () =
  let w = Wheel.create () in
  let h = Wheel.insert w ~prio:10 "tick" in
  (try
     Wheel.rearm w h ~prio:20;
     Alcotest.fail "rearm of a queued node must raise"
   with Invalid_argument _ -> ());
  Alcotest.(check (option (pair int string))) "first firing" (Some (10, "tick")) (Wheel.pop_min w);
  Wheel.rearm w h ~prio:75;
  Alcotest.(check int) "rearmed node counts" 1 (Wheel.length w);
  Alcotest.(check (option (pair int string))) "second firing" (Some (75, "tick")) (Wheel.pop_min w);
  (try
     Wheel.rearm w h ~prio:5;
     Alcotest.fail "rearm below the lower bound must raise"
   with Invalid_argument _ -> ());
  Wheel.rearm w h ~prio:75;
  Alcotest.(check bool) "handle still cancellable" true (Wheel.cancel w h);
  Alcotest.(check bool) "wheel drained" true (Wheel.is_empty w);
  Wheel.rearm w h ~prio:200;
  Alcotest.(check (option (pair int string)))
    "cancelled node rearms too" (Some (200, "tick")) (Wheel.pop_min w)

(* Pooled (fire-and-forget) inserts: recycled nodes must behave exactly
   like fresh ones — same FIFO among ties, clean interaction with the
   solo fast lane (repeated single-occupant pops), and no value leakage
   across reuse. *)
let test_insert_pooled () =
  let w = Wheel.create () in
  (* Solo-lane churn: one pooled occupant at a time, popped repeatedly —
     the same node cycles through the free list each time. *)
  for i = 1 to 5 do
    Wheel.insert_pooled w ~prio:(i * 10) i;
    Alcotest.(check (option (pair int int))) "solo pooled pop" (Some (i * 10, i)) (Wheel.pop_min w)
  done;
  (* Mixed ties: pooled and handled nodes at one priority keep insertion
     order, and a recycled pooled node re-queued mid-stream slots in
     FIFO like any fresh insert. *)
  Wheel.insert_pooled w ~prio:100 1;
  ignore (Wheel.insert w ~prio:100 2);
  Wheel.insert_pooled w ~prio:100 3;
  Alcotest.(check int) "three queued" 3 (Wheel.length w);
  Alcotest.(check (list int)) "FIFO among mixed ties" [ 1; 2; 3 ] (drain_wheel w);
  (* Cancellation of a handled node must not disturb pooled neighbours. *)
  Wheel.insert_pooled w ~prio:200 10;
  let hc = Wheel.insert w ~prio:200 11 in
  Wheel.insert_pooled w ~prio:300 12;
  Alcotest.(check bool) "cancel handled" true (Wheel.cancel w hc);
  Alcotest.(check (list int)) "pooled survive cancel" [ 10; 12 ] (drain_wheel w);
  (* clear must not strand pooled nodes in an inconsistent state. *)
  Wheel.insert_pooled w ~prio:400 20;
  Wheel.insert_pooled w ~prio:500 21;
  Wheel.clear w;
  Alcotest.(check bool) "cleared" true (Wheel.is_empty w);
  Wheel.insert_pooled w ~prio:600 22;
  Alcotest.(check (option (pair int int))) "usable after clear" (Some (600, 22)) (Wheel.pop_min w)

(* Sim.post is the fire-and-forget lane end to end: posted events must
   fire in exactly the position an [at] at the same instant would (the
   spec's [post] is literally an [at]), including nested posts from
   inside a firing event. *)
let test_sim_post_equivalence () =
  let run (module Sim : SIM) =
    let sim = Sim.create () in
    let log = ref [] in
    let record tag () = log := (Simtime.to_ns (Sim.now sim), tag) :: !log in
    Sim.post_at sim (Simtime.of_ns 40) (record "p40");
    ignore (Sim.at sim (Simtime.of_ns 40) (record "a40"));
    Sim.post_at sim (Simtime.of_ns 40) (record "q40");
    Sim.post sim (Simtime.us 1) (fun () ->
        record "outer" ();
        Sim.post sim Simtime.span_zero (record "inner-now");
        Sim.post sim (Simtime.us 2) (record "inner-later"));
    ignore (Sim.every sim (Simtime.us 1) (record "tick"));
    Sim.run_until sim (Simtime.of_ns 4_500);
    (List.rev !log, Simtime.to_ns (Sim.now sim))
  in
  let heap_log, heap_clock = run spec_sim in
  let wheel_log, wheel_clock = run engine_sim in
  Alcotest.(check (list (pair int string))) "same firing sequence" heap_log wheel_log;
  Alcotest.(check int) "same final clock" heap_clock wheel_clock

(* Rearm must interleave correctly with fresh inserts: FIFO among ties
   places the rearmed node behind nodes already at that priority. *)
let test_rearm_tie_order () =
  let w = Wheel.create () in
  let h = Wheel.insert w ~prio:1 "recycled" in
  ignore (Wheel.pop_min w);
  ignore (Wheel.insert w ~prio:9 "fresh");
  Wheel.rearm w h ~prio:9;
  Alcotest.(check (list string)) "behind existing ties" [ "fresh"; "recycled" ] (drain_wheel w)

let suite =
  [
    Alcotest.test_case "empty wheel" `Quick test_empty;
    Alcotest.test_case "rearm recycles a node" `Quick test_rearm;
    Alcotest.test_case "rearm tie order" `Quick test_rearm_tie_order;
    Alcotest.test_case "min ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO among ties" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "far priorities cascade" `Quick test_far_priorities;
    Alcotest.test_case "past insert rejected" `Quick test_insert_below_lower_bound_rejected;
    Alcotest.test_case "insert at lower bound" `Quick test_insert_at_lower_bound_ok;
    Alcotest.test_case "pop_min_until commits horizon" `Quick test_pop_min_until_commits_horizon;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "pooled inserts recycle cleanly" `Quick test_insert_pooled;
    Alcotest.test_case "scripted Sim equivalence" `Quick test_sim_matches_spec;
    Alcotest.test_case "Sim.post fires like Sim.at" `Quick test_sim_post_equivalence;
    QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
    QCheck_alcotest.to_alcotest prop_pop_until_equals_peek_and_pop;
    QCheck_alcotest.to_alcotest prop_sim_random_schedule_equivalence;
  ]
