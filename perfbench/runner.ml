(* Running a workload: timed repetitions and the statistics over them. *)

module W = Workloads
module Simtime = Engine.Simtime

(* Linear interpolation between closest ranks. *)
let quantile values p =
  let a = Array.copy values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = quantile values 0.5
let ratio a b = if b = 0. then 0. else a /. b
let per_req x completed = ratio (float_of_int x) (float_of_int completed)

type rep = {
  setup_s : float;
  slices : float array;  (** host seconds per slice *)
  calibration : float array;
      (** host seconds of the calibration loop right after each slice;
          empty in a repetition run without it *)
  host_s : float;
  cpu_s : float;  (** process CPU over the measured slices, all domains *)
  sim_s : float;  (** measured simulated seconds *)
  before : W.counters;
  after : W.counters;
  words : int;
  minor_gcs : int;
  major_gcs : int;
  gauges : W.gauges array;
  ledger_slots : int;
  violations : string list;  (** broken invariants at the end of the run *)
  fingerprint : string;
  slice_s : float;  (** simulated seconds per slice *)
}

(* The shared host this benchmark was written on changes speed by up to
   1.7 times, for a tenth of a second to minutes at a time, and a run
   cannot wait for a quiet host.  A fixed loop of the benchmark's own,
   timed right after each slice, measures the speed the slice ran at:
   [calibration_s] over the loop's time scales the slice to a host on
   which the loop takes [calibration_s].  The loop runs on as many domains
   as the simulation, the extra ones spawned and joined as the simulation's
   shard executor does for every slice, and is timed as a whole, so that
   it also feels the cost of starting and waking domains on the host.  The
   loop is not simulator code, so no change to the simulator moves it; it
   allocates nothing, so it never collects the simulator's heap; and its
   tables are a few cache lines, read through before the updates, so the
   simulator's cache footprint hardly moves it either. *)
let calibration_s = 200e-6
let calibration_keys = 64

(* One table per domain: a [Hashtbl] is not safe to share. *)
let calibration_tables = ref [||]

let calibration_run table =
  for k = 0 to calibration_keys - 1 do
    ignore (Hashtbl.find table k)
  done;
  let x = ref 1 in
  for _ = 1 to 3000 do
    x := ((!x * 25214903917) + 11) land 0xFFFFFFFF;
    let key = !x lsr 26 in
    Hashtbl.replace table key (Hashtbl.find table key + 1)
  done

let calibration_loop ~domains =
  if Array.length !calibration_tables < domains then
    calibration_tables :=
      Array.init domains (fun _ ->
          let t = Hashtbl.create calibration_keys in
          for k = 0 to calibration_keys - 1 do
            Hashtbl.replace t k 0
          done;
          t);
  let tables = !calibration_tables in
  let t0 = Unix.gettimeofday () in
  let helpers =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> calibration_run tables.(i + 1)))
  in
  calibration_run tables.(0);
  List.iter Domain.join helpers;
  Unix.gettimeofday () -. t0

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let slices_in span slice = max 1 (Simtime.span_to_ns span / Simtime.span_to_ns slice)

let fingerprint (world : W.world) = Digest.to_hex (Digest.string (world.fingerprint ()))

(* Build a world, run the warm-up, then [length] of simulated time in timed
   slices, each followed by the calibration loop if [calibrated]; check
   the invariants and fingerprint the outcome. *)
let run_rep ~calibrated ~build ~warmup ~length ~traced ~t_start =
  let (world : W.world) = Trace.span ~layer:"setup" "build" build in
  let setup_s = Unix.gettimeofday () -. t_start in
  (* Warm-up in whole slices, so the run is the same sequence of calls a
     single run-for over the whole length would cut into windows. *)
  Trace.span ~layer:"sim" "warmup" (fun () ->
      for _ = 1 to slices_in warmup world.slice do
        world.advance world.slice;
        Allocs.poll ()
      done);
  let n = slices_in length world.slice in
  let slices = Array.make n 0. in
  let calibration = Array.make (if calibrated then n else 0) 0. in
  let gauges = ref [] in
  let slots0 = Rescont.Ledger.used (Rescont.Ledger.get ()) in
  let words0 = Allocs.read () in
  let gc0 = Gc.quick_stat () in
  let before = world.counters () in
  let cpu0 = process_cpu () in
  Trace.sampling := traced;
  for i = 0 to n - 1 do
    let t0 = Unix.gettimeofday () in
    Trace.span ~layer:"sim" "run_for" (fun () -> world.advance world.slice);
    slices.(i) <- Unix.gettimeofday () -. t0;
    if calibrated then calibration.(i) <- calibration_loop ~domains:world.domains;
    if traced then gauges := world.gauges () :: !gauges;
    Allocs.poll ()
  done;
  Trace.sampling := false;
  let cpu_s = process_cpu () -. cpu0 in
  let after = world.counters () in
  let gc1 = Gc.quick_stat () in
  let words = Allocs.read () - words0 in
  let ledger_slots = Rescont.Ledger.used (Rescont.Ledger.get ()) - slots0 in
  let violations =
    List.map
      (fun (v : Engine.Invariant.violation) ->
        Printf.sprintf "invariant %s violated: %s" v.law v.detail)
      (world.violations ())
  in
  ( world,
  {
    setup_s;
    slices;
    calibration;
    host_s = Array.fold_left ( +. ) 0. slices;
    cpu_s;
    sim_s = float_of_int n *. Simtime.span_to_sec_f world.slice;
    before;
    after;
    words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    gauges = Array.of_list (List.rev !gauges);
    ledger_slots;
    violations;
    fingerprint = fingerprint world;
    slice_s = Simtime.span_to_sec_f world.slice;
  } )

let completed r = r.after.completed - r.before.completed
let failed r = r.after.failed - r.before.failed

(* Median slice time over the last fifth of the run over that over the
   first fifth. *)
let drift slices =
  let n = Array.length slices in
  let k = max 1 (n / 5) in
  ratio (median (Array.sub slices (n - k) k)) (median (Array.sub slices 0 k))

(* The same world advanced by one call over the whole run instead of in
   slices: what a sliced run must reproduce exactly. *)
let one_shot ~build ~warmup ~length =
  let world = build () in
  let n = slices_in warmup world.W.slice + slices_in length world.W.slice in
  world.advance (Simtime.ns (n * Simtime.span_to_ns world.slice));
  fingerprint world

(* The correctness verdict over repetitions of one seed: no broken
   invariant, and one fingerprint. *)
let problems = function
  | [] -> []
  | first :: _ as reps ->
      List.concat_map (fun r -> r.violations) reps
      @
      if List.for_all (fun r -> r.fingerprint = first.fingerprint) reps then []
      else [ "fingerprint differs between runs of one seed" ]
