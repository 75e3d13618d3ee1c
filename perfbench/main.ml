(* The simulator benchmark.  One process runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

   Untraced (--trace 0) it repeats the workload's fixed simulated run,
   each repetition on a fresh world built from the seed, as many times as
   fill about S seconds, then prints the end-to-end metrics.  Traced
   (--trace 1) it runs the workload untraced, traced and untraced again
   (and for the cluster once more at one shard), checks that all agree,
   times the bare loops against the traced world's live state and prints
   the per-layer metrics.  --setup-only builds the world, reports the
   set-up time and exits.  Set-up time counts from the start of this
   module, which runs just after the libraries' initialisers, so the cost
   of spawning the process is not in it.  The last
   line of standard output is one JSON object.  A run whose simulated
   output fails a check prints it with "correct": false and every request
   counted as failed; only a failure of the harness itself (a bare loop
   that fails its self-check, an unreadable /proc) exits with status 1
   and prints no result. *)

let process_start = Unix.gettimeofday ()

module W = Perfbench.Workloads
module Trace = Perfbench.Trace
module Allocs = Perfbench.Allocs
module R = Perfbench.Runner
open R

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 1) fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let setup_only = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
         | Some s when s > 0. -> seconds := s
         | _ -> fail "--seconds wants a positive number");
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--setup-only" :: rest -> setup_only := true; go rest
    | [] -> ()
    | a :: _ -> fail "unknown argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed with
  | None -> fail "--seed N is required"
  | Some seed ->
      {
        workload = !workload;
        seed;
        seconds = !seconds;
        trace = !trace;
        setup_only = !setup_only;
      }

let run_rep ?build ?(calibrated = false) (spec : W.spec) ~seed ~traced ~t_start =
  let build = Option.value build ~default:(fun () -> spec.build ~seed) in
  R.run_rep ~calibrated ~build ~warmup:spec.warmup ~length:spec.length ~traced ~t_start

(* --- output ---------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> fail "no VmHWM in /proc/self/status"
      in
      scan ())

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~problems ~attempted ~failed metrics =
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) problems;
  let correct = problems = [] in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* --- modes ----------------------------------------------------------- *)

(* Every repetition of a seed does the same simulated work, so slice [i]
   of each is a sample of one cost.  Each sample is scaled by the host
   speed measured right after it (see [Runner.calibration_loop]), and the
   profile keeps, slice by slice, the median over the repetitions; the
   end-to-end times are read off that profile.  The repetition count
   depends only on --seconds, never on the speed of the code, so every
   commit is measured over the same number of samples. *)
let repetitions (spec : W.spec) seconds =
  max 3 (int_of_float (Float.round (seconds /. spec.rep_host_s)))

let end_to_end (spec : W.spec) args =
  let rep t_start =
    snd (run_rep spec ~calibrated:true ~seed:args.seed ~traced:false ~t_start)
  in
  let first = rep process_start in
  (* The first repetition runs from a fresh process, so the high-water
     mark here is that of one fixed run. *)
  let rss = peak_rss_mb () in
  let rest =
    List.init (repetitions spec args.seconds - 1) (fun _ ->
        Gc.full_major ();
        rep (Unix.gettimeofday ()))
  in
  let rs = first :: rest in
  let n = Array.length first.slices in
  if n < 200 then fail "only %d slices: p95 needs at least 200" n;
  let scaled r i = r.slices.(i) *. R.calibration_s /. r.calibration.(i) in
  let profile =
    Array.init n (fun i -> median (Array.of_list (List.map (fun r -> scaled r i) rs)))
  in
  let host_s = Array.fold_left ( +. ) 0. profile in
  let least =
    Array.init n (fun i -> List.fold_left (fun m r -> Float.min m r.slices.(i)) infinity rs)
  in
  let loop_s = median (Array.concat (List.map (fun r -> r.calibration) rs)) in
  let problems = R.problems rs in
  let completed = completed first in
  let attempted = completed + failed first in
  (* A run whose simulated output fails a check counts every request as
     failed. *)
  let failed = if problems = [] then failed first else attempted in
  Printf.printf "workload %s seed %d: %d repetitions of %d slices of %.3f ms simulated\n"
    spec.name args.seed (List.length rs) n (first.slice_s *. 1e3);
  Printf.printf "repetition host seconds %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.host_s) rs));
  Printf.printf
    "scaled profile %.3f s; calibration loop median %.1f us; unscaled least-time slice p50 %.3f \
     ms, p95 %.3f ms; process %.1f s\n"
    host_s (loop_s *. 1e6)
    (1e3 *. quantile least 0.5)
    (1e3 *. quantile least 0.95)
    (Unix.gettimeofday () -. process_start);
  Printf.printf "sim_fingerprint %s (%s)\n" first.fingerprint
    (Reference.verdict ~workload:spec.name ~seed:args.seed first.fingerprint);
  Printf.printf "failed_frac %.6f (%d of %d)\n"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  print_result ~problems ~attempted ~failed
    [
      ("sim_req_per_host_s", "1/s", ratio (float_of_int completed) host_s);
      ("slice_host_ms_p50", "ms", 1e3 *. quantile profile 0.5);
      ("slice_host_ms_p95", "ms", 1e3 *. quantile profile 0.95);
      ("host_drift", "ratio", drift profile);
      ("minor_words_per_req", "words", per_req first.words completed);
      ("peak_rss_mb", "MB", rss);
      ("setup_s", "s", first.setup_s);
      ("served_frac", "ratio", ratio (float_of_int (attempted - failed)) (float_of_int attempted));
    ]

(* Bare loops.  Each is timed at [n] and [4n] calls, best of five; if the
   per-call figures disagree by more than [loop_bound], per-call harness
   overhead or interference is in the number and the run fails. *)
let loop_bound = 2.0

let time_loop (l : W.loop) =
  let per_call n =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      l.run n;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int n)
    done;
    !best *. 1e9
  in
  let rec calibrate n =
    let t0 = Unix.gettimeofday () in
    l.run n;
    if Unix.gettimeofday () -. t0 >= 0.002 || n >= 1 lsl 24 then n else calibrate (2 * n)
  in
  let rec measure n tries =
    let a = per_call n and b = per_call (4 * n) in
    let r = Float.max a b /. Float.min a b in
    if r <= loop_bound then Float.min a b
    else if tries > 1 then measure n (tries - 1)
    else fail "bare loop %s: %.1f ns/call at %d calls vs %.1f at %d" l.loop_name a n b (4 * n)
  in
  Trace.span ~layer:"loop" l.loop_name (fun () -> measure (calibrate 256) 3)

let rng_words_per_draw () =
  let rng = Engine.Rng.create ~seed:1 in
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Engine.Rng.float rng 1.0)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let per_layer (spec : W.spec) args =
  let rep ?build ~traced () =
    run_rep ?build spec ~seed:args.seed ~traced ~t_start:(Unix.gettimeofday ())
  in
  (* The first repetition warms the process up; its fingerprint is the
     one every other repetition must reproduce.  Spans are kept from the
     start, so the set-up steps of a fresh process are among them. *)
  Trace.enabled := true;
  let _, first = rep ~traced:false () in
  Gc.full_major ();
  Trace.install_sampler ();
  let w, r = Trace.span ~layer:"bench" "traced-repetition" (rep ~traced:true) in
  Trace.stop_sampler ();
  (* Read the traced world now, and run the bare loops against it before
     any other world is built: a cluster leaves the ledger arena of its
     last machine current, which its own containers need. *)
  let loops = List.map (fun l -> (l.W.loop_name, time_loop l)) w.loops in
  Trace.enabled := false;
  let windows_per_slice = w.windows_per_slice in
  let cluster = windows_per_slice > 0 in
  let p50, p99 = w.resp_ms () in
  let sched_set_len = w.sched_set_len () and queue_table_size = w.queue_table_size () in
  let peak_concurrent = w.peak_concurrent () and cpus_total = w.cpus_total in
  let intern_ns_per_doc = w.intern_ns_per_doc in
  Gc.full_major ();
  let plain_world, plain = rep ~traced:false () in
  let domains = plain_world.W.domains in
  let one_shard =
    if not cluster then None
    else begin
      Gc.full_major ();
      let build () = W.build_cluster_shards ~seed:args.seed ~shards:1 in
      Some (snd (rep ~build ~traced:false ()))
    end
  in
  let speedup = match one_shard with Some one -> ratio one.host_s plain.host_s | None -> 0. in
  let problems = R.problems ([ first; r; plain ] @ Option.to_list one_shard) in
  let loop name = Option.value ~default:0. (List.assoc_opt name loops) in
  let completed = completed r in
  let attempted = completed + failed r in
  let failed = if problems = [] then failed r else attempted in
  let d f = f r.after - f r.before in
  let self layer = ratio (Trace.layer_share layer *. r.cpu_s *. 1e6) (float_of_int completed) in
  let gauge f = median (Array.map (fun g -> float_of_int (f g)) r.gauges) in
  let hits = d (fun c -> c.hits) and misses = d (fun c -> c.misses) in
  let windows = windows_per_slice * Array.length plain.slices in
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  Trace.write_spans (Printf.sprintf ".bench_out/spans-%s-seed%d.jsonl" spec.name args.seed);
  Printf.printf "workload %s seed %d traced: %d slices; samples by layer:%s\n" spec.name args.seed
    (Array.length r.slices)
    (String.concat ""
       (Array.to_list
          (Array.mapi (fun i l -> Printf.sprintf " %s=%d" l Trace.samples.(i)) Trace.layers)));
  Printf.printf "sim_fingerprint %s (%s)\n" r.fingerprint
    (Reference.verdict ~workload:spec.name ~seed:args.seed r.fingerprint);
  print_result ~problems ~attempted ~failed
    [
      ("engine.self_us_per_req", "us", self "engine");
      ("engine.schedule_cancel_ns", "ns", loop "engine.schedule_cancel_ns");
      ("engine.zipf_draw_ns", "ns", loop "engine.zipf_draw_ns");
      ("engine.rng_words_per_draw", "words", rng_words_per_draw ());
      ("engine.pending_events_p50", "count", gauge (fun g -> g.W.pending));
      ("procsim.self_us_per_req", "us", self "procsim");
      ("procsim.dispatches_per_req", "count", per_req (d (fun c -> c.dispatches)) completed);
      ("procsim.preemptions_per_req", "count", per_req (d (fun c -> c.preemptions)) completed);
      ("procsim.rebinds_per_req", "count", per_req (d (fun c -> c.rebinds)) completed);
      ( "procsim.sim_cpu_busy_frac",
        "ratio",
        ratio
          (float_of_int (d (fun c -> c.cpu_busy_ns)) /. 1e9)
          (r.sim_s *. float_of_int cpus_total) );
      ("sched.self_us_per_req", "us", self "sched");
      ("sched.pick_charge_ns", "ns", loop "sched.pick_charge_ns");
      ("sched.runnable_p50", "count", gauge (fun g -> g.W.runnable));
      ("rescont.self_us_per_req", "us", self "rescont");
      ("rescont.create_destroy_ns", "ns", loop "rescont.create_destroy_ns");
      ("rescont.charge_ns", "ns", loop "rescont.charge_ns");
      ("rescont.ledger_slots_per_req", "count", per_req r.ledger_slots completed);
      ("rescont.sched_set_len", "count", float_of_int sched_set_len);
      ("netsim.self_us_per_req", "us", self "netsim");
      ("netsim.packets_per_req", "count", per_req (d (fun c -> c.packets)) completed);
      ("netsim.drops_per_req", "count", per_req (d (fun c -> c.drops)) completed);
      ("netsim.queue_table_size", "count", float_of_int queue_table_size);
      ("netsim.tracked_conns_p50", "count", gauge (fun g -> g.W.tracked_conns));
      ("netsim.demux_ns", "ns", loop "netsim.demux_ns");
      ("httpsim.self_us_per_req", "us", self "httpsim");
      ("httpsim.cache_hit_ratio", "ratio", per_req hits (hits + misses));
      ("httpsim.cache_lookup_ns", "ns", loop "httpsim.cache_lookup_ns");
      ("httpsim.poll_rounds_per_req", "count", per_req (d (fun c -> c.poll_rounds)) completed);
      ("httpsim.intern_ns_per_doc", "ns", intern_ns_per_doc);
      ("disksim.self_us_per_req", "us", self "disksim");
      ("disksim.reads_per_req", "count", per_req (d (fun c -> c.disk_reads)) completed);
      ( "disksim.sim_busy_frac",
        "ratio",
        ratio (float_of_int (d (fun c -> c.disk_busy_ns)) /. 1e9) r.sim_s );
      ("disksim.queue_depth_p50", "count", gauge (fun g -> g.W.disk_queue));
      ("workload.self_us_per_req", "us", self "workload");
      ("workload.sim_resp_ms_p50", "ms", p50);
      ("workload.sim_resp_ms_p99", "ms", p99);
      ("clustersim.self_us_per_req", "us", self "clustersim");
      ("shard.self_us_per_req", "us", self "shard");
      ("clustersim.peak_concurrent", "count", float_of_int peak_concurrent);
      ("clustersim.window_host_us", "us", 1e6 *. ratio plain.host_s (float_of_int windows));
      ( "clustersim.cpu_util",
        "ratio",
        if cluster then ratio plain.cpu_s (plain.host_s *. float_of_int domains) else 0. );
      ("shard.speedup", "ratio", speedup);
      ("gc.minor_collections_per_kreq", "count", 1e3 *. per_req r.minor_gcs completed);
      ("gc.major_collections_per_kreq", "count", 1e3 *. per_req r.major_gcs completed);
      ("trace.overhead_frac", "ratio", ratio r.host_s plain.host_s -. 1.);
    ]

let setup_only (spec : W.spec) args =
  ignore (spec.build ~seed:args.seed);
  let setup_s = Unix.gettimeofday () -. process_start in
  print_result ~problems:[] ~attempted:1 ~failed:0 [ ("setup_s", "s", setup_s) ]

let () =
  let args = parse_args () in
  match W.find args.workload with
  | None ->
      fail "unknown workload %S (one of: %s)" args.workload
        (String.concat ", " (List.map (fun s -> s.W.name) W.all))
  | Some spec ->
      if args.setup_only then setup_only spec args
      else if args.trace then per_layer spec args
      else end_to_end spec args
