(* The three benchmark workloads, built only from the simulator's public
   constructors.  Each [build] returns a [world]: the live simulation plus
   the closures the benchmark needs to advance it, read its counters, check it
   and run bare loops over its hot calls.  Every random stream derives from
   the one [seed] argument. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist
module Summary = Engine.Stats.Summary
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module File_cache = Httpsim.File_cache
module Docset = Httpsim.Docset
module Disk = Disksim.Disk
module Sclient = Workload.Sclient
module Cluster = Clustersim.Cluster
module Harness = Experiments.Harness

(* Monotone counters, read before and after a measured phase. *)
type counters = {
  completed : int;
  failed : int;  (** refused + timed out + ring-evicted *)
  dispatches : int;
  preemptions : int;
  rebinds : int;
  cpu_busy_ns : int;  (** summed over every processor of every machine *)
  packets : int;
  drops : int;
  hits : int;
  misses : int;
  poll_rounds : int;
  disk_reads : int;
  disk_busy_ns : int;
}

(* Instantaneous populations, sampled at slice boundaries in traced runs. *)
type gauges = { pending : int; runnable : int; tracked_conns : int; disk_queue : int }

(* A bare loop: [run n] makes [n] calls of one public function against the
   world's live state. *)
type loop = { loop_name : string; run : int -> unit }

type world = {
  advance : Simtime.span -> unit;  (** the simulator's own run-for call *)
  slice : Simtime.span;  (** simulated time per timed slice *)
  domains : int;  (** OS domains the simulation runs on *)
  counters : unit -> counters;
  gauges : unit -> gauges;
  cpus_total : int;  (** processors across all machines *)
  fingerprint : unit -> string;  (** canonical text of the simulated outcome *)
  violations : unit -> Engine.Invariant.violation list;
  queue_table_size : unit -> int;
  sched_set_len : unit -> int;
  peak_concurrent : unit -> int;
  resp_ms : unit -> float * float;  (** p50, p99 of the first client group *)
  windows_per_slice : int;  (** barrier windows in one slice; 0 off the cluster *)
  intern_ns_per_doc : float;  (** measured during set-up; 0 without a corpus *)
  loops : loop list;
}

type spec = {
  name : string;
  warmup : Simtime.span;  (** simulated, run before the measured slices *)
  length : Simtime.span;  (** measured simulated time per repetition *)
  rep_host_s : float;
      (** host seconds one whole repetition (build, warm-up, measured
          phase) took where the benchmark was written; it only sets how many
          repetitions fill a run *)
  build : seed:int -> world;
}

(* Independent sub-seeds for each random source of a workload. *)
let sub_seeds seed n =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Rng.int rng 0x3FFF_FFFF)

let metric_count machine name =
  match Engine.Metrics.value (Machine.metrics machine) name with
  | Some (Engine.Metrics.Counter n) -> n
  | Some (Engine.Metrics.Gauge f) -> int_of_float f
  | Some (Engine.Metrics.Histogram _) | None -> 0

let stack_drops (s : Stack.stats) = s.syn_queue_drops + s.accept_queue_drops + s.rx_queue_drops

let hex f = Printf.sprintf "%h" f

let summary_text s =
  Printf.sprintf "n=%d mean=%s max=%s total=%s" (Summary.count s) (hex (Summary.mean s))
    (hex (Summary.max s)) (hex (Summary.total s))

let far = Simtime.sec 1_000_000

let sim_loop sim =
  let nop () = () in
  {
    loop_name = "engine.schedule_cancel_ns";
    run =
      (fun n ->
        for _ = 1 to n do
          ignore (Sim.cancel sim (Sim.after sim far nop))
        done);
  }

let sched_loop machine =
  let policy = Machine.policy machine in
  let root = Machine.root machine in
  let slice = Simtime.us 1 in
  {
    loop_name = "sched.pick_charge_ns";
    run =
      (fun n ->
        for _ = 1 to n do
          let now = Machine.now machine in
          ignore (policy.Sched.Policy.pick ~now);
          policy.Sched.Policy.charge ~container:root ~now slice
        done);
  }

let rescont_loops ~parent ~leaf =
  [
    {
      loop_name = "rescont.create_destroy_ns";
      run =
        (fun n ->
          for _ = 1 to n do
            Container.destroy (Container.create ~parent ())
          done);
    };
    {
      loop_name = "rescont.charge_ns";
      run =
        (fun n ->
          let span = Simtime.ns 1 in
          for _ = 1 to n do
            Container.charge_cpu leaf ~kernel:false span
          done);
    };
  ]

let demux_loop stack ~src =
  {
    loop_name = "netsim.demux_ns";
    run =
      (fun n ->
        for _ = 1 to n do
          ignore (Stack.demux_lookup stack ~port:Harness.default_port ~src)
        done);
  }

let cache_loop cache docs =
  let m = Array.length docs in
  {
    loop_name = "httpsim.cache_lookup_ns";
    run =
      (fun n ->
        let j = ref 0 in
        for _ = 1 to n do
          ignore (File_cache.lookup_doc cache ~doc:(Array.unsafe_get docs !j));
          incr j;
          if !j = m then j := 0
        done);
  }

let zipf_loop dist rng =
  {
    loop_name = "engine.zipf_draw_ns";
    run =
      (fun n ->
        for _ = 1 to n do
          ignore (Dist.sample_index dist rng)
        done);
  }

(* Per-process server threads' scheduler-binding set sizes: the largest. *)
let max_binding proc =
  List.fold_left
    (fun acc th -> max acc (Rescont.Binding.size (Machine.binding th)))
    0 (Process.threads proc)

let single_machine_gauges (rig : Harness.rig) disk () =
  {
    pending = Sim.pending rig.sim;
    runnable = Machine.runnable_tasks rig.machine;
    tracked_conns = Stack.tracked_conns rig.stack;
    disk_queue = (match disk with Some d -> Disk.queue_depth d | None -> 0);
  }

let single_machine_counters (rig : Harness.rig) ~cache ~disk ~clients ~poll_rounds () =
  let st = Stack.stats rig.stack in
  {
    completed = List.fold_left (fun a c -> a + Sclient.completed c) 0 clients;
    failed = List.fold_left (fun a c -> a + Sclient.refused c + Sclient.timeouts c) 0 clients;
    dispatches = metric_count rig.machine "sched.dispatches";
    preemptions = metric_count rig.machine "sched.preemptions";
    rebinds = metric_count rig.machine "machine.rebinds";
    cpu_busy_ns = Simtime.span_to_ns (Machine.busy_time rig.machine);
    packets = st.packets_processed;
    drops = stack_drops st;
    hits = File_cache.hits cache;
    misses = File_cache.misses cache;
    poll_rounds = poll_rounds ();
    disk_reads = (match disk with Some d -> Disk.completed d | None -> 0);
    disk_busy_ns = (match disk with Some d -> Simtime.span_to_ns (Disk.busy_time d) | None -> 0);
  }

let single_machine_fingerprint (rig : Harness.rig) ~cache ~disk ~clients () =
  let b = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "client completed=%d refused=%d timeouts=%d resp[%s]\n"
           (Sclient.completed c) (Sclient.refused c) (Sclient.timeouts c)
           (summary_text (Sclient.response_times c))))
    clients;
  Buffer.add_string b
    (Printf.sprintf "cache hits=%d misses=%d bytes=%d\n" (File_cache.hits cache)
       (File_cache.misses cache) (File_cache.cached_bytes cache));
  (match disk with
  | Some d ->
      Buffer.add_string b
        (Printf.sprintf "disk reads=%d busy=%d\n" (Disk.completed d)
           (Simtime.span_to_ns (Disk.busy_time d)))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "machine busy=%d now=%d\n"
       (Simtime.span_to_ns (Machine.busy_time rig.machine))
       (Simtime.to_ns (Machine.now rig.machine)));
  Buffer.contents b

let resp_of clients () =
  match clients with
  | [] -> (0., 0.)
  | c :: _ -> (Sclient.response_percentile c 0.5, Sclient.response_percentile c 0.99)

let make_rig system =
  Trace.span ~layer:"experiments" "harness.make_rig" (fun () -> Harness.make_rig system)

(* --- rc-perconn ------------------------------------------------------ *)

(* Paper §5.4: the RC kernel, an event-API server that makes a fresh
   container for every connection, and 16 closed-loop S-Clients on the
   one cached 1 KB document. *)
let build_rc_perconn ~seed =
  let seeds = sub_seeds seed 1 in
  let rig = make_rig Harness.Rc_sys in
  let policy =
    Httpsim.Event_server.Per_connection { parent = rig.root; priority_of = (fun _ -> 10) }
  in
  let listen =
    Socket.make_listen ~port:Harness.default_port
      ~container:(Process.default_container rig.server_proc) ()
  in
  let server =
    Httpsim.Event_server.create ~stack:rig.stack ~process:rig.server_proc ~cache:rig.cache
      ~api:Httpsim.Event_server.Event_api ~policy ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let load =
    Sclient.create ~stack:rig.stack ~port:Harness.default_port ~path:Harness.doc_path
      ~jitter:(Simtime.ms 1) ~seed:seeds.(0) ~count:16 ()
  in
  Sclient.start load;
  let clients = [ load ] in
  let cache = rig.cache in
  let doc = Docset.find_id Harness.doc_path in
  {
    advance = Harness.run_for rig;
    slice = Simtime.ms 5;
    domains = 1;
    counters =
      single_machine_counters rig ~cache ~disk:None ~clients ~poll_rounds:(fun () ->
          Httpsim.Event_server.poll_rounds server);
    gauges = single_machine_gauges rig None;
    cpus_total = 1;
    fingerprint = single_machine_fingerprint rig ~cache ~disk:None ~clients;
    violations = (fun () -> Machine.check_invariants rig.machine);
    queue_table_size = (fun () -> Stack.queue_table_size rig.stack);
    sched_set_len = (fun () -> max_binding rig.server_proc);
    peak_concurrent = (fun () -> 0);
    resp_ms = resp_of clients;
    windows_per_slice = 0;
    intern_ns_per_doc = 0.;
    loops =
      [ sim_loop rig.sim; sched_loop rig.machine ]
      @ rescont_loops ~parent:rig.root ~leaf:(Process.default_container rig.server_proc)
      @ [
          demux_loop rig.stack ~src:(Ipaddr.v 10 1 0 1);
          cache_loop cache [| doc |];
        ];
  }

(* --- zipf-flash ------------------------------------------------------ *)

(* Document sizes cycle 1-8 KB, as in the zipf experiment. *)
let doc_bytes i = 1024 * (1 + (i land 7))

(* The corpus: interned ids and the two popularity tables.  They are
   immutable, so repetitions in one process share the first one's; set-up
   time is that of a fresh process, where they are built. *)
type corpus = {
  ids : int array;
  bytes : int;
  popularity : Dist.t;
  uniform : Dist.t;  (** Zipf with s = 0: the flash crowd's uniform mix *)
  intern_ns_per_doc : float;
}

let corpora = Hashtbl.create 2

let corpus docs =
  match Hashtbl.find_opt corpora docs with
  | Some c -> c
  | None ->
      let t0 = Unix.gettimeofday () in
      let ids =
        Trace.span ~layer:"httpsim" "docset.intern" (fun () ->
            Array.init docs (fun i -> Docset.intern (Printf.sprintf "/zipf/%d" i)))
      in
      let intern_ns_per_doc = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int docs in
      let popularity, uniform =
        Trace.span ~layer:"engine" "dist.zipf" (fun () ->
            (Dist.zipf ~n:docs ~s:0.9, Dist.zipf ~n:docs ~s:0.))
      in
      let bytes = ref 0 in
      for i = 0 to docs - 1 do
        bytes := !bytes + doc_bytes i
      done;
      let c = { ids; bytes = !bytes; popularity; uniform; intern_ns_per_doc } in
      Hashtbl.replace corpora docs c;
      c

(* The Unmodified kernel, a 16-worker threaded server with disk-backed
   misses, a corpus of [docs] interned documents and a warmed cache of 1/8
   of the corpus bytes.  A Zipf(0.9) crowd and a uniform flash crowd run
   side by side from the start. *)
let build_zipf_flash ?(docs = 1_000_000) ~seed () =
  let seeds = sub_seeds seed 3 in
  let rig = make_rig Harness.Unmodified in
  let { ids; bytes; popularity; uniform; intern_ns_per_doc } = corpus docs in
  let cache = File_cache.create ~capacity_bytes:(bytes / 8) () in
  Trace.span ~layer:"httpsim" "file_cache.register" (fun () ->
      Array.iteri (fun i id -> File_cache.add_doc cache ~doc:id ~bytes:(doc_bytes i)) ids;
      File_cache.warm cache);
  let disk = Disk.create ~machine:rig.machine () in
  let listen = Socket.make_listen ~port:Harness.default_port () in
  let server =
    Httpsim.Threaded_server.create ~stack:rig.stack ~process:rig.server_proc ~cache ~disk
      ~workers:16 ~listens:[ listen ] ()
  in
  Httpsim.Threaded_server.start server;
  let crowd =
    Sclient.create ~stack:rig.stack ~name:"crowd" ~src_base:(Ipaddr.v 10 1 0 1)
      ~port:Harness.default_port ~doc_mix:(popularity, ids) ~syn_timeout:(Simtime.sec 30)
      ~jitter:(Simtime.ms 1) ~seed:seeds.(0) ~count:16 ()
  in
  let flash =
    Sclient.create ~stack:rig.stack ~name:"flash" ~src_base:(Ipaddr.v 10 2 0 1)
      ~port:Harness.default_port ~doc_mix:(uniform, ids) ~syn_timeout:(Simtime.sec 30)
      ~jitter:(Simtime.ms 1) ~seed:seeds.(1) ~count:24 ()
  in
  Sclient.start crowd;
  Sclient.start flash;
  let clients = [ crowd; flash ] in
  let disk = Some disk in
  let probe_rng = Rng.create ~seed:seeds.(2) in
  let probe_docs = Array.init 4096 (fun _ -> ids.(Dist.sample_index popularity probe_rng)) in
  {
    advance = Harness.run_for rig;
    slice = Simtime.ms 1250;
    domains = 1;
    counters = single_machine_counters rig ~cache ~disk ~clients ~poll_rounds:(fun () -> 0);
    gauges = single_machine_gauges rig disk;
    cpus_total = 1;
    fingerprint = single_machine_fingerprint rig ~cache ~disk ~clients;
    violations = (fun () -> Machine.check_invariants rig.machine);
    queue_table_size = (fun () -> Stack.queue_table_size rig.stack);
    sched_set_len = (fun () -> max_binding rig.server_proc);
    peak_concurrent = (fun () -> 0);
    resp_ms = resp_of clients;
    windows_per_slice = 0;
    intern_ns_per_doc;
    loops =
      [ sim_loop rig.sim; zipf_loop popularity probe_rng; sched_loop rig.machine ]
      @ rescont_loops ~parent:rig.root ~leaf:(Process.default_container rig.server_proc)
      @ [
          demux_loop rig.stack ~src:(Ipaddr.v 10 1 0 1);
          cache_loop cache probe_docs;
        ];
  }

(* --- cluster-shards -------------------------------------------------- *)

let cluster_machines = 8

(* The cluster runs on two shards, one per core of the host it was sized
   on; the outcome is the same at any shard count. *)
let cluster_shards = 2

(* Eight 1-CPU machines behind the flow-hash balancer, open-loop Poisson
   arrivals, each connection held for 1 s after its response. *)
let build_cluster_shards ~seed ~shards =
  let seeds = sub_seeds seed 1 in
  let c =
    Trace.span ~layer:"clustersim" "cluster.create" @@ fun () ->
    Cluster.create ~machines:cluster_machines ~shards ~cpus:1 ~policy:Cluster.Flow_hash
      ~profile:(Cluster.Poisson 12_000.)
      ~service:(Dist.exponential ~mean:100_000.)
      ~hold:(Simtime.sec 1) ~seed:seeds.(0) ()
  in
  Cluster.start c;
  let nodes = List.init cluster_machines Fun.id in
  let machine = Cluster.node_machine c in
  let stack = Cluster.node_stack c in
  let sims =
    List.fold_left
      (fun acc i ->
        let s = Machine.sim (machine i) in
        if List.memq s acc then acc else s :: acc)
      [] nodes
  in
  let sum f = List.fold_left (fun a i -> a + f i) 0 nodes in
  (* Slices are whole multiples of the barrier window, so a sliced run
     executes exactly the windows of a one-shot run. *)
  let window_ns = Simtime.span_to_ns (Cluster.lookahead c) in
  let windows_per_slice = max 1 (10_000_000 / window_ns) in
  let last = cluster_machines - 1 in
  {
    advance = Cluster.run_for c;
    slice = Simtime.ns (window_ns * windows_per_slice);
    domains = Cluster.domains c;
    counters =
      (fun () ->
        {
          completed = Cluster.completed c;
          failed = Cluster.refused c + Cluster.evicted c;
          dispatches = sum (fun i -> metric_count (machine i) "sched.dispatches");
          preemptions = sum (fun i -> metric_count (machine i) "sched.preemptions");
          rebinds = sum (fun i -> metric_count (machine i) "machine.rebinds");
          cpu_busy_ns = Simtime.span_to_ns (Cluster.busy_total c);
          packets = sum (fun i -> (Stack.stats (stack i)).packets_processed);
          drops = sum (fun i -> stack_drops (Stack.stats (stack i)));
          hits = 0;
          misses = 0;
          poll_rounds = 0;
          disk_reads = 0;
          disk_busy_ns = 0;
        });
    gauges =
      (fun () ->
        {
          pending = List.fold_left (fun a s -> a + Sim.pending s) 0 sims;
          runnable = sum (fun i -> Machine.runnable_tasks (machine i));
          tracked_conns = sum (fun i -> Stack.tracked_conns (stack i));
          disk_queue = 0;
        });
    cpus_total = cluster_machines;
    fingerprint =
      (fun () ->
        Printf.sprintf
          "cluster issued=%d completed=%d refused=%d evicted=%d dup=%d peak=%d busy=%d\n\
           client[%s]\nserver[%s]\nserved=%s\n"
          (Cluster.issued c) (Cluster.completed c) (Cluster.refused c) (Cluster.evicted c)
          (Cluster.dup_responses c) (Cluster.peak_concurrent c)
          (Simtime.span_to_ns (Cluster.busy_total c))
          (summary_text (Cluster.client_sojourn c))
          (summary_text (Cluster.server_sojourn c))
          (String.concat "," (List.map (fun i -> string_of_int (Cluster.node_served c i)) nodes)));
    violations = (fun () -> Cluster.check_invariants c);
    queue_table_size = (fun () -> sum (fun i -> Stack.queue_table_size (stack i)));
    sched_set_len = (fun () -> 0);
    peak_concurrent = (fun () -> Cluster.peak_concurrent c);
    (* The cluster keeps only a summary of its sojourns, no percentiles. *)
    resp_ms = (fun () -> (0., 0.));
    windows_per_slice;
    intern_ns_per_doc = 0.;
    loops =
      [ sim_loop (Cluster.sim c); sched_loop (machine 0) ]
      (* Each machine's containers live in their own ledger arena and the
         last machine built left its arena current, so the loops use it. *)
      @ rescont_loops
          ~parent:(Cluster.node_root c last)
          ~leaf:(Cluster.tenant_container c ~tenant:0 ~node:last)
      @ [ demux_loop (stack 0) ~src:(Ipaddr.v 10 1 0 1) ];
  }

let all =
  [
    {
      name = "rc-perconn";
      warmup = Simtime.ms 100;
      length = Simtime.ms 1500;
      rep_host_s = 1.0;
      build = build_rc_perconn;
    };
    {
      name = "zipf-flash";
      warmup = Simtime.sec 5;
      length = Simtime.sec 250;
      rep_host_s = 1.5;
      build = (fun ~seed -> build_zipf_flash ~seed ());
    };
    {
      name = "cluster-shards";
      warmup = Simtime.sec 1;
      length = Simtime.sec 2;
      rep_host_s = 2.4;
      build = build_cluster_shards ~shards:cluster_shards;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
