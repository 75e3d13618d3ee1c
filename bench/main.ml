(* Benchmark harness for the Resource Containers reproduction.

   Part 1 — Table 1: Bechamel micro-benchmarks of the container primitives
   (the paper invoked each new system call 10 000 times and averaged; here
   each primitive gets a proper OLS fit over monotonic-clock samples).

   Part 2 — every figure and experiment of §5, regenerated through the
   experiment harnesses and printed as aligned tables.

   Run with: dune exec bench/main.exe            (full sweeps, ~minutes)
             dune exec bench/main.exe -- --fast  (reduced sweeps)
             dune exec bench/main.exe -- --json [--fast] [--label NAME]
               (machine-readable fast-path metrics on stdout; redirect to a
                BENCH_*.json and diff with bench/compare.exe — see the
                Benchmarking section of EXPERIMENTS.md)
             dune exec bench/main.exe -- --json --smoke
               (CI smoke: tiny quotas, output too noisy to gate on)        *)

open Bechamel
open Toolkit
module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Binding = Rescont.Binding
module Desc_table = Rescont.Desc_table
module Ops = Rescont.Ops

(* {1 Part 1: Table 1 micro-benchmarks} *)

let bench_create =
  Test.make ~name:"create+destroy container"
    (Staged.stage (fun () ->
         let c = Container.create_detached ~name:"bench" () in
         Container.destroy c))

let bench_rebind =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let a = Container.create ~parent () in
  let b = Container.create ~parent () in
  let binding = Binding.create ~now:Simtime.zero a in
  let flip = ref false in
  Test.make ~name:"change thread's resource binding"
    (Staged.stage (fun () ->
         flip := not !flip;
         Binding.set_resource_binding binding ~now:Simtime.zero (if !flip then b else a)))

let bench_get_usage =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  Test.make ~name:"obtain container resource usage"
    (Staged.stage (fun () -> ignore (Ops.rc_get_usage table d)))

let bench_attrs =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  let hi = Attrs.timeshare ~priority:9 () and lo = Attrs.timeshare ~priority:5 () in
  let flip = ref false in
  Test.make ~name:"set-get container attributes"
    (Staged.stage (fun () ->
         flip := not !flip;
         Ops.rc_set_attrs table d (if !flip then hi else lo);
         ignore (Ops.rc_get_attrs table d)))

let bench_move =
  let root = Container.create_root () in
  let src = Desc_table.create () in
  let dst = Desc_table.create () in
  let d = Ops.rc_create src ~parent:root () in
  Test.make ~name:"move container between processes"
    (Staged.stage (fun () ->
         let d' = Ops.rc_transfer ~src ~dst d in
         Desc_table.close dst d'))

let bench_handle =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  let c = Desc_table.lookup table d in
  Test.make ~name:"obtain handle for existing container"
    (Staged.stage (fun () ->
         let d' = Ops.rc_get_handle table c in
         Desc_table.close table d'))

let bench_charge =
  let root = Container.create_root () in
  let mid = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let leaf = Container.create ~parent:mid () in
  Test.make ~name:"charge cpu through 3-level hierarchy"
    (Staged.stage (fun () -> Container.charge_cpu leaf ~kernel:true (Simtime.us 1)))

let table1_tests =
  [
    bench_create; bench_rebind; bench_get_usage; bench_attrs; bench_move; bench_handle;
    bench_charge;
  ]

(* Bechamel's stock [Instance.minor_allocated] reads
   [(Gc.quick_stat ()).minor_words], which on OCaml 5 only reflects
   counters merged at collection boundaries — every sample reads the same
   value and the OLS slope comes out exactly 0.  [Gc.minor_words ()] reads
   the live allocation pointer of the current domain, so register our own
   measure around it. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mw"
end

let minor_words_instance =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Run a group of Bechamel tests and return [(name, ns/op, minor words/op)]
   sorted by name — one OLS fit per instance over the same raw samples. *)
let ols_estimates2 ~group ~cfg tests =
  let instances = [ Instance.monotonic_clock; minor_words_instance ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:group tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimate_of results name =
    match Hashtbl.find_opt results name with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some (v :: _) -> Some v
        | Some [] | None -> None)
    | None -> None
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words_instance raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  List.sort compare
    (List.map (fun name -> (name, estimate_of times name, estimate_of words name)) names)

let ols_estimates ~group ~cfg tests =
  List.map (fun (name, ns, _) -> (name, ns)) (ols_estimates2 ~group ~cfg tests)

let table1_cfg () = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()

let run_table1_microbench () =
  let estimates = ols_estimates ~group:"table1" ~cfg:(table1_cfg ()) table1_tests in
  let table =
    Engine.Series.table
      ~title:"Table 1: container primitive costs (Bechamel, this library) vs paper"
      ~columns:[ "operation"; "this library (ns/op)"; "paper on 500MHz Alpha (us)" ]
  in
  let paper_of name =
    if name = "table1/create+destroy container" then "2.36 + 2.10"
    else if name = "table1/change thread's resource binding" then "1.04"
    else if name = "table1/obtain container resource usage" then "2.04"
    else if name = "table1/set-get container attributes" then "2.10"
    else if name = "table1/move container between processes" then "3.15"
    else if name = "table1/obtain handle for existing container" then "1.90"
    else "-"
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.1f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate; paper_of name ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1b: scheduler capacity micro-benchmarks}

   How expensive is a scheduling decision as the container population
   grows?  One pick+charge round trip of the prototype's multilevel
   scheduler (both the incremental implementation and its list-and-sort
   reference, so the speedup stays measured) and of the flat decay-usage
   scheduler, against 10 / 100 / 1000 runnable containers. *)

let sched_bench_policy name make_policy n =
  let root = Container.create_root () in
  let class_parent =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) ()
  in
  let policy = make_policy root in
  for i = 1 to n do
    let c = Container.create ~parent:class_parent ~name:(Printf.sprintf "c%d" i) () in
    let task = Sched.Task.create ~name:(Printf.sprintf "t%d" i) (Binding.create ~now:Simtime.zero c) in
    policy.Sched.Policy.enqueue task
  done;
  let now = ref 0 in
  Test.make
    ~name:(Printf.sprintf "%s pick+charge, %d containers" name n)
    (Staged.stage (fun () ->
         incr now;
         match policy.Sched.Policy.pick ~now:(Simtime.of_ns !now) with
         | Some task ->
             policy.Sched.Policy.charge
               ~container:(Sched.Task.container task)
               ~now:(Simtime.of_ns !now) (Simtime.us 10)
         | None -> ()))

let sched_tests () =
  List.concat_map
    (fun n ->
      [
        sched_bench_policy "multilevel" (fun root -> Sched.Multilevel.make ~root ()) n;
        sched_bench_policy "multilevel-ref" (fun root -> Spec.Multilevel_ref.make ~root ()) n;
        sched_bench_policy "timeshare" (fun _ -> Sched.Timeshare.make ()) n;
      ])
    [ 10; 100; 1000 ]

let sched_cfg () = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()

(* {1 Part 1b': SMP dispatch micro-benchmarks}

   Cost of one scheduling round on a 4-processor machine: every processor
   picks and charges once, against a single shared run queue holding the
   whole task population versus per-CPU shards each holding a quarter.
   Sharding keeps each queue's population — and hence each decision —
   smaller, which is the capacity argument for per-CPU run queues. *)

let smp_cpus = 4

let smp_bench_dispatch ~sharded n =
  let root = Container.create_root () in
  let class_parent =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) ()
  in
  let pols =
    if sharded then Array.init smp_cpus (fun _ -> Sched.Multilevel.make ~root ())
    else Array.make smp_cpus (Sched.Multilevel.make ~root ())
  in
  for i = 1 to n do
    let c = Container.create ~parent:class_parent ~name:(Printf.sprintf "c%d" i) () in
    let task =
      Sched.Task.create ~name:(Printf.sprintf "t%d" i) (Binding.create ~now:Simtime.zero c)
    in
    pols.(i mod smp_cpus).Sched.Policy.enqueue task
  done;
  let now = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "4-CPU dispatch round, %d tasks, %s" n
         (if sharded then "per-CPU queues" else "shared queue"))
    (Staged.stage (fun () ->
         incr now;
         for cpu = 0 to smp_cpus - 1 do
           let pol = pols.(cpu) in
           match pol.Sched.Policy.pick ~now:(Simtime.of_ns !now) with
           | Some task ->
               pol.Sched.Policy.charge
                 ~container:(Sched.Task.container task)
                 ~now:(Simtime.of_ns !now) (Simtime.us 10)
           | None -> ()
         done))

let smp_tests () =
  List.concat_map
    (fun n -> [ smp_bench_dispatch ~sharded:false n; smp_bench_dispatch ~sharded:true n ])
    [ 64; 256 ]

let run_smp_microbench () =
  let estimates = ols_estimates ~group:"smp" ~cfg:(sched_cfg ()) (smp_tests ()) in
  let table =
    Engine.Series.table
      ~title:"4-processor dispatch cost: shared run queue vs per-CPU shards"
      ~columns:[ "configuration"; "ns per round" ]
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.0f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

let run_sched_microbench () =
  let estimates = ols_estimates ~group:"sched" ~cfg:(sched_cfg ()) (sched_tests ()) in
  let table =
    Engine.Series.table ~title:"Scheduler decision cost vs runnable containers"
      ~columns:[ "configuration"; "ns per pick+charge" ]
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.0f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1c: event-queue micro-benchmarks}

   Two workloads on the Sim event core (the hierarchical timer wheel), so
   its O(1) schedule/cancel claim stays measured, not asserted.  The
   metric names keep their historic ", wheel backend" suffix so older
   baselines still line up.

   - churn: the TCP-timer pattern that motivated Varghese & Lauck — a
     standing population of 1024 pending long timers (retransmit/keepalive
     timers that almost always get cancelled), and per op: schedule 8
     events at pseudo-random near offsets, cancel half, fire the rest.
   - periodic: a long-lived [Sim.every] series (a scheduler quantum) on an
     otherwise empty queue; per op, advance the clock across 10 ticks.
     A sparse wheel is the wheel's worst case; a tick re-arms the
     series' one queue node and allocates nothing. *)

let bench_sim_churn () =
  let sim = Engine.Sim.create () in
  (* Standing far timers: pending throughout, never fired by the horizon
     below (the bench never simulates anywhere near an hour). *)
  for _ = 1 to 1024 do
    ignore (Engine.Sim.after sim (Simtime.sec 3600) ignore)
  done;
  let rng = ref 0x2545F49 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  Test.make
    ~name:"schedule/cancel churn over 1k pending, wheel backend"
    (Staged.stage (fun () ->
         let handles =
           Array.init 8 (fun _ -> Engine.Sim.after sim (Simtime.ns (1 + (next () land 0xFFFF))) ignore)
         in
         for i = 0 to 3 do
           ignore (Engine.Sim.cancel sim handles.(i * 2))
         done;
         Engine.Sim.run_until sim (Simtime.add (Engine.Sim.now sim) (Simtime.ns 0x10000))))

let bench_sim_periodic () =
  let sim = Engine.Sim.create () in
  let ticks = ref 0 in
  ignore (Engine.Sim.every sim (Simtime.us 10) (fun () -> incr ticks));
  Test.make
    ~name:"periodic timer x10 ticks, wheel backend"
    (Staged.stage (fun () ->
         Engine.Sim.run_until sim (Simtime.add (Engine.Sim.now sim) (Simtime.us 100))))

let sim_tests () = [ bench_sim_churn (); bench_sim_periodic () ]

let sim_cfg () = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()

(* {1 Part 1d: packet-path micro-benchmarks}

   The per-SYN demultiplex against both implementations — the port-indexed
   specificity-sorted table on the packet path and the fold over every
   listen socket that serves as its executable specification — at 10 and
   100 listen sockets with overlapping filters, plus churn on the
   slot-indexed connection registry against the list representation it
   replaced.  These keep the O(1)-packet-path claims measured. *)

let make_demux_stack n =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Timeshare.make () in
  let machine = Procsim.Machine.create ~sim ~policy ~root () in
  let proc = Procsim.Process.create machine ~name:"bench" () in
  let stack =
    Netsim.Stack.create ~machine ~mode:Netsim.Stack.Softirq
      ~owner:(Procsim.Process.default_container proc) ()
  in
  for i = 0 to n - 1 do
    (* Overlapping prefixes of several widths plus hosts and a catch-all,
       spread over two ports, so lookups exercise the specificity order
       and the tie-breaks rather than a single lucky first hit. *)
    let filter =
      match i mod 4 with
      | 0 -> Netsim.Filter.any
      | 1 -> Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 (i mod 8) 0 0) ~bits:16
      | 2 -> Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 0) ~bits:24
      | _ -> Netsim.Filter.host (Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 7)
    in
    Netsim.Stack.add_listen stack
      (Netsim.Socket.make_listen ~port:(80 + (i mod 2)) ~filter ())
  done;
  stack

let bench_demux ~listens ~table =
  let stack = make_demux_stack listens in
  let srcs = Array.init 64 (fun i -> Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 7) in
  let lookup =
    if table then Netsim.Stack.demux_lookup else Netsim.Stack.demux_reference
  in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "syn demux, %d listens, %s" listens
             (if table then "port table" else "reference fold"))
    (Staged.stage (fun () ->
         k := (!k + 1) land 63;
         ignore (lookup stack ~port:80 ~src:srcs.(!k))))

let churn_conns () =
  Array.init 128 (fun i ->
      Netsim.Socket.make_conn
        ~src:(Netsim.Ipaddr.v 10 3 (i / 256) (i mod 256))
        ~src_port:0 ~client:Netsim.Socket.null_handlers ~now:Simtime.zero)

(* One close+accept at a standing population: untrack one connection and
   track it again. *)
let bench_conn_table_churn =
  let conns = churn_conns () in
  let t = Netsim.Conn_table.create () in
  Array.iter (fun c -> Netsim.Conn_table.add t c) conns;
  let k = ref 0 in
  Test.make ~name:"conn registry churn, 128 standing, slot table"
    (Staged.stage (fun () ->
         k := (!k + 1) land 127;
         ignore (Netsim.Conn_table.remove t conns.(!k));
         Netsim.Conn_table.add t conns.(!k)))

let bench_conn_list_churn =
  let conns = churn_conns () in
  let live = ref (Array.to_list conns) in
  let k = ref 0 in
  Test.make ~name:"conn registry churn, 128 standing, list reference"
    (Staged.stage (fun () ->
         k := (!k + 1) land 127;
         let c = conns.(!k) in
         live := c :: List.filter (fun c' -> c' != c) !live))

let netsim_tests () =
  [
    bench_demux ~listens:10 ~table:true;
    bench_demux ~listens:10 ~table:false;
    bench_demux ~listens:100 ~table:true;
    bench_demux ~listens:100 ~table:false;
    bench_conn_table_churn;
    bench_conn_list_churn;
  ]

let run_netsim_microbench () =
  let estimates = ols_estimates2 ~group:"netsim" ~cfg:(sim_cfg ()) (netsim_tests ()) in
  let table =
    Engine.Series.table ~title:"Packet-path cost: demux table and connection registry"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

let run_sim_microbench () =
  let estimates = ols_estimates2 ~group:"sim" ~cfg:(sim_cfg ()) (sim_tests ()) in
  let table =
    Engine.Series.table ~title:"Event-queue cost: hierarchical timer wheel"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1e: file-cache churn and popularity-sampling micro-benchmarks}

   The million-document file layer's two O(1) claims, kept measured:

   - churn: a standing cache holding ~1/8 of the corpus bytes; per op, one
     lookup of a pseudo-random document drawn uniformly over the corpus,
     so most lookups miss, load and evict.  The arena pays a doc-table
     probe plus a few int-array writes regardless of population — the
     1e6-doc point must cost about the same as the 1e3-doc one (the
     flatness ratio emitted with --json) — where the reference
     implementation's eviction folds over every registered document.
   - zipf sampling: one popularity draw over 1e6 ranks, alias method vs
     the CDF-inversion executable spec (O(1) vs O(log n)). *)

let cache_doc_bytes i = 1024 * (1 + (i land 7))

let cache_corpus_bytes docs =
  let total = ref 0 in
  for i = 0 to docs - 1 do
    total := !total + cache_doc_bytes i
  done;
  !total

(* Pseudo-random doc-index sequence shared by both implementations — the
   same LCG, the same wrap — so the hit/miss mix is identical. *)
let cache_sequence docs =
  let rng = ref 0x2545F49 in
  Array.init 4096 (fun _ ->
      rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
      !rng mod docs)

let bench_cache_churn_arena docs =
  let cache =
    Httpsim.File_cache.create ~capacity_bytes:(max 4096 (cache_corpus_bytes docs / 8)) ()
  in
  let ids =
    Array.init docs (fun i -> Httpsim.Docset.intern (Printf.sprintf "/bench/%d/%d" docs i))
  in
  Array.iteri
    (fun i id -> Httpsim.File_cache.add_doc cache ~doc:id ~bytes:(cache_doc_bytes i))
    ids;
  Httpsim.File_cache.warm cache;
  let seq = Array.map (fun i -> ids.(i)) (cache_sequence docs) in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lookup churn, arena, %d docs" docs)
    (Staged.stage (fun () ->
         k := (!k + 1) land 4095;
         ignore (Httpsim.File_cache.lookup_doc cache ~doc:(Array.unsafe_get seq !k))))

let bench_cache_churn_ref docs =
  let cache =
    Spec.File_cache_ref.create ~capacity_bytes:(max 4096 (cache_corpus_bytes docs / 8)) ()
  in
  let paths = Array.init docs (fun i -> Printf.sprintf "/bench-ref/%d/%d" docs i) in
  Array.iteri
    (fun i path -> Spec.File_cache_ref.add_document cache ~path ~bytes:(cache_doc_bytes i))
    paths;
  Spec.File_cache_ref.warm cache;
  let seq = Array.map (fun i -> paths.(i)) (cache_sequence docs) in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lookup churn, reference, %d docs" docs)
    (Staged.stage (fun () ->
         k := (!k + 1) land 4095;
         ignore (Spec.File_cache_ref.lookup cache ~path:(Array.unsafe_get seq !k))))

let cache_tests () =
  [
    bench_cache_churn_arena 1_000;
    bench_cache_churn_arena 1_000_000;
    bench_cache_churn_ref 1_000;
    bench_cache_churn_ref 10_000;
  ]

let bench_zipf_sample ~alias =
  let n = 1_000_000 in
  let d = if alias then Engine.Dist.zipf ~n ~s:0.9 else Engine.Dist.zipf_cdf ~n ~s:0.9 in
  let rng = Engine.Rng.create ~seed:42 in
  Test.make
    ~name:
      (Printf.sprintf "zipf sample, %s, 1e6 ranks"
         (if alias then "alias method" else "cdf reference"))
    (Staged.stage (fun () -> ignore (Engine.Dist.sample_index d rng)))

let dist_tests () = [ bench_zipf_sample ~alias:true; bench_zipf_sample ~alias:false ]

let run_cache_microbench () =
  let estimates =
    ols_estimates2 ~group:"cache" ~cfg:(sim_cfg ()) (cache_tests ())
    @ ols_estimates2 ~group:"dist" ~cfg:(sim_cfg ()) (dist_tests ())
  in
  let table =
    Engine.Series.table
      ~title:"File-cache churn (arena vs reference) and Zipf sampling (alias vs CDF)"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Machine-readable output (--json)}

   Emits the fast-path metrics — Table-1 primitive costs, the scheduler
   pick+charge sweep and the wall-clock cost of a Figure-11-style run —
   as one JSON document on stdout:

     { "schema_version": 1, "label": "...",
       "metrics": [ {"name", "unit", "value", "better"}, ... ] }

   All metrics are "better": "lower".  [bench/compare.ml] diffs two such
   documents and fails on regressions; BENCH_PR1.json in the repo root is
   the committed baseline. *)

type metric = { m_name : string; m_unit : string; m_value : float }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_json ~label metrics =
  Printf.printf "{\n  \"schema_version\": 1,\n  \"label\": \"%s\",\n  \"metrics\": [\n"
    (json_escape label);
  let last = List.length metrics - 1 in
  List.iteri
    (fun i m ->
      Printf.printf
        "    {\"name\": \"%s\", \"unit\": \"%s\", \"value\": %.6g, \"better\": \"lower\"}%s\n"
        (json_escape m.m_name) (json_escape m.m_unit) m.m_value
        (if i = last then "" else ","))
    metrics;
  print_string "  ]\n}\n"

(* [--smoke] shrinks every quota and measurement window to the minimum
   that still exercises the code: CI runs it on every push so the bench
   harness cannot rot between baseline
   regenerations.  Smoke numbers are far too noisy to gate on. *)
let run_json ~fast ~smoke ~mega ~label =
  let scale cfg_quota =
    if smoke then cfg_quota /. 20. else if fast then cfg_quota /. 2. else cfg_quota
  in
  (* Ledger slots are never reused, so the create+destroy churn loop
     permanently claims two arena slots per iteration — millions over a
     Bechamel quota.  Renew the domain arena between groups so one
     group's slot bloat is not live major heap that every later group's
     GC has to scan (it inflated the end-to-end and sweep wall-clocks
     ~4x before this). *)
  let renew = Rescont.Usage.renew_domain_arena in
  let t1 =
    ols_estimates ~group:"table1"
      ~cfg:(Benchmark.cfg ~limit:2000 ~quota:(Time.second (scale 0.5)) ())
      table1_tests
  in
  renew ();
  let sched =
    ols_estimates ~group:"sched"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (sched_tests ())
  in
  renew ();
  let smp =
    ols_estimates ~group:"smp"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (smp_tests ())
  in
  renew ();
  let sim =
    ols_estimates2 ~group:"sim"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (sim_tests ())
  in
  let netsim =
    ols_estimates2 ~group:"netsim"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (netsim_tests ())
  in
  (* End-to-end cost: host seconds needed to simulate one second of the
     Figure-11 rig (event API, 1 high + 20 low clients).  Normalising by
     simulated time keeps fast and full runs comparable. *)
  let warmup = if smoke then Simtime.ms 100 else if fast then Simtime.ms 500 else Simtime.sec 1 in
  let measure = if smoke then Simtime.ms 200 else if fast then Simtime.sec 1 else Simtime.sec 2 in
  let sim_seconds = Simtime.span_to_sec_f warmup +. Simtime.span_to_sec_f measure in
  let fig11_wall =
    renew ();
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_fig11.t_high ~warmup ~measure Experiments.Exp_fig11.Containers_event_api
         ~low_clients:20);
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  (* End-to-end cost and GC pressure of each stack mode: one 16-client
     closed-loop run per mode; allocation is normalised per completed
     request so fast and full windows stay comparable. *)
  let mode_metrics =
    List.concat_map
      (fun system ->
        let mode = Experiments.Harness.system_name system in
        renew ();
        let words0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r =
          Experiments.Exp_sweep.run ~warmup ~measure
            { Experiments.Exp_sweep.system; clients = 16; seed = 1 }
        in
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. words0 in
        let per_req = if r.Experiments.Exp_sweep.completed > 0 then
            words /. float_of_int r.Experiments.Exp_sweep.completed
          else words
        in
        [
          {
            m_name = Printf.sprintf "endtoend/wall-clock per simulated second, %s mode, 16 clients" mode;
            m_unit = "s/simsec";
            m_value = wall /. sim_seconds;
          };
          {
            m_name = Printf.sprintf "gc.minor_words_per_op/endtoend %s mode, per completed request" mode;
            m_unit = "mw/op";
            m_value = per_req;
          };
        ])
      [ Experiments.Harness.Unmodified; Experiments.Harness.Lrp_sys; Experiments.Harness.Rc_sys ]
  in
  (* The same end-to-end rig on a 4-processor machine with per-CPU
     run-queue shards and RSS interrupt steering. *)
  let smp_endtoend =
    renew ();
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_sweep.run ~cpus:4 ~warmup ~measure
         {
           Experiments.Exp_sweep.system = Experiments.Harness.Rc_sys;
           clients = 16;
           seed = 1;
         });
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  (* The cluster rig end to end: 4 machines x 4 CPUs behind the flow-hash
     balancer, open-loop Poisson arrivals.  Wall time per simulated second
     plus allocation per completed request (the arrival path is meant to
     be allocation-free, so this also watches the injection fast path). *)
  let cluster_wall, cluster_mw =
    renew ();
    let module Cluster = Clustersim.Cluster in
    let c =
      Cluster.create ~machines:4 ~cpus:4 ~policy:Cluster.Flow_hash
        ~profile:(Cluster.Poisson 2_000.) ~seed:1 ()
    in
    Cluster.start c;
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Cluster.run_for c (Simtime.span_add warmup measure);
    let wall = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. words0 in
    let completed = Cluster.completed c in
    ( wall /. sim_seconds,
      if completed > 0 then words /. float_of_int completed else words )
  in
  (* Sharded execution: one 16-machine cluster at shards=1 vs shards=8.
     The windowed mailbox protocol is the only execution path, so both
     runs compute byte-identical results; the pair measures what sharding
     costs (barriers, mailboxes) and what it buys (domains).  On a
     multicore host the ratio approaches the core count; on a single core
     the domain cap makes shards=8 run sequentially and the ratio ~1 —
     the honest number either way. *)
  let shard_wall shards =
    renew ();
    let module Cluster = Clustersim.Cluster in
    let c =
      Cluster.create ~machines:16 ~shards ~policy:Cluster.Flow_hash
        ~profile:(Cluster.Poisson 8_000.) ~seed:1 ()
    in
    Cluster.start c;
    let t0 = Unix.gettimeofday () in
    Cluster.run_for c (Simtime.span_add warmup measure);
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  let shard1_wall = shard_wall 1 in
  let shard8_wall = shard_wall 8 in
  (* Sweep throughput: the same 9-point grid serially and fanned across 4
     domains.  On a multicore host jobs=4 divides the wall time; on a
     single core it only adds domain overhead — both are worth knowing. *)
  let sweep_metrics =
    let points =
      Experiments.Exp_sweep.grid ~client_counts:[ 4 ] ~seeds:[ 1; 2; 3 ] ()
    in
    let s_warmup = if smoke then Simtime.ms 100 else Simtime.ms 500 in
    let s_measure =
      if smoke then Simtime.ms 100 else if fast then Simtime.ms 500 else Simtime.sec 1
    in
    let time_with jobs =
      renew ();
      let t0 = Unix.gettimeofday () in
      ignore
        (Experiments.Exp_sweep.run_grid ~warmup:s_warmup ~measure:s_measure ~jobs points);
      Unix.gettimeofday () -. t0
    in
    [
      { m_name = "sweep/wall-clock, 9-point grid, jobs=1"; m_unit = "s"; m_value = time_with 1 };
      { m_name = "sweep/wall-clock, 9-point grid, jobs=4"; m_unit = "s"; m_value = time_with 4 };
    ]
  in
  (* The million-document stages run LAST: interning 1e6 paths leaves the
     global docset (and the per-doc response memos) live in the major heap
     for the rest of the process, which measurably inflates the GC cost of
     every later in-process stage — a 19x swing on the jobs=1 sweep when
     these ran first.  Ordering them after everything gated against older
     baselines keeps those metrics comparable. *)
  renew ();
  let cache =
    ols_estimates2 ~group:"cache"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (cache_tests ())
  in
  let dist =
    ols_estimates2 ~group:"dist"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (dist_tests ())
  in
  (* The headline O(1) claim as one gate-able number: arena churn ns/op at
     1e6 docs over 1e3 docs.  1.0 = perfectly flat; the reference
     implementation's same ratio would be ~1000. *)
  let estimate_named name rows =
    List.find_map (fun (n, ns, _) -> if String.equal n name then ns else None) rows
  in
  let cache_flatness =
    match
      ( estimate_named "cache/lookup churn, arena, 1000 docs" cache,
        estimate_named "cache/lookup churn, arena, 1000000 docs" cache )
    with
    | Some small, Some large when small > 0. ->
        [
          {
            m_name = "cache.flatness/arena churn ns at 1e6 docs over 1e3";
            m_unit = "x";
            m_value = large /. small;
          };
        ]
    | _ -> []
  in
  (* The Zipf flash-crowd rig end to end: a 2e4-document corpus (2e3 under
     --smoke) on the RC system at s = 0.9, cold-start warmup, steady and
     flash-crowd phases, invariants armed — the cache/alias/doc-id path as
     the server actually drives it. *)
  let zipf_endtoend =
    renew ();
    let z_warmup = if smoke then Simtime.ms 50 else Simtime.ms 250 in
    let z_measure = if smoke then Simtime.ms 100 else Simtime.ms 500 in
    let z_docs = if smoke then 2_000 else 20_000 in
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_zipf.run_point ~docs:z_docs ~warmup:z_warmup ~measure:z_measure
         ~spike_measure:z_measure ~s:0.9 Experiments.Harness.Rc_sys);
    (Unix.gettimeofday () -. t0)
    /. (Simtime.span_to_sec_f z_warmup +. (2. *. Simtime.span_to_sec_f z_measure))
  in
  let metrics =
    List.filter_map
      (fun (name, estimate) ->
        Option.map (fun v -> { m_name = name; m_unit = "ns/op"; m_value = v }) estimate)
      (t1 @ sched @ smp)
    @ List.filter_map
        (fun (name, ns, _) ->
          Option.map (fun v -> { m_name = name; m_unit = "ns/op"; m_value = v }) ns)
        (sim @ netsim @ cache @ dist)
    @ List.filter_map
        (fun (name, _, mw) ->
          Option.map
            (fun v -> { m_name = "gc.minor_words_per_op/" ^ name; m_unit = "mw/op"; m_value = v })
            mw)
        (sim @ netsim @ cache @ dist)
    @ cache_flatness
    @ [
        {
          m_name = "fig11/wall-clock per simulated second, event api, 20 low clients";
          m_unit = "s/simsec";
          m_value = fig11_wall;
        };
      ]
    @ mode_metrics
    @ [
        {
          m_name = "endtoend/wall-clock per simulated second, rc mode, 16 clients, 4 cpus";
          m_unit = "s/simsec";
          m_value = smp_endtoend;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 4 machines x 4 cpus, flow-hash";
          m_unit = "s/simsec";
          m_value = cluster_wall;
        };
        {
          m_name = "gc.minor_words_per_op/endtoend cluster, per completed request";
          m_unit = "mw/op";
          m_value = cluster_mw;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 16 machines, shards=1";
          m_unit = "s/simsec";
          m_value = shard1_wall;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 16 machines, shards=8";
          m_unit = "s/simsec";
          m_value = shard8_wall;
        };
        {
          m_name = "endtoend/wall-clock per simulated second, zipf flash-crowd rig, rc mode";
          m_unit = "s/simsec";
          m_value = zipf_endtoend;
        };
        {
          (* shards=8 wall over shards=1 wall: 1.0 = parity, below 1 =
             sharded speedup (0.33 would be the 3x multicore target),
             above 1 = protocol overhead.  Expressed as a cost ratio so
             the compare tool's larger-is-worse convention applies. *)
          m_name = "cluster.shard-overhead/16 machines, shards=8 wall over shards=1";
          m_unit = "x";
          m_value = shard8_wall /. shard1_wall;
        };
      ]
    @ sweep_metrics
    @
    if not mega then []
    else begin
      (* The 10^6-concurrent-connection run: minutes of wall clock, opt-in
         via --mega.  Sizes are fixed (never shrunk by --fast/--smoke) so
         the metric means the same thing in every report that carries it. *)
      let module C = Experiments.Exp_cluster in
      let t0 = Unix.gettimeofday () in
      let p = C.mega_point () in
      let wall = Unix.gettimeofday () -. t0 in
      [
        {
          m_name =
            Printf.sprintf
              "megaconn/peak concurrent connections, %d machines, shards=%d"
              p.C.mp_machines p.C.mp_shards;
          m_unit = "conns";
          m_value = float_of_int p.C.mp_peak_concurrent;
        };
        {
          m_name = "megaconn/wall-clock per simulated second";
          m_unit = "s/simsec";
          m_value = wall /. p.C.mp_sim_seconds;
        };
        {
          m_name = "megaconn/completed requests in the 6 s measure window";
          m_unit = "req";
          m_value = float_of_int p.C.mp_completed;
        };
      ]
    end
  in
  emit_json ~label metrics

(* {1 Part 2: the evaluation section} *)

let print_figure fig = Format.printf "%a@." Engine.Series.pp_figure fig
let print_table t = Format.printf "%a@." Engine.Series.pp_table t

let run_experiments ~fast =
  let measure_short = if fast then Simtime.sec 2 else Simtime.sec 5 in
  Format.printf "--- §5.3 baseline ---@.";
  let baseline =
    Engine.Series.table ~title:"Baseline throughput (§5.3)"
      ~columns:[ "connection mode"; "req/s"; "paper"; "CPU/request (us)"; "paper (us)" ]
  in
  List.iter
    (fun persistent ->
      let r = Experiments.Exp_baseline.run ~measure:measure_short ~persistent () in
      Engine.Series.add_row baseline
        [
          (if persistent then "persistent" else "connection per request");
          Printf.sprintf "%.0f" r.Experiments.Exp_baseline.throughput;
          (if persistent then "9487" else "2954");
          Printf.sprintf "%.1f" r.Experiments.Exp_baseline.cpu_per_request_us;
          (if persistent then "105" else "338");
        ])
    [ false; true ];
  print_table baseline;
  Format.printf "--- Table 1 (simulated-kernel charges use the paper's values) ---@.";
  print_table (Experiments.Exp_table1.table ());
  Format.printf "--- Figure 11 ---@.";
  let low_counts = if fast then [ 0; 10; 20; 35 ] else [ 0; 5; 10; 15; 20; 25; 30; 35 ] in
  print_figure (Experiments.Exp_fig11.figure ~low_counts ~measure:measure_short ());
  Format.printf "--- Figures 12 and 13 ---@.";
  let cgi_counts = if fast then [ 0; 2; 4 ] else [ 0; 1; 2; 3; 4; 5 ] in
  let f12, f13 =
    Experiments.Exp_fig12_13.figures ~cgi_counts
      ~measure:(if fast then Simtime.sec 10 else Simtime.sec 15)
      ()
  in
  print_figure f12;
  print_figure f13;
  Format.printf "--- Figure 14 ---@.";
  let rates =
    if fast then [ 0.; 10_000.; 40_000.; 70_000. ]
    else [ 0.; 5_000.; 10_000.; 20_000.; 30_000.; 40_000.; 50_000.; 60_000.; 70_000. ]
  in
  print_figure (Experiments.Exp_fig14.figure ~rates ~measure:measure_short ());
  Format.printf "--- §5.8 virtual servers ---@.";
  print_table (Experiments.Exp_virtual.table ());
  Format.printf "--- §5.4 container overhead ---@.";
  print_table (Experiments.Exp_overhead.table ());
  Format.printf "--- disk-bandwidth extension (§4.4) ---@.";
  print_table (Experiments.Exp_disk.architecture_table ());
  print_table (Experiments.Exp_disk.pool_table ());
  print_table (Experiments.Exp_disk.isolation_table ());
  Format.printf "--- ablations ---@.";
  print_table
    (Experiments.Exp_ablation.scheduler_family_table
       ~measure:(if fast then Simtime.sec 3 else Simtime.sec 10)
       ());
  print_table (Experiments.Exp_ablation.binding_prune_table ());
  print_table (Experiments.Exp_ablation.quantum_table ());
  print_table (Experiments.Exp_ablation.smp_scaling_table ());
  print_table (Experiments.Exp_ablation.softirq_charging_table ())

let () =
  let fast = Array.exists (String.equal "--fast") Sys.argv in
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let mega = Array.exists (String.equal "--mega") Sys.argv in
  let opt_value name =
    let result = ref None in
    Array.iteri
      (fun i arg ->
        if arg = name && i + 1 < Array.length Sys.argv then result := Some Sys.argv.(i + 1))
      Sys.argv;
    !result
  in
  let trace_out = opt_value "--trace-out" in
  let metrics_out = opt_value "--metrics-out" in
  if trace_out <> None || metrics_out <> None then Experiments.Harness.observe ();
  (if Array.exists (String.equal "--json") Sys.argv then begin
     let label =
       match opt_value "--label" with Some label -> label | None -> "current"
     in
     run_json ~fast ~smoke ~mega ~label
   end
   else begin
     Format.printf "=== Part 1: primitive costs (real wall clock, Bechamel OLS) ===@.";
     run_table1_microbench ();
     Rescont.Usage.renew_domain_arena ();
     run_sched_microbench ();
     Rescont.Usage.renew_domain_arena ();
     run_smp_microbench ();
     Rescont.Usage.renew_domain_arena ();
     run_sim_microbench ();
     run_netsim_microbench ();
     Rescont.Usage.renew_domain_arena ();
     run_cache_microbench ();
     Rescont.Usage.renew_domain_arena ();
     Format.printf "@.=== Part 2: reproduction of the paper's evaluation (simulated) ===@.";
     run_experiments ~fast
   end);
  match Experiments.Harness.last_rig () with
  | Some rig -> Experiments.Harness.export ?trace_out ?metrics_out rig
  | None -> ()
