(* Seeded scenario fuzzer: draw a random-but-reproducible scenario from a
   config, build it, run it with every conservation law armed, and report
   the first violation.  The scenario is plain data drawn up front from
   the seed, so a failure found on any machine replays anywhere from its
   printed config. *)

module Simtime = Engine.Simtime
module Rng = Engine.Rng
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module Cluster = Clustersim.Cluster
module Event_server = Httpsim.Event_server
module File_cache = Httpsim.File_cache
module Synflood = Workload.Synflood

let mode_name = function
  | Stack.Softirq -> "softirq"
  | Stack.Lrp -> "lrp"
  | Stack.Rc -> "rc"

let all_modes = [ Stack.Softirq; Stack.Lrp; Stack.Rc ]
let mode_of_string s = List.find_opt (fun m -> mode_name m = s) all_modes

(* {1 Configs} *)

type config = {
  mode : Stack.mode;
  seed : int;
  cpus : int;
  machines : int;
  shards : int;
  zipf : bool;
  inject : bool;
}

let config ~mode ~seed =
  { mode; seed; cpus = 1; machines = 1; shards = 1; zipf = false; inject = false }

let validate c =
  if c.cpus < 1 then Error "--cpus must be >= 1"
  else if c.machines < 1 then Error "--machines must be >= 1"
  else if c.shards < 1 then Error "--shards must be >= 1"
  else if c.zipf && c.machines > 1 then
    Error "--zipf is a single-rig scenario family (drop --machines)"
  else Ok c

(* Every setting that differs from {!config}'s default, as its replay flag
   and its tag in the default trace-file name. *)
let settings c =
  let count flag n =
    if n > 1 then [ (Printf.sprintf " --%s %d" flag n, Printf.sprintf "-%s%d" flag n) ] else []
  in
  count "cpus" c.cpus @ count "machines" c.machines @ count "shards" c.shards
  @ (if c.zipf then [ (" --zipf", "-zipf") ] else [])
  @ if c.inject then [ (" --inject mischarge", "-inject") ] else []

let replay_command c =
  Printf.sprintf "dune exec bin/rc_sim.exe -- fuzz --seed %d --mode %s%s" c.seed
    (mode_name c.mode)
    (String.concat "" (List.map fst (settings c)))

let default_trace_path c =
  Printf.sprintf "fuzz-%s-seed%d%s.trace.jsonl" (mode_name c.mode) c.seed
    (String.concat "" (List.map snd (settings c)))

(* {1 Scenarios: every random choice, drawn up front as plain data} *)

type server = Event of Event_server.api | Threaded of int | Forked of int
type conn_policy = No_containers | Inherit_listen | Per_connection of { prio_seed : int }

type corpus =
  | Three_docs
  | Zipf_corpus of { docs : int; s : float; capacity_bytes : int; warm : bool }

(* One closed-loop client group; [doc] indexes [three_docs]. *)
type group = {
  in_vip : bool;
  count : int;
  doc : int;
  persistent : bool;
  requests_per_conn : int;
  think_us : int;
  jitter_us : int;
  syn_timeout_ms : int;
  client_seed : int;
}

type rig = {
  queue_cap : int;
  corpus : corpus;
  server : server;
  conn_policy : conn_policy;
  vip : (int * int option) option; (* priority, memory limit of the 10.200/16 class *)
  flood_bin : bool; (* the flood's /24 steered to an idle-class container (§4.8) *)
  groups : group list;
  flood : (float * int option) option; (* SYN/s, seed of Poisson arrivals *)
}

type farm = {
  policy : Cluster.policy;
  tenants : (int * int) list; (* weight, priority *)
  profile : Cluster.profile;
  workers : int;
  arrival_seed : int;
  flood_at : (float * int) option; (* SYN/s, target machine *)
}

type family = Rig of rig | Farm of farm

type scenario = {
  family : family;
  duration : Simtime.span;
  check_interval : Simtime.span;
  victim : int; (* the machine an injected mis-charge lands on *)
}

let three_docs = [| ("/doc/1k", 1024); ("/doc/8k", 8192); ("/doc/64k", 65536) |]
let zipf_doc_bytes i = 256 * (1 + (i land 15))

(* Each draw is its own [let], so the draw order is the source order. *)
let gen_rig rng ~zipf =
  let bool () = Rng.bool rng and int n = Rng.int rng n in
  let queue_cap = 8 + int 120 in
  let corpus =
    if not zipf then Three_docs
    else begin
      let docs = 2_000 + int 8_000 in
      let s = [| 0.6; 0.9; 1.1 |].(int 3) in
      let total = Array.fold_left ( + ) 0 (Array.init docs zipf_doc_bytes) in
      let capacity_bytes = max 4096 (total / (4 + int 12)) in
      Zipf_corpus { docs; s; capacity_bytes; warm = bool () }
    end
  in
  let server =
    match int 3 with
    | 0 -> Event (if bool () then Event_server.Select else Event_server.Event_api)
    | 1 -> Threaded (2 + int 8)
    | _ -> Forked (2 + int 6)
  in
  let conn_policy =
    match int 3 with
    | 0 -> No_containers
    | 1 -> Inherit_listen
    | _ -> Per_connection { prio_seed = int 1_000_000 }
  in
  let vip =
    if not (bool ()) then None
    else if bool () then Some (50 + int 50, None)
    else Some (40, Some ((16 + int 48) * 1024))
  in
  let flood =
    if not (bool ()) then None
    else
      let rate = float_of_int (2_000 + int 30_000) in
      Some (rate, if bool () then Some (int 1_000_000) else None)
  in
  let flood_bin = flood <> None && bool () in
  let group i =
    let in_vip = i = 0 && vip <> None && bool () in
    let count = 1 + int 6 in
    let doc = int (Array.length three_docs) in
    let persistent = bool () in
    let requests_per_conn = 1 + int 16 in
    let think_us = int 2000 in
    let jitter_us = int 500 in
    let syn_timeout_ms = 200 + int 800 in
    let client_seed = int 1_000_000 in
    { in_vip; count; doc; persistent; requests_per_conn; think_us; jitter_us; syn_timeout_ms;
      client_seed }
  in
  let groups = List.init (1 + int 2) group in
  { queue_cap; corpus; server; conn_policy; vip; flood_bin; groups; flood }

let policies =
  [| ("round-robin", Cluster.Round_robin); ("least-conns", Cluster.Least_conns);
     ("flow-hash", Cluster.Flow_hash); ("replicate-2", Cluster.Replicate 2) |]

let gen_farm rng ~machines =
  let int n = Rng.int rng n in
  let policy = snd policies.(int (Array.length policies)) in
  let tenant _ =
    let weight = 1 + int 3 in
    (weight, 10 + int 40)
  in
  let tenants = List.init (1 + int 2) tenant in
  let rate = float_of_int (500 + int 3_000) in
  let profile =
    if Rng.bool rng then
      Cluster.Spike { base = rate; peak = 3. *. rate; at = Simtime.ms 30; until = Simtime.ms 70 }
    else Cluster.Poisson rate
  in
  let workers = 4 + int 12 in
  let arrival_seed = int 1_000_000 in
  let flood_at =
    if not (Rng.bool rng) then None
    else
      let rate = float_of_int (2_000 + int 20_000) in
      Some (rate, int machines)
  in
  { policy; tenants; profile; workers; arrival_seed; flood_at }

let generate c =
  let rng = Rng.create ~seed:c.seed in
  let family =
    if c.machines > 1 then Farm (gen_farm rng ~machines:c.machines)
    else Rig (gen_rig rng ~zipf:c.zipf)
  in
  let duration = Simtime.ms (80 + Rng.int rng 170) in
  let check_interval =
    Simtime.ms (match family with Rig _ -> 1 + Rng.int rng 5 | Farm _ -> 2 + Rng.int rng 6)
  in
  { family; duration; check_interval; victim = Rng.int rng c.machines }

let pp_scenario ppf s =
  (match s.family with
  | Rig r ->
      Format.fprintf ppf "%s/%s groups=%d clients=%d"
        (match r.server with Event _ -> "event" | Threaded _ -> "threaded" | Forked _ -> "forked")
        (match r.conn_policy with
        | No_containers -> "none"
        | Inherit_listen -> "inherit"
        | Per_connection _ -> "per-conn")
        (List.length r.groups)
        (List.fold_left (fun acc g -> acc + g.count) 0 r.groups);
      Option.iter (fun (rate, _) -> Format.fprintf ppf " flood=%.0f/s" rate) r.flood
  | Farm f ->
      let name = fst (List.find (fun (_, p) -> p = f.policy) (Array.to_list policies)) in
      Format.fprintf ppf "cluster/%s tenants=%d rate=%s" name (List.length f.tenants)
        (match f.profile with
        | Cluster.Poisson r -> Printf.sprintf "%.0f/s" r
        | Cluster.Spike { base; _ } -> Printf.sprintf "%.0f/s spike" base);
      Option.iter (fun (rate, node) -> Format.fprintf ppf " flood=%.0f/s@%d" rate node) f.flood_at);
  Format.fprintf ppf " dur=%a check=%a" Simtime.pp_span s.duration Simtime.pp_span
    s.check_interval;
  match s.family with
  | Rig { corpus = Zipf_corpus z; _ } ->
      Format.fprintf ppf " zipf docs=%d s=%.1f cap=%dKB%s" z.docs z.s (z.capacity_bytes / 1024)
        (if z.warm then " warm" else "")
  | Rig _ | Farm _ -> ()

(* {1 Building and running} *)

(* What the run scaffolding needs from a built scenario of either family. *)
type built = {
  arm : Simtime.span -> unit;
  start : unit -> unit;
  run_for : Simtime.span -> unit;
  stop : unit -> unit;
  nodes : (Machine.t * Stack.t) list;
  completed : unit -> int;
  flooder : Synflood.t option;
  trace : Engine.Tracelog.t option;
}

let build_rig c r =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let invariants = Engine.Invariant.create () in
  (* One policy per run-queue shard: [cpus] only changes where the
     scenario's work lands. *)
  let make_policy _cpu =
    match c.mode with
    | Stack.Rc -> Sched.Multilevel.make ~invariants ~root ()
    | Stack.Softirq | Stack.Lrp -> Sched.Timeshare.make ()
  in
  let policy = make_policy 0 in
  let trace = Engine.Tracelog.create ~enabled:true ~capacity:4096 () in
  let machine =
    Machine.create ~cpus:c.cpus ~shard_policy:make_policy ~sim ~policy ~root ~invariants ~trace ()
  in
  let process = Process.create machine ~name:"httpd" () in
  let stack =
    Stack.create ~machine ~mode:c.mode ~queue_cap:r.queue_cap
      ~owner:(Process.default_container process) ()
  in
  (* The large-Zipf corpus: thousands of documents of heterogeneous size
     against a cache holding a small fraction of it, so the arena's
     eviction path churns while cache.bytes-consistency sweeps it. *)
  let cache, doc_mix =
    match r.corpus with
    | Three_docs ->
        let cache = File_cache.create () in
        Array.iter (fun (path, bytes) -> File_cache.add_document cache ~path ~bytes) three_docs;
        File_cache.warm cache;
        (cache, None)
    | Zipf_corpus z ->
        let cache = File_cache.create ~capacity_bytes:z.capacity_bytes () in
        let intern i = Httpsim.Docset.intern (Printf.sprintf "/zipf/%d" i) in
        let ids = Array.init z.docs intern in
        Array.iteri (fun i doc -> File_cache.add_doc cache ~doc ~bytes:(zipf_doc_bytes i)) ids;
        if z.warm then File_cache.warm cache;
        (cache, Some (Engine.Dist.zipf ~n:z.docs ~s:z.s, ids))
  in
  File_cache.register_invariants cache invariants;
  (* Listen sockets: a catch-all, plus sometimes a filtered high-priority
     class (VIP prefix 10.200/16) and, when flooding, the §4.8 defence —
     the attacker's prefix steered to an idle-class container. *)
  let filtered name attrs template bits =
    let container = Container.create ~parent:root ~name ~attrs () in
    Socket.make_listen ~port:80 ~filter:(Netsim.Filter.prefix ~template ~bits) ~container ()
  in
  let catch_all = Socket.make_listen ~port:80 () in
  let vip =
    Option.map
      (fun (priority, memory_limit) ->
        filtered "vip" (Attrs.timeshare ~priority ?memory_limit ()) (Ipaddr.v 10 200 0 0) 16)
      r.vip
  in
  let bin =
    if not r.flood_bin then None
    else Some (filtered "flood-bin" (Attrs.timeshare ~priority:0 ()) (Ipaddr.v 192 168 66 0) 24)
  in
  let listens = Option.to_list bin @ Option.to_list vip @ [ catch_all ] in
  let policy =
    match r.conn_policy with
    | No_containers -> Event_server.No_containers
    | Inherit_listen -> Event_server.Inherit_listen
    | Per_connection { prio_seed } ->
        let prng = Rng.create ~seed:prio_seed in
        Event_server.Per_connection { parent = root; priority_of = (fun _ -> 5 + Rng.int prng 20) }
  in
  (match r.server with
  | Event api ->
      ignore
        (Event_server.start (Event_server.create ~stack ~process ~cache ~api ~policy ~listens ()))
  | Threaded workers ->
      Httpsim.Threaded_server.(start (create ~stack ~process ~cache ~workers ~policy ~listens ()))
  | Forked workers ->
      Httpsim.Forked_server.(
        start (create ~stack ~master:process ~cache ~workers ~policy ~listens ())));
  (* Closed-loop client groups; a VIP group's sources sit inside the VIP
     prefix so filtered demux and container inheritance are hit. *)
  let clients =
    List.mapi
      (fun i g ->
        Workload.Sclient.create ~stack ~name:(Printf.sprintf "g%d" i)
          ~src_base:(if g.in_vip then Ipaddr.v 10 200 0 1 else Ipaddr.v 10 (1 + i) 0 1)
          ~port:80 ~path:(fst three_docs.(g.doc)) ?doc_mix ~persistent:g.persistent
          ~requests_per_conn:g.requests_per_conn ~think_time:(Simtime.us g.think_us)
          ~jitter:(Simtime.us g.jitter_us) ~syn_timeout:(Simtime.ms g.syn_timeout_ms)
          ~seed:g.client_seed ~count:g.count ())
      r.groups
  in
  let flooder =
    Option.map
      (fun (rate_per_sec, poisson) ->
        let rng = Option.map (fun seed -> Rng.create ~seed) poisson in
        Synflood.create ~stack ?rng ~rate_per_sec ())
      r.flood
  in
  {
    arm = (fun interval -> Machine.arm_invariants ~interval machine);
    start = (fun () -> List.iter Workload.Sclient.start clients);
    run_for = (fun d -> Machine.run_until machine (Simtime.add (Machine.now machine) d));
    stop = (fun () -> List.iter Workload.Sclient.stop clients);
    nodes = [ (machine, stack) ];
    completed =
      (fun () -> List.fold_left (fun n cl -> n + Workload.Sclient.completed cl) 0 clients);
    flooder;
    trace = Some trace;
  }

(* The cluster family: machines behind the balancer, every machine's
   registry armed, including the cluster-wide "cluster.usage-rollup" law
   that ties the per-machine tenant ledgers to the rollup totals. *)
let build_farm c f =
  let tenants =
    List.mapi
      (fun i (weight, priority) ->
        Cluster.tenant_spec ~weight ~attrs:(Attrs.timeshare ~priority ()) (Printf.sprintf "t%d" i))
      f.tenants
  in
  let cl =
    Cluster.create ~machines:c.machines ~shards:c.shards ~cpus:c.cpus ~mode:c.mode
      ~policy:f.policy ~profile:f.profile ~tenants ~workers:f.workers ~seed:f.arrival_seed ()
  in
  let flooder =
    Option.map
      (fun (rate_per_sec, node) ->
        Synflood.create ~stack:(Cluster.node_stack cl node) ~rate_per_sec ())
      f.flood_at
  in
  {
    arm = (fun interval -> Cluster.arm_invariants ~interval cl);
    start = (fun () -> Cluster.start cl);
    run_for = Cluster.run_for cl;
    stop = (fun () -> Cluster.stop_arrivals cl);
    nodes = List.init c.machines (fun i -> (Cluster.node_machine cl i, Cluster.node_stack cl i));
    completed = (fun () -> Cluster.completed cl);
    flooder;
    trace = None;
  }

type outcome = {
  config : config;
  scenario : scenario;
  checks : int;
  completed : int;
  packets : int;
  violation : string option;
  trace_file : string option;
}

let run ?trace_path c =
  let c = match validate c with Ok c -> c | Error e -> invalid_arg ("Fuzz.run: " ^ e) in
  let s = generate c in
  let b = match s.family with Rig r -> build_rig c r | Farm f -> build_farm c f in
  b.arm s.check_interval;
  (if c.inject then
     (* A §3.1-style accounting bug on demand: interrupt work charged to a
        container outside the root's subtree.  Machine busy time advances
        but the root rollup does not, so [cpu.conservation] must trip at
        the next sweep.  It is scheduled on the victim's own event core:
        under sharding another machine's sim is another shard. *)
     let victim = fst (List.nth b.nodes s.victim) in
     let detached = Container.create_detached ~name:"mischarge-sink" () in
     ignore
       (Engine.Sim.after (Machine.sim victim) (Simtime.span_scale 0.5 s.duration) (fun () ->
            Machine.steal_time victim ~cost:(Simtime.us 50) ~charge:(`Container detached))));
  let violation =
    try
      b.start ();
      Option.iter Synflood.start b.flooder;
      b.run_for s.duration;
      b.stop ();
      Option.iter Synflood.stop b.flooder;
      (* Drain: let in-flight packets, timers and closes settle; the
         quiesce sweep at the horizon has the final word. *)
      b.run_for (Simtime.ms 100);
      None
    with
    | Engine.Invariant.Violation v -> Some (Format.asprintf "%a" Engine.Invariant.pp_violation v)
    | Rescont.Usage.Negative_memory _ as e -> Some (Printexc.to_string e)
    | e -> Some ("unexpected exception: " ^ Printexc.to_string e)
  in
  let trace_file =
    match (violation, b.trace) with
    | Some _, Some trace ->
        let path = Option.value trace_path ~default:(default_trace_path c) in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Engine.Tracelog.to_jsonl trace));
        Some path
    | _ -> None
  in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 b.nodes in
  {
    config = c;
    scenario = s;
    checks = sum (fun (m, _) -> Engine.Invariant.checks_run (Machine.invariants m));
    completed = b.completed ();
    packets = sum (fun (_, st) -> (Stack.stats st).Stack.packets_processed);
    violation;
    trace_file;
  }

let pp_outcome ppf o =
  let c = o.config in
  let where =
    (if c.machines > 1 then Printf.sprintf " machines=%d" c.machines else "")
    ^ if c.cpus > 1 then Printf.sprintf " cpus=%d" c.cpus else ""
  in
  Format.fprintf ppf "seed %-6d %-7s " c.seed (mode_name c.mode);
  match o.violation with
  | None ->
      Format.fprintf ppf "ok    checks=%d completed=%d packets=%d  [%a%s]" o.checks o.completed
        o.packets pp_scenario o.scenario where
  | Some v ->
      Format.fprintf ppf "FAIL  %s@\n  scenario: %a%s@\n  replay:   %s%s" v pp_scenario o.scenario
        where (replay_command c)
        (match o.trace_file with Some f -> Printf.sprintf "\n  trace:    %s" f | None -> "")
