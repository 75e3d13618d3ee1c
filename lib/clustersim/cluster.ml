(* Cluster scale-out: many server machines behind one L4 load balancer,
   executed as one sharded deterministic simulation.

   Every machine is a full PR-7 rig — its own [Procsim.Machine] (optionally
   SMP), container hierarchy, invariant registry and [Netsim.Stack] — and
   machine i's event core is the shard-(i mod shards) [Engine.Sim].  The
   balancer (the open-loop client population) runs in shard 0.  Shards
   advance in lockstep time windows under [Engine.Shard]'s conservative
   barrier protocol; the window length equals the balancer->machine
   dispatch latency (the SYN's wire time by default), which is exactly the
   lookahead that makes the protocol conservative:

   - The balancer never touches a machine directly.  An arrival is three
     ints (deliver_ns, seq, tenant index) pushed into the target node's
     dispatch mailbox; the barrier drains the mailboxes in node order and
     posts each SYN into the target machine's sim with
     [Stack.inject_connect_at] at deliver_ns >= the window end.
   - A machine never touches the balancer.  A response is two ints
     (time_ns, seq) pushed into the node's completion mailbox; the barrier
     merges all completion mailboxes by (time, node index, per-node FIFO)
     and applies them to the in-flight rings, counters and sojourn summary
     in that canonical order.

   Because this windowed mailbox protocol is the ONLY execution path (a
   shards=1 run uses the same mailboxes, the same barriers and the same
   drain orders), shards=N is byte-identical to shards=1 by construction:
   nothing observable depends on the shard count, the domain count, the
   wall clock or domain identity.  The window must be positive: zero
   lookahead cannot be made conservative.

   Tenants are the paper's resource principals stretched across machines:
   each tenant owns one container per machine (filter-matched listens bind
   accepted connections to it, §4.6+§4.8) and a [Rescont.Rollup] group
   aggregates the per-machine ledgers into cluster-wide totals, certified
   by the "cluster.usage-rollup" conservation law in the cluster-level
   registry, checked at rollup barriers and at every [run_for] horizon.
   Each machine's containers live in their own ledger arena
   ([Usage.renew_domain_arena] per node), so two domains never write the
   same accounting arrays.

   The server application on each machine is a worker pool over an
   edge-triggered ready queue ([Stack.set_on_readable]): O(1) per wakeup,
   so a machine can hold 10^5+ open connections without the O(conns)
   select-style scan of the single-machine experiments.  Workers serve one
   request per connection (parse, a sampled service burn, respond) and
   leave the connection open; the client holds it for [hold] and then
   closes — that is how the cluster reaches 10^5-10^6 concurrent
   connections at moderate arrival rates. *)

module Sim = Engine.Sim
module Simtime = Engine.Simtime
module Rng = Engine.Rng
module Dist = Engine.Dist
module Stats = Engine.Stats
module Shard = Engine.Shard
module Machine = Procsim.Machine
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Rollup = Rescont.Rollup
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module Filter = Netsim.Filter
module Costs = Httpsim.Costs

type policy = Round_robin | Least_conns | Flow_hash | Replicate of int

type profile =
  | Poisson of float
  | Spike of { base : float; peak : float; at : Simtime.span; until : Simtime.span }

type tenant_spec = { ts_name : string; ts_weight : int; ts_attrs : Attrs.t }

let tenant_spec ?(weight = 1) ?(attrs = Attrs.timeshare ()) name =
  if weight <= 0 then invalid_arg "Cluster.tenant_spec: weight must be positive";
  { ts_name = name; ts_weight = weight; ts_attrs = attrs }

type node = {
  index : int;
  machine : Machine.t;
  stack : Stack.t;
  root : Container.t;
  server_container : Container.t;
  node_rng : Rng.t;
  ready : Socket.conn Queue.t;
  wq : Machine.Waitq.t;
  mutable listens : Socket.listen array; (* one per tenant *)
  mutable handlers : Socket.client_handlers;
  mutable served : int; (* responses sent by this node *)
  mutable refused : int; (* refusals seen by this node's clients *)
  (* Per-node server sojourn summary, merged in node order on read: float
     accumulation happens in an order that is a function of the node
     alone, never of cross-machine event interleaving. *)
  mutable server_sojourn : Stats.Summary.t;
  (* Mailboxes (see the header).  Written by the domain running this
     node's shard during a window (complete_box) or by the balancer's
     domain (dispatch_box); drained by the barrier. *)
  dispatch_box : Shard.Intbox.t; (* deliver_ns, seq, tenant_ix *)
  complete_box : Shard.Intbox.t; (* time_ns, seq *)
}

type tenant = {
  spec : tenant_spec;
  prefix : Ipaddr.t; (* /16 client block; arrivals draw sources from it *)
  containers : Container.t array; (* one per node *)
  group : Rollup.group;
}

type t = {
  shard_sims : Sim.t array; (* machine i runs in shard i mod shards *)
  exec : Shard.t;
  window_ns : int; (* dispatch latency = window length, > 0 *)
  policy : policy;
  profile : profile;
  nodes : node array;
  tenants : tenant array;
  tenant_cum : int array; (* cumulative weights for the weighted pick *)
  weight_total : int;
  rollup : Rollup.t;
  cluster_laws : Engine.Invariant.t; (* cluster-level laws: usage-rollup *)
  arrival_rng : Rng.t;
  service : Dist.t; (* per-request CPU burn, in nanoseconds *)
  request_bytes : int;
  response_bytes : int;
  hold : Simtime.span; (* client-side linger after the response *)
  workers : int;
  port : int;
  rollup_period : Simtime.span;
  (* In-flight request rings, indexed by [seq land mask].  [issue_seq]
     detects eviction, [done_seq] dedups clone responses, [issue_ns] is
     the client-side issue stamp.  Balancer-side state: written only by
     shard-0 events and by the barrier. *)
  mask : int;
  issue_seq : int array;
  issue_ns : int array;
  done_seq : int array;
  mutable next_seq : int;
  mutable rr : int;
  (* Consistent-hash ring: sorted hash points and their owning nodes. *)
  ring_points : int array;
  ring_nodes : int array;
  (* Least-conns sees the previous barrier's connection counts (stale by
     at most one window) — live counts would race across shards and
     depend on the shard count.  Refreshed at every barrier. *)
  conns_snapshot : int array;
  merge_cursor : int array; (* scratch for the completion k-way merge *)
  mutable next_rollup_ns : int; (* next barrier that aggregates the rollup *)
  (* Cluster-wide counters and distributions. *)
  mutable issued : int;
  mutable completed : int; (* logical completions (clone-deduped) *)
  mutable dup_responses : int; (* later clones of an already-answered request *)
  mutable evicted : int; (* in-flight entries overwritten by ring reuse *)
  mutable peak_concurrent : int;
  mutable client_sojourn : Stats.Summary.t; (* connect -> response, seconds *)
  mutable started : bool;
  mutable arrivals_on : bool;
  mutable strict : bool; (* arm_invariants was called: workers need the DLS flag *)
  mutable t0_ns : int; (* profile epoch: simulation time at [start] *)
}

(* Enough virtual nodes that arc-share imbalance is a few percent: with V
   vnodes per machine the share standard deviation is ~1/sqrt(V). *)
let ring_vnodes = 512

(* Full-avalanche mix for the virtual points.  [Stack.flow_hash] is NOT
   good enough here: its inputs per machine differ only in the small port
   operand, whose contribution stays in the low bits through the weak
   final multiply, so one machine's 512 points cluster into a few runs of
   the ring and arc shares end up 0.6x-1.5x even — enough to saturate one
   machine while the cluster-average utilisation looks moderate.  The
   arrival keys keep using [Stack.flow_hash] (they are wide and verified
   uniform); only the points need the stronger mixer. *)
let mix_point h =
  let h = h * 0x9E3779B1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x85EBCA6B in
  let h = h lxor (h lsr 32) in
  let h = h * 0xC2B2AE35 in
  let h = h lxor (h lsr 29) in
  h land max_int

let build_ring machines =
  let pts = Array.init (machines * ring_vnodes) (fun k ->
      let i = k / ring_vnodes and v = k mod ring_vnodes in
      (mix_point ((i lsl 16) lor v), i))
  in
  Array.sort compare pts;
  (Array.map fst pts, Array.map snd pts)

(* Smallest ring point >= h, wrapping to the first point past the top. *)
let ring_lookup t h =
  let pts = t.ring_points in
  let n = Array.length pts in
  if h > pts.(n - 1) then t.ring_nodes.(0)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pts.(mid) >= h then hi := mid else lo := mid + 1
    done;
    t.ring_nodes.(!lo)
  end

let machines t = Array.length t.nodes
let shards t = Shard.shards t.exec
let domains t = Shard.domains t.exec
let shard_stats t = Shard.stats t.exec
let lookahead t = Simtime.span_of_ns t.window_ns
let node_machine t i = t.nodes.(i).machine
let node_stack t i = t.nodes.(i).stack
let node_served t i = t.nodes.(i).served
let node_root t i = t.nodes.(i).root
let tenant_count t = Array.length t.tenants
let tenant_name t k = t.tenants.(k).spec.ts_name
let tenant_group t k = t.tenants.(k).group
let tenant_container t ~tenant ~node = t.tenants.(tenant).containers.(node)
let tenant_prefix t k = t.tenants.(k).prefix
let rollup t = t.rollup
let sim t = t.shard_sims.(0)
let now t = Sim.now t.shard_sims.(0)
let issued t = t.issued
let completed t = t.completed
let refused t = Array.fold_left (fun acc n -> acc + n.refused) 0 t.nodes
let dup_responses t = t.dup_responses
let evicted t = t.evicted
let peak_concurrent t = t.peak_concurrent
let client_sojourn t = t.client_sojourn

let server_sojourn t =
  Array.fold_left
    (fun acc n -> Stats.Summary.merge acc n.server_sojourn)
    (Stats.Summary.create ()) t.nodes

let concurrent t =
  Array.fold_left (fun acc n -> acc + Stack.tracked_conns n.stack) 0 t.nodes

let busy_total t =
  Array.fold_left
    (fun acc n -> Simtime.span_add acc (Machine.busy_time n.machine))
    Simtime.span_zero t.nodes

(* ---------------- the server application ---------------- *)

let serve_conn t node conn =
  if conn.Socket.state <> Socket.Closed then begin
    (* Bind the worker to the connection's container (rc_bind_thread) so
       parsing and the service burn are charged to the tenant. *)
    (match conn.Socket.container with
    | Some c ->
        Machine.cpu ~kernel:true Rescont.Ops.Cost.rebind_thread;
        Machine.rebind node.machine (Machine.self ()) c
    | None -> ());
    match Stack.recv node.stack conn with
    | Some req ->
        Machine.cpu Costs.read_parse;
        Machine.cpu (Simtime.ns (Dist.sample_int t.service node.node_rng));
        Machine.cpu Costs.write_syscall;
        Stack.send node.stack conn (Netsim.Payload.make ~bytes:t.response_bytes (Machine.now node.machine));
        node.served <- node.served + 1;
        (* Server-side sojourn: request hits the NIC -> response handed to
           the wire.  The arrival instant is recovered from the client's
           send stamp plus the wire time, so handshake round trips (pure
           network) stay out and the whole in-server path — kernel rx
           processing, worker queueing, parse, service, write — stays in.
           This is the PS-oracle observable. *)
        let arrived_ns =
          Simtime.to_ns req.Netsim.Payload.created
          + Simtime.span_to_ns (Stack.delivery_delay node.stack req)
        in
        let soj = Simtime.to_ns (Machine.now node.machine) - arrived_ns in
        Stats.Summary.add node.server_sojourn (float_of_int soj /. 1e9)
    | None ->
        (* EOF: the client closed after its hold; finish the passive close. *)
        if conn.Socket.state = Socket.Close_wait then begin
          Machine.cpu Costs.close_syscall;
          Stack.close node.stack conn
        end
  end

let drain_accepts t node =
  Array.iter
    (fun l ->
      let rec go () =
        match Stack.accept node.stack l with
        | Some conn ->
            Machine.cpu Costs.accept_syscall;
            Machine.cpu Costs.conn_setup_misc;
            (* The accepted connection inherits its listen's (tenant)
               container; [conn.container <> None] doubles as the
               "accepted" marker for the edge-triggered push below. *)
            Socket.bind_container conn
              (Socket.conn_container_or conn ~default:node.server_container);
            if Socket.readable conn then Queue.push conn node.ready;
            go ()
        | None -> ()
      in
      go ())
    node.listens;
  ignore t

let rec worker_body t node =
  drain_accepts t node;
  (match Queue.take_opt node.ready with
  | Some conn -> serve_conn t node conn
  | None -> Machine.Waitq.wait node.wq);
  worker_body t node

(* ---------------- completions (balancer side) ---------------- *)

(* Applied on the balancer's domain only, at the barrier merge. *)
let apply_completion t ~time_ns ~seq =
  let i = seq land t.mask in
  if t.issue_seq.(i) = seq then
    if t.done_seq.(i) <> seq then begin
      t.done_seq.(i) <- seq;
      t.completed <- t.completed + 1;
      let soj = time_ns - t.issue_ns.(i) in
      Stats.Summary.add t.client_sojourn (float_of_int soj /. 1e9)
    end
    else t.dup_responses <- t.dup_responses + 1

(* ---------------- the client population / balancer ---------------- *)

(* The handlers run inside the node's own event core: they read only the
   node and immutable cluster parameters, and write only the node's
   counters and mailboxes.  All times are the node machine's clock
   (identical to the balancer clock at shards=1; the only clock the
   node's domain may read at shards>1). *)
let make_handlers t node =
  let msim = Machine.sim node.machine in
  {
    Socket.on_established =
      (fun conn ->
        (* Request immediately; the hold happens after the response. *)
        Stack.client_send node.stack conn
          (Netsim.Payload.make ~bytes:t.request_bytes (Machine.now node.machine)));
    on_refused = (fun () -> node.refused <- node.refused + 1);
    on_response =
      (fun conn _payload ->
        let seq = conn.Socket.src_port in
        let time_ns = Simtime.to_ns (Machine.now node.machine) in
        Shard.Intbox.push2 node.complete_box time_ns seq;
        if Simtime.span_to_ns t.hold = 0 then Stack.client_close node.stack conn
        else
          Sim.post msim t.hold (fun () ->
              if conn.Socket.state = Socket.Established then
                Stack.client_close node.stack conn));
    on_closed = (fun _ -> ());
  }

let pick_tenant_ix t =
  let r = Rng.int t.arrival_rng t.weight_total in
  let k = ref 0 in
  while t.tenant_cum.(!k) <= r do
    incr k
  done;
  !k

let pick_node t ~src ~src_port =
  match t.policy with
  | Round_robin ->
      let i = t.rr in
      t.rr <- (i + 1) mod machines t;
      i
  | Least_conns ->
      let best = ref 0 and bestc = ref max_int in
      Array.iteri
        (fun i c ->
          if c < !bestc then begin
            bestc := c;
            best := i
          end)
        t.conns_snapshot;
      !best
  | Flow_hash -> ring_lookup t (Stack.flow_hash src src_port)
  | Replicate _ -> assert false

(* Source address for (tenant, seq): an odd multiplier is a bijection mod
   2^16, so low bits vary for the flow hash.  Pure, so the dispatch
   mailbox carries only (deliver_ns, seq, tenant_ix) and the barrier
   recomputes the address. *)
let src_addr t ~tenant_ix ~seq =
  Ipaddr.offset t.tenants.(tenant_ix).prefix ((seq * 0x2545F491) land 0xFFFF)

let inject_one t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tenant_ix = pick_tenant_ix t in
  let src = src_addr t ~tenant_ix ~seq in
  let src_port = seq in
  let i = seq land t.mask in
  if t.issue_seq.(i) >= 0 && t.done_seq.(i) <> t.issue_seq.(i) then
    t.evicted <- t.evicted + 1;
  t.issue_seq.(i) <- seq;
  t.issue_ns.(i) <- Simtime.to_ns (now t);
  t.done_seq.(i) <- min_int;
  t.issued <- t.issued + 1;
  let deliver_ns = Simtime.to_ns (now t) + t.window_ns in
  let send node = Shard.Intbox.push3 node.dispatch_box deliver_ns seq tenant_ix in
  match t.policy with
  | Replicate d ->
      let d = max 1 (min d (machines t)) in
      let base = t.rr in
      t.rr <- (base + 1) mod machines t;
      for k = 0 to d - 1 do
        send t.nodes.((base + k) mod machines t)
      done
  | _ -> send t.nodes.(pick_node t ~src ~src_port)

let rate_at t =
  match t.profile with
  | Poisson r -> r
  | Spike s ->
      let dt = Simtime.to_ns (now t) - t.t0_ns in
      if dt >= Simtime.span_to_ns s.at && dt < Simtime.span_to_ns s.until then s.peak
      else s.base

(* ---------------- the window barrier ---------------- *)

(* Dispatch drain: node order, then mailbox (push) order within a node —
   both functions of simulated history alone.  Every SYN lands at
   deliver_ns >= the window end (conservative), so [inject_connect_at]
   never posts into a machine's past. *)
let drain_dispatch t =
  Array.iter
    (fun node ->
      let box = node.dispatch_box in
      let len = Shard.Intbox.length box in
      let i = ref 0 in
      while !i < len do
        let at = Simtime.of_ns (Shard.Intbox.get box !i) in
        let seq = Shard.Intbox.get box (!i + 1) in
        let tenant_ix = Shard.Intbox.get box (!i + 2) in
        let src = src_addr t ~tenant_ix ~seq in
        Stack.inject_connect_at node.stack ~at ~src ~src_port:seq ~port:t.port
          ~handlers:node.handlers;
        i := !i + 3
      done;
      Shard.Intbox.clear box)
    t.nodes

(* Completion drain: a k-way merge of the per-node mailboxes by
   (time_ns, node index, per-node FIFO).  At shards=1 the per-node boxes
   are already time-sorted (one sim fired them in order), so the merge
   reproduces the global completion order; at shards=N it reproduces the
   same order from the per-shard streams.  Strict [<] pins ties to the
   lowest node index. *)
let drain_completions t =
  let nodes = t.nodes in
  let n = Array.length nodes in
  let cursor = t.merge_cursor in
  Array.fill cursor 0 n 0;
  let rec loop () =
    let best = ref (-1) and best_t = ref max_int in
    for j = 0 to n - 1 do
      let box = nodes.(j).complete_box in
      if cursor.(j) < Shard.Intbox.length box then begin
        let tm = Shard.Intbox.get box cursor.(j) in
        if tm < !best_t then begin
          best_t := tm;
          best := j
        end
      end
    done;
    if !best >= 0 then begin
      let j = !best in
      let box = nodes.(j).complete_box in
      let seq = Shard.Intbox.get box (cursor.(j) + 1) in
      cursor.(j) <- cursor.(j) + 2;
      apply_completion t ~time_ns:!best_t ~seq;
      loop ()
    end
  in
  loop ();
  Array.iter (fun node -> Shard.Intbox.clear node.complete_box) nodes

let check_cluster_laws t =
  if Engine.Invariant.armed t.cluster_laws then Engine.Invariant.check_exn t.cluster_laws

(* Runs on the calling domain while every worker is parked at the
   barrier: safe to read and write any shard's state. *)
let barrier_exchange t wend_ns =
  drain_completions t;
  drain_dispatch t;
  Array.iteri
    (fun i node -> t.conns_snapshot.(i) <- Stack.tracked_conns node.stack)
    t.nodes;
  if wend_ns >= t.next_rollup_ns then begin
    Rollup.aggregate t.rollup;
    let c = Array.fold_left ( + ) 0 t.conns_snapshot in
    if c > t.peak_concurrent then t.peak_concurrent <- c;
    check_cluster_laws t;
    let period = Simtime.span_to_ns t.rollup_period in
    while t.next_rollup_ns <= wend_ns do
      t.next_rollup_ns <- t.next_rollup_ns + period
    done
  end

(* ---------------- construction ---------------- *)

let create ?(machines = 4) ?(shards = 1) ?domains ?(cpus = 1) ?(mode = Stack.Rc)
    ?(policy = Round_robin) ?(profile = Poisson 1000.) ?service ?(request_bytes = 256)
    ?(response_bytes = 4096) ?(hold = Simtime.span_zero) ?(workers = 32)
    ?(quantum = Simtime.us 50) ?(rollup_period = Simtime.ms 10) ?(ring_bits = 20)
    ?(syn_backlog = 1024) ?latency ?window ?(tenants = [ tenant_spec "tenant0" ])
    ?(seed = 1) () =
  if machines <= 0 then invalid_arg "Cluster.create: machines must be positive";
  if shards <= 0 then invalid_arg "Cluster.create: shards must be positive";
  if tenants = [] then invalid_arg "Cluster.create: at least one tenant";
  if List.length tenants > 64 then invalid_arg "Cluster.create: at most 64 tenants";
  (match policy with
  | Replicate d when d < 1 -> invalid_arg "Cluster.create: Replicate degree must be >= 1"
  | _ -> ());
  let shards = min shards machines in
  let service =
    match service with Some d -> d | None -> Dist.exponential ~mean:400_000. (* 400 µs *)
  in
  let shard_sims = Array.init shards (fun _ -> Sim.create ()) in
  let exec = Shard.create ?domains ~shards () in
  let rng = Rng.create ~seed in
  let arrival_rng = Rng.split rng in
  let specs = Array.of_list tenants in
  (* Node i's tenant containers, filled inside node i's arena block below
     (chain-linking a container to its parent requires the same arena, so
     every container of a machine must be created between that machine's
     arena renewal and the next). *)
  let per_node_tenant_containers = Array.make machines [||] in
  let nodes =
    Array.init machines (fun i ->
        (* Each machine's containers live in their own ledger arena: the
           whole rig (root, system, server, tenant containers — chained
           within one arena) is built between renewals, and no container
           is created after [create], so a shard's charging never writes
           another shard's accounting arrays. *)
        Rescont.Usage.renew_domain_arena ();
        let sim = shard_sims.(i mod shards) in
        let root = Container.create_root () in
        let invariants = Engine.Invariant.create () in
        let make_policy _cpu =
          match mode with
          | Stack.Rc -> Sched.Multilevel.make ~window:(Simtime.ms 100) ~invariants ~root ()
          | Stack.Softirq | Stack.Lrp -> Sched.Timeshare.make ()
        in
        let policy0 = make_policy 0 in
        let machine =
          if cpus > 1 then
            Machine.create ~cpus ~shard_policy:make_policy ~quantum ~invariants ~sim
              ~policy:policy0 ~root ()
          else Machine.create ~quantum ~invariants ~sim ~policy:policy0 ~root ()
        in
        let server_container =
          Container.create ~name:(Printf.sprintf "node%d.server" i) ~parent:root ()
        in
        let stack = Stack.create ?latency ~machine ~mode ~owner:server_container () in
        per_node_tenant_containers.(i) <-
          Array.map
            (fun spec ->
              Container.create ~name:spec.ts_name ~attrs:spec.ts_attrs ~parent:root ())
            specs;
        {
          index = i;
          machine;
          stack;
          root;
          server_container;
          node_rng = Rng.split rng;
          ready = Queue.create ();
          wq = Machine.Waitq.create ~name:(Printf.sprintf "node%d.ready" i) machine;
          listens = [||];
          handlers = Socket.null_handlers;
          served = 0;
          refused = 0;
          server_sojourn = Stats.Summary.create ();
          dispatch_box = Shard.Intbox.create ();
          complete_box = Shard.Intbox.create ();
        })
  in
  (* The dispatch window (= dispatch latency = the protocol's lookahead).
     Default: the SYN's wire time on the access link — the minimum
     balancer->machine delivery delay, i.e. the largest window that is
     still conservative under the default latency.  An explicit [window]
     trades dispatch latency for barrier amortisation. *)
  let window_ns =
    match window with
    | Some w -> Simtime.span_to_ns w
    | None -> Simtime.span_to_ns (Stack.syn_delivery_delay nodes.(0).stack)
  in
  if window_ns <= 0 then
    invalid_arg
      "Cluster.create: window must be positive (zero lookahead has no conservative window)";
  let rollup = Rollup.create () in
  let cluster_laws = Engine.Invariant.create () in
  Rollup.register rollup cluster_laws;
  let tenant_arr =
    Array.mapi
      (fun k spec ->
        let prefix = Ipaddr.v 10 (40 + k) 0 0 in
        let containers = Array.map (fun per_node -> per_node.(k)) per_node_tenant_containers in
        let group = Rollup.group rollup ~name:spec.ts_name in
        Array.iter (fun c -> Rollup.enroll group (Container.usage c)) containers;
        { spec; prefix; containers; group })
      specs
  in
  let weight_total = Array.fold_left (fun a tn -> a + tn.spec.ts_weight) 0 tenant_arr in
  let tenant_cum =
    let acc = ref 0 in
    Array.map
      (fun tn ->
        acc := !acc + tn.spec.ts_weight;
        !acc)
      tenant_arr
  in
  let ring_points, ring_nodes = build_ring machines in
  let mask = (1 lsl ring_bits) - 1 in
  let t =
    {
      shard_sims;
      exec;
      window_ns;
      policy;
      profile;
      nodes;
      tenants = tenant_arr;
      tenant_cum;
      weight_total;
      rollup;
      cluster_laws;
      arrival_rng;
      service;
      request_bytes;
      response_bytes;
      hold;
      workers;
      port = 80;
      rollup_period;
      mask;
      issue_seq = Array.make (mask + 1) (-1);
      issue_ns = Array.make (mask + 1) 0;
      done_seq = Array.make (mask + 1) min_int;
      next_seq = 0;
      rr = 0;
      ring_points;
      ring_nodes;
      conns_snapshot = Array.make machines 0;
      merge_cursor = Array.make machines 0;
      next_rollup_ns = max_int;
      issued = 0;
      completed = 0;
      dup_responses = 0;
      evicted = 0;
      peak_concurrent = 0;
      client_sojourn = Stats.Summary.create ();
      started = false;
      arrivals_on = true;
      strict = false;
      t0_ns = 0;
    }
  in
  (* Tenant listens: port 80 shared, filter-demuxed on the tenant's /16,
     bound to that tenant's per-machine container (§4.6 + §4.8). *)
  Array.iter
    (fun node ->
      node.handlers <- make_handlers t node;
      node.listens <-
        Array.map
          (fun tn ->
            let l =
              Socket.make_listen
                ~filter:(Filter.prefix ~template:tn.prefix ~bits:16)
                ~backlog:4096 ~syn_backlog
                ~container:tn.containers.(node.index)
                ~port:t.port ()
            in
            Stack.add_listen node.stack l;
            l)
          tenant_arr;
      Stack.add_on_event node.stack (fun () -> Machine.Waitq.signal node.wq);
      Stack.set_on_readable node.stack (fun conn ->
          (* Only accepted connections go on the ready list; a request that
             lands before the accept is picked up by the readable check in
             [drain_accepts]. *)
          if conn.Socket.container <> None then begin
            Queue.push conn node.ready;
            Machine.Waitq.signal node.wq
          end))
    nodes;
  t

let start t =
  if t.started then invalid_arg "Cluster.start: already started";
  t.started <- true;
  t.t0_ns <- Simtime.to_ns (now t);
  Array.iter
    (fun node ->
      for w = 1 to t.workers do
        ignore
          (Machine.spawn node.machine
             ~name:(Printf.sprintf "node%d.worker%d" node.index w)
             ~container:node.server_container
             (fun () -> worker_body t node))
      done)
    t.nodes;
  (* One closure for the whole arrival process: it reschedules itself at
     exponential gaps from the profile's current rate, inside shard 0. *)
  let rec tick () =
    if t.arrivals_on then begin
      inject_one t;
      let u = 1.0 -. Rng.float t.arrival_rng 1.0 in
      let gap_ns = int_of_float (-1e9 /. rate_at t *. log u) in
      Sim.post t.shard_sims.(0) (Simtime.ns (max 1 gap_ns)) tick
    end
  in
  Sim.post t.shard_sims.(0) (Simtime.ns 1) tick;
  t.next_rollup_ns <- t.t0_ns + Simtime.span_to_ns t.rollup_period

let stop_arrivals t = t.arrivals_on <- false

let run_for t span =
  let start_ns = Simtime.to_ns (now t) in
  let horizon_ns = start_ns + Simtime.span_to_ns span in
  let horizon = Simtime.of_ns horizon_ns in
  let cursor = ref start_ns in
  let next () =
    if !cursor >= horizon_ns then None
    else begin
      let wend = min horizon_ns (!cursor + t.window_ns) in
      cursor := wend;
      Some wend
    end
  in
  (* Windows advance each shard's sim directly; the machines' armed
     quiesce re-checks happen once at the horizon below, not at every
     window (the periodic [Sim.every] sweeps still run inside windows
     at their own cadence). *)
  let work s h = Sim.run_until t.shard_sims.(s) (Simtime.of_ns h) in
  let prepare () = Rescont.Usage.set_strict_memory t.strict in
  Shard.run_windows ~prepare t.exec ~next ~work ~exchange:(fun h -> barrier_exchange t h);
  (* Horizon quiesce: every machine's run_until is now a no-op clock
     advance plus its registry's quiesce check; then the cluster-level
     laws get the final word. *)
  Array.iter (fun n -> Machine.run_until n.machine horizon) t.nodes;
  check_cluster_laws t

let arm_invariants ?interval t =
  t.strict <- true;
  Engine.Invariant.arm t.cluster_laws;
  Array.iter
    (fun n ->
      match interval with
      | Some interval -> Machine.arm_invariants ~interval n.machine
      | None -> Machine.arm_invariants n.machine)
    t.nodes

let check_invariants t =
  Array.fold_left (fun acc n -> acc @ Machine.check_invariants n.machine) [] t.nodes
  @ Engine.Invariant.check t.cluster_laws

let rollup_law t = Rollup.law t.rollup ()

let reset_stats t =
  t.issued <- 0;
  t.completed <- 0;
  t.dup_responses <- 0;
  t.evicted <- 0;
  t.peak_concurrent <- concurrent t;
  t.client_sojourn <- Stats.Summary.create ();
  Array.iter
    (fun n ->
      n.served <- 0;
      n.refused <- 0;
      n.server_sojourn <- Stats.Summary.create ())
    t.nodes
