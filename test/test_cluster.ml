(* Tests for Clustersim.Cluster: the multi-machine load-balanced rig and
   the cluster-wide usage rollup. *)

module Cluster = Clustersim.Cluster
module Simtime = Engine.Simtime
module Stats = Engine.Stats
module Rollup = Rescont.Rollup

let run_small ?(machines = 2) ?(cpus = 1) ?(policy = Cluster.Round_robin)
    ?(profile = Cluster.Poisson 2000.) ?(tenants = [ Cluster.tenant_spec "t0" ]) ?(seed = 7)
    ?(span = Simtime.ms 500) () =
  let c = Cluster.create ~machines ~cpus ~policy ~profile ~tenants ~seed () in
  Cluster.start c;
  Cluster.run_for c span;
  c

let test_smoke () =
  let c = run_small () in
  Alcotest.(check bool) "requests flowed" true (Cluster.issued c > 500);
  Alcotest.(check bool)
    "most requests completed" true
    (Cluster.completed c > Cluster.issued c * 8 / 10);
  Alcotest.(check int) "no refusals" 0 (Cluster.refused c);
  Alcotest.(check int) "no ring evictions" 0 (Cluster.evicted c);
  Alcotest.(check bool)
    "both machines served" true
    (Cluster.node_served c 0 > 0 && Cluster.node_served c 1 > 0);
  Alcotest.(check bool)
    "client sojourn sane (>300us one-way latency x2)" true
    (Stats.Summary.mean (Cluster.client_sojourn c) > 300e-6);
  Alcotest.(check bool)
    "server sojourn below client sojourn" true
    (Stats.Summary.mean (Cluster.server_sojourn c)
    < Stats.Summary.mean (Cluster.client_sojourn c));
  match Cluster.check_invariants c with
  | [] -> ()
  | v :: _ -> Alcotest.failf "invariant violated: %s: %s" v.Engine.Invariant.law v.Engine.Invariant.detail

let test_rr_even_split () =
  let c = run_small ~machines:4 ~policy:Cluster.Round_robin () in
  let served = Array.init 4 (Cluster.node_served c) in
  let total = Array.fold_left ( + ) 0 served in
  Array.iteri
    (fun i s ->
      let frac = float_of_int s /. float_of_int total in
      if frac < 0.15 || frac > 0.35 then
        Alcotest.failf "round-robin split uneven: node %d served %d of %d" i s total)
    served

let test_flow_hash_deterministic_and_covering () =
  let c1 = run_small ~machines:4 ~policy:Cluster.Flow_hash ~seed:11 () in
  let c2 = run_small ~machines:4 ~policy:Cluster.Flow_hash ~seed:11 () in
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "node %d served deterministically" i)
      (Cluster.node_served c1 i) (Cluster.node_served c2 i)
  done;
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d got a share" i)
      true
      (Cluster.node_served c1 i > 0)
  done

let test_replicate_dedups () =
  let c = run_small ~machines:3 ~policy:(Cluster.Replicate 2) () in
  Alcotest.(check bool) "completed once per logical request" true
    (Cluster.completed c <= Cluster.issued c);
  Alcotest.(check bool) "clone losers recorded" true (Cluster.dup_responses c > 0);
  (* Every served clone is either the winner or a recorded duplicate. *)
  let served = ref 0 in
  for i = 0 to 2 do
    served := !served + Cluster.node_served c i
  done;
  Alcotest.(check bool) "served >= completed + dups" true
    (!served >= Cluster.completed c + Cluster.dup_responses c)

let test_hold_builds_concurrency () =
  let c =
    Cluster.create ~machines:2 ~profile:(Cluster.Poisson 2000.) ~hold:(Simtime.ms 200)
      ~seed:3 ()
  in
  Cluster.start c;
  Cluster.run_for c (Simtime.ms 600);
  (* Steady state holds ~ rate x hold = 400 connections open. *)
  Alcotest.(check bool)
    (Printf.sprintf "held connections accumulate (peak %d)" (Cluster.peak_concurrent c))
    true
    (Cluster.peak_concurrent c > 250);
  Alcotest.(check int) "no refusals under hold" 0 (Cluster.refused c)

let test_tenant_rollup_accumulates () =
  let tenants = [ Cluster.tenant_spec "gold" ~weight:3; Cluster.tenant_spec "bronze" ] in
  let c = run_small ~machines:2 ~tenants () in
  Alcotest.(check int) "two groups" 2 (Cluster.tenant_count c);
  let gold = Cluster.tenant_group c 0 and bronze = Cluster.tenant_group c 1 in
  Alcotest.(check bool) "gold billed cpu" true (Rollup.cpu_ns gold > 0);
  Alcotest.(check bool) "bronze billed cpu" true (Rollup.cpu_ns bronze > 0);
  (* 3:1 arrival weights should show up in cluster-wide CPU at coarse
     grain. *)
  let ratio = float_of_int (Rollup.cpu_ns gold) /. float_of_int (Rollup.cpu_ns bronze) in
  Alcotest.(check bool)
    (Printf.sprintf "gold/bronze cpu ratio %.2f reflects 3:1 weights" ratio)
    true
    (ratio > 1.8 && ratio < 5.0);
  Alcotest.(check bool) "rx billed" true (Rollup.rx_bytes gold > 0);
  Alcotest.(check bool) "tx billed" true (Rollup.tx_bytes gold > 0);
  match Cluster.rollup_law c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rollup law: %s" e

let test_armed_run () =
  let c =
    Cluster.create ~machines:2 ~cpus:2 ~profile:(Cluster.Poisson 3000.) ~seed:5 ()
  in
  Cluster.arm_invariants ~interval:(Simtime.ms 20) c;
  Cluster.start c;
  (* Armed sweeps raise on any law violation, including the rollup law,
     across every machine's registry. *)
  Cluster.run_for c (Simtime.ms 300);
  Alcotest.(check bool) "work happened under armed laws" true (Cluster.completed c > 300)

let test_spike_profile () =
  let c =
    Cluster.create ~machines:2
      ~profile:
        (Cluster.Spike
           { base = 500.; peak = 8000.; at = Simtime.ms 200; until = Simtime.ms 400 })
      ~seed:9 ()
  in
  Cluster.start c;
  Cluster.run_for c (Simtime.ms 200) (* base *);
  let before = Cluster.issued c in
  Cluster.run_for c (Simtime.ms 200) (* peak *);
  let during = Cluster.issued c - before in
  Alcotest.(check bool)
    (Printf.sprintf "spike raises arrivals (%d then %d)" before during)
    true
    (during > before * 4)

(* The rollup conservation law under a seeded grid of balancer policies x
   machine counts: sum of per-machine tenant usage must equal the cluster
   rollup at every quiesce point (satellite 4; the same grid the fuzzer
   drives via --machines). *)
let prop_rollup_law =
  QCheck2.Test.make ~name:"cluster rollup law across policies x machines" ~count:12
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 3) (int_range 0 1000))
    (fun (machines, policy_ix, seed) ->
      let policy =
        match policy_ix with
        | 0 -> Cluster.Round_robin
        | 1 -> Cluster.Least_conns
        | 2 -> Cluster.Flow_hash
        | _ -> Cluster.Replicate 2
      in
      let tenants =
        [ Cluster.tenant_spec "a" ~weight:2; Cluster.tenant_spec "b" ] in
      let c =
        Cluster.create ~machines ~policy ~profile:(Cluster.Poisson 1500.) ~tenants ~seed ()
      in
      Cluster.start c;
      let ok = ref true in
      for _ = 1 to 4 do
        Cluster.run_for c (Simtime.ms 50);
        (match Cluster.rollup_law c with Ok () -> () | Error _ -> ok := false);
        if Cluster.check_invariants c <> [] then ok := false
      done;
      !ok && Cluster.completed c > 0)

(* ---------------- sharded determinism ---------------- *)

(* Everything observable about a run, floats bit-cast so "equal" means
   bit-identical, not approximately-equal: the sharded executor promises
   shards=N reproduces shards=1 exactly. *)
let fingerprint c =
  let summary s =
    if Stats.Summary.count s = 0 then "empty"
    else
      Printf.sprintf "n=%d mean=%Lx min=%Lx max=%Lx" (Stats.Summary.count s)
        (Int64.bits_of_float (Stats.Summary.mean s))
        (Int64.bits_of_float (Stats.Summary.min s))
        (Int64.bits_of_float (Stats.Summary.max s))
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "issued=%d completed=%d refused=%d dup=%d evicted=%d peak=%d conc=%d "
       (Cluster.issued c) (Cluster.completed c) (Cluster.refused c)
       (Cluster.dup_responses c) (Cluster.evicted c) (Cluster.peak_concurrent c)
       (Cluster.concurrent c));
  for i = 0 to Cluster.machines c - 1 do
    Buffer.add_string b
      (Printf.sprintf "served%d=%d busy%d=%d " i (Cluster.node_served c i) i
         (Simtime.span_to_ns (Procsim.Machine.busy_time (Cluster.node_machine c i))))
  done;
  for k = 0 to Cluster.tenant_count c - 1 do
    let g = Cluster.tenant_group c k in
    Buffer.add_string b
      (Printf.sprintf "t%d.cpu=%d t%d.rx=%d t%d.tx=%d " k (Rollup.cpu_ns g) k
         (Rollup.rx_bytes g) k (Rollup.tx_bytes g))
  done;
  Buffer.add_string b (Printf.sprintf "client[%s] " (summary (Cluster.client_sojourn c)));
  Buffer.add_string b (Printf.sprintf "server[%s] " (summary (Cluster.server_sojourn c)));
  Buffer.add_string b (Printf.sprintf "now=%d" (Simtime.to_ns (Cluster.now c)));
  Buffer.contents b

let sharded_run ?(machines = 4) ?(policy = Cluster.Round_robin) ?window ?(seed = 7)
    ?(rate = 1500.) ~shards ~domains () =
  let tenants = [ Cluster.tenant_spec "gold" ~weight:3; Cluster.tenant_spec "bronze" ] in
  let c =
    Cluster.create ~machines ~shards ~domains ~policy ~profile:(Cluster.Poisson rate)
      ~hold:(Simtime.ms 20) ?window ~tenants ~seed ()
  in
  Cluster.start c;
  (* Two run_for calls so the truncated-final-window path is exercised
     twice and windows never straddle a call boundary. *)
  Cluster.run_for c (Simtime.ms 130);
  Cluster.run_for c (Simtime.ms 70);
  c

let test_shards_byte_identical () =
  let base = fingerprint (sharded_run ~shards:1 ~domains:1 ()) in
  (* domains:4 forces real cross-domain execution even on a 1-core host. *)
  let sharded = fingerprint (sharded_run ~shards:4 ~domains:4 ()) in
  Alcotest.(check string) "shards=4/domains=4 == shards=1" base sharded;
  let two = fingerprint (sharded_run ~shards:2 ~domains:2 ()) in
  Alcotest.(check string) "shards=2/domains=2 == shards=1" base two

let test_shards_identical_tiny_window () =
  (* A window much smaller than the default lookahead is still
     conservative (it only has to be <= the dispatch latency): the run
     crosses thousands of barriers and must still be bit-identical. *)
  let w = Simtime.us 10 in
  let base = fingerprint (sharded_run ~window:w ~shards:1 ~domains:1 ()) in
  let sharded = fingerprint (sharded_run ~window:w ~shards:2 ~domains:2 ()) in
  Alcotest.(check string) "10us windows: shards=2 == shards=1" base sharded

let test_shard_stats () =
  (* The executor's barrier counters reach the caller through Cluster:
     one window per lookahead of simulated time, on each run_for call.
     They are host-side only, so the results they sit beside stay equal
     across domain counts (test above); here they must count right. *)
  let windows_of c =
    let w = Simtime.span_to_ns (Cluster.lookahead c) in
    let per ms = (Simtime.span_to_ns (Simtime.ms ms) + w - 1) / w in
    per 130 + per 70
  in
  let one = sharded_run ~shards:1 ~domains:1 () in
  let st = Cluster.shard_stats one in
  Alcotest.(check int) "shards=1: one window per lookahead" (windows_of one) st.windows;
  Alcotest.(check (pair int int)) "shards=1: no barrier waits" (0, 0) (st.waits, st.parks);
  let two = sharded_run ~shards:2 ~domains:2 () in
  let st = Cluster.shard_stats two in
  Alcotest.(check int) "shards=2: one window per lookahead" (windows_of two) st.windows;
  Alcotest.(check bool) "shards=2: parks <= waits" true (st.parks <= st.waits)

let test_zero_window_refused () =
  (* Zero lookahead has no conservative window, so no shard count
     accepts it: the windowed mailbox protocol is the only execution
     path, also at shards=1. *)
  List.iter
    (fun shards ->
      Alcotest.check_raises
        (Printf.sprintf "shards=%d with zero window refused" shards)
        (Invalid_argument
           "Cluster.create: window must be positive (zero lookahead has no conservative window)")
        (fun () -> ignore (Cluster.create ~machines:2 ~shards ~window:Simtime.span_zero ())))
    [ 1; 2 ]

let test_empty_machine_no_stall () =
  (* At 20 arrivals/s over 200 ms some machines see no traffic at all;
     their shards must still advance with the windows (an empty wheel is a
     pure clock advance, not a stall). *)
  let c =
    Cluster.create ~machines:4 ~shards:4 ~domains:4 ~profile:(Cluster.Poisson 20.)
      ~seed:3 ()
  in
  Cluster.start c;
  Cluster.run_for c (Simtime.ms 200);
  Alcotest.(check int) "balancer clock at horizon" 200_000_000
    (Simtime.to_ns (Cluster.now c));
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "machine %d clock at horizon" i)
      200_000_000
      (Simtime.to_ns (Procsim.Machine.now (Cluster.node_machine c i)))
  done

(* Tenant rollup totals, rollup law and violation count of one seeded
   sharded run. *)
let rollup_totals ~policy ~seed ~shards ~domains =
  let c = sharded_run ~machines:4 ~policy ~seed ~rate:1200. ~shards ~domains () in
  let per_tenant =
    List.init (Cluster.tenant_count c) (fun k ->
        let g = Cluster.tenant_group c k in
        (Rollup.cpu_ns g, Rollup.rx_bytes g, Rollup.tx_bytes g))
  in
  let law_ok = match Cluster.rollup_law c with Ok () -> true | Error _ -> false in
  (per_tenant, law_ok, List.length (Cluster.check_invariants c))

(* The usage-rollup property under sharding — same seeded scenario at
   shards=1 and shards=4 must produce identical tenant rollup totals and
   identical violation counts (and the law must hold in both). *)
let prop_sharded_rollup =
  QCheck2.Test.make ~name:"cluster.usage-rollup: shards=4 == shards=1" ~count:6
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 1000))
    (fun (policy_ix, seed) ->
      let policy =
        match policy_ix with
        | 0 -> Cluster.Round_robin
        | 1 -> Cluster.Least_conns
        | _ -> Cluster.Flow_hash
      in
      let t1, ok1, v1 = rollup_totals ~policy ~seed ~shards:1 ~domains:1 in
      let t4, ok4, v4 = rollup_totals ~policy ~seed ~shards:4 ~domains:4 in
      t1 = t4 && ok1 && ok4 && v1 = 0 && v4 = 0)

(* The instance that once failed the property above: with least-conns
   balancing, seed 393 reaches protocol-queue ties between never-served
   containers, which were broken by the hash of the process-global
   container id. *)
let test_rollup_least_conns_393 () =
  let t1, ok1, v1 = rollup_totals ~policy:Cluster.Least_conns ~seed:393 ~shards:1 ~domains:1 in
  let t4, ok4, v4 = rollup_totals ~policy:Cluster.Least_conns ~seed:393 ~shards:4 ~domains:4 in
  Alcotest.(check bool) "shards=4 rollups == shards=1" true (t1 = t4);
  Alcotest.(check bool) "rollup law holds" true (ok1 && ok4);
  Alcotest.(check int) "no violations at shards=1" 0 v1;
  Alcotest.(check int) "no violations at shards=4" 0 v4

(* Simulated output must not depend on absolute container ids: advancing
   the process-wide id counter by throwaway containers before a run leaves
   its rollups unchanged. *)
let test_rollup_independent_of_id_offset () =
  let run () = rollup_totals ~policy:Cluster.Least_conns ~seed:393 ~shards:1 ~domains:1 in
  let base = run () in
  List.iter
    (fun shift ->
      for _ = 1 to shift do
        ignore (Rescont.Container.create_detached ())
      done;
      Alcotest.(check bool)
        (Printf.sprintf "rollups unchanged after %d extra containers" shift)
        true
        (run () = base))
    [ 1; 4; 5; 9 ]

let suite =
  [
    Alcotest.test_case "smoke: requests flow and complete" `Quick test_smoke;
    Alcotest.test_case "round-robin splits evenly" `Quick test_rr_even_split;
    Alcotest.test_case "flow-hash deterministic + covering" `Quick
      test_flow_hash_deterministic_and_covering;
    Alcotest.test_case "replicate dedups clone responses" `Quick test_replicate_dedups;
    Alcotest.test_case "hold builds concurrency" `Quick test_hold_builds_concurrency;
    Alcotest.test_case "tenant rollup accumulates by weight" `Quick
      test_tenant_rollup_accumulates;
    Alcotest.test_case "armed invariants over a busy cluster" `Quick test_armed_run;
    Alcotest.test_case "spike profile raises arrivals" `Quick test_spike_profile;
    QCheck_alcotest.to_alcotest prop_rollup_law;
    Alcotest.test_case "shards=N byte-identical to shards=1" `Quick
      test_shards_byte_identical;
    Alcotest.test_case "tiny 10us windows stay identical" `Quick
      test_shards_identical_tiny_window;
    Alcotest.test_case "shard stats: windows per lookahead" `Quick test_shard_stats;
    Alcotest.test_case "zero window refused at shards=1,2" `Quick
      test_zero_window_refused;
    Alcotest.test_case "idle machines advance with the windows" `Quick
      test_empty_machine_no_stall;
    QCheck_alcotest.to_alcotest prop_sharded_rollup;
    Alcotest.test_case "usage-rollup pinned: least-conns seed 393" `Quick
      test_rollup_least_conns_393;
    Alcotest.test_case "rollups independent of container-id offset" `Quick
      test_rollup_independent_of_id_offset;
  ]
