(* Cluster-wide usage rollup.

   A tenant that spans machines owns one container per machine; the
   containers cannot share a hierarchy (each machine has its own ledger
   arena, and [Usage.set_chain_parent] refuses to link across arenas), so
   cluster-wide totals are aggregated here instead: each group enrolls one
   [Usage.t] per machine (the tenant's per-machine subtree usage) and a
   periodic [aggregate] folds the deltas since the previous reading into
   flat per-group counters, through the allocation-free scalar readers.

   The incremental path is exactly the kind of bookkeeping the invariant
   registry exists to check: [law] re-derives every group's totals from
   first principles (a fresh sum over the members' current readings) and
   compares them with the incrementally-maintained counters plus the
   not-yet-aggregated deltas.  A skipped member, a double-counted delta, a
   member enrolled without initialising its baseline, or a usage reset
   under the rollup's feet all surface as a violation of
   "cluster.usage-rollup". *)

type dims = {
  mutable cpu_ns : int;
  mutable mem_bytes : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable disk_ns : int;
}

let dims_zero () = { cpu_ns = 0; mem_bytes = 0; rx_bytes = 0; tx_bytes = 0; disk_ns = 0 }

type member = { m_usage : Usage.t; m_prev : dims (* reading at the last aggregation *) }

type group = {
  g_name : string;
  mutable g_members : member list;
  g_total : dims; (* incremental cluster totals, as of the last aggregation *)
}

type t = { mutable groups : group list; mutable aggregations : int }

let create () = { groups = []; aggregations = 0 }

let group t ~name =
  let g = { g_name = name; g_members = []; g_total = dims_zero () } in
  t.groups <- t.groups @ [ g ];
  g

let groups t = t.groups

let read_into d usage =
  d.cpu_ns <- Usage.cpu_ns usage;
  d.mem_bytes <- Usage.mem_bytes usage;
  d.rx_bytes <- Usage.rx_bytes usage;
  d.tx_bytes <- Usage.tx_bytes usage;
  d.disk_ns <- Usage.disk_ns usage

let enroll g usage =
  (* Baseline at enrollment: only consumption from this point on rolls up
     into the group (a machine joining mid-run does not retroactively
     contribute its past usage). *)
  let prev = dims_zero () in
  read_into prev usage;
  g.g_members <- { m_usage = usage; m_prev = prev } :: g.g_members

(* Fold each member's delta since its last reading into the group totals
   and advance the baseline.  Allocation-free: scalar readers and mutable
   int fields only, so a cluster can afford a short rollup period. *)
let aggregate_group g =
  List.iter
    (fun m ->
      let u = m.m_usage and p = m.m_prev in
      let cpu = Usage.cpu_ns u in
      let mem = Usage.mem_bytes u in
      let rx = Usage.rx_bytes u in
      let tx = Usage.tx_bytes u in
      let disk = Usage.disk_ns u in
      g.g_total.cpu_ns <- g.g_total.cpu_ns + (cpu - p.cpu_ns);
      g.g_total.mem_bytes <- g.g_total.mem_bytes + (mem - p.mem_bytes);
      g.g_total.rx_bytes <- g.g_total.rx_bytes + (rx - p.rx_bytes);
      g.g_total.tx_bytes <- g.g_total.tx_bytes + (tx - p.tx_bytes);
      g.g_total.disk_ns <- g.g_total.disk_ns + (disk - p.disk_ns);
      p.cpu_ns <- cpu;
      p.mem_bytes <- mem;
      p.rx_bytes <- rx;
      p.tx_bytes <- tx;
      p.disk_ns <- disk)
    g.g_members

let aggregate t =
  List.iter aggregate_group t.groups;
  t.aggregations <- t.aggregations + 1

let aggregations t = t.aggregations
let cpu_ns g = g.g_total.cpu_ns
let mem_bytes g = g.g_total.mem_bytes
let rx_bytes g = g.g_total.rx_bytes
let tx_bytes g = g.g_total.tx_bytes
let disk_ns g = g.g_total.disk_ns

(* The conservation law.  For every group and dimension:

     rollup total + sum over members of (current - baseline)
       = sum over members of current

   The left side is the incrementally-maintained view (what the cluster
   reports between aggregations); the right is the re-derivation from the
   per-machine ledgers.  Equality certifies the baselines sum to the
   rollup total — the induction the incremental path is supposed to
   maintain. *)
let law t () =
  let check_group g =
    let sum f = List.fold_left (fun acc m -> acc + f m.m_usage) 0 g.g_members in
    let pending f prev_of =
      List.fold_left (fun acc m -> acc + (f m.m_usage - prev_of m.m_prev)) 0 g.g_members
    in
    let dim what total f prev_of =
      Engine.Invariant.equal_int
        ~what:(Printf.sprintf "group %s %s: rollup+pending vs ledger sum" g.g_name what)
        (total + pending f prev_of) (sum f)
    in
    let ( >>= ) r k = match r with Ok () -> k () | Error _ as e -> e in
    dim "cpu_ns" g.g_total.cpu_ns Usage.cpu_ns (fun p -> p.cpu_ns) >>= fun () ->
    dim "mem_bytes" g.g_total.mem_bytes Usage.mem_bytes (fun p -> p.mem_bytes) >>= fun () ->
    dim "rx_bytes" g.g_total.rx_bytes Usage.rx_bytes (fun p -> p.rx_bytes) >>= fun () ->
    dim "tx_bytes" g.g_total.tx_bytes Usage.tx_bytes (fun p -> p.tx_bytes) >>= fun () ->
    dim "disk_ns" g.g_total.disk_ns Usage.disk_ns (fun p -> p.disk_ns)
  in
  let rec all = function
    | [] -> Ok ()
    | g :: rest -> ( match check_group g with Ok () -> all rest | Error _ as e -> e)
  in
  all t.groups

let register t registry = Engine.Invariant.register registry ~law:"cluster.usage-rollup" (law t)
