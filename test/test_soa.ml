(* Tests for the PR-6 struct-of-arrays hot state:

   - generation-stamped [Conn_table] handles: stale rejection across slot
     reuse, the documented 16-bit wraparound aliasing point, and growth
     past the initial capacity;
   - the per-slot buffered-rx mirror;
   - QCheck lockstep of the arena-backed [Usage] against the record-based
     [Usage_ref] executable spec, including the saturate-vs-raise
     negative-memory rule. *)

module Simtime = Engine.Simtime
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module Conn_table = Netsim.Conn_table
module Usage = Rescont.Usage
module Usage_ref = Spec.Usage_ref

let fresh_conn =
  let n = ref 0 in
  fun () ->
    incr n;
    Socket.make_conn
      ~src:(Ipaddr.v 10 3 (!n / 256 mod 256) (!n mod 256))
      ~src_port:0 ~client:Socket.null_handlers ~now:Simtime.zero

(* {1 Handle staleness across slot churn} *)

(* With capacity 1 every add reuses slot 0, so the slot's generation
   advances by exactly one per remove.  A handle issued at generation 0
   must stay stale well past 2^16 reuses: the original 16-bit stamp
   wrapped there, which is reachable churn for a single hot slot once a
   cluster drives 10^5-10^6 connections through the table.  (Regression:
   with 16-bit stamps this loop aliased at occupant 65536.) *)
let test_handle_stale_past_16bit () =
  let table = Conn_table.create ~capacity:1 () in
  let c0 = fresh_conn () in
  Conn_table.add table c0;
  let h0 = Conn_table.handle table c0 in
  (match Conn_table.find table h0 with
  | Some c -> Alcotest.(check bool) "fresh handle resolves to its conn" true (c == c0)
  | None -> Alcotest.fail "fresh handle did not resolve");
  ignore (Conn_table.remove table c0);
  Alcotest.(check bool) "handle stale after remove" true (Conn_table.find table h0 = None);
  Alcotest.(check bool)
    "handle of an untracked conn is null" true
    (Conn_table.handle table c0 = Conn_table.null_handle);
  let reuses = 2 * 65536 in
  for i = 1 to reuses do
    let c = fresh_conn () in
    Conn_table.add table c;
    if c.Socket.track_slot <> 0 then
      Alcotest.failf "churn %d: expected slot 0 reuse, got slot %d" i c.Socket.track_slot;
    (match Conn_table.find table h0 with
    | None -> ()
    | Some _ -> Alcotest.failf "stale handle resolved after %d slot reuses" i);
    ignore (Conn_table.remove table c)
  done

(* The wraparound contract itself: generations are [generation_bits] wide,
   so aliasing needs 2^generation_bits reuses of one slot.  The bound must
   be far beyond any reachable churn (the cluster experiments turn over
   ~10^6 connections spread across all slots). *)
let test_generation_width () =
  Alcotest.(check bool)
    (Printf.sprintf "generation field is %d bits (>= 28)" Conn_table.generation_bits)
    true
    (Conn_table.generation_bits >= 28)

(* Cluster-scale churn: drive 3*10^5 connections through a small table
   (every slot reused thousands of times), holding on to one handle per
   departed occupant from a sample of generations.  No stale handle may
   ever resolve, and the live population must stay consistent. *)
let test_cluster_scale_churn () =
  let table = Conn_table.create ~capacity:64 () in
  let live = Queue.create () in
  let stale = ref [] in
  let churned = ref 0 in
  let target = 300_000 in
  while !churned < target do
    (* Fill to a plateau of 128 live conns, then drain half. *)
    while Queue.length live < 128 do
      let c = fresh_conn () in
      Conn_table.add table c;
      Queue.add (c, Conn_table.handle table c) live
    done;
    for _ = 1 to 64 do
      let c, h = Queue.pop live in
      ignore (Conn_table.remove table c);
      incr churned;
      (* Keep a sparse sample of dead handles alive across the whole run. *)
      if !churned land 1023 = 0 then stale := h :: !stale
    done;
    (match Conn_table.find table Conn_table.null_handle with
    | None -> ()
    | Some _ -> Alcotest.fail "null handle resolved");
    List.iter
      (fun h ->
        match Conn_table.find table h with
        | None -> ()
        | Some _ -> Alcotest.failf "stale handle resolved after %d churns" !churned)
      !stale
  done;
  Alcotest.(check int) "live population tracked" (Queue.length live) (Conn_table.length table);
  Queue.iter
    (fun (c, h) ->
      match Conn_table.find table h with
      | Some c' when c' == c -> ()
      | Some _ | None -> Alcotest.fail "live handle lost during churn")
    live

let test_growth_keeps_handles () =
  let table = Conn_table.create ~capacity:2 () in
  let n = 100 in
  let conns = Array.init n (fun _ -> fresh_conn ()) in
  Array.iter (fun c -> Conn_table.add table c) conns;
  let handles = Array.map (fun c -> Conn_table.handle table c) conns in
  Alcotest.(check int) "all tracked across growth" n (Conn_table.length table);
  Array.iteri
    (fun i c ->
      match Conn_table.find table handles.(i) with
      | Some c' when c' == c -> ()
      | Some _ | None -> Alcotest.failf "handle %d broken by growth" i)
    conns;
  (* Vacate the even slots; their handles go stale while odd handles keep
     resolving, and new occupants of the reused slots do not revive them. *)
  Array.iteri (fun i c -> if i mod 2 = 0 then ignore (Conn_table.remove table c)) conns;
  let fresh = Array.init (n / 2) (fun _ -> fresh_conn ()) in
  Array.iter (fun c -> Conn_table.add table c) fresh;
  Array.iteri
    (fun i _ ->
      let resolved = Conn_table.find table handles.(i) in
      if i mod 2 = 0 then begin
        match resolved with
        | None -> ()
        | Some _ -> Alcotest.failf "stale handle %d resolved after slot reuse" i
      end
      else
        match resolved with
        | Some c' when c' == conns.(i) -> ()
        | Some _ | None -> Alcotest.failf "live handle %d lost" i)
    conns

(* {1 Buffered-rx mirror} *)

let test_rx_mirror () =
  let table = Conn_table.create ~capacity:2 () in
  let a = fresh_conn () and b = fresh_conn () in
  Conn_table.add table a;
  Conn_table.add table b;
  Conn_table.rx_add table a 100;
  Conn_table.rx_add table b 50;
  Conn_table.rx_add table a 25;
  Alcotest.(check int) "per-conn mirror" 125 (Conn_table.rx_of table a);
  Alcotest.(check int) "slot-order total" 175 (Conn_table.rx_total table);
  Conn_table.rx_add table a (-125);
  Alcotest.(check int) "drain to zero" 0 (Conn_table.rx_of table a);
  Conn_table.rx_add table b 10;
  ignore (Conn_table.remove table b);
  Alcotest.(check int) "vacating a slot zeroes its mirror" 0 (Conn_table.rx_total table);
  Alcotest.(check int) "untracked conn reads 0" 0 (Conn_table.rx_of table b);
  let c = fresh_conn () in
  Conn_table.add table c;
  Alcotest.(check int) "reused slot starts at 0" 0 (Conn_table.rx_of table c)

(* {1 Usage arena vs record spec} *)

let prop_usage_lockstep =
  QCheck2.Test.make ~name:"usage arena lockstep with record spec" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) (triple (int_bound 6) (int_bound 9) (int_bound 997)))
    (fun ops ->
      let u = Usage.create () in
      let r = Usage_ref.create () in
      let prev_strict = Usage.strict_memory_enabled () in
      Fun.protect ~finally:(fun () -> Usage.set_strict_memory prev_strict) @@ fun () ->
      let agree what a b =
        if a <> b then QCheck2.Test.fail_reportf "%s: arena %d, spec %d" what a b
      in
      List.iter
        (fun (op, a, b) ->
          (match op with
          | 0 ->
              let kernel = a land 1 = 1 in
              let span = Simtime.span_of_ns b in
              Usage.charge_cpu u ~kernel span;
              Usage_ref.charge_cpu r ~kernel span
          | 1 ->
              Usage.charge_rx u ~packets:a ~bytes:b;
              Usage_ref.charge_rx r ~packets:a ~bytes:b
          | 2 ->
              Usage.charge_tx u ~packets:a ~bytes:b;
              Usage_ref.charge_tx r ~packets:a ~bytes:b
          | 3 ->
              (* Mixed-sign deltas probe the negative-memory rule; the two
                 implementations must agree on saturate vs raise and on
                 the exception payload. *)
              let delta = b - 400 in
              let strict = a land 1 = 1 in
              Usage.set_strict_memory strict;
              let outcome_u =
                try
                  Usage.charge_memory u delta;
                  None
                with Usage.Negative_memory { have; delta } -> Some (have, delta)
              in
              let outcome_r =
                try
                  Usage_ref.charge_memory r ~strict delta;
                  None
                with Usage_ref.Negative_memory { have; delta } -> Some (have, delta)
              in
              if outcome_u <> outcome_r then
                QCheck2.Test.fail_reportf "negative-memory rule disagrees (delta %d, strict %b)"
                  delta strict
          | 4 ->
              let span = Simtime.span_of_ns (10 * a) in
              Usage.charge_disk u ~bytes:b span;
              Usage_ref.charge_disk r ~bytes:b span
          | 5 ->
              if a land 1 = 1 then begin
                Usage.incr_kernel_objects u;
                Usage_ref.incr_kernel_objects r
              end
              else begin
                Usage.decr_kernel_objects u;
                Usage_ref.decr_kernel_objects r
              end
          | _ ->
              Usage.reset u;
              Usage_ref.reset r);
          agree "cpu_user"
            (Simtime.span_to_ns (Usage.cpu_user u))
            (Simtime.span_to_ns (Usage_ref.cpu_user r));
          agree "cpu_kernel"
            (Simtime.span_to_ns (Usage.cpu_kernel u))
            (Simtime.span_to_ns (Usage_ref.cpu_kernel r));
          agree "cpu_total"
            (Simtime.span_to_ns (Usage.cpu_total u))
            (Simtime.span_to_ns (Usage_ref.cpu_total r));
          (* The allocation-free scalar readers must agree with the spec's
             span-based accessors. *)
          agree "cpu_ns scalar" (Usage.cpu_ns u) (Simtime.span_to_ns (Usage_ref.cpu_total r));
          agree "cpu_user_ns scalar" (Usage.cpu_user_ns u)
            (Simtime.span_to_ns (Usage_ref.cpu_user r));
          agree "cpu_kernel_ns scalar" (Usage.cpu_kernel_ns u)
            (Simtime.span_to_ns (Usage_ref.cpu_kernel r));
          agree "rx_packets" (Usage.rx_packets u) (Usage_ref.rx_packets r);
          agree "rx_bytes" (Usage.rx_bytes u) (Usage_ref.rx_bytes r);
          agree "tx_packets" (Usage.tx_packets u) (Usage_ref.tx_packets r);
          agree "tx_bytes" (Usage.tx_bytes u) (Usage_ref.tx_bytes r);
          agree "memory_bytes" (Usage.memory_bytes u) (Usage_ref.memory_bytes r);
          agree "mem_bytes scalar" (Usage.mem_bytes u) (Usage_ref.memory_bytes r);
          agree "kernel_objects" (Usage.kernel_objects u) (Usage_ref.kernel_objects r);
          agree "disk_reads" (Usage.disk_reads u) (Usage_ref.disk_reads r);
          agree "disk_bytes" (Usage.disk_bytes u) (Usage_ref.disk_bytes r);
          agree "disk_ns scalar" (Usage.disk_ns u) (Simtime.span_to_ns (Usage_ref.disk_time r)))
        ops;
      true)

let suite =
  [
    Alcotest.test_case "conn handle stale past 2^16 slot reuses" `Quick
      test_handle_stale_past_16bit;
    Alcotest.test_case "conn handle generation width" `Quick test_generation_width;
    Alcotest.test_case "conn handle churn at cluster scale" `Quick test_cluster_scale_churn;
    Alcotest.test_case "conn handles survive growth; stale rejected" `Quick
      test_growth_keeps_handles;
    Alcotest.test_case "buffered-rx mirror" `Quick test_rx_mirror;
    QCheck_alcotest.to_alcotest prop_usage_lockstep;
  ]
