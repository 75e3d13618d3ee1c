module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack

type system = Unmodified | Lrp_sys | Rc_sys

let system_name = function
  | Unmodified -> "Unmodified"
  | Lrp_sys -> "LRP"
  | Rc_sys -> "RC"

type rig = {
  sim : Sim.t;
  root : Container.t;
  machine : Machine.t;
  server_proc : Process.t;
  stack : Stack.t;
  cache : Httpsim.File_cache.t;
}

let default_port = 80
let doc_path = "/doc/1k"
let cgi_path = "/cgi/run"

(* Observability plumbing: when [observe] has been called, every rig built
   afterwards gets an enabled trace log, and the most recent rig is
   remembered so CLI drivers can export after the experiment ran.  Atomic
   so rigs built inside sweep domains see the armed capacity; [last] is
   last-writer-wins, which is only meaningful under [~jobs:1] anyway. *)
let observe_capacity = Atomic.make None
let last = Atomic.make None

let observe ?(capacity = 65536) () = Atomic.set observe_capacity (Some capacity)
let observing () = Atomic.get observe_capacity <> None
let last_rig () = Atomic.get last

let make_rig ?(cpus = 1) ?(quantum = Simtime.ms 1) ?(limit_window = Simtime.ms 100)
    ?server_attrs system =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let invariants = Engine.Invariant.create () in
  let make_policy _cpu =
    match system with
    | Unmodified | Lrp_sys -> Sched.Timeshare.make ()
    | Rc_sys -> Sched.Multilevel.make ~window:limit_window ~invariants ~root ()
  in
  let policy = make_policy 0 in
  let trace =
    match Atomic.get observe_capacity with
    | Some capacity -> Some (Engine.Tracelog.create ~enabled:true ~capacity ())
    | None -> None
  in
  (* A real SMP rig gets one run-queue shard per processor; the
     uniprocessor path is untouched (same policy value, same machine). *)
  let machine =
    if cpus > 1 then
      Machine.create ~cpus ~shard_policy:make_policy ~quantum ?trace ~sim ~policy ~root
        ~invariants ()
    else Machine.create ~cpus ~quantum ?trace ~sim ~policy ~root ~invariants ()
  in
  let server_proc = Process.create machine ?container_attrs:server_attrs ~name:"httpd" () in
  let mode =
    match system with Unmodified -> Stack.Softirq | Lrp_sys -> Stack.Lrp | Rc_sys -> Stack.Rc
  in
  let stack =
    Stack.create ~machine ~mode ~owner:(Process.default_container server_proc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.register_metrics cache (Machine.metrics machine);
  Httpsim.File_cache.register_invariants cache (Machine.invariants machine);
  Httpsim.File_cache.add_document cache ~path:doc_path ~bytes:1024;
  Httpsim.File_cache.add_document cache ~path:"/doc/8k" ~bytes:8192;
  Httpsim.File_cache.add_document cache ~path:"/doc/64k" ~bytes:65536;
  Httpsim.File_cache.add_document cache ~path:cgi_path ~bytes:0;
  Httpsim.File_cache.warm cache;
  let rig = { sim; root; machine; server_proc; stack; cache } in
  Atomic.set last (Some rig);
  rig

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let export ?trace_out ?metrics_out rig =
  (match trace_out with
  | Some path -> write_file path (Engine.Tracelog.to_jsonl (Machine.trace rig.machine))
  | None -> ());
  match metrics_out with
  | Some path ->
      write_file path (Engine.Jsonx.to_string (Engine.Metrics.to_json (Machine.metrics rig.machine)) ^ "\n")
  | None -> ()

let run_for rig span = Machine.run_until rig.machine (Simtime.add (Sim.now rig.sim) span)

(* Parallel sweep executor.  Points are independent simulations, so the
   only sharing between domains is the atomic id counters above; each
   point must derive all randomness from its own seed, never from domain
   identity or global order, so that [map ~jobs:n] is a pure function of
   the input array — the determinism test diffs jobs=1 against jobs=4
   byte-for-byte. *)
module Sweep = struct
  let recommended_jobs () = Domain.recommended_domain_count ()

  (* One batch of points being mapped.  [run i] executes point [i] and
     stores its result; it never raises (failures are captured inside the
     closure).  [next] hands out indices, [finished] counts executed
     ones; whoever executes the last point flips [complete] under the
     pool lock and broadcasts. *)
  type batch = {
    run : int -> unit;
    n : int;
    next : int Atomic.t;
    finished : int Atomic.t;
    mutable complete : bool;
  }

  (* Persistent worker-domain pool.  Spawning domains per [map] call was
     not the expensive part — running more busy domains than cores was:
     every minor collection is a stop-the-world rendezvous across all
     domains, so an oversubscribed sweep paid a scheduler round trip per
     GC (jobs=4 on one core ran 1.4x slower than jobs=1).  The pool caps
     live workers at [recommended_domain_count] and keeps them parked on
     a condition variable between batches, so repeated sweeps reuse warm
     domains and a 1-core host degrades to the plain serial loop. *)
  type pool = {
    mutex : Mutex.t;
    work_ready : Condition.t;
    batch_done : Condition.t;
    mutable current : batch option;
    mutable generation : int; (* bumped per submitted batch *)
    mutable workers : unit Domain.t list;
    mutable shutdown : bool;
    mutable exit_hooked : bool;
  }

  let pool =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      generation = 0;
      workers = [];
      shutdown = false;
      exit_hooked = false;
    }

  let drain batch =
    let rec pull () =
      let i = Atomic.fetch_and_add batch.next 1 in
      if i < batch.n then begin
        batch.run i;
        if 1 + Atomic.fetch_and_add batch.finished 1 = batch.n then begin
          Mutex.lock pool.mutex;
          batch.complete <- true;
          pool.current <- None;
          Condition.broadcast pool.batch_done;
          Mutex.unlock pool.mutex
        end;
        pull ()
      end
    in
    pull ()

  let rec worker_loop last_gen =
    Mutex.lock pool.mutex;
    while (not pool.shutdown) && (pool.generation = last_gen || pool.current = None) do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.shutdown then Mutex.unlock pool.mutex
    else begin
      let gen = pool.generation in
      let batch = Option.get pool.current in
      Mutex.unlock pool.mutex;
      drain batch;
      worker_loop gen
    end

  (* Called with the pool lock held. *)
  let ensure_workers want =
    if not pool.exit_hooked then begin
      pool.exit_hooked <- true;
      at_exit (fun () ->
          Mutex.lock pool.mutex;
          pool.shutdown <- true;
          Condition.broadcast pool.work_ready;
          let workers = pool.workers in
          pool.workers <- [];
          Mutex.unlock pool.mutex;
          List.iter Domain.join workers)
    end;
    let have = List.length pool.workers in
    if have < want then begin
      let gen = pool.generation in
      for _ = have + 1 to want do
        pool.workers <- Domain.spawn (fun () -> worker_loop gen) :: pool.workers
      done
    end

  let map ?(jobs = 1) ?(oversubscribe = false) f points =
    let n = Array.length points in
    let jobs = if oversubscribe then jobs else min jobs (recommended_jobs ()) in
    let want_workers = min (jobs - 1) (n - 1) in
    if want_workers <= 0 then Array.map f points
    else begin
      let results = Array.make n None in
      let failure = Atomic.make None in
      let run i =
        (* First failure wins; later points are abandoned. *)
        if Atomic.get failure = None then
          match f points.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      in
      let batch =
        { run; n; next = Atomic.make 0; finished = Atomic.make 0; complete = false }
      in
      Mutex.lock pool.mutex;
      if pool.current <> None then begin
        (* A batch is already in flight (nested map from inside a point):
           don't deadlock on the pool, just run this one serially. *)
        Mutex.unlock pool.mutex;
        Array.map f points
      end
      else begin
        ensure_workers want_workers;
        pool.current <- Some batch;
        pool.generation <- pool.generation + 1;
        Condition.broadcast pool.work_ready;
        Mutex.unlock pool.mutex;
        (* The submitting domain is a full participant — workers only add
           parallelism on top of it. *)
        drain batch;
        Mutex.lock pool.mutex;
        while not batch.complete do
          Condition.wait pool.batch_done pool.mutex
        done;
        Mutex.unlock pool.mutex;
        (match Atomic.get failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        Array.map
          (function
            | Some r -> r
            | None -> invalid_arg "Sweep.map: missing result (worker died?)")
          results
      end
    end
end
