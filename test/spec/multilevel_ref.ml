(* Reference implementation of the multilevel scheduler — the original
   list-and-sort formulation, kept verbatim as the executable
   specification of the policy's semantics.

   [Multilevel] is an incremental reimplementation of exactly this
   behaviour (same pick sequence, same virtual-time arithmetic, same
   window accounting); the equivalence property test in
   [test/test_sched.ml] drives both over randomized workloads and demands
   identical pick sequences.  This module is also benchmarked alongside
   the optimized one so every BENCH_*.json records the speedup against
   the original algorithm.

   Do not optimise this module: its value is being obviously faithful to
   the original, not being fast.  The only deliberate departure is
   [subtree_has_work], inlined here as the original recursive tree walk
   because [Runq] now answers that query from incremental counters. *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Runq = Sched.Runq
module Policy = Sched.Policy

type cstate = {
  mutable vt : float; (* weight-normalised service received *)
  mutable last_weight : float; (* weight in effect when last picked *)
  mutable win_id : int;
  mutable win_used : int; (* ns consumed by the subtree in current window *)
  mutable last_round : int; (* as a child: last pick round it was eligible *)
  mutable node_round : int; (* as a parent: pick round counter *)
  mutable node_vnow : float; (* as a parent: virtual clock (max served vt) *)
}

let make ?(window = Simtime.ms 100) ~root () =
  let window_ns = Simtime.span_to_ns window in
  if window_ns <= 0 then invalid_arg "Multilevel_ref.make: window must be positive";
  let runq = Runq.create () in
  (* The original O(subtree) work test, preserved as part of the spec. *)
  let rec subtree_has_work c =
    Runq.container_has_work runq c || List.exists subtree_has_work (Container.children c)
  in
  let states : (int, cstate) Hashtbl.t = Hashtbl.create 64 in
  let state_of container =
    let cid = Container.id container in
    match Hashtbl.find_opt states cid with
    | Some s -> s
    | None ->
        let s =
          { vt = 0.; last_weight = 1.; win_id = -1; win_used = 0; last_round = 0;
            node_round = 0; node_vnow = 0. }
        in
        Hashtbl.replace states cid s;
        s
  in
  let win_index now = Simtime.to_ns now / window_ns in
  let win_used ~now container =
    let s = state_of container in
    let idx = win_index now in
    if s.win_id <> idx then begin
      s.win_id <- idx;
      s.win_used <- 0
    end;
    s.win_used
  in
  let throttled ~now container =
    match (Container.attrs container).Attrs.cpu_limit with
    | None -> false
    | Some limit -> float_of_int (win_used ~now container) >= limit *. float_of_int window_ns
  in
  let is_idle_ts container =
    let attrs = Container.attrs container in
    match attrs.Attrs.sched_class with
    | Attrs.Timeshare -> Attrs.is_idle_class attrs
    | Attrs.Fixed_share _ -> false
  in
  let share_of container =
    match (Container.attrs container).Attrs.sched_class with
    | Attrs.Fixed_share s -> s
    | Attrs.Timeshare -> 0.
  in
  (* Weight of each eligible child of one parent: fixed-share children carry
     their share; timeshare children split the residual in proportion to
     numeric priority. *)
  let weights eligible =
    let fixed, ts =
      List.partition
        (fun c ->
          match (Container.attrs c).Attrs.sched_class with
          | Attrs.Fixed_share _ -> true
          | Attrs.Timeshare -> false)
        eligible
    in
    let fixed_sum = List.fold_left (fun acc c -> acc +. share_of c) 0. fixed in
    let residual = Float.max 0.02 (1. -. fixed_sum) in
    let prio c = float_of_int (max 1 (Container.attrs c).Attrs.priority) in
    let ts_prio_sum = List.fold_left (fun acc c -> acc +. prio c) 0. ts in
    fun c ->
      match (Container.attrs c).Attrs.sched_class with
      | Attrs.Fixed_share s -> Float.max 1e-3 s
      | Attrs.Timeshare -> residual *. prio c /. Float.max 1e-9 ts_prio_sum
  in
  let rec pick_node ~now ~include_idle node =
    if throttled ~now node then None
    else begin
      let children_with_work =
        List.filter (fun c -> subtree_has_work c) (Container.children node)
      in
      match children_with_work with
      | [] -> Runq.front runq node
      | _ :: _ ->
          let eligible =
            List.filter
              (fun c -> (include_idle || not (is_idle_ts c)) && not (throttled ~now c))
              children_with_work
          in
          let weight_of = weights eligible in
          (* Start-time fair queueing arrival rule: a child that was not
             eligible in the previous round (fresh container, or waking
             after idleness) starts at the node's virtual clock — it is
             neither penalised for history nor allowed to replay it. *)
          let ns = state_of node in
          ns.node_round <- ns.node_round + 1;
          List.iter
            (fun c ->
              let s = state_of c in
              if s.last_round < ns.node_round - 1 && s.vt < ns.node_vnow then
                s.vt <- ns.node_vnow;
              s.last_round <- ns.node_round)
            eligible;
          let in_vt_order =
            List.sort
              (fun a b ->
                match compare (state_of a).vt (state_of b).vt with
                | 0 -> compare (Container.id a) (Container.id b)
                | n -> n)
              eligible
          in
          let rec try_children = function
            | [] -> None
            | child :: rest -> (
                match pick_node ~now ~include_idle child with
                | Some task ->
                    let cs = state_of child in
                    cs.last_weight <- weight_of child;
                    ns.node_vnow <- Float.max ns.node_vnow cs.vt;
                    Some task
                | None -> try_children rest)
          in
          try_children in_vt_order
    end
  in
  let pick ~now =
    match pick_node ~now ~include_idle:false root with
    | Some task -> Some task
    | None -> pick_node ~now ~include_idle:true root
  in
  let charge ~container ~now span =
    let span_ns = Simtime.span_to_ns span in
    let rec ascend node =
      let s = state_of node in
      ignore (win_used ~now node);
      s.win_used <- s.win_used + span_ns;
      (match Container.parent node with
      | Some _ -> s.vt <- s.vt +. (float_of_int span_ns /. Float.max 1e-9 s.last_weight)
      | None -> ());
      match Container.parent node with Some p -> ascend p | None -> ()
    in
    ascend container;
    Runq.rotate runq container
  in
  let next_release ~now =
    if Runq.count runq = 0 then None
    else
      match pick ~now with
      | Some _ -> None
      | None ->
          (* Runnable tasks exist but all are throttled: eligibility can
             only change at the next window boundary. *)
          Some (Simtime.of_ns ((win_index now + 1) * window_ns))
  in
  {
    Policy.name = "multilevel-ref";
    enqueue = Runq.enqueue runq;
    dequeue = Runq.dequeue runq;
    requeue = Runq.requeue runq;
    pick;
    charge;
    next_release;
    runnable_count = (fun () -> Runq.count runq);
  }
