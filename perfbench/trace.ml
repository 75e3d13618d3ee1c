(* Traced runs only: a SIGPROF sampler that charges host CPU time to the
   simulator's layers, and spans around the benchmark's own calls into
   them.

   A sample goes to the innermost stack frame whose source file lies under
   [lib/<layer>/]; frames of the standard library and of this benchmark are
   skipped, so their time lands on the nearest [lib/] caller.
   [lib/engine/shard.ml] is its own layer, [shard]. *)

let layers =
  [|
    "engine";
    "shard";
    "procsim";
    "sched";
    "rescont";
    "netsim";
    "httpsim";
    "disksim";
    "workload";
    "clustersim";
    "experiments";
    "other";
  |]

let other = Array.length layers - 1

let layer_index name =
  let rec go i = if i >= other || layers.(i) = name then i else go (i + 1) in
  go 0

let layer_of_file file =
  if file = "lib/engine/shard.ml" then Some (layer_index "shard")
  else if String.length file > 4 && String.sub file 0 4 = "lib/" then
    match String.index_from_opt file 4 '/' with
    | Some j -> Some (layer_index (String.sub file 4 (j - 4)))
    | None -> None
  else None

let samples = Array.make (Array.length layers) 0
let sampling = ref false

(* Sampling period, in seconds of process CPU time. *)
let period = 0.001

let record_sample _ =
  if !sampling then begin
    let layer =
      match Printexc.backtrace_slots (Printexc.get_callstack 96) with
      | None -> other
      | Some slots ->
          let n = Array.length slots in
          let rec find i =
            if i >= n then other
            else
              match Printexc.Slot.location slots.(i) with
              | Some loc -> (
                  match layer_of_file loc.Printexc.filename with
                  | Some l -> l
                  | None -> find (i + 1))
              | None -> find (i + 1)
          in
          find 0
    in
    samples.(layer) <- samples.(layer) + 1
  end

let install_sampler () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record_sample);
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })

let stop_sampler () =
  sampling := false;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. })

(* The share of all samples charged to [layer].  The kernel may round the
   timer period up to its tick, so a layer's time is its share times the
   measured CPU time, not its sample count times [period]. *)
let layer_share name =
  let total = Array.fold_left ( + ) 0 samples in
  if total = 0 then 0. else float_of_int samples.(layer_index name) /. float_of_int total

(* --- spans ----------------------------------------------------------- *)

type span = { id : int; parent : int; layer : string; name : string; t0 : float; t1 : float }

let enabled = ref false
let spans = ref []
let next_id = ref 0
let current = ref (-1)

(* [span ~layer name f] runs [f], keeping a span for it when tracing. *)
let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = Unix.gettimeofday () in
    let finish () =
      spans := { id; parent; layer; name; t0; t1 = Unix.gettimeofday () } :: !spans;
      current := parent
    in
    Fun.protect ~finally:finish f
  end

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"layer\":%S,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f}\n"
            s.id s.parent s.layer s.name s.t0 s.t1)
        (List.rev !spans))
