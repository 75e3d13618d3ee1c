(* Minor-heap allocation summed over every domain.

   [Gc.minor_words] reads the calling domain only, so a sharded run that
   allocates on worker domains would under-report.  The runtime emits an
   [EV_C_MINOR_ALLOCATED] counter (bytes) from each domain at each of its
   minor collections; this module reads them through [Runtime_events].
   Minor collections are stop-the-world in OCaml 5, so a [Gc.minor ()] at
   each end of a phase flushes every domain's young allocation into the
   count. *)

let words = ref 0
let lost = ref 0
let cursor = ref None

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_counter:(fun _ring _ts counter value ->
      match counter with
      | Runtime_events.EV_C_MINOR_ALLOCATED -> words := !words + (value / (Sys.word_size / 8))
      | _ -> ())
    ~lost_events:(fun _ring n -> lost := !lost + n)
    ()

(* Drain the rings, starting collection on first use; call often enough
   that no ring wraps (every slice). *)
let poll () =
  let c =
    match !cursor with
    | Some c -> c
    | None ->
        Runtime_events.start ();
        let c = Runtime_events.create_cursor None in
        cursor := Some c;
        c
  in
  ignore (Runtime_events.read_poll c callbacks None)

(* Total minor words allocated so far on every domain, after flushing. *)
let read () =
  Gc.minor ();
  poll ();
  if !lost > 0 then failwith (Printf.sprintf "runtime events lost %d events" !lost);
  !words
