(* The benchmark's own checks on the simulated outcome: the fingerprint is
   a pure function of the seed, and neither tracing, slicing nor the shard
   count may change it. *)

module W = Perfbench.Workloads
module R = Perfbench.Runner
module Trace = Perfbench.Trace
module Simtime = Engine.Simtime

(* Short runs of the real workloads, several slices each; the zipf corpus
   is cut to 2x10^4 documents so the test stays quick. *)
let spec name = Option.get (W.find name)
let length_of name = if name = "zipf-flash" then Simtime.sec 15 else Simtime.ms 300

let fingerprint ?(traced = false) ~name ~build ~warmup () =
  let _, r = R.run_rep ~calibrated:false ~build ~warmup ~length:(length_of name) ~traced ~t_start:0.
  in
  r.R.fingerprint

let build_of name ~seed =
  if name = "zipf-flash" then fun () -> W.build_zipf_flash ~docs:20_000 ~seed ()
  else fun () -> (spec name).build ~seed

let warmup_of name = Simtime.span_min (spec name).warmup (Simtime.ms 100)

let repeats name () =
  let build = build_of name ~seed:7 and warmup = warmup_of name in
  Alcotest.(check string)
    "same seed" (fingerprint ~name ~build ~warmup ()) (fingerprint ~name ~build ~warmup ())

let traced_equals_untraced name () =
  let build = build_of name ~seed:7 and warmup = warmup_of name in
  let plain = fingerprint ~name ~build ~warmup () in
  Trace.enabled := true;
  Trace.install_sampler ();
  let traced = fingerprint ~traced:true ~name ~build ~warmup () in
  Trace.stop_sampler ();
  Trace.enabled := false;
  Alcotest.(check string) "traced" plain traced

let sliced_equals_one_shot name () =
  let build = build_of name ~seed:7 and warmup = warmup_of name in
  Alcotest.(check string)
    "one run-for call" (fingerprint ~name ~build ~warmup ())
    (R.one_shot ~build ~warmup ~length:(length_of name))

let seeds_differ name () =
  let warmup = warmup_of name in
  let a = fingerprint ~name ~build:(build_of name ~seed:1) ~warmup () in
  let b = fingerprint ~name ~build:(build_of name ~seed:2) ~warmup () in
  Alcotest.(check bool) "different seeds, different outcomes" true (a <> b)

let shard_count_invariant () =
  let name = "cluster-shards" in
  let warmup = warmup_of name in
  let one_shard () = W.build_cluster_shards ~seed:7 ~shards:1 in
  let one = fingerprint ~name ~build:one_shard ~warmup () in
  let two = fingerprint ~name ~build:(build_of name ~seed:7) ~warmup () in
  Alcotest.(check string) "shards=1 = shards=2" one two

let per_workload name =
  ( name,
    [
      Alcotest.test_case "fingerprint repeats" `Quick (repeats name);
      Alcotest.test_case "traced = untraced" `Quick (traced_equals_untraced name);
      Alcotest.test_case "sliced = one-shot run_for" `Quick (sliced_equals_one_shot name);
      Alcotest.test_case "seeds reach the generators" `Quick (seeds_differ name);
    ] )

let () =
  Alcotest.run "perfbench"
    (List.map per_workload [ "rc-perconn"; "zipf-flash"; "cluster-shards" ]
    @ [
        ( "shards",
          [ Alcotest.test_case "cluster shards=1 = shards=2" `Quick shard_count_invariant ] );
      ])
