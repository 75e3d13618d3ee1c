(* Tests for the seeded scenario fuzzer: fixed seeds stay clean in every
   stack mode and in both scenario families, runs are deterministic, a
   planted accounting bug is caught and replayable, and configs are
   validated in one place. *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let rc seed = Fuzz.config ~mode:Netsim.Stack.Rc ~seed

let check_clean (o : Fuzz.outcome) =
  Alcotest.(check (option string))
    (Printf.sprintf "seed %d %s clean" o.config.seed (Fuzz.mode_name o.config.mode))
    None o.violation;
  Alcotest.(check bool) "invariant sweeps ran" true (o.checks > 5)

let check_mischarge_caught (o : Fuzz.outcome) =
  match o.violation with
  | Some v ->
      Alcotest.(check bool) "cpu.conservation tripped" true
        (String.starts_with ~prefix:"invariant cpu.conservation" v)
  | None -> Alcotest.fail "planted mis-charge not caught"

let test_fixed_seeds_clean () =
  List.iter
    (fun seed ->
      List.iter (fun mode -> check_clean (Fuzz.run (Fuzz.config ~mode ~seed))) Fuzz.all_modes)
    [ 1; 2; 3 ]

let test_determinism () =
  let a = Fuzz.run (rc 7) and b = Fuzz.run (rc 7) in
  Alcotest.(check bool) "identical outcomes" true (a = b);
  Alcotest.(check bool) "requests completed" true (a.completed > 0)

let test_generate_pure () =
  (* The scenario is plain data: no closure, no live generator, so two
     draws of one config compare equal structurally. *)
  let same c = Alcotest.(check bool) "same scenario" true (Fuzz.generate c = Fuzz.generate c) in
  same (rc 5);
  same { (rc 5) with zipf = true };
  same { (rc 5) with machines = 3 };
  Alcotest.(check bool) "cpus does not change the draw" true
    (Fuzz.generate (rc 5) = Fuzz.generate { (rc 5) with cpus = 4 });
  Alcotest.(check bool) "seeds differ" true (Fuzz.generate (rc 5) <> Fuzz.generate (rc 6))

let test_injected_mischarge_caught () =
  let trace = Filename.temp_file "fuzz-inject" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
    (fun () ->
      let o = Fuzz.run ~trace_path:trace { (rc 1) with inject = true } in
      check_mischarge_caught o;
      Alcotest.(check (option string)) "trace dumped" (Some trace) o.trace_file;
      Alcotest.(check bool) "trace non-empty JSONL" true
        (let ic = open_in trace in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> String.length (input_line ic) > 2));
      (* The printed replay line reproduces the run. *)
      let cmd = Fuzz.replay_command o.config in
      Alcotest.(check bool) "replay command names the seed and mode" true
        (contains "--seed 1" cmd && contains "--mode rc" cmd && contains "--inject" cmd))

let test_zipf_family () =
  (* The large-Zipf corpus family: thousands of documents churning an
     undersized arena cache under the armed cache.bytes-consistency and
     LRU-structure laws — clean, deterministic, and marked in the
     scenario line and replay command. *)
  let c = { (rc 3) with zipf = true } in
  let a = Fuzz.run c in
  check_clean a;
  Alcotest.(check bool) "scenario names the corpus" true
    (contains " zipf docs=" (Format.asprintf "%a" Fuzz.pp_scenario a.scenario));
  Alcotest.(check bool) "replay command carries --zipf" true
    (contains "--zipf" (Fuzz.replay_command c));
  Alcotest.(check bool) "deterministic" true (a = Fuzz.run c)

let test_cluster_family () =
  List.iter (fun seed -> check_clean (Fuzz.run { (rc seed) with machines = 2 })) [ 1; 2 ];
  check_mischarge_caught (Fuzz.run { (rc 1) with machines = 2; inject = true })

let test_sharded_determinism () =
  let c = { (rc 2) with machines = 2 } in
  let one = Fuzz.run c and two = Fuzz.run { c with shards = 2 } in
  Alcotest.(check int) "ran at two shards" 2 two.config.shards;
  Alcotest.(check bool) "equal but for the shard count" true
    ({ two with config = { two.config with shards = 1 } } = one)

let test_sharded_replay_line () =
  (* A shard-only failure must replay at its shard count. *)
  let c = { (rc 1) with machines = 2; shards = 2; inject = true } in
  Alcotest.(check bool) "replay command carries --shards" true
    (contains "--shards 2" (Fuzz.replay_command c));
  let o = Fuzz.run c in
  check_mischarge_caught o;
  Alcotest.(check bool) "failing outcome's replay line carries --shards" true
    (contains "--shards 2" (Format.asprintf "%a" Fuzz.pp_outcome o))

let test_validate () =
  let rejects what c =
    Alcotest.(check bool) what true (match Fuzz.validate c with Error _ -> true | Ok _ -> false)
  in
  rejects "cpus >= 1" { (rc 1) with cpus = 0 };
  rejects "machines >= 1" { (rc 1) with machines = 0 };
  rejects "shards >= 1" { (rc 1) with shards = 0 };
  rejects "zipf is single-rig" { (rc 1) with zipf = true; machines = 2 };
  Alcotest.(check bool) "the default config is valid" true (Fuzz.validate (rc 1) = Ok (rc 1));
  Alcotest.(check bool) "run refuses an invalid config" true
    (match Fuzz.run { (rc 1) with zipf = true; machines = 2 } with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mode_helpers () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "mode name round-trips" true
        (Fuzz.mode_of_string (Fuzz.mode_name m) = Some m))
    Fuzz.all_modes;
  Alcotest.(check bool) "unknown mode rejected" true (Fuzz.mode_of_string "bogus" = None)

let suite =
  [
    Alcotest.test_case "fixed seeds clean in all modes" `Quick test_fixed_seeds_clean;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "generate is pure" `Quick test_generate_pure;
    Alcotest.test_case "injected mis-charge caught" `Quick test_injected_mischarge_caught;
    Alcotest.test_case "zipf corpus family" `Quick test_zipf_family;
    Alcotest.test_case "cluster family" `Quick test_cluster_family;
    Alcotest.test_case "sharded determinism" `Quick test_sharded_determinism;
    Alcotest.test_case "sharded replay line" `Quick test_sharded_replay_line;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "mode helpers" `Quick test_mode_helpers;
  ]
