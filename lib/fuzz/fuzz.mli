(** Seeded scenario fuzzer for the conservation-law invariants.

    A run takes a {!config}, draws every random choice of its scenario
    from the seed up front ({!generate}), builds it, arms every registered
    conservation law ({!Procsim.Machine.arm_invariants}), drives it for the
    drawn duration and reports the first violation.  Two scenario families
    share that path: a single server rig (random container hierarchy,
    filtered listens, one of three server architectures and container
    policies, closed-loop clients, an optional SYN flood) and, with
    [machines > 1], a {!Clustersim.Cluster} behind the load balancer with
    the cluster-wide "cluster.usage-rollup" law armed too.  A failing run
    replays bit-for-bit from its printed {!replay_command}. *)

val mode_name : Netsim.Stack.mode -> string
val mode_of_string : string -> Netsim.Stack.mode option

val all_modes : Netsim.Stack.mode list
(** [Softirq; Lrp; Rc]. *)

(** {1 Configs} *)

type config = {
  mode : Netsim.Stack.mode;
  seed : int;
  cpus : int;  (** processors per machine *)
  machines : int;  (** 1 = single rig; > 1 = cluster behind the balancer *)
  shards : int;
      (** event cores a cluster runs across; by contract the outcome at
          any shard count equals the outcome at one but for this field *)
  zipf : bool;
      (** single rig only: thousands of documents against a cache a
          fraction of the corpus, churning its eviction path *)
  inject : bool;
      (** charge interrupt time to a container outside the root's subtree
          halfway through, which [cpu.conservation] must catch *)
}

val config : mode:Netsim.Stack.mode -> seed:int -> config
(** One uniprocessor rig, no zipf corpus, nothing injected.  Other
    configs update this record. *)

val validate : config -> (config, string) result
(** Every rule a config must satisfy: counts are positive and the zipf
    family is single-rig.  The error names the offending flag. *)

val replay_command : config -> string
(** The one-command replay line: the seed, the mode and every setting
    that differs from {!config}'s default. *)

(** {1 Scenarios} *)

type scenario
(** Every random choice of one run, as plain data: structural equality
    compares two scenarios. *)

val generate : config -> scenario
(** Draw the scenario from [seed], [machines] and [zipf]; the other
    fields do not change it. *)

val pp_scenario : Format.formatter -> scenario -> unit
(** One line describing a scenario of either family. *)

(** {1 Running} *)

type outcome = {
  config : config;
  scenario : scenario;
  checks : int;  (** invariant sweeps that ran, over every machine *)
  completed : int;  (** client requests completed *)
  packets : int;  (** packets the stacks processed *)
  violation : string option;  (** [None] = every law held *)
  trace_file : string option;  (** JSONL trace written on violation *)
}

val run : ?trace_path:string -> config -> outcome
(** Generate, build and run one scenario.  On a single-rig violation the
    kernel trace is written as JSON lines to [trace_path] (default
    [fuzz-<mode>-seed<N>] plus one tag per non-default setting, then
    [.trace.jsonl], in the working directory); cluster machines run
    untraced.  @raise Invalid_argument when {!validate} rejects the
    config. *)

val pp_outcome : Format.formatter -> outcome -> unit
