(** Deterministic pseudo-random number generation.

    The simulator never uses [Stdlib.Random]: every stochastic component
    takes an explicit [Rng.t], so a run is a pure function of its seeds and
    experiments are exactly reproducible.  The generator is splitmix64,
    which is small, fast and statistically adequate for workload
    generation.  A draw allocates nothing of its own: [int] and [bool]
    allocate no words at all, [float] and [bits64] only their boxed
    result. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent generator; used to give each workload source its
    own stream so adding a source does not perturb the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
