(* splitmix64 (Steele, Lea & Flood 2014).  State is a single 64-bit word
   advanced by the golden-gamma; output is a finalizing hash of the state.

   The word lives in an 8-byte [Bytes] rather than a mutable [int64]
   field: a field would hold a boxed [int64] and every draw would allocate
   a fresh box.  Read and written with [Bytes.get/set_int64_ne], and with
   the finalizer inlined into each draw, the temporaries stay unboxed, so
   [int] and [bool] allocate nothing and [float] allocates only its
   result. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* One draw: advance the state and return its finalized hash.  Both this
   and [mix] are inlined into every caller, so no boxed [int64] crosses a
   call. *)
let[@inline always] draw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = draw t
let split t = of_state (mix (draw t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let bucket = max_int / bound * bound in
  let v = ref (Int64.to_int (Int64.shift_right_logical (draw t) 2)) in
  (* Extremely rare: a draw at or above the last whole bucket. *)
  while !v >= bucket do
    v := Int64.to_int (Int64.shift_right_logical (draw t) 2)
  done;
  !v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (draw t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (draw t) 1L = 1L
