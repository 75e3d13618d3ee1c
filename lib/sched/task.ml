type t = {
  id : int;
  name : string;
  binding : Rescont.Binding.t;
  kernel : bool;
  mutable rq_owner : int;
  mutable rq_cid : int;
  mutable rq_stamp : int;
  mutable mslot : int;
  mutable home_cpu : int;
}

(* Atomic so parallel sweep domains can create tasks concurrently; nothing
   may depend on absolute id values, only on per-rig creation order. *)
let next_id = Atomic.make 0

let create ?(kernel = false) ~name binding =
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    name;
    binding;
    kernel;
    rq_owner = -1;
    rq_cid = -1;
    rq_stamp = 0;
    mslot = -1;
    home_cpu = 0;
  }

let container t = Rescont.Binding.resource_binding t.binding
let equal a b = a.id = b.id
let pp ppf t = Format.fprintf ppf "task#%d(%s)" t.id t.name
