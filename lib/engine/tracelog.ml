type entry = { time : Simtime.t; event : Trace_event.t }

type t = {
  mutable on : bool;
  capacity : int;
  buffer : entry option array;
  mutable head : int; (* next write slot *)
  mutable count : int;
}

let create ?(enabled = false) ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Tracelog.create: capacity must be positive";
  { on = enabled; capacity; buffer = Array.make capacity None; head = 0; count = 0 }

let enabled t = t.on
let set_enabled t v = t.on <- v

let event t time ev =
  if t.on then begin
    t.buffer.(t.head) <- Some { time; event = ev };
    t.head <- (t.head + 1) mod t.capacity;
    if t.count < t.capacity then t.count <- t.count + 1
  end

let entries t =
  let result = ref [] in
  let start = (t.head - t.count + t.capacity) mod t.capacity in
  for i = t.count - 1 downto 0 do
    match t.buffer.((start + i) mod t.capacity) with
    | Some e -> result := e :: !result
    | None -> ()
  done;
  !result

let find t ~category =
  List.filter (fun e -> String.equal (Trace_event.category e.event) category) (entries t)

let clear t =
  Array.fill t.buffer 0 t.capacity None;
  t.head <- 0;
  t.count <- 0

let entry_to_json e =
  let fields =
    match Trace_event.to_json e.event with
    | Jsonx.Obj fields -> fields
    | other -> [ ("event", other) ]
  in
  Jsonx.Obj
    (("t_ns", Jsonx.Int (Simtime.to_ns e.time))
    :: ("cat", Jsonx.String (Trace_event.category e.event))
    :: fields)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Jsonx.to_buffer buf (entry_to_json e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %s: %s" Simtime.pp e.time
    (Trace_event.category e.event)
    (Trace_event.render e.event)
