type resource = Cpu | Rx | Tx | Memory | Disk
type drop_reason = Overflow | Timeout

type t =
  | Dispatch of { cpu : int; thread : string; cid : int; container : string; work_ns : int }
  | Preempt of { cpu : int; thread : string; remaining_ns : int }
  | Spawn of { thread : string; cid : int; container : string }
  | Rebind of { thread : string; cid : int; container : string }
  | Kill of { thread : string }
  | Irq_steal of { cpu : int; cost_ns : int; cid : int; container : string }
  | Migrate of { thread : string; from_cpu : int; to_cpu : int }
  | Charge of { resource : resource; cid : int; container : string; amount : int }
  | Net_syn of { src : string; listen : int }
  | Net_established of { conn : int; src : string }
  | Net_enqueue of { cid : int; container : string; depth : int }
  | Net_dequeue of { cid : int; container : string; depth : int }
  | Early_discard of { cid : int; container : string; depth : int }
  | Rx_discard of { cid : int; container : string; bytes : int }
  | Syn_drop of { listen : int; src : string; reason : drop_reason }
  | Accept_drop of { listen : int; conn : int }
  | Conn_close of { conn : int; refunded_bytes : int }
  | Http_request of { conn : int; path : string; dynamic : bool }
  | Http_response of { conn : int; path : string; bytes : int }

let resource_name = function
  | Cpu -> "cpu"
  | Rx -> "rx"
  | Tx -> "tx"
  | Memory -> "memory"
  | Disk -> "disk"

let drop_reason_name = function Overflow -> "overflow" | Timeout -> "timeout"

let category = function
  | Dispatch _ -> "dispatch"
  | Preempt _ -> "preempt"
  | Spawn _ -> "spawn"
  | Rebind _ -> "rebind"
  | Kill _ -> "kill"
  | Irq_steal _ -> "irq"
  | Migrate _ -> "migrate"
  | Charge _ -> "charge"
  | Net_syn _ | Net_established _ | Conn_close _ -> "net"
  | Net_enqueue _ | Net_dequeue _ -> "netq"
  | Early_discard _ | Rx_discard _ | Syn_drop _ | Accept_drop _ -> "drop"
  | Http_request _ | Http_response _ -> "http"

let render = function
  | Dispatch { cpu; thread; container; work_ns; _ } ->
      Printf.sprintf "cpu%d runs %s for %dns (binding %s)" cpu thread work_ns container
  | Preempt { cpu; thread; remaining_ns } ->
      Printf.sprintf "cpu%d preempts %s (%dns pending)" cpu thread remaining_ns
  | Spawn { thread; container; _ } -> Printf.sprintf "thread %s in container %s" thread container
  | Rebind { thread; container; _ } -> Printf.sprintf "%s -> %s" thread container
  | Kill { thread } -> thread
  | Irq_steal { cpu; cost_ns; container; _ } ->
      Printf.sprintf "cpu%d steal %dns charged to %s" cpu cost_ns container
  | Migrate { thread; from_cpu; to_cpu } ->
      Printf.sprintf "%s migrates cpu%d -> cpu%d" thread from_cpu to_cpu
  | Charge { resource; container; amount; _ } ->
      Printf.sprintf "%s %+d to %s" (resource_name resource) amount container
  | Net_syn { src; listen } -> Printf.sprintf "SYN from %s on listen#%d" src listen
  | Net_established { conn; src } -> Printf.sprintf "conn#%d established from %s" conn src
  | Net_enqueue { container; depth; _ } ->
      Printf.sprintf "enqueue at container %s (depth %d)" container depth
  | Net_dequeue { container; depth; _ } ->
      Printf.sprintf "dequeue at container %s (depth %d)" container depth
  | Early_discard { container; depth; _ } ->
      Printf.sprintf "early discard at container %s (depth %d)" container depth
  | Rx_discard { container; bytes; _ } ->
      Printf.sprintf "rx memory limit: dropped %dB for %s" bytes container
  | Syn_drop { listen; src; reason } ->
      Printf.sprintf "SYN %s drop on listen#%d (src %s)" (drop_reason_name reason) listen src
  | Accept_drop { listen; conn } ->
      Printf.sprintf "accept-queue drop of conn#%d on listen#%d" conn listen
  | Conn_close { conn; refunded_bytes } ->
      Printf.sprintf "conn#%d closed (refunded %dB buffered rx)" conn refunded_bytes
  | Http_request { conn; path; dynamic } ->
      Printf.sprintf "conn#%d %s %s" conn (if dynamic then "CGI" else "GET") path
  | Http_response { conn; path; bytes } -> Printf.sprintf "conn#%d %s -> %dB" conn path bytes

open Jsonx

let typed name fields = Obj (("type", String name) :: fields)
let container_fields cid container = [ ("cid", Int cid); ("container", String container) ]

let to_json = function
  | Dispatch { cpu; thread; cid; container; work_ns } ->
      typed "dispatch"
        ([ ("cpu", Int cpu); ("thread", String thread) ]
        @ container_fields cid container
        @ [ ("work_ns", Int work_ns) ])
  | Preempt { cpu; thread; remaining_ns } ->
      typed "preempt"
        [ ("cpu", Int cpu); ("thread", String thread); ("remaining_ns", Int remaining_ns) ]
  | Spawn { thread; cid; container } ->
      typed "spawn" (("thread", String thread) :: container_fields cid container)
  | Rebind { thread; cid; container } ->
      typed "rebind" (("thread", String thread) :: container_fields cid container)
  | Kill { thread } -> typed "kill" [ ("thread", String thread) ]
  | Irq_steal { cpu; cost_ns; cid; container } ->
      typed "irq_steal"
        (("cpu", Int cpu) :: ("cost_ns", Int cost_ns) :: container_fields cid container)
  | Migrate { thread; from_cpu; to_cpu } ->
      typed "migrate"
        [ ("thread", String thread); ("from_cpu", Int from_cpu); ("to_cpu", Int to_cpu) ]
  | Charge { resource; cid; container; amount } ->
      typed "charge"
        (("resource", String (resource_name resource))
        :: (container_fields cid container @ [ ("amount", Int amount) ]))
  | Net_syn { src; listen } -> typed "syn" [ ("src", String src); ("listen", Int listen) ]
  | Net_established { conn; src } ->
      typed "established" [ ("conn", Int conn); ("src", String src) ]
  | Net_enqueue { cid; container; depth } ->
      typed "enqueue" (container_fields cid container @ [ ("depth", Int depth) ])
  | Net_dequeue { cid; container; depth } ->
      typed "dequeue" (container_fields cid container @ [ ("depth", Int depth) ])
  | Early_discard { cid; container; depth } ->
      typed "early_discard" (container_fields cid container @ [ ("depth", Int depth) ])
  | Rx_discard { cid; container; bytes } ->
      typed "rx_discard" (container_fields cid container @ [ ("bytes", Int bytes) ])
  | Syn_drop { listen; src; reason } ->
      typed "syn_drop"
        [
          ("listen", Int listen);
          ("src", String src);
          ("reason", String (drop_reason_name reason));
        ]
  | Accept_drop { listen; conn } ->
      typed "accept_drop" [ ("listen", Int listen); ("conn", Int conn) ]
  | Conn_close { conn; refunded_bytes } ->
      typed "conn_close" [ ("conn", Int conn); ("refunded_bytes", Int refunded_bytes) ]
  | Http_request { conn; path; dynamic } ->
      typed "http_request"
        [ ("conn", Int conn); ("path", String path); ("dynamic", Bool dynamic) ]
  | Http_response { conn; path; bytes } ->
      typed "http_response" [ ("conn", Int conn); ("path", String path); ("bytes", Int bytes) ]

