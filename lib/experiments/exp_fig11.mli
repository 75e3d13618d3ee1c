(** Figure 11 — prioritised handling of clients (paper §5.5).

    One high-priority client and an increasing number of low-priority
    clients, all requesting the same cached 1 KB document over
    connection-per-request HTTP.  The y value is the mean response time
    seen by the high-priority client.

    Three systems:
    - ["Without containers"]: unmodified kernel; the application still
      tries to favour the high-priority client in user space (it orders its
      work by source address), but kernel processing is uncontrolled and
      FIFO, so T_high climbs sharply once the server saturates.
    - ["With containers/select()"]: RC kernel, two listen sockets separated
      by an address filter, bound to containers of priority 100 and 10;
      T_high rises only with the linear cost and batching of select().
    - ["With containers/new event API"]: same containers with the scalable
      event API (one priority-ordered event at a time); T_high stays nearly
      flat. *)

type variant = Without_containers | Containers_select | Containers_event_api

val variant_name : variant -> string

val t_high :
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  variant ->
  low_clients:int ->
  float
(** Mean high-priority response time in milliseconds. *)

val figure :
  ?low_counts:int list ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?jobs:int ->
  unit ->
  Engine.Series.figure
(** Default sweep: 0, 5, 10, 15, 20, 25, 30, 35 low-priority clients.
    [jobs] fans the (variant × count) grid across that many domains; the
    result is identical for any [jobs] (see {!Harness.Sweep}). *)
