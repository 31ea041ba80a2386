(** Machine-readable and text rendering of the telemetry.

    One report serves every command that reports where a run spent its
    time: the metrics registry, the span profile, per-worker pool
    attribution, and result/edge-cost cache traffic. The JSON shape is
    stable so bench trajectories stay diffable: counters are integers,
    gauges floats, histograms objects with
    [count]/[sum]/[min]/[max]/[mean]/[p50]/[p95]. *)

val metrics_json : unit -> Json.t
(** The whole registry as a flat list:
    [[{"name": ..., "label": ..., "value": ...}, ...]]. *)

val label_table : string list -> (string * Metrics.value option list) list
(** [label_table names] regroups the registry by label: one row per
    distinct label carrying, in order, the value of each metric in
    [names] for that label (None where unregistered). Unlabelled
    instruments are skipped. The per-rule tables of [qtr stats] are
    built from this. *)

val counter_cell : Metrics.value option -> int
(** A {!label_table} cell read as a counter: 0 when absent or another
    kind. *)

(** {2 Attribution snapshot} *)

type worker = {
  worker : string;  (** pool worker label: ["w0"] is the calling domain *)
  busy_ns : float;
  steal_ns : float;
  idle_ns : float;
  merge_wait_ns : float;
  wall_ns : float;  (** busy + steal + idle + merge_wait, by construction *)
  tasks : int;
}
(** One [Par.Pool] worker's wall time across every parallel map since
    metrics were enabled. *)

type site = { site : string; hits : int; misses : int }
(** Result-cache traffic of one [Executor.Cache.run ~site] call site. *)

type disk = {
  result_hits : int;
  result_misses : int;
  result_stores : int;
  matrix_served_warm : int;  (** edge-cost cells served from a manifest *)
}
(** Warm-start traffic through [--cache-dir]; all zero without one. *)

type t = { pool : worker list; result_cache : site list; disk_cache : disk }

val snapshot : unit -> t
(** Read the registry. Workers with neither wall time nor tasks and
    sites with no lookups are dropped; workers are sorted by index. Take it at
    quiescence, like {!Profile} snapshots. *)

val worker_json : worker -> Json.t

val to_json : t -> Json.t
(** [{profile, pool, result_cache, disk_cache, metrics}]; [profile] and
    [metrics] are read from {!Profile} and {!Metrics} at call time. *)

val pp : ?by_domain:bool -> Format.formatter -> t -> unit
(** The span table, optionally one table per domain, then one line each
    for result-cache sites, disk-cache traffic (omitted when zero) and
    every pool worker. *)
