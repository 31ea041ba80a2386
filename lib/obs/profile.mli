(** In-process span profiler.

    A {!Trace} consumer that aggregates the same [with_span]
    instrumentation the Chrome-trace sink renders, producing per-name
    and per-domain self/total-time statistics plus a folded-stacks
    export — without writing a trace file. Overhead per span is a stack
    push/pop and a couple of hashtable updates on the emitting domain
    (no locks, no I/O), so profiling a parallel campaign costs a few
    percent at most.

    Semantics:
    - {b total} time of a span name is the sum of wall durations of all
      its spans (a recursive span is counted once per nesting level, the
      usual flat-profile caveat);
    - {b self} time is total minus time spent in {e direct child} spans,
      so across all names Σself = wall time covered by instrumented
      spans at the top level;
    - p50/p95 come from {!Metrics}' power-of-two buckets and quantile
      estimator: exact counts, quantile values accurate to the bucket's
      geometric midpoint and clamped to observed min/max.

    State is per-domain and merged at snapshot time. Take snapshots at
    quiescence — [Par.Pool] joins every helper domain before returning,
    so any point between parallel phases is safe. *)

val enable : unit -> unit
(** Install the profiler consumer (resetting previous data). Idempotent. *)

val disable : unit -> unit
(** Remove the consumer; accumulated data stays readable. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all accumulated data (all domains). *)

type row = {
  name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  min_ns : float;
  max_ns : float;
  p50_ns : float;
  p95_ns : float;
}

val rows : unit -> row list
(** Merged over all domains, sorted by self time descending. *)

val rows_by_domain : unit -> (int * row list) list
(** Per emitting domain (trace [tid]), ascending domain id. *)

val folded : unit -> (string * float) list
(** Folded call stacks: [("a;b;c", self_ns)] per distinct span path,
    sorted by path — the input format of flamegraph tooling. *)

val unmatched : unit -> int
(** End events dropped because their begin predates the profiler. *)

val write_folded : out_channel -> unit
(** Emit folded stacks, one ["path self_us"] line each (microseconds,
    rounded — flamegraph.pl wants integers). *)

val row_json : row -> Json.t
(** One row: [{name; count; total_ns; self_ns; min_ns; max_ns; p50_ns;
    p95_ns}]. *)

val to_json : unit -> Json.t
(** [{spans; by_domain; folded; unmatched}] projection of the same
    data. *)

val pp : Format.formatter -> unit -> unit
(** Text table: span, count, self/total ms, self%%, p50/p95 us. *)
