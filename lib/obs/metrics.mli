(** Near-zero-cost counters, gauges, and log-bucketed histograms.

    Instruments are registered once (a hash lookup, interned by name and
    optional label) and then mutated directly on the hot path. All
    mutation entry points check one global flag first, so a *disabled*
    collector — the default — costs a single predictable branch per
    event; the bench harness verifies the optimizer's wall time is
    unaffected. Expensive event *preparation* (reading the clock, sizing
    a list) should additionally be guarded by {!enabled} at the call
    site.

    The registry is global and domain-safe: counters and gauges are
    single atomics (exact totals under parallel mutation, lock-free),
    histograms and the registry table are mutex-protected. Parallel
    workers spawned by [Par.Pool] therefore share one registry and their
    events aggregate exactly as in a sequential run. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Turn collection on or off globally. Off by default. *)

val enabled : unit -> bool

(** {2 Registration}

    Re-registering the same [(name, label)] returns the same instrument.
    [label] distinguishes instances of a family — e.g. one
    ["optimizer.rule.attempts"] counter per rule name. *)

val counter : ?label:string -> string -> counter
val gauge : ?label:string -> string -> gauge
val histogram : ?label:string -> string -> histogram

(** {2 Hot-path mutation} *)

val incr : counter -> unit
val add : counter -> int -> unit
val gauge_set : gauge -> float -> unit

val gauge_max : gauge -> float -> unit
(** Retain the high-water mark (e.g. deepest queue seen). *)

val observe : histogram -> float -> unit
(** Record one sample. Units are the caller's convention (this codebase
    uses nanoseconds for latencies). *)

(** {2 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** +inf when empty *)
  max : float;  (** -inf when empty *)
}

val hist_snapshot : histogram -> hist_snapshot
val hist_mean : histogram -> float
(** 0 when empty. *)

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) from
    the power-of-two buckets: the geometric midpoint of the bucket where
    the cumulative count crosses [q]. 0 when empty. *)

(** {2 Bucket scheme}

    The power-of-two buckets behind histograms, shared with
    {!Profile}'s span-duration histograms so both estimate quantiles
    the same way. *)

val n_buckets : int

val bucket_of : float -> int
(** Bucket of one sample: [0] below 1, else [1 + floor (log2 v)],
    clamped to the last bucket. *)

val bucket_quantile :
  int array -> count:int -> lo:float -> hi:float -> float -> float
(** [bucket_quantile buckets ~count ~lo ~hi q] is {!hist_quantile} over
    raw bucket counts with sample bounds [lo]/[hi]. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

val snapshot : unit -> (string * string option * value) list
(** Every registered instrument as [(name, label, value)], sorted by
    name then label. Zero-valued instruments are included. *)

val find : ?label:string -> string -> value option
(** Current value of one instrument, [None] if never registered —
    reporting sugar that avoids scanning {!snapshot}. *)

val counter_total : ?label:string -> string -> int
(** [find] specialized to counters; 0 when absent or another kind. *)

val reset : unit -> unit
(** Zero every instrument's value. Registrations (and references held by
    instrumented code) stay valid. *)

val clear : unit -> unit
(** Drop the whole registry. Previously obtained instruments keep
    working but are no longer reported; intended for test isolation. *)
