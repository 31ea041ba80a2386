(** Row-level machinery shared by the interpreter ({!Exec.run_interpreted})
    and the batch engine ({!Batch}): hash tables over rows, join
    finalization, grouping, aggregation, distinct, sort comparators, and
    morsel scheduling.

    Everything here is parameterized by already-resolved column *indices*
    and evaluation *closures*, so the two engines differ only in how they
    evaluate expressions (AST walk with a column hashtable vs. compiled
    kernels over array offsets), never in relational semantics. *)

open Storage

exception Exec_error of string
(** Row-time execution failure (e.g. AVG over a non-numeric value, or —
    interpreter only — an unknown column reached while evaluating a
    row). *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style; raises {!Exec_error}. *)

module RowTbl : Hashtbl.S with type key = Value.t array
(** Hashtable keyed by whole rows ({!Resultset.compare_rows} equality). *)

module Vec : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit
  val to_array : 'a t -> 'a array
end

val nulls : int -> Value.t array
val key_has_null : Value.t array -> bool
val extract_key : int array -> Value.t array -> Value.t array
val filter_rows : (Value.t array -> bool) -> Value.t array array -> Value.t array array
val take_rows : int -> Value.t array array -> Value.t array array

val morselize : rows:int -> 'a array -> 'a array array
(** Fixed-size chunks in input order; the last may be short; empty input
    yields zero morsels. Raises [Invalid_argument] when [rows < 1]. *)

val map_morsels :
  Par.Pool.t -> rows:int -> ('a array -> 'b array) -> 'a array -> 'b array
(** Chunk, map each morsel through the pool, concatenate in task order —
    output (and any raised exception: the lowest morsel's) is identical
    for every pool size. Counts [executor.batch.morsels] /
    [executor.batch.rows] when metrics are on. *)

val make_agg :
  (Relalg.Scalar.t -> Value.t array -> Value.t) ->
  Relalg.Aggregate.t ->
  Value.t array array ->
  Value.t
(** [make_agg compile agg] resolves the aggregate's argument once via
    [compile] and returns the evaluator for one group's rows. NULLs are
    skipped by every aggregate except COUNT( * ); SUM/MIN/MAX/AVG of an
    all-NULL (or empty) group is NULL. *)

val hash_groups :
  int array ->
  Value.t array array ->
  (Value.t array * Value.t array array) array
(** Groups in first-appearance order of the keys; members keep input
    order. *)

val stream_groups :
  int array ->
  Value.t array array ->
  (Value.t array * Value.t array array) array
(** Consecutive runs of equal keys (input must be sorted by the keys). *)

val grouped_rows :
  (Value.t array array -> Value.t) array ->
  (Value.t array * Value.t array array) array ->
  Value.t array array
(** One output row per group: key values then aggregate values. *)

val join_cols :
  Relalg.Logical.join_kind ->
  Relalg.Ident.t array ->
  Relalg.Ident.t array ->
  Relalg.Ident.t array
(** Output columns: left only for (anti)semi joins, left @ right
    otherwise. *)

val join_rows :
  Relalg.Logical.join_kind ->
  left_arity:int ->
  right_arity:int ->
  Value.t array array ->
  Value.t array array ->
  int list array ->
  Value.t array array
(** Join finalization from per-left-row match lists ([match_lists.(li)]
    holds the indices of right rows fully matching left row [li]):
    combination, outer-join NULL padding, (anti)semi projection. *)

val nested_loops_matches :
  (Value.t array -> bool) ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** Predicate over the combined row, every pair tested. *)

val hash_build : ridx:int array -> Value.t array array -> int list ref RowTbl.t
(** Build side of {!hash_matches}: right-row indices by key, NULL keys
    skipped. *)

val hash_probe_row :
  int list ref RowTbl.t ->
  lidx:int array ->
  residual:(Value.t array -> bool) option ->
  Value.t array array ->
  Value.t array ->
  int list
(** Probe one left row: matching right indices in right-input order,
    residual-filtered. Pure per row, so probes parallelize by morsel. *)

val hash_matches :
  lidx:int array ->
  ridx:int array ->
  residual:(Value.t array -> bool) option ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** Equi-join by hashing the right side; NULL keys never match;
    [residual] (over the combined row) filters matches when present.
    [hash_build] + [hash_probe_row] per left row. *)

val merge_matches :
  lidx:int array ->
  ridx:int array ->
  residual:(Value.t array -> bool) option ->
  Value.t array array ->
  Value.t array array ->
  int list array
(** Inner merge join over key-sorted inputs; NULL keys are skipped. *)

val distinct_rows : Value.t array array -> Value.t array array
(** First occurrence of each row, input order preserved. *)

val row_set : Value.t array array -> unit RowTbl.t

val sort_compare :
  int array ->
  Relalg.Logical.sort_dir array ->
  Value.t array ->
  Value.t array ->
  int
(** Multi-key comparator honouring per-key direction
    ({!Storage.Value.compare_total} per column). *)
