(** Columnar batch ("morsel") compilation — the executor's engine.

    Scalars compile to {!kernel}s evaluating a whole morsel of rows into
    a [Value.t array] column at a time (one tight loop per expression
    node instead of a closure call per row per node), with a fused
    unboxed [float array] fast path for arithmetic/comparison subtrees
    over all-float columns. Filter / projection / join-probe / per-group
    aggregation are scheduled morsel-wise through a {!Par.Pool} with
    task-order merges, so output is byte-identical for every jobs count.

    Observable behaviour matches {!Eval} and {!Compile.scalar} exactly —
    values, three-valued logic, and errors: kernels track a per-row
    first-error slot, [AND]/[OR] only evaluate their right side over the
    non-short-circuited selection, and materialization raises the lowest
    erroring row's exception, which is what a sequential row scan would
    have raised. The QCheck differential suite holds kernels to value
    *and* error-message agreement with {!Eval}, and whole plans to
    agreement with the interpreter ({!Exec.run_interpreted}). *)

open Storage

type ctx
(** Evaluation context for one morsel: the rows plus per-row error
    slots shared by all expressions of one operator. *)

type kernel = ctx -> int array -> Value.t array
(** [kernel ctx sel] fills its output column at the selected row
    indices (ascending); rows outside [sel] or already erroring hold
    unspecified values. Errors are recorded, not raised. *)

val scalar : Relalg.Ident.t array -> Relalg.Scalar.t -> kernel
(** Compile an expression against a row layout. Raises
    {!Compile.Compile_error} on unknown columns, at compile time. *)

val eval_column : kernel -> Value.t array array -> Value.t array
(** Evaluate over one whole morsel and materialize: the column, or the
    lowest erroring row's exception. *)

type t
(** A compiled plan: output columns plus a generator that executes the
    operator tree. Reusable — each {!execute} runs the plan afresh. *)

val plan :
  ?pool:Par.Pool.t ->
  ?morsel_rows:int ->
  Storage.Catalog.t ->
  Optimizer.Physical.t ->
  t
(** Compile a plan to morsel-scheduled batch kernels. Static errors are
    raised here, before any row is produced: {!Compile.Compile_error}
    for unknown tables and columns, {!Relops.Exec_error} for
    set-operation arity mismatches. [pool] defaults to
    {!Par.Pool.sequential} — executor-level parallelism must be opted
    into, because campaign layers already parallelize across queries and
    nesting domain pools oversubscribes. [morsel_rows] defaults to 1024,
    small enough to stay cache-resident and large enough to amortize
    per-morsel setup. Results and errors are identical for every [pool]
    size and every [morsel_rows] ≥ 1. *)

val execute : t -> Resultset.t
(** Run the compiled plan. Raises {!Relops.Exec_error} or
    [Invalid_argument] only for value-dependent failures. *)
