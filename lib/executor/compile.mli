(** Row-closure scalar compilation.

    Resolves every column reference in an expression to an array offset
    and every operator to a closure, once, so evaluating a row does no
    hashtable lookups and no AST dispatch. The batch engine ({!Batch})
    uses these closures for join residuals, where it probes one row pair
    at a time. Unknown columns are reported at compile time; only
    value-dependent failures (type errors) remain row-time. *)

exception Compile_error of string
(** Static error: an unknown column, or (raised by {!Batch.plan}) an
    unknown table. Never raised from the returned closures. *)

val scalar :
  Relalg.Ident.t array ->
  Relalg.Scalar.t ->
  Storage.Value.t array ->
  Storage.Value.t
(** [scalar cols e] compiles [e] against the row layout [cols]. The
    returned closure agrees with {!Eval.scalar} on every row (same
    three-valued logic, same [Invalid_argument] on type errors). *)

val pred :
  Relalg.Ident.t array -> Relalg.Scalar.t -> Storage.Value.t array -> bool
(** Compiled {!Eval.pred_true}: [true] iff exactly [Bool true]. *)

val column_index : Relalg.Ident.t array -> Relalg.Ident.t -> int
(** Offset of a column in a row layout. Raises {!Compile_error} on
    unknown columns. *)

val key_indices : Relalg.Ident.t array -> Relalg.Ident.t list -> int array
