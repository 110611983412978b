(** Post-generation optimization passes (paper §5.5): splat hoisting
    (LICM), memory normalization, local value numbering, value-level
    predictive commoning, loop unrolling with copy propagation (§4.5's
    copy-removal), epilogue specialization and dead-code cleanup. *)

open Simd_loopir
open Simd_vir

val hoist_splats :
  names:Names.t ->
  prologue:Expr.stmt list ->
  body:Expr.stmt list ->
  Expr.stmt list * Expr.stmt list
(** Move every loop-invariant [Splat] into a prologue temporary; returns
    [(prologue, body)]. *)

val memnorm : analysis:Analysis.t -> Expr.stmt list -> Expr.stmt list
(** Rewrite compile-time-offset load addresses to their V-aligned chunk
    addresses so same-chunk loads become syntactically identical. *)

val cse : names:Names.t -> Expr.stmt list -> Expr.stmt list
(** Local value numbering: lowers the region to three-address form;
    value keys carry per-temporary and per-array-memory versions, so
    pipelining carries and stores are handled soundly. *)

val predictive_commoning :
  block:int ->
  lb:int ->
  prologue:Expr.stmt list ->
  Expr.stmt list ->
  Expr.stmt list * Expr.stmt list
(** Cross-iteration value reuse on a three-address body: any temporary
    whose expanded value tree advanced one iteration equals another's
    becomes a loop-carried copy (initialized in the prologue). Returns
    [(prologue_inits, body)]. *)

val unsafe_unroll_seam_coalesce_bug : bool ref
(** Test-only fault injection: when set, {!unroll}'s seam-restore
    coalescer skips its read-at-seam safety guard, reintroducing the PR-1
    carry-chain miscompilation. Used by the bisection regression tests to
    prove the fuzzer names [unroll] as the first diverging pass; never set
    outside tests. *)

val unroll : block:int -> factor:int -> Expr.stmt list -> Expr.stmt list
(** Replicate the steady body with forward-propagated carries; seam
    restores are coalesced away for depth-1 carry chains (zero copies). *)

val fold_rexpr :
  analysis:Analysis.t -> trip:int option -> i:int option -> Rexpr.t -> Rexpr.t

val fold_cond :
  analysis:Analysis.t ->
  trip:int option ->
  i:int option ->
  Rexpr.cond ->
  [ `Known of bool | `Cond of Rexpr.cond ]

val specialize :
  analysis:Analysis.t ->
  trip:int option ->
  i:int option ->
  Expr.stmt list ->
  Expr.stmt list
(** Partial evaluation: resolve the counter/trip where known, folding guard
    conditionals to their live branch. *)

val vir_cleanup :
  v:int ->
  block:int ->
  prologue:Expr.stmt list ->
  body:Expr.stmt list ->
  epilogues:Expr.stmt list list ->
  Expr.stmt list * Expr.stmt list * Expr.stmt list list
(** The dataflow-backed whole-program cleanup (copy propagation, shift
    combining, invariant hoisting, back-edge-aware DCE); value-exact and
    re-validated by the checker at its pass boundary. Preserves the
    epilogue segment count. *)
