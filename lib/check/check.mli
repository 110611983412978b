(** The pass-boundary static verifier: proves the paper's alignment
    invariants and VIR well-formedness on every compilation.

    Three entry points, one per IR level:

    - {!check_graphs} re-validates the placed data-reorganization graphs —
      (C.2) root offset = store alignment, (C.3) matching operand offsets;
    - {!check_regions} abstractly interprets emitted VIR: the stream
      offsets (the {!Absoff} lattice) are computed by
      {!Simd_dataflow.Dataflow.Offsets.eval}, and the checker discharges
      its obligations in that walk's per-node hook — (C.3) at each
      [vop]/[vcmp]/[vshiftpair]/[vsplice]/[vsel], the [vshiftpair]
      adjacency discipline (the two halves must be the current and next
      register of one stream), in-range shift amounts and splice points,
      and def-before-use — plus (C.2) at each store and the prologue's
      initialization of every loop-carried temporary;
    - {!check_prog} adds the whole-program structural checks against the
      paper's bound formulas: LB = B (Eq. 12), UB per Eqs. 11/13/15, the
      trip guard [3B] (Eq. 16), the prologue splice point (Eq. 8), the
      [unroll + 1] virtual epilogue iterations, per-segment epilogue store
      specialization (Eq. 9/14), and — when a peel amount is supplied — the
      peeling baseline's alignment claim.

    Every violation is an error: a broken invariant, named by its [rule]
    (see [docs/CHECK.md] for the catalogue), with the program point and
    the offset derivation that failed. Wasted work in correct code is
    [Simd.Lint]'s to report. [facts] counts how many obligations were
    discharged, so callers can assert the checker actually proved
    something (non-vacuity). *)

open Simd_loopir
open Simd_vir
module Graph = Simd_dreorg.Graph

type violation = {
  rule : string;  (** "C.2", "C.3", "adjacency", "def-before-use", ... *)
  where : string;  (** region + statement, e.g. ["body#2"] *)
  detail : string;  (** the derivation that failed *)
}

(** Discharged proof obligations (non-vacuity evidence). *)
type facts = {
  ops_proved : int;  (** vector ops with provably matching operands *)
  stores_proved : int;  (** stores with provably matching root offset *)
  shifts_proved : int;  (** shifts with proven adjacency/offset *)
  seams_proved : int;
      (** carried temporaries whose unroll-seam value was validated *)
}

type result = { violations : violation list; facts : facts }

val no_facts : facts
val add_facts : facts -> facts -> facts
val pp_violation : Format.formatter -> violation -> unit
(** [error[rule] where: detail]. *)

val violation_to_string : violation -> string
val violation_to_json : boundary:string -> violation -> Simd_support.Json.t
(** [{"boundary", "rule", "where", "detail"}], where [boundary] names the
    pass boundary that surfaced the violation. *)

val facts_to_json : facts -> Simd_support.Json.t

val check_graphs :
  analysis:Analysis.t -> (Ast.stmt * Graph.t) list -> result
(** Re-validate placed reorganization graphs ((C.2)/(C.3) via
    {!Simd_dreorg.Graph.validate}). *)

val check_regions :
  analysis:Analysis.t ->
  ?loads_normalized:bool ->
  prologue:Expr.stmt list ->
  body:Expr.stmt list ->
  epilogues:Expr.stmt list list ->
  unit ->
  result
(** Abstractly interpret the three IR regions in execution order
    (prologue from an empty environment; body to a fixpoint over the
    loop-carried temps; epilogue segments sequentially).

    [loads_normalized] (default false) must be set once MemNorm has
    rewritten compile-time-aligned load addresses to their V-aligned
    chunks: from that point those loads' stream offsets are no longer
    recoverable from the address, so they evaluate to [Top] (the
    obligations were already discharged at the pre-MemNorm boundaries).
    Runtime-aligned loads are untouched by MemNorm and stay symbolic. *)

val check_unroll :
  analysis:Analysis.t ->
  factor:int ->
  pre:Expr.stmt list ->
  post:Expr.stmt list ->
  result
(** Translation validation for the unroll pass: value-number [factor]
    displaced executions of [pre] (the steady body before unrolling) and
    one execution of [post] (the unrolled body) over a shared table, then
    require every loop-carried temporary to end both executions with the
    same symbolic value ([carried-clobber] otherwise — the PR-1
    seam-restore miscompilation, invisible to per-statement offset checks
    because the clobbering value sits at the same offset mod V) and both
    executions to perform identical store sequences ([unroll-equiv]).
    Bodies containing conditionals are not unrolled and are skipped. *)

val check_prog :
  ?peel_amount:int ->
  ?loads_normalized:bool ->
  analysis:Analysis.t ->
  Prog.t ->
  result
(** {!check_regions} plus the structural bound checks (Eqs. 8–16) on a
    complete simdized program. [peel_amount] (the peeling baseline's
    choice) additionally asserts every compile-time reference alignment is
    cancelled by peeling that many iterations. *)
