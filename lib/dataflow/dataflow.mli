(** A generic iterative dataflow engine over the emitted vector IR.

    The VIR of a compilation is three regions — prologue, steady body,
    epilogue segments — of mostly straight-line statements, with [If]
    guards only inside epilogues. This module provides the shared
    region walks (forward, backward, bounded fixpoints) and the four
    shipped analyses: liveness ({!Live}), reaching definitions and the
    carried-temp discipline ({!Reach} / {!Defs}), available shift
    expressions ({!Avail}), and stream-offset constant propagation on
    the {!Absoff} lattice ({!Offsets}, the one stream-offset evaluator,
    whose per-node hook carries the verifier's obligations). {!Cleanup}
    is the dataflow-backed rewriter behind the driver's [vir_cleanup]
    pass and the linter's evidence.

    Statement numbering convention (shared with [Simd.Check]):
    statements are numbered by top-level position in their region;
    statements inside an [If] inherit the guard's index. *)

open Simd_vir
module SM = Simd_support.Util.String_map
module SS = Simd_support.Util.String_set

(** {1 The engine} *)

val forward :
  leaf:(idx:int -> 'a -> Expr.stmt -> 'a) ->
  guard:(idx:int -> 'a -> Expr.stmt -> unit) ->
  join:('a -> 'a -> 'a) ->
  idx0:int ->
  'a ->
  Expr.stmt list ->
  'a
(** Forward walk. [leaf] transfers over non-[If] statements; [guard]
    observes each [If] (both branches then run from the pre-guard state
    with the guard's index) and [join] merges the branch exits. *)

val backward :
  leaf:('a -> Expr.stmt -> 'a) ->
  join:('a -> 'a -> 'a) ->
  'a ->
  Expr.stmt list ->
  'a
(** Backward walk; an [If]'s in-fact is the [join] of its branches'. *)

val fixpoint :
  ?rounds:int ->
  equal:('a -> 'a -> bool) ->
  widen:('a -> 'a -> 'a) ->
  f:('a -> 'a) ->
  'a ->
  'a
(** Bounded Kleene iteration: apply [f] until [equal] (at most [rounds]
    times, default 4), then force convergence with one [widen] step. *)

val env_equal : Absoff.t SM.t -> Absoff.t SM.t -> bool

val join_env : v:int -> Absoff.t SM.t -> Absoff.t SM.t -> Absoff.t SM.t
(** Optimistic branch join: agreeing bindings merge, one-sided bindings
    survive as-is. *)

val widen_env : Absoff.t SM.t -> Absoff.t SM.t -> Absoff.t SM.t
(** Loop-entry widening: any disagreement or one-sided binding goes to
    [Top]. *)

(** {1 Liveness} *)

module Live : sig
  val add_reads : SS.t -> Expr.vexpr -> SS.t
  (** Add every temp read by the expression. *)

  val transfer : SS.t -> Expr.stmt -> SS.t
  (** One-statement backward liveness transfer (non-[If]). *)

  val live_in : SS.t -> Expr.stmt list -> SS.t
  (** Temps live on entry given the live-out set. *)

  val loop_out : body:Expr.stmt list -> SS.t -> SS.t
  (** Live-out of a loop body whose exit feeds the given tail set: the
      least set closed under the back edge. *)

  val reads_of : Expr.stmt list -> SS.t
  (** Every temp read anywhere in the statements. *)
end

(** {1 Reaching definitions: the carried-temp discipline} *)

module Reach : sig
  val stmt_reads : string list -> Expr.stmt -> string list
  (** Temps read by one statement, prepended in reverse evaluation
      order (accumulator convention of the checker). *)

  val stmt_defs : Expr.stmt -> string list

  type carried = {
    ca_name : string;
    ca_first_read : int;  (** index of the first (pre-definition) read *)
  }
  (** A loop-carried temporary: read before any body definition. *)

  val carried_temps : Expr.stmt list -> carried list
  (** The loop-carried temporaries of a body, in first-read order. *)
end

(** {1 Definition summaries} *)

module Defs : sig
  type t = {
    last : Expr.vexpr SM.t;
    first_idx : int SM.t;
    count : int SM.t;
  }

  val scan : Expr.stmt list -> t
  (** Top-level definition summary of a region. [If]-defined names are
      poisoned (never single-def). *)

  val single_def : t -> string -> (int * Expr.vexpr) option
  (** The unique top-level definition of a temp, if it has exactly one. *)

  val resolve : ?n:int -> t -> Expr.vexpr -> Expr.vexpr
  (** Chase a temp through single definitions, at most [n] (default 8)
      hops. Structural only — see {!Avail.safe} for value validity. *)
end

(** {1 Available expressions} *)

module Avail : sig
  type t = { defs : Defs.t; stored : SS.t array; all_stored : SS.t }

  val analyze : Expr.stmt list -> t

  val safe : t -> src:int -> use:int -> Expr.vexpr -> bool
  (** Does [e], taken from statement [src], still denote the same value
      at statement [use] ([src < use], one execution of the region)?
      True when no temp read by [e] is redefined and no array loaded by
      [e] is stored between the two points. *)

  val as_shift :
    t -> use:int -> Expr.vexpr -> (int * Expr.vexpr * Expr.vexpr * int) option
  (** View a shiftpair half as an available compile-time shift:
      [(source index, first half, second half, amount)] — either an
      inline [Shiftpair] or a temp single-defined as one before [use]. *)
end

(** {1 Stream-offset constant propagation} *)

module Offsets : sig
  type ctx = {
    v : int;
    elem : int;
    lookup : string -> int option;
        (** compile-time base alignment of an array, if known *)
    opaque_loads : bool;
        (** MemNorm ran: known-aligned load offsets are gone *)
  }

  val load_off : ctx -> Addr.t -> Absoff.t
  val eval_rexpr : ctx -> Rexpr.t -> Absoff.t

  val eval :
    ?visit:(Expr.vexpr -> Absoff.t list -> unit) ->
    ctx ->
    Absoff.t SM.t ->
    Expr.vexpr ->
    Absoff.t
  (** The abstract stream offset of an expression. [visit] is called on
      every node post-order, once per node, with the offsets of its
      operands in operand order ([[]] for leaves). A register rotation
      [vshiftpair(x, x, s)] evaluates [x] once and passes its offset for
      both halves; the rotation's own result is [Top]. [Simd.Check]
      discharges its per-node proof obligations in [visit]. *)

  val transfer : ctx -> idx:int -> Absoff.t SM.t -> Expr.stmt -> Absoff.t SM.t

  val exec : ctx -> Absoff.t SM.t -> Expr.stmt list -> Absoff.t SM.t
  (** Propagate an offset environment through a region. *)

  val entry : ctx -> Absoff.t SM.t -> Expr.stmt list -> Absoff.t SM.t
  (** The loop-entry environment: widened fixpoint of the body transfer
      from the prologue exit. *)
end

(** {1 The cleanup rewriter} *)

module Cleanup : sig
  type action =
    | Combined of { where : string; detail : string }
    | Propagated of { where : string; temp : string }
    | Hoisted of { where : string; temp : string }
    | Removed of { where : string; temp : string; clobber : bool }
        (** [clobber]: the name is read elsewhere but this value never
            reaches a read (write-before-read) *)

  val action_where : action -> string

  val run :
    v:int ->
    block:int ->
    prologue:Expr.stmt list ->
    body:Expr.stmt list ->
    epilogues:Expr.stmt list list ->
    (Expr.stmt list * Expr.stmt list * Expr.stmt list list) * action list
  (** Copy propagation, shift combining, invariant hoisting and
      liveness DCE, iterated to a fixpoint (at most 8 rounds). Every
      rewrite is value-exact; callers re-validate with [Simd.Check] at
      the pass boundary. Epilogue segment count is preserved. *)

  val dry_run :
    v:int ->
    block:int ->
    prologue:Expr.stmt list ->
    body:Expr.stmt list ->
    epilogues:Expr.stmt list list ->
    action list
  (** The actions {!run} would take, without rewriting anything. *)

  val dce_epilogues : Expr.stmt list list -> Expr.stmt list list
  (** {!run}'s liveness DCE over the epilogue segments alone: they are
      the program tail, so an assignment nothing downstream reads is
      dropped, and so is a conditional that empties. *)
end
