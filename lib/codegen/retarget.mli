(** Vector-length-agnostic retargeting: re-instantiate one placed
    compilation ({!Driver.outcome}) at a different vector length V′
    without rerunning shift placement.

    Shift placement is structural — which streams are reorganized and
    where the [vshiftstream]s sit — and mostly survives a change of V;
    what does {e not} survive are the numeric stream offsets
    ([(base + offset·D) mod V]), the blocking factor B = V′/D, and every
    prologue/epilogue bound derived from them (Eqs. 8–16). [retarget]
    keeps the structure, renumbers the offsets at V′, repairs the places
    where an offset equality held at V but not at V′ (and drops shifts
    that became no-ops), then lowers the graphs through {!Driver.lower} —
    the driver's own generation, pass pipeline and boundary checks — so
    the bound math is recomputed and {!Simd_check.Check} discharges the
    retargeted obligations as the correctness gate.

    The driving use case is the backend matrix ({!Simd_emit.Matrix}): one
    placement at the default V = 16 feeds the AltiVec/SSE/NEON emitters
    directly and retargets to V′ = 32 for AVX2 (or V′ = 64 for a future
    AVX-512) without re-placement. *)

module Policy = Simd_dreorg.Policy
module Json = Simd_support.Json

(** How one statement's placed graph survived the retarget. *)
type status =
  | Preserved  (** shift structure unchanged; only offsets renumbered *)
  | Repaired of int
      (** structure kept with [n] edits: repair shifts inserted at leaves
          whose V′ offset no longer meets the context requirement, and
          shifts dropped as V′ no-ops *)
  | Replaced of Policy.t
      (** the preserved structure was not lowerable at V′ (an unsupported
          runtime reorganization direction) — the statement was re-placed
          from scratch with this policy *)

val status_name : status -> string
(** ["preserved"] / ["repaired"] / ["replaced"]. *)

val pp_status : Format.formatter -> status -> unit
(** Like {!status_name} but with the repair count / fallback policy. *)

type t = {
  outcome : Driver.outcome;
      (** a full compilation at V′: retargeted graphs, regenerated and
          re-optimized program, fresh analysis, and the verifier results
          at {!Driver.lower}'s boundaries in [outcome.checks] *)
  statuses : status list;  (** per statement, same order as the graphs *)
  from_vl : int;  (** V of the source compilation *)
  to_vl : int;  (** V′ this result targets *)
}

val supported_vls : int list
(** The vector lengths the backend matrix sweeps: [\[16; 32; 64\]]. *)

val retarget : vector_len:int -> Driver.outcome -> (t, Driver.reason) result
(** [retarget ~vector_len o] — re-instantiate [o] at V′ = [vector_len]
    (a power of two in [\[4, 64\]]).

    The retargeted graphs are lowered by {!Driver.lower} with checking
    on — retargeting exists to be verified — so [outcome.checks] holds the
    same boundaries as a [Driver.simdize ~check:true] compilation.

    Errors mirror {!Driver.simdize}'s scalar reasons: the program may be
    illegal at V′ ([Illegal] — e.g. an array's declared base alignment no
    longer covers a whole vector) or the trip count may not reach the 3B
    guard at the wider block ([Trip_too_small], Eq. 16). The source
    outcome's [peel_baseline] is not re-asserted: peeling applicability
    is V-dependent, and the retarget answers for the placed graphs, not
    the baseline's claim. *)

val retarget_exn : vector_len:int -> Driver.outcome -> t
(** {!retarget} raising on scalar fallback (tests). *)

val sweep :
  ?vector_lens:int list -> Driver.outcome -> (int * (t, Driver.reason) result) list
(** {!retarget} at every V′ in [vector_lens] (default
    {!supported_vls}), in order. *)

val counts : t -> int * int * int
(** [(preserved, repaired, replaced)] statement totals. *)

val to_json : t -> Json.t
(** Summary object for [bench --json] / [BENCH_backends.json]: VLs,
    per-statement statuses, status totals, verifier violation count, and
    the V′ cost report's weighted totals. *)
