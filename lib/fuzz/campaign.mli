(** Fuzzing campaigns: a seeded, reproducible budget of generated cases
    classified through the oracle, with failures minimized.

    A campaign is the deterministic chunk plan ({!plan}/{!run_chunk}/
    {!merge}) the parallel pool ({!Simd_par}) schedules: each chunk's
    PRNG stream is split from the campaign seed, so aggregate results are
    byte-identical for any worker count. {!run} runs the same plan
    in-process. *)

type stats = {
  total : int;
  passed : int;
  skipped : int;
  static_violations : int;
  divergences : int;
  crashes : int;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit
val stats_to_json : stats -> Simd_support.Json.t

type failure = {
  index : int;  (** 0-based case number within the campaign *)
  case : Case.t;
  minimized : Case.t;
  outcome : Oracle.outcome;
  culprit : Bisect.verdict option;
      (** pipeline bisection of the minimized case — the first pass whose
          output diverges; [None] when bisection was not requested *)
}

(** {2 Deterministic chunked sharding} *)

val default_chunk_size : int
(** 50 cases per chunk. *)

type chunk = {
  chunk_index : int;  (** position in the plan, 0-based *)
  chunk_seed : int;  (** split PRNG stream for this chunk alone *)
  first : int;  (** campaign index of the chunk's first case *)
  size : int;  (** number of cases in this chunk *)
}

val plan : ?chunk_size:int -> seed:int -> budget:int -> unit -> chunk list
(** The campaign's chunk list. Chunk [k]'s seed is a function of
    [(seed, k)] only — the plan never depends on scheduling. *)

val run_chunk :
  ?shrink:bool ->
  ?shrink_steps:int ->
  ?bisect:bool ->
  ?oracle:(Case.t -> Oracle.outcome) ->
  ?on_case:(int -> Case.t -> Oracle.outcome -> unit) ->
  chunk ->
  stats * failure list
(** Check one chunk — a pure function of the chunk (given the oracle),
    independent of every other chunk. Failure indices are
    campaign-global. *)

val merge : (stats * failure list) list -> stats * failure list
(** Aggregate per-chunk results (in plan order) into campaign totals;
    failures sorted by campaign index. *)

val run :
  ?shrink:bool ->
  ?shrink_steps:int ->
  ?bisect:bool ->
  ?oracle:(Case.t -> Oracle.outcome) ->
  ?on_case:(int -> Case.t -> Oracle.outcome -> unit) ->
  seed:int ->
  budget:int ->
  unit ->
  stats * failure list
(** [merge (List.map run_chunk (plan ~seed ~budget ()))]: the cases,
    outcomes, reproducers and bisection verdicts of a parallel campaign
    with the same seed and budget (at the default chunk size), for any
    worker count. [bisect] (default true) runs {!Bisect.run} on each
    minimized failure; [oracle] (default {!Oracle.run}) classifies cases
    and drives shrinking. *)
