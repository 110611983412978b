(** Pass-pipeline tracing: an observability layer the driver threads
    through one compilation, recording an ordered sequence of events —
    shift-placement provenance (which policy or solver rule placed each
    [vshiftstream] at which offset and what it cost under
    {!Simd_opt.Cost}), the generated IR, and one event per optimization
    pass with pre/post snapshots, structural diffs ({!Diff}) and
    operation-count deltas.

    Guarantees:

    - {b Zero cost when off}: the {!none} sink is inert; the driver guards
      snapshot construction behind {!active}, so untraced compilations do
      no extra work.
    - {b Deterministic}: {!pp} and {!to_json} with [~timings:false] (the
      default) are pure functions of the compilation — no timestamps —
      so transcripts can be embedded in [docs/] and drift-checked by CI.
    - {b Machine readable}: {!to_json} follows the [simd-trace/1] schema
      documented in [docs/TRACE.md]. *)

module Diff = Diff

(** {1 Snapshots} *)

(** One IR region, pretty-printed plus statically counted. *)
type section = { text : string; counts : Simd_vir.Prog.static_counts }

(** The three regions of a compilation in flight. *)
type snapshot = { prologue : section; body : section; epilogues : section }

val snapshot :
  prologue:Simd_vir.Expr.stmt list ->
  body:Simd_vir.Expr.stmt list ->
  epilogues:Simd_vir.Expr.stmt list list ->
  snapshot
(** Capture the current IR regions ([epilogues] is empty until derived). *)

(** {1 Events} *)

(** Provenance of one placed [vshiftstream]. *)
type shift_prov = {
  sp_from : Simd_dreorg.Offset.t;
  sp_to : Simd_dreorg.Offset.t;
  sp_dir : Simd_opt.Cost.direction option;
      (** lowering direction, [None] for a no-op *)
  sp_cost : float;  (** price under the machine cost model *)
}

(** One statement's shift placement: which policy (or solver, or the §4.4
    zero-shift fallback) produced the graph, where it put each shift, and
    what the statement costs. *)
type placement = {
  pl_index : int;  (** statement index in source order *)
  pl_source : string;  (** the statement, pretty-printed *)
  pl_requested : Simd_dreorg.Policy.t;
  pl_used : Simd_dreorg.Policy.t;
      (** differs from [pl_requested] under [Auto] selection or the
          zero-shift runtime-alignment fallback *)
  pl_target : Simd_dreorg.Offset.t;
      (** offset the value stream must reach (constraint C.2) *)
  pl_graph : string;  (** the placed reorganization graph, pretty-printed *)
  pl_shifts : shift_prov list;  (** in evaluation order *)
  pl_shift_cost : float;  (** the placement-variant cost term *)
  pl_cost : float;  (** full statement cost *)
}

type event =
  | Reassoc of { applied : bool; before : string; after : string }
      (** scalar-AST reassociation; [applied = false] records that the
          pass was configured off *)
  | Placement of placement
  | Generated of { mode : string; snap : snapshot }
      (** initial vector IR out of code generation *)
  | Pass of {
      name : string;
          (** a config-gated pass ([Simd_codegen.Driver.passes]) or a
              structural stage *)
      enabled : bool;  (** configured to run? (skips are recorded too) *)
      before : snapshot;
      after : snapshot;
      elapsed_ms : float;
          (** wall clock; excluded from comparable output *)
    }
  | Note of { label : string; body : string; timed : bool }
      (** free-form event from a subsystem outside the compilation
          pipeline (e.g. the {!Simd_par} pool's job log and stats);
          [timed] bodies carry wall-clock data and are excluded from the
          comparable output like pass durations *)
  | Check of { name : string; violations : string list }
      (** static-verifier findings first observed at pass boundary [name]
          (the driver's [~check] mode): pre-rendered [Simd_check.Check]
          violation strings. Only emitted when a boundary surfaces fresh
          violations, so untraced and check-free compilations never see
          this event. *)

(** {1 The sink} *)

type t

val none : t
(** The inert sink: {!active} is [false], {!add} does nothing. *)

val create : unit -> t
(** A fresh recording sink. *)

val active : t -> bool
(** Guard for callers: build snapshots/events only when this is [true]. *)

val add : t -> event -> unit
val events : t -> event list
(** Recorded events, oldest first. *)

val note : t -> ?timed:bool -> label:string -> string -> unit
(** [note t ~label body] — record a {!Note} (no-op on an inactive sink).
    Set [timed] when [body] carries wall-clock data, so the default
    deterministic renderings skip it. *)

val record_pass :
  t ->
  name:string ->
  enabled:bool ->
  'a ->
  snap:('a -> snapshot) ->
  ('a -> 'a) ->
  'a
(** [record_pass t ~name ~enabled state ~snap apply] — run [apply] on
    [state] (when [enabled]), recording a {!Pass} event with pre/post
    snapshots and wall time when [t] is {!active}. The inactive path calls
    neither [snap] nor the clock. *)

(** {1 Rendering} *)

val pp : ?timings:bool -> Format.formatter -> t -> unit
(** The human transcript: one block per event with unified line diffs and
    nonzero count deltas. Deterministic unless [timings] (default
    [false]). *)

val to_string : ?timings:bool -> t -> string

val to_json : ?timings:bool -> t -> Simd_support.Json.t
(** The full machine-readable trace, schema [simd-trace/1] (documented in
    [docs/TRACE.md]). Deterministic with [timings] off (the default). *)

(** {1 Summaries} *)

(** One row of the compact per-scheme summary. *)
type summary_row = {
  row_pass : string;
  row_enabled : bool;
  row_changed : bool;
  row_delta : (string * int) list;  (** nonzero body-count deltas *)
}

val summary : t -> summary_row list
(** The {!Pass} and {!Reassoc} events reduced to pass/enabled/changed/delta
    rows, pipeline order. *)

val summary_to_json : t -> Simd_support.Json.t
(** What [bench/main.exe --json] attaches per scheme. *)
