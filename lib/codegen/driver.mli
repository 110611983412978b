(** The simdization driver: analysis → (reassociation) → shift placement →
    code generation → optimization passes → epilogue derivation.

    Pass a {!Simd_trace.Trace} sink via [?trace] to record every decision
    of a compilation — reassociation, per-statement shift-placement
    provenance, the generated IR, and one event per optimization stage
    with pre/post snapshots. Tracing is zero-cost when the sink is
    {!Simd_trace.Trace.none} (the default). *)

open Simd_loopir
open Simd_vir
module Policy = Simd_dreorg.Policy
module Graph = Simd_dreorg.Graph
module Reassoc = Simd_dreorg.Reassoc
module Trace = Simd_trace.Trace
module Check = Simd_check.Check

(** Cross-iteration reuse strategy (§5.5). *)
type reuse = No_reuse | Predictive_commoning | Software_pipelining
[@@deriving show, eq]

val reuse_name : reuse -> string
(** [plain], [pc] or [sp]. *)

val reuse_of_name : string -> reuse option
(** Inverts {!reuse_name} and also accepts [none] for [No_reuse]. *)

type config = {
  machine : Simd_machine.Config.t;
  policy : Policy.t;
  reuse : reuse;
  memnorm : bool;
  reassoc : bool;
  cse : bool;
  hoist_splats : bool;
  unroll : int;  (** ≥ 1; 2 removes depth-1 pipelining copies (§4.5) *)
  specialize_epilogue : bool;
  peel_baseline : bool;  (** prior-work baseline: require peeling applicability *)
  cleanup : bool;
      (** dataflow-backed VIR cleanup after placement
          ({!Passes.vir_cleanup}) *)
}

val default : config
(** 16-byte machine, dominant-shift, software pipelining, MemNorm + CSE +
    splat hoisting on, no reassociation, no unrolling. *)

(** {1 The config vocabulary}

    One codec for every external form of a {!config}: reproducer headers,
    serve requests and serve cache keys all go through {!config_fields}. *)

(** A field value; its constructor is the field's kind. *)
type value = Int of int | Bool of bool | Name of string

type field = {
  key : string;
  get : config -> value;
  set : config -> value -> config;
      (** raises [Invalid_argument] on an unknown policy or reuse name, an
          unsupported vector length, or a value of another kind *)
}

val config_fields : field list
(** [vl policy reuse memnorm reassoc cse hoist unroll specialize peel
    cleanup], in canonical order. Setting [vl] resets the machine's cost
    weights, which are not a field. *)

val config_to_string : config -> string
(** The canonical [key=value] line, booleans as [0]/[1]; two configs with
    the same cost weights are equal iff their lines are. *)

val value_of_string : value -> string -> value option
(** [value_of_string like s] — [s] read as a value of [like]'s kind
    ([false]/[true] are booleans too); inverts {!config_to_string}. *)

val update_config :
  read:(value -> 'raw -> value option) ->
  config ->
  (string * 'raw) list ->
  (config, string) result
(** [config] with each [(key, raw)] pair applied in order, [read like raw]
    reading [raw] as a value of [like]'s kind. The error names the first
    unknown key, unreadable value or rejected value. *)

(** {1 The optional passes} *)

type pass = {
  name : string;  (** the name of its trace events *)
  charter : string;
  enabled : config -> bool;
  disable : config -> config;  (** the identity when already off *)
}

val passes : pass list
(** The config-gated passes in application order: [reassoc],
    [hoist_splats], [memnorm], [cse], [predictive_commoning], [unroll],
    [specialize_epilogue], [vir_cleanup]. *)

type reason =
  | Illegal of Analysis.error
  | Trip_too_small of { trip : int; needed : int }
  | Peeling_inapplicable of Peel.verdict

val pp_reason : Format.formatter -> reason -> unit

type outcome = {
  prog : Prog.t;
  analysis : Analysis.t;
  graphs : (Ast.stmt * Graph.t) list;
  policies_used : Policy.t list;
      (** per statement; [Zero] where runtime alignments forced the
          fallback (§4.4) *)
  shared_streams : Simd_opt.Joint.shared list;
      (** reorganization chains occurring in more than one placed graph —
          one shared [vshiftstream] after value numbering. Detected under
          every policy; [joint] steers placement toward them. *)
  config : config;
  checks : (string * Check.result) list;
      (** static-verifier results per pass boundary (pipeline order) when
          compiled with [~check:true]; each boundary holds only the
          violations first observed there, so the boundary name is the
          offending pass. Empty when checking was off. *)
}

type result = Simdized of outcome | Scalar of reason

val lower :
  ?trace:Trace.t ->
  ?check:bool ->
  config ->
  analysis:Analysis.t ->
  (Ast.stmt * Graph.t * Policy.t) list ->
  (outcome, Gen.error) Stdlib.result
(** [lower config ~analysis placed] — the back half of {!simdize}: placed
    graphs (each with the policy that placed it, in body order) to a
    compilation. It generates the vector IR ({!Gen.generate}), runs the
    optimization passes — each config-gated stage enabled as its
    {!passes} row says — and derives the epilogues. {!Retarget} lowers its
    re-instantiated graphs through here as well.

    [?check] (default [false]) runs the static verifier
    ({!Simd_check.Check}) at every boundary: [placement], [generate], one
    after every stage whether it ran or not ([hoist_splats], [memnorm],
    [cse], [predictive_commoning], [cse], [unroll], [derive_epilogues],
    [finalize_reductions], [dce], [vir_cleanup]) and [final]. An unroll
    that ran is also translation-validated ({!Simd_check.Check.check_unroll})
    at its boundary, ahead of its region check. [?trace] receives the
    placement, generation, pass and check events. The error is
    {!Gen.generate}'s. *)

val simdize : ?trace:Trace.t -> ?check:bool -> config -> Ast.program -> result
(** The whole pipeline: if-conversion, legality, reassociation, the
    peeling gate and shift placement, then {!lower}. [?trace] (default
    {!Simd_trace.Trace.none}) receives the ordered event stream of this
    compilation. [?check] (default [false]) is {!lower}'s — per-boundary
    results in [outcome.checks] (and, when tracing, as [Trace.Check]
    events). *)

val simdize_exn :
  ?trace:Trace.t -> ?check:bool -> config -> Ast.program -> outcome
(** [simdize] that raises on scalar fallback (tests). *)

val check_violations : outcome -> (string * Check.violation) list
(** All static-verifier violations of a [~check:true] compilation in
    boundary order, each paired with the pass boundary that first surfaced
    it (empty for clean or check-free compilations). *)

val check_facts : outcome -> Check.facts
(** Total proof obligations discharged across all boundaries. *)

val check_to_json : outcome -> Simd_support.Json.t
(** The verifier's document, [{"ok", "violations", "facts"}]: whether
    {!check_violations} is empty, each violation as
    {!Simd_check.Check.violation_to_json}, and {!check_facts}. Serve
    artifacts and bench's static reports embed it. *)

val report : outcome -> Simd_opt.Report.t
(** The compilation's static cost report: per-statement streams, chosen
    shifts, operation counts, weighted cost, and the cost under every other
    placeable policy. *)
