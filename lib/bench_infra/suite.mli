(** Experiment drivers reproducing §5's figures and tables, plus the
    extension ablations. Each driver returns plain data (tests assert on
    trends) and has a renderer used by the evaluation driver
    [bench/main]. *)

open Simd_loopir
module Policy = Simd_dreorg.Policy
module Driver = Simd_codegen.Driver

type scheme = { policy : Policy.t; reuse : Driver.reuse }

val scheme_name : scheme -> string
val all_schemes : scheme list

val config_of_scheme :
  machine:Simd_machine.Config.t -> reassoc:bool -> scheme -> Driver.config

(** {2 Figures 11 & 12: OPD breakdown per scheme} *)

type opd_row = {
  name : string;
  lb_opd : float;
  shift_overhead : float;  (** measured reorganization beyond the bound *)
  other_overhead : float;
  total_opd : float;
  hmean_opd : float;
}

type opd_figure = {
  seq_opd : float;
  rows : opd_row list;
  loops : int;
  reassoc : bool;
}

val opd_figure :
  machine:Simd_machine.Config.t ->
  spec:Synth.spec ->
  count:int ->
  reassoc:bool ->
  opd_figure

val pp_opd_figure : Format.formatter -> opd_figure -> unit

(** {2 Tables 1 & 2: best-scheme speedups} *)

type speedup_row = {
  label : string;
  stmts : int;
  loads : int;
  ct_policy : string;
  ct_actual : float;
  ct_lb : float;
  rt_policy : string;
  rt_actual : float;
  rt_lb : float;
}

type speedup_table = {
  elem : Ast.elem_ty;
  peak : int;
  rows : speedup_row list;
  loops_per_row : int;
}

val best_scheme :
  machine:Simd_machine.Config.t ->
  reassoc:bool ->
  schemes:scheme list ->
  Ast.program list ->
  scheme * float * float

val speedup_table :
  machine:Simd_machine.Config.t ->
  elem:Ast.elem_ty ->
  ?shapes:(int * int) list ->
  ?count:int ->
  ?base_spec:Synth.spec ->
  unit ->
  speedup_table

val pp_speedup_table : Format.formatter -> speedup_table -> unit

(** {2 §5.4 coverage} *)

type coverage_failure = {
  spec : Synth.spec;
  variant : string;
  scheme : string;
  message : string;
}

type coverage_report = {
  attempted : int;
  verified : int;
  failures : coverage_failure list;
}

val coverage :
  machine:Simd_machine.Config.t -> ?seed:int -> ?loops:int -> unit -> coverage_report

val pp_coverage : Format.formatter -> coverage_report -> unit

(** {2 Ablations (extensions)} *)

type ablation_row = { knob : string; value : string; opd : float; speedup : float }
type ablation = { title : string; rows : ablation_row list }

val pp_ablation : Format.formatter -> ablation -> unit

val ablation_reuse_unroll :
  machine:Simd_machine.Config.t ->
  ?spec:Synth.spec ->
  ?count:int ->
  unit ->
  ablation
(** Reuse × unrolling with copies charged at weight 1 (§4.5's claim). *)

val ablation_memnorm : machine:Simd_machine.Config.t -> unit -> ablation
val ablation_vector_length : ?spec:Synth.spec -> ?count:int -> unit -> ablation
val ablation_elem_width :
  machine:Simd_machine.Config.t -> ?count:int -> unit -> ablation

type peel_row = { bias : float; peel_ok : int; ours_ok : int; total : int }

val peeling_coverage :
  machine:Simd_machine.Config.t -> ?count:int -> unit -> peel_row list
(** Fraction of loops the prior-work peeling baseline can simdize at all,
    by alignment bias, vs this scheme. *)

val pp_peeling : Format.formatter -> peel_row list -> unit

(** {2 JSON serialization (bench [--json])} *)

val opd_figure_to_json : opd_figure -> Simd_support.Json.t
val speedup_table_to_json : speedup_table -> Simd_support.Json.t
val coverage_to_json : coverage_report -> Simd_support.Json.t
