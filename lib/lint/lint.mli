(** Registry-based lint driver: named, severity-tagged waste-and-suspicion
    rules over a compiled program, most of them evidence-backed by the
    cleanup rewriter's dry run ({!Simd_dataflow.Dataflow.Cleanup}). See
    the implementation header for the rule catalogue and the exit-code
    contract. *)

type severity = Error | Warning

val severity_name : severity -> string
(** ["error"] or ["warning"], as printed and serialized. *)

type finding = {
  rule : string;  (** registry name, e.g. ["dead-vop"] *)
  severity : severity;
  where : string;  (** region + statement (["body#2"]) or ["program"] *)
  detail : string;
}

type report = {
  findings : finding list;  (** registry order, then region order *)
  counts : (string * int) list;  (** per rule, zeros included *)
  errors : int;
  warnings : int;
}

(** One registry entry; {!rules} is the single source the CLI, JSON
    consumers, and docs enumerate. *)
type rule = { name : string; severity : severity; doc : string }

val rules : rule list
val find_rule : string -> rule

val run : Simd_codegen.Driver.outcome -> report
(** Lint a compilation. Runs one {!Simd_dataflow.Dataflow.Cleanup.dry_run}
    over the emitted regions plus the structural walks; does not rewrite
    anything. A compilation driven with [cleanup = true] lints clean of
    the evidence-backed rules by construction. *)

val clean : report -> bool

val exit_code : strict:bool -> report -> int
(** The one exit-code policy shared by [simdlint.exe] and
    [simdize --lint]: any error exits [2]; warnings exit [1] under
    [~strict:true] and [0] otherwise; a clean report exits [0].
    ([simdize --check] exits [2] on any verifier violation.) *)

val pp_finding : Format.formatter -> finding -> unit

val report_to_json : report -> Simd_support.Json.t
(** The [simd-lint/1] document: schema tag, findings, per-rule counts
    (zeros included), and the error/warning totals. *)
