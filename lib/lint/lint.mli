(** Registry-based lint driver: named waste-and-suspicion rules over a
    compiled program, most of them evidence-backed by the cleanup
    rewriter's dry run ({!Simd_dataflow.Dataflow.Cleanup}). Every finding
    is a warning; correctness is {!Simd_check.Check}'s. See the
    implementation header for the rule catalogue. *)

type finding = {
  rule : string;  (** registry name, e.g. ["dead-vop"] *)
  where : string;  (** region + statement (["body#2"]) or ["program"] *)
  detail : string;
}

type report = {
  findings : finding list;  (** registry order, then region order *)
  counts : (string * int) list;  (** per rule, zeros included *)
}

(** One registry entry; {!rules} is the single source the CLI, JSON
    consumers, and docs enumerate. *)
type rule = { name : string; doc : string }

val rules : rule list

val run : Simd_codegen.Driver.outcome -> report
(** Lint a compilation. Runs one {!Simd_dataflow.Dataflow.Cleanup.dry_run}
    over the emitted regions plus the structural walks; does not rewrite
    anything. A compilation driven with [cleanup = true] lints clean of
    the evidence-backed rules by construction. *)

val clean : report -> bool

val pp_finding : Format.formatter -> finding -> unit
(** [warning <where> [<rule>]: <detail>]. *)

val report_to_json : report -> Simd_support.Json.t
(** The [simd-lint/2] document: schema tag, findings
    ([{"rule","where","detail"}]), and per-rule counts (zeros
    included). *)
