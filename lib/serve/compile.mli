(** The "compile once" half of the service: one request in, one artifact
    out — a pure function hoisted out of the driver front ends so the
    server, the load generator, the bench harness, and tests all share
    the same path.

    [run] parses, simdizes under the request's configuration with the
    static verifier on, prices the result ({!Simd_opt.Report}), and emits
    the requested code sections. The outcome (and hence its JSON
    document) is a pure function of (source, config, emits,
    {!Protocol.library_version}) — which is exactly the artifact-cache
    key, so serving from cache is indistinguishable from recompiling. *)

module Json = Simd_support.Json
module Cas = Simd_support.Cas

(** One requested code section: the emitted text, or the reason the
    emit was skipped (an ISA backend whose native vector length differs
    from the request's [vl] — skipped, not failed). *)
type output = Text of string | Skipped of string

type artifact = {
  policy : string;  (** requested placement policy (by name) *)
  policies_used : string list;  (** per statement, after fallbacks *)
  shared_streams : int;
  outputs : (string * output) list;
      (** emit name → output, in request order: ["vir"], ["c"], ... *)
  report : Json.t;  (** the {!Simd_opt.Report} cost document *)
  check_ok : bool;  (** no static-verifier violations *)
  check : Json.t;  (** {!Simd_codegen.Driver.check_to_json} *)
  lint : Json.t;  (** the simd-lint/2 report ({!Simd_lint.Lint}) *)
}

type outcome =
  | Artifact of artifact
  | Scalar of string  (** driver legitimately declined; the reason *)
  | Invalid of string  (** unparseable source or illegal loop *)

val run : Protocol.request -> outcome
(** Compile, ignoring [request.id]. Never raises: parser and driver
    errors become {!Invalid}/{!Scalar}. *)

val outcome_to_json : outcome -> Json.t
(** The response payload: [{"status":"ok","artifact":{...}}],
    [{"status":"scalar","reason":...}], or
    [{"status":"error","message":...}]. Deterministic. *)

val cache_key : Protocol.request -> string
(** {!Simd_support.Cas.key} over library version × canonical config ×
    emit selection × source. The id is excluded — identical work shares
    one entry regardless of who asks. *)

val run_cached : Cas.t -> Protocol.request -> Json.t * [ `Hit | `Miss ]
(** The outcome document, served from the store when present. A cached
    document that fails to parse (impossible under the store's integrity
    envelope, but defended anyway) is rebuilt, never served. *)
