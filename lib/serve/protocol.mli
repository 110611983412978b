(** The compile-service wire protocol, [simd-serve/1]: newline-delimited
    JSON in both directions. One request object per line in, one response
    object per line out, responses in request order.

    A {e compile request} is a [.simd] source × driver configuration ×
    output selection:

    {v
      {"id":"r1",
       "source":"int32 a[64] @ 0; ...",
       "config":{"vl":16,"policy":"joint","reuse":"sp","unroll":2},
       "emit":["vir","c"]}
    v}

    Every [config] field is optional and defaults to the driver default;
    the field names and values are {!Driver.config_fields}, the
    vocabulary of the fuzz header in [docs/LANGUAGE.md]. [emit] selects the
    artifact's code sections from ["vir"], ["c"], ["altivec"], ["sse"],
    ["avx2"], ["neon"] (default [["vir","c"]]). An ISA emit whose native
    vector length differs from the request's [vl] yields a skipped-output
    object instead of C text (see [docs/SERVER.md]) — the request still
    succeeds.

    {e Control requests} carry an [op] instead of a [source]:
    [{"op":"ping"}], [{"op":"stats"}] (telemetry snapshot — the one
    deliberately non-deterministic response), [{"op":"shutdown"}].

    Responses to compile requests are a pure function of
    (source, config, emit, library version) — byte-deterministic across
    runs, batch sizes, worker counts, and cache state. *)

module Driver = Simd_codegen.Driver
module Json = Simd_support.Json

val schema : string
(** ["simd-serve/1"]. *)

val library_version : string
(** Token folded into every cache key: bump it whenever compilation
    output can change, and stale artifacts become unreachable. *)

type emit = Vir | C | Altivec | Sse | Avx2 | Neon

val emit_name : emit -> string
val emit_of_name : string -> emit option
(** Accepts every {!emit_name} plus ["portable"] for [C]. *)

val default_emits : emit list
(** [[Vir; C]]. *)

type request = {
  id : string;  (** echoed verbatim in the response *)
  source : string;  (** the [.simd] program text *)
  config : Driver.config;
  emits : emit list;
}

type parsed =
  | Compile of request
  | Ping
  | Stats
  | Shutdown
  | Malformed of { id : string option; message : string }
      (** unparseable line or bad field — answered with an error
          response, never fatal to the server *)

val parse_line : string -> parsed

val config_of_json : Json.t -> (Driver.config, string) result
(** Read a config object (all fields optional over [Driver.default])
    through {!Driver.config_fields}. Booleans may be written [0]/[1].
    Rejects unknown fields — a typo must not silently compile under
    defaults. *)

val config_to_json : Driver.config -> Json.t
(** Full field set, canonical order — [config_of_json] inverts it. *)

val request_to_line : request -> string
(** The request rendered as one protocol line (load generator, tests). *)

val response_line : id:string -> Json.t -> string
(** Wrap an outcome document ({!Compile.outcome_to_json}) with the
    request id into one response line. *)

val error_response : id:string -> string -> string
(** An error-status response line. *)
