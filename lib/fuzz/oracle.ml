(** The differential oracle: run one fuzz case through the scalar
    interpreter and the full simdization pipeline on identical noise-filled
    memory (via {!Simd_bench.Measure.verify}) and classify the outcome.

    [Pass] — byte-identical arenas (including the guard-fallback path for
    trips below the [3B] bound). [Skipped] — the driver legitimately left
    the loop scalar (trip guard with a compile-time bound, peeling baseline
    refusals). [Static_violation] — the pass-boundary verifier
    ({!Simd_check.Check}, run first) refuted an alignment or
    well-formedness invariant: a miscompilation caught without executing
    anything. [Divergence] — the simdized execution produced different
    memory than the scalar oracle: a miscompilation. [Crash] — the compiler
    or simulator raised: an internal invariant broke. *)

module Driver = Simd_codegen.Driver
module Measure = Simd_bench.Measure

type outcome =
  | Pass
  | Skipped of string
  | Static_violation of string
  | Divergence of string
  | Crash of string

let is_failure = function
  | Pass | Skipped _ -> false
  | Static_violation _ | Divergence _ | Crash _ -> true

(** [same_class a b] — same outcome constructor (shrinking preserves the
    failure class, not the exact message). *)
let same_class a b =
  match (a, b) with
  | Pass, Pass -> true
  | Skipped _, Skipped _ -> true
  | Static_violation _, Static_violation _ -> true
  | Divergence _, Divergence _ -> true
  | Crash _, Crash _ -> true
  | _ -> false

let outcome_name = function
  | Pass -> "pass"
  | Skipped _ -> "skipped"
  | Static_violation _ -> "static_violation"
  | Divergence _ -> "divergence"
  | Crash _ -> "crash"

let pp_outcome fmt = function
  | Pass -> Format.pp_print_string fmt "pass"
  | Skipped m -> Format.fprintf fmt "skipped (%s)" m
  | Static_violation m -> Format.fprintf fmt "STATIC VIOLATION: %s" m
  | Divergence m -> Format.fprintf fmt "DIVERGENCE: %s" m
  | Crash m -> Format.fprintf fmt "CRASH: %s" m

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The static half of the oracle: compile once with the pass-boundary
   verifier on and surface the first violation, prefixed with the
   boundary that introduced it. Scalar fallbacks fall through to the
   dynamic differential below. *)
let static_check (c : Case.t) : string option =
  match Driver.simdize ~check:true c.Case.config c.Case.program with
  | Driver.Scalar _ -> None
  | Driver.Simdized o -> (
    match Driver.check_violations o with
    | [] -> None
    | (boundary, v) :: _ ->
      Some
        (Printf.sprintf "at %s: %s" boundary
           (Driver.Check.violation_to_string v)))

(** [run case] — classify one case: the static verifier first (a refuted
    invariant is a miscompilation even when the arenas happen to agree),
    then the dynamic differential. Never raises: compiler and simulator
    exceptions are folded into [Crash]. *)
let run (c : Case.t) : outcome =
  match static_check c with
  | Some msg -> Static_violation msg
  | None | (exception _) -> (
    match
      Measure.verify ~config:c.Case.config ~setup_seed:c.Case.setup_seed
        ?trip:c.Case.trip c.Case.program
    with
    | Ok () -> Pass
    | Error m when starts_with ~prefix:"not simdized" m -> Skipped m
    | Error m -> Divergence m
    | exception e -> Crash (Printexc.to_string e))
