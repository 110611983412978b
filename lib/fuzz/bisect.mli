(** Pipeline bisection of a failing fuzz case: name the first optimization
    pass whose output diverges.

    Every optional pass of the driver pipeline is config-gated, so
    bisection needs no driver surgery: it re-runs the differential oracle
    on the same case with config prefixes of
    {!Simd_codegen.Driver.passes} in application order, and reports the
    first prefix length whose enablement flips the verdict from pass to
    failure. At most [n + 1] oracle runs per case, each a full
    scalar-vs-simd differential check. *)

type verdict =
  | First_diverging of string
      (** the named pass is the earliest whose enablement makes the case
          fail; every shorter prefix passes *)
  | Core
      (** the case fails even with all optional passes disabled: the
          divergence is in placement or generation, not a pass *)
  | Vanished
      (** the full configured pipeline passes on re-run — not bisectable *)

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

val with_prefix : Case.t -> int -> Case.t
(** [with_prefix case k] — the case reconfigured to run only the first [k]
    of {!Simd_codegen.Driver.passes} (the rest disabled). *)

val run : ?on_step:(int -> Oracle.outcome -> unit) -> Case.t -> verdict
(** Bisect a failing case. Deterministic: same case, same verdict.
    [on_step] observes each probed prefix length and its outcome. *)
