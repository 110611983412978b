(** Differential oracle: scalar interpreter vs. simdized execution on
    identical memory, with outcomes classified for the fuzzer. *)

type outcome =
  | Pass  (** byte-identical arenas *)
  | Skipped of string  (** legitimately left scalar *)
  | Static_violation of string
      (** the pass-boundary verifier refuted an invariant *)
  | Divergence of string  (** miscompilation: arenas differ *)
  | Crash of string  (** compiler/simulator raised *)

val is_failure : outcome -> bool
val same_class : outcome -> outcome -> bool
val outcome_name : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

val run : Case.t -> outcome
(** Classify one case: static verifier first ([Static_violation] when a
    [~check:true] compilation reports a violation), then the dynamic
    differential. Never raises. *)
