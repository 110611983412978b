(** Pipeline bisection of a failing fuzz case: name the first optimization
    pass whose output diverges.

    Every optional pass of the driver pipeline is config-gated, so no
    driver surgery is needed: bisection re-runs the differential oracle on
    the same case with config prefixes of the pipeline, in application
    order. With [k] passes enabled the oracle exercises exactly the
    pipeline up to pass [k]; the first [k] whose enablement flips the
    verdict from pass to failure names the culprit. At most
    [length passes + 1] oracle runs per case — each a full scalar-vs-simd
    differential check, so a named culprit means "the first pass whose
    enablement produces an observably wrong compilation", not a guess from
    IR shape. *)

module Driver = Simd_codegen.Driver

type verdict =
  | First_diverging of string
      (** the named pass is the earliest whose enablement makes the case
          fail; all prefixes before it pass *)
  | Core
      (** the case fails even with every optional pass disabled: the
          divergence is in placement/generation, not a pass *)
  | Vanished
      (** the full configured pipeline passes on re-run — not bisectable
          (e.g. the failure needed a configuration this case no longer
          expresses) *)

let verdict_name = function
  | First_diverging p -> p
  | Core -> "core (placement/generation)"
  | Vanished -> "vanished"

let pp_verdict fmt v = Format.pp_print_string fmt (verdict_name v)

let with_prefix (case : Case.t) k : Case.t =
  (* keep the first [k] passes at the case's setting, disable the rest *)
  let config =
    List.fold_left
      (fun c (p : Driver.pass) -> p.disable c)
      case.Case.config
      (List.filteri (fun i _ -> i >= k) Driver.passes)
  in
  { case with Case.config }

(** [run case] — bisect a failing [case]. Deterministic: same case, same
    verdict. [on_step] (diagnostics) sees each probed prefix length and
    its outcome. *)
let run ?(on_step = fun _ _ -> ()) (case : Case.t) : verdict =
  let outcome_at k =
    let o = Oracle.run (with_prefix case k) in
    on_step k o;
    o
  in
  let n = List.length Driver.passes in
  if not (Oracle.is_failure (outcome_at n)) then Vanished
  else if Oracle.is_failure (outcome_at 0) then Core
  else begin
    (* Linear scan, not binary search: pass interactions need not be
       monotone (a later pass can mask an earlier divergence), and the
       scan's invariant — every shorter prefix passed — is exactly what
       "first diverging" means. At most [n + 1] oracle runs. *)
    let rec scan k =
      if k > n then
        (* prefix n failed above but every scanned prefix passed: only
           possible with a non-deterministic oracle, which [Oracle.run]
           rules out *)
        assert false
      else if Oracle.is_failure (outcome_at k) then
        (List.nth Driver.passes (k - 1)).Driver.name
      else scan (k + 1)
    in
    (* The flip pass is necessarily enabled in the case's configuration:
       disabling an already-off pass is the identity, and identical
       configurations produce identical outcomes. *)
    First_diverging (scan 1)
  end
