(** Registry-based lint driver over compiled programs.

    Where {!Simd_check.Check} proves invariants (wrong answers), the
    linter reports waste and suspicion (right answers, badly): vector
    operations whose results are never read, stream shifts that cancel
    body-wide, loop-invariant work recomputed every iteration, masked
    stores whose masks are provably lane-uniform. Every rule is named and
    registered in {!rules} — the one list the CLI, the JSON schema, and
    the docs all enumerate — and every finding is a warning: shift
    amounts and splice points outside the register are Check's [range]
    violations, not lint findings.

    Most rules are evidence-backed rather than re-implemented: they read
    the action log of a {!Simd_dataflow.Dataflow.Cleanup.dry_run} over
    the compiled regions, so a finding is by construction something the
    [vir_cleanup] pass can fix — running the driver with [cleanup = true]
    and re-linting yields a clean report. The remaining rules (mask
    uniformity, unused streams) are structural walks over the same IR.
    [simdize --lint=strict] turns any finding into exit code 1. *)

open Simd_vir
module Dataflow = Simd_dataflow.Dataflow
module Driver = Simd_codegen.Driver
module Json = Simd_support.Json
module SS = Simd_support.Util.String_set

type finding = { rule : string; where : string; detail : string }
type report = { findings : finding list; counts : (string * int) list }

(* ------------------------------------------------------------------ *)
(* Rule context                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything a rule may look at, computed once per [run]: the compiled
   program and the cleanup rewriter's dry-run evidence. *)
type ctx = { prog : Prog.t; actions : Dataflow.Cleanup.action list }

let regions (p : Prog.t) =
  ("prologue", p.Prog.prologue) :: ("body", p.Prog.body)
  :: List.mapi
       (fun k seg -> (Printf.sprintf "epilogue[%d]" k, seg))
       p.Prog.epilogues

(* Walk every statement of a region with the shared numbering convention:
   top-level position, [If] arms inheriting the guard's index. *)
let iter_region f stmts =
  let rec arm idx s =
    match s with
    | Expr.If (_, t, e) ->
      f idx s;
      List.iter (arm idx) t;
      List.iter (arm idx) e
    | _ -> f idx s
  in
  List.iteri arm stmts

(* ------------------------------------------------------------------ *)
(* Evidence-backed rules (cleanup dry-run)                             *)
(* ------------------------------------------------------------------ *)

let dead_vop ctx =
  List.filter_map
    (function
      | Dataflow.Cleanup.Removed { where; temp; clobber = false } ->
        Some
          ( where,
            Printf.sprintf "definition of %s is dead: no later statement reads it"
              temp )
      | _ -> None)
    ctx.actions

let write_clobber ctx =
  List.filter_map
    (function
      | Dataflow.Cleanup.Removed { where; temp; clobber = true } ->
        Some
          ( where,
            Printf.sprintf
              "%s is overwritten before this value reaches any read \
               (write-before-read clobber)"
              temp )
      | _ -> None)
    ctx.actions

let redundant_shift ctx =
  List.filter_map
    (function
      | Dataflow.Cleanup.Combined { where; detail } -> Some (where, detail)
      | _ -> None)
    ctx.actions

let invariant_vop ctx =
  List.filter_map
    (function
      | Dataflow.Cleanup.Hoisted { where; temp } ->
        Some
          ( where,
            Printf.sprintf
              "loop-invariant definition of %s is recomputed every iteration \
               (hoistable to the prologue)"
              temp )
      | _ -> None)
    ctx.actions

(* ------------------------------------------------------------------ *)
(* Structural rules                                                    *)
(* ------------------------------------------------------------------ *)

(* Arrays touched by the emitted code or the source loop. Splats embed
   only scalar parameter expressions, so array uses are exactly the VIR
   addresses, the [Offset_of] leaves of runtime shift amounts, reduction
   targets, and the source references. *)
let used_arrays ctx =
  let rec rexpr acc (r : Rexpr.t) =
    match r with
    | Rexpr.Const _ | Rexpr.Trip | Rexpr.Counter -> acc
    | Rexpr.Offset_of a -> SS.add a.Addr.array acc
    | Rexpr.Add (x, y) | Rexpr.Sub (x, y) -> rexpr (rexpr acc x) y
    | Rexpr.Mul_const (x, _) | Rexpr.Mod_const (x, _) -> rexpr acc x
  in
  let vexpr acc e =
    Expr.fold_vexpr
      (fun acc e ->
        match e with
        | Expr.Load a -> SS.add a.Addr.array acc
        | Expr.Shiftpair (_, _, r) | Expr.Splice (_, _, r) -> rexpr acc r
        | _ -> acc)
      acc e
  in
  let cond acc (c : Rexpr.cond) =
    match c with
    | Rexpr.Ge (x, y) | Rexpr.Gt (x, y) | Rexpr.Le (x, y) | Rexpr.Lt (x, y) ->
      rexpr (rexpr acc x) y
  in
  let rec stmt acc s =
    match s with
    | Expr.Store (a, e) -> vexpr (SS.add a.Addr.array acc) e
    | Expr.Storem (a, e, m) -> vexpr (vexpr (SS.add a.Addr.array acc) e) m
    | Expr.Assign (_, e) -> vexpr acc e
    | Expr.If (c, t, e) ->
      List.fold_left stmt (List.fold_left stmt (cond acc c) t) e
  in
  let acc =
    List.fold_left
      (fun acc (_, stmts) -> List.fold_left stmt acc stmts)
      SS.empty (regions ctx.prog)
  in
  let acc =
    List.fold_left
      (fun acc (r : Prog.reduction) ->
        SS.add r.Prog.acc_ref.Simd_loopir.Ast.ref_array acc)
      acc ctx.prog.Prog.reductions
  in
  List.fold_left
    (fun acc (r : Simd_loopir.Ast.mem_ref) ->
      SS.add r.Simd_loopir.Ast.ref_array acc)
    acc
    (Simd_loopir.Ast.program_refs ctx.prog.Prog.source)

let unused_stream ctx =
  let used = used_arrays ctx in
  List.filter_map
    (fun (d : Simd_loopir.Ast.array_decl) ->
      if SS.mem d.Simd_loopir.Ast.arr_name used then None
      else
        Some
          ( "program",
            Printf.sprintf "stream %s is declared but never loaded or stored"
              d.Simd_loopir.Ast.arr_name ))
    ctx.prog.Prog.source.Simd_loopir.Ast.arrays

let mask_uniform ctx =
  let out = ref [] in
  List.iter
    (fun (name, stmts) ->
      let defs = Dataflow.Defs.scan stmts in
      iter_region
        (fun idx s ->
          match s with
          | Expr.Storem (_, _, mask) -> (
            match Dataflow.Defs.resolve defs mask with
            | Expr.Splat _ ->
              out :=
                ( Printf.sprintf "%s#%d" name idx,
                  "masked store whose mask is provably lane-uniform: a plain \
                   store under a scalar guard stores the same lanes" )
                :: !out
            | _ -> ())
          | _ -> ())
        stmts)
    (regions ctx.prog);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type rule = { name : string; doc : string }

(* Each rule's name, doc and checker, in registry order. The public
   [rules] drops the checkers so it stays closure-free (printable,
   comparable). *)
let registry : (string * string * (ctx -> (string * string) list)) list =
  [
    ( "dead-vop",
      "a vector operation's result is never read by any later statement",
      dead_vop );
    ( "redundant-shift",
      "a vshiftstream is a no-op or cancels against an adjacent or \
       loop-carried shift of the same stream",
      redundant_shift );
    ( "unused-stream",
      "a declared stream is never loaded or stored by the program",
      unused_stream );
    ( "write-clobber",
      "a temporary is overwritten before the written value reaches any read",
      write_clobber );
    ( "invariant-vop",
      "a loop-invariant vector operation is recomputed every iteration \
       instead of being hoisted to the prologue",
      invariant_vop );
    ( "mask-uniform",
      "a masked store's mask resolves to a splat, so every lane agrees and \
       a guarded plain store would do",
      mask_uniform );
  ]

let rules = List.map (fun (name, doc, _) -> { name; doc }) registry

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let run (outcome : Driver.outcome) : report =
  let prog = outcome.Driver.prog in
  let ctx =
    {
      prog;
      actions =
        Dataflow.Cleanup.dry_run
          ~v:
            (Simd_machine.Config.vector_len
               outcome.Driver.analysis.Simd_loopir.Analysis.machine)
          ~block:prog.Prog.block ~prologue:prog.Prog.prologue
          ~body:prog.Prog.body ~epilogues:prog.Prog.epilogues;
    }
  in
  let per_rule =
    List.map
      (fun (rule, _, check) ->
        ( rule,
          List.map (fun (where, detail) -> { rule; where; detail }) (check ctx)
        ))
      registry
  in
  {
    findings = List.concat_map snd per_rule;
    counts = List.map (fun (name, fs) -> (name, List.length fs)) per_rule;
  }

let clean r = r.findings = []

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "warning %s [%s]: %s" f.where f.rule f.detail

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("schema", Json.String "simd-lint/2");
      ( "findings",
        Json.List
          (List.map
             (fun (f : finding) ->
               Json.Obj
                 [
                   ("rule", Json.String f.rule);
                   ("where", Json.String f.where);
                   ("detail", Json.String f.detail);
                 ])
             r.findings) );
      ( "counts",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) r.counts) );
    ]
