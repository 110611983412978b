(** Registry-based lint driver over compiled programs.

    Where {!Simd_check.Check} proves invariants (wrong answers), the
    linter reports waste and suspicion (right answers, badly): vector
    operations whose results are never read, stream shifts that cancel
    body-wide, loop-invariant work recomputed every iteration, masked
    stores whose masks are provably lane-uniform. Every rule is named,
    severity-tagged, and registered in {!rules} — the one list the CLI,
    the JSON schema, and the docs all enumerate.

    Most rules are evidence-backed rather than re-implemented: they read
    the action log of a {!Simd_dataflow.Dataflow.Cleanup.dry_run} over
    the compiled regions, so a finding is by construction something the
    [vir_cleanup] pass can fix — running the driver with [cleanup = true]
    and re-linting yields a clean report. The remaining rules
    (shift-amount range, mask uniformity, unused streams) are structural
    walks over the same IR.

    Severity is the linter's alone (the verifier's violations are all
    errors) and maps onto exit codes in exactly one place ({!exit_code}):
    any [Error] finding exits 2, warnings exit 1 under [~strict:true]
    and 0 otherwise — shared verbatim by [simdlint.exe] and
    [simdize --lint]. *)

open Simd_vir
module Dataflow = Simd_dataflow.Dataflow
module Driver = Simd_codegen.Driver
module Json = Simd_support.Json
module SS = Simd_support.Util.String_set

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type finding = {
  rule : string;
  severity : severity;
  where : string;
  detail : string;
}

type report = {
  findings : finding list;
  counts : (string * int) list;
  errors : int;
  warnings : int;
}

(* ------------------------------------------------------------------ *)
(* Rule context                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything a rule may look at, computed once per [run]: the compiled
   program, its geometry, and the cleanup rewriter's dry-run evidence. *)
type ctx = {
  prog : Prog.t;
  v : int;
  elem : int;
  actions : Dataflow.Cleanup.action list;
}

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

let shift_range ctx =
  let out = ref [] in
  let emit where detail = out := (where, detail) :: !out in
  let check_vexpr where e =
    ignore
      (Expr.fold_vexpr
         (fun () e ->
           match e with
           | Expr.Shiftpair (_, _, r) when Rexpr.is_const r ->
             let c = Rexpr.const_exn r in
             if c < 0 || c > ctx.v then
               emit where
                 (Printf.sprintf
                    "vshiftstream amount %d outside the register range [0, %d]"
                    c ctx.v)
             else if c mod ctx.elem <> 0 then
               emit where
                 (Printf.sprintf
                    "vshiftstream amount %d is not a multiple of the element \
                     width %d"
                    c ctx.elem)
           | Expr.Splice (_, _, r) when Rexpr.is_const r ->
             let c = Rexpr.const_exn r in
             if c < 0 || c > ctx.v then
               emit where
                 (Printf.sprintf
                    "vsplice point %d outside the register range [0, %d]" c
                    ctx.v)
           | _ -> ())
         () e)
  in
  List.iter
    (fun (name, stmts) ->
      iter_region
        (fun idx s ->
          let where = Printf.sprintf "%s#%d" name idx in
          match s with
          | Expr.Store (_, e) | Expr.Assign (_, e) -> check_vexpr where e
          | Expr.Storem (_, e, m) ->
            check_vexpr where e;
            check_vexpr where m
          | Expr.If _ -> ())
        stmts)
    (regions ctx.prog);
  List.rev !out

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

type rule = { name : string; severity : severity; doc : string }

(* The checkers, in registry order. Kept alongside [rules] rather than
   inside it so the public registry stays closure-free (printable,
   comparable). *)
let checkers : (string * (ctx -> (string * string) list)) list =
  [
    ("dead-vop", dead_vop);
    ("redundant-shift", redundant_shift);
    ("unused-stream", unused_stream);
    ("write-clobber", write_clobber);
    ("invariant-vop", invariant_vop);
    ("shift-range", shift_range);
    ("mask-uniform", mask_uniform);
  ]

let rules : rule list =
  [
    {
      name = "dead-vop";
      severity = Warning;
      doc =
        "a vector operation's result is never read by any later statement";
    };
    {
      name = "redundant-shift";
      severity = Warning;
      doc =
        "a vshiftstream is a no-op or cancels against an adjacent or \
         loop-carried shift of the same stream";
    };
    {
      name = "unused-stream";
      severity = Warning;
      doc = "a declared stream is never loaded or stored by the program";
    };
    {
      name = "write-clobber";
      severity = Warning;
      doc =
        "a temporary is overwritten before the written value reaches any \
         read";
    };
    {
      name = "invariant-vop";
      severity = Warning;
      doc =
        "a loop-invariant vector operation is recomputed every iteration \
         instead of being hoisted to the prologue";
    };
    {
      name = "shift-range";
      severity = Error;
      doc =
        "a compile-time shift amount or splice point falls outside the \
         vector register, or is not a multiple of the element width";
    };
    {
      name = "mask-uniform";
      severity = Warning;
      doc =
        "a masked store's mask resolves to a splat, so every lane agrees \
         and a guarded plain store would do";
    };
  ]

let find_rule name = List.find (fun r -> r.name = name) rules

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let run (outcome : Driver.outcome) : report =
  let prog = outcome.Driver.prog in
  let v =
    Simd_machine.Config.vector_len
      outcome.Driver.analysis.Simd_loopir.Analysis.machine
  in
  let ctx =
    {
      prog;
      v;
      elem = prog.Prog.elem;
      actions =
        Dataflow.Cleanup.dry_run ~v ~block:prog.Prog.block
          ~prologue:prog.Prog.prologue ~body:prog.Prog.body
          ~epilogues:prog.Prog.epilogues;
    }
  in
  let findings =
    List.concat_map
      (fun (name, check) ->
        let severity = (find_rule name).severity in
        List.map
          (fun (where, detail) -> { rule = name; severity; where; detail })
          (check ctx))
      checkers
  in
  let count sev =
    List.length
      (List.filter (fun (f : finding) -> f.severity = sev) findings)
  in
  let counts =
    List.map
      (fun (name, _) ->
        ( name,
          List.length
            (List.filter (fun (f : finding) -> f.rule = name) findings) ))
      checkers
  in
  { findings; counts; errors = count Error; warnings = count Warning }

let clean r = r.findings = []

let exit_code ~strict (r : report) =
  if r.errors > 0 then 2 else if strict && r.warnings > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "%s %s [%s]: %s" (severity_name f.severity) f.where
    f.rule f.detail

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("schema", Json.String "simd-lint/1");
      ( "findings",
        Json.List
          (List.map
             (fun (f : finding) ->
               Json.Obj
                 [
                   ("rule", Json.String f.rule);
                   ("severity", Json.String (severity_name f.severity));
                   ("where", Json.String f.where);
                   ("detail", Json.String f.detail);
                 ])
             r.findings) );
      ( "counts",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) r.counts) );
      ("errors", Json.Int r.errors);
      ("warnings", Json.Int r.warnings);
    ]
