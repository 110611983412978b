(** Public API of the alignment-constrained simdization library.

    This facade re-exports every subsystem under one namespace and provides
    the handful of one-call entry points a downstream user needs:

    {[
      let program = Simd.parse_exn source in
      match Simd.simdize program with
      | Simd.Driver.Simdized o ->
        print_string (Simd.Vir_prog.to_string o.prog);
        print_string (Simd.Emit_portable.unit o.prog)
      | Simd.Driver.Scalar reason -> ...
    ]}

    Subsystem map (see DESIGN.md):
    - {!Ast}/{!Parse}/{!Pp}/{!Analysis}: the scalar loop language;
    - {!Machine}/{!Vec}/{!Mem}: the SIMD machine model;
    - {!Offset}/{!Graph}/{!Policy}/{!Reassoc}: data reorganization graphs;
    - {!Mask}: if-conversion for predicated loops (guards/selects);
    - {!Gen}/{!Passes}/{!Driver}/{!Peel}: code generation;
    - {!Retarget}: vector-length-agnostic re-instantiation of a placed
      compilation at another V (the backend matrix's engine);
    - {!Dataflow}/{!Absoff}: the VIR dataflow engine and its offset
      lattice; {!Check}: the pass-boundary static verifier (errors only);
      {!Lint}: the registry-based lint driver (waste);
    - {!Vir_expr}/{!Vir_prog}: the vector IR;
    - {!Exec}/{!Sim_run}: the simulator;
    - {!Emit_portable}/{!Emit_altivec}/{!Emit_sse}/{!Emit_avx2}/
      {!Emit_neon}: C backends; {!Backend} the registry + capability
      probe; {!Matrix} the per-backend retargeting table;
    - {!Synth}/{!Lb}/{!Measure}/{!Suite}: the evaluation harness;
    - {!Fuzz}/{!Par}: differential fuzzing and the process pool;
    - {!Serve}/{!Cas}: the batched compile service and the
      content-addressed artifact store behind it. *)

(* Support *)
module Prng = Simd_support.Prng
module Util = Simd_support.Util
module Json = Simd_support.Json

(* Machine model *)
module Machine = Simd_machine.Config
module Lane = Simd_machine.Lane
module Vec = Simd_machine.Vec
module Mem = Simd_machine.Mem

(* Loop IR *)
module Ast = Simd_loopir.Ast
module Parse = Simd_loopir.Parse
module Pp = Simd_loopir.Pp
module Align = Simd_loopir.Align
module Analysis = Simd_loopir.Analysis
module Layout = Simd_loopir.Layout
module Interp = Simd_loopir.Interp

(* Data reorganization *)
module Offset = Simd_dreorg.Offset
module Graph = Simd_dreorg.Graph
module Policy = Simd_dreorg.Policy
module Reassoc = Simd_dreorg.Reassoc

(* Exact shift placement ({!Opt.Cost}, {!Opt.Table}, {!Opt.Solve},
   {!Opt.Auto}, {!Opt.Place}, {!Opt.Report}) *)
module Opt = Simd_opt

(* Vector IR *)
module Vir_addr = Simd_vir.Addr
module Vir_rexpr = Simd_vir.Rexpr
module Vir_expr = Simd_vir.Expr
module Vir_prog = Simd_vir.Prog

(* Pass-pipeline tracing ({!Trace.Diff} for the structural line diffs) *)
module Trace = Simd_trace.Trace

(* Static analysis — Dataflow computes, Check proves, Lint reports: the
   generic VIR dataflow engine ({!Dataflow.Live}, {!Dataflow.Reach},
   {!Dataflow.Avail}, {!Dataflow.Offsets} — the one stream-offset
   evaluator — and {!Dataflow.Cleanup}) with its offset lattice
   ({!Absoff}); the pass-boundary verifier ({!Check}, errors only, run at
   every boundary via [Driver.simdize ~check:true]); the registry-based
   linter of wasted work ({!Lint}, warnings only, surfaced as
   [simdize --lint]) *)
module Dataflow = Simd_dataflow.Dataflow
module Absoff = Simd_dataflow.Absoff
module Check = Simd_check.Check
module Lint = Simd_lint.Lint

(* Predication: if-conversion of guarded statements into selects and
   masked stores (run by {!Driver.simdize} before legality analysis) *)
module Mask = Simd_mask.Mask

(* Code generation *)
module Names = Simd_codegen.Names
module Gen = Simd_codegen.Gen
module Passes = Simd_codegen.Passes
module Peel = Simd_codegen.Peel
module Driver = Simd_codegen.Driver
module Retarget = Simd_codegen.Retarget

(* Simulation *)
module Exec = Simd_sim.Exec
module Sim_run = Simd_sim.Run

(* Emission: one module per backend, the registry + capability probe
   ({!Backend}), and the per-backend retargeting matrix ({!Matrix}) *)
module Emit_portable = Simd_emit.Portable
module Emit_altivec = Simd_emit.Altivec
module Emit_sse = Simd_emit.Sse
module Emit_avx2 = Simd_emit.Avx2
module Emit_neon = Simd_emit.Neon
module Backend = Simd_emit.Backend
module Matrix = Simd_emit.Matrix
module C_syntax = Simd_emit.C_syntax
module Cc = Simd_emit.Cc

(* Evaluation harness *)
module Synth = Simd_bench.Synth
module Lb = Simd_bench.Lb
module Measure = Simd_bench.Measure
module Suite = Simd_bench.Suite

(* Differential fuzzing ({!Fuzz.Genloop}, {!Fuzz.Oracle}, {!Fuzz.Shrink},
   {!Fuzz.Campaign}, {!Fuzz.Case}) *)
module Fuzz = Simd_fuzz

(* Parallel job pool ({!Par.Pool}, {!Par.Native}, {!Par.Campaign}):
   multicore fuzz campaigns and the native-differential oracle *)
module Par = Simd_par

(* Compile service ({!Serve.Protocol}, {!Serve.Compile}, {!Serve.Server}):
   the batched long-lived server, its wire protocol, and the pure
   compile-once path behind it *)
module Serve = Simd_serve

(* Content-addressed artifact store backing the native oracle's harness
   cache and the compile service's artifact cache *)
module Cas = Simd_support.Cas

(* ------------------------------------------------------------------ *)
(* Convenience entry points                                            *)
(* ------------------------------------------------------------------ *)

(** [parse source] — parse a loop program from concrete syntax. *)
let parse = Parse.program_of_string_result

(** [parse_exn source] — like {!parse}, raising on malformed input. *)
let parse_exn = Parse.program_of_string

(** [simdize ?config ?trace ?check program] — analyze, place shifts,
    generate and optimize SIMD code (defaults: 16-byte machine,
    dominant-shift policy, software pipelining, MemNorm + CSE on). Pass
    [?trace] (a {!Trace.create} sink) to record the full pass-pipeline
    event stream; [?check] runs the static verifier ({!Check}) at every
    pass boundary. *)
let simdize ?(config = Driver.default) ?trace ?check program =
  Driver.simdize ?trace ?check config program

(** [simdize_exn ?config ?trace ?check program] — like {!simdize}, raising
    when the loop stays scalar. *)
let simdize_exn ?(config = Driver.default) ?trace ?check program =
  Driver.simdize_exn ?trace ?check config program

(** [verify ?config ?seed ?trip program] — simdize and differentially test
    against the scalar interpreter on noise-filled memory. *)
let verify ?(config = Driver.default) ?(seed = 0x5EED) ?trip program =
  Measure.verify ~config ~setup_seed:seed ?trip program

(** [emit_c ?config ?backend program] — simdize and pretty-print a complete
    C translation unit ([`Portable] compiles anywhere; the others target
    their ISA and require the matching vector length in [config] —
    [`Avx2] needs V = 32, the rest V = 16). *)
let emit_c ?(config = Driver.default) ?(backend = `Portable) program =
  match Driver.simdize config program with
  | Driver.Scalar r -> Error (Format.asprintf "%a" Driver.pp_reason r)
  | Driver.Simdized o ->
    Ok
      (match backend with
      | `Portable -> Emit_portable.unit o.Driver.prog
      | `Altivec -> Emit_altivec.unit o.Driver.prog
      | `Sse -> Emit_sse.unit o.Driver.prog
      | `Avx2 -> Emit_avx2.unit o.Driver.prog
      | `Neon -> Emit_neon.unit o.Driver.prog)

(** [measure ?config ?trip program] — simdize, simulate, and report the
    dynamic operation counts, operations per datum, and speedup over the
    ideal scalar execution. *)
let measure ?(config = Driver.default) ?trip program =
  let sample = Measure.run ~config ?trip program in
  (sample, Measure.opd sample, Measure.speedup sample)
