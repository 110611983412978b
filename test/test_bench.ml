(* Evaluation-harness tests: the loop synthesizer's contracts, the §5.3
   lower-bound model on hand-computed cases, the OPD/speedup metrics,
   small-scale runs of the experiment drivers asserting the paper's trends,
   and the evaluation driver's argument check. *)

open Simd

let machine = Machine.default
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- synthesizer -------------------------------------------------------- *)

let test_synth_shape () =
  let spec = { Synth.default_spec with Synth.stmts = 3; loads_per_stmt = 5 } in
  let p = Synth.generate ~machine spec in
  check_int "statements" 3 (List.length p.Ast.loop.Ast.body);
  List.iter
    (fun (s : Ast.stmt) ->
      check_int "loads per stmt" 5 (List.length (Ast.expr_loads s.Ast.rhs));
      (* §5.3: references within one statement access distinct arrays *)
      let arrays = List.map (fun r -> r.Ast.ref_array) (Ast.stmt_refs s) in
      check_int "distinct arrays" (List.length arrays)
        (List.length (Util.dedup arrays)))
    p.Ast.loop.Ast.body;
  (* legal and analyzable *)
  match Analysis.check ~machine p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "synth produced illegal loop: %s" (Analysis.error_to_string e)

let test_synth_deterministic () =
  let spec = Synth.default_spec in
  check_bool "same seed, same loop" true
    (Ast.equal_program (Synth.generate ~machine spec) (Synth.generate ~machine spec));
  check_bool "different seed, different loop" false
    (Ast.equal_program
       (Synth.generate ~machine spec)
       (Synth.generate ~machine { spec with Synth.seed = spec.Synth.seed + 1 }))

let test_synth_bias () =
  (* bias 1.0: every reference shares one stream offset *)
  let p = Synth.generate ~machine { Synth.default_spec with Synth.bias = 1.0; loads_per_stmt = 8 } in
  let a = Analysis.check_exn ~machine p in
  let offsets = List.map snd a.Analysis.offsets in
  check_int "single alignment class" 1 (List.length (Util.dedup offsets));
  (* bias 0: offsets spread out (with 9 references, ≥ 2 classes whp) *)
  let p0 = Synth.generate ~machine { Synth.default_spec with Synth.bias = 0.0; loads_per_stmt = 8 } in
  let a0 = Analysis.check_exn ~machine p0 in
  check_bool "spread" true
    (List.length (Util.dedup (List.map snd a0.Analysis.offsets)) > 1)

let test_synth_reuse () =
  (* full reuse: later statements reuse earlier refs where possible *)
  let spec =
    { Synth.default_spec with Synth.stmts = 4; loads_per_stmt = 2; reuse = 1.0 }
  in
  let p = Synth.generate ~machine spec in
  let load_arrays =
    List.concat_map
      (fun (s : Ast.stmt) ->
        List.map (fun r -> r.Ast.ref_array) (Ast.expr_loads s.Ast.rhs))
      p.Ast.loop.Ast.body
  in
  check_bool "arrays shared across statements" true
    (List.length (Util.dedup load_arrays) < List.length load_arrays);
  let p0 =
    Synth.generate ~machine { spec with Synth.reuse = 0.0; seed = 7 }
  in
  let load_arrays0 =
    List.concat_map
      (fun (s : Ast.stmt) ->
        List.map (fun r -> r.Ast.ref_array) (Ast.expr_loads s.Ast.rhs))
      p0.Ast.loop.Ast.body
  in
  check_int "no sharing without reuse" (List.length load_arrays0)
    (List.length (Util.dedup load_arrays0))

let test_synth_variants () =
  let p = Synth.generate ~machine Synth.default_spec in
  let rt = Synth.hide_alignments p in
  check_bool "all unknown" true
    (List.for_all (fun d -> d.Ast.arr_align = Ast.Unknown) rt.Ast.arrays);
  let ht = Synth.hide_trip p in
  check_bool "runtime trip" true
    (match ht.Ast.loop.Ast.trip with Ast.Trip_param _ -> true | _ -> false);
  check_int "original trip recoverable" 1000 (Synth.const_trip_exn p)

(* --- LB model ----------------------------------------------------------- *)

let lb_of src policy =
  let a = Analysis.check_exn ~machine (Parse.program_of_string src) in
  (Lb.compute ~analysis:a ~policy, a)

let test_lb_fig1 () =
  (* a[i+3] = b[i+1] + c[i+2], all distinct alignments {12, 4, 8}:
     zero-shift m = 3 (all misaligned) -> (2 loads + 1 store + 3 + 1 add)/4;
     lazy: n-1 = 2 -> 6/4. SEQ = 2 + 1 + 1 = 4 opd. *)
  let src =
    "int32 a[128] @ 0;\nint32 b[128] @ 0;\nint32 c[128] @ 0;\n\
     for (i = 0; i < 100; i++) { a[i+3] = b[i+1] + c[i+2]; }"
  in
  let lbz, a = lb_of src Policy.Zero in
  Alcotest.(check (float 1e-9)) "zero LB" (7.0 /. 4.0) (Lb.opd lbz);
  let lbl, _ = lb_of src Policy.Lazy in
  Alcotest.(check (float 1e-9)) "lazy LB" (6.0 /. 4.0) (Lb.opd lbl);
  Alcotest.(check (float 1e-9)) "SEQ" 4.0 (Lb.seq_opd ~analysis:a)

let test_lb_s1l6_shape () =
  (* The paper's S1*L6: SEQ = 12 opd exactly; LB within [3, 4.75]. *)
  let spec = { Synth.default_spec with Synth.loads_per_stmt = 6 } in
  let p = Synth.generate ~machine spec in
  let a = Analysis.check_exn ~machine p in
  Alcotest.(check (float 1e-9)) "SEQ 12" 12.0 (Lb.seq_opd ~analysis:a);
  let lb = Lb.compute ~analysis:a ~policy:Policy.Lazy in
  check_bool "LB in range" true (Lb.opd lb >= 3.0 && Lb.opd lb <= 4.75);
  (* the naive bound is 3.000 = 12/4 (paper §5.5) *)
  check_bool "naive <= LB" true (Lb.opd lb >= 3.0)

let test_lb_distinct_chunks () =
  (* x[i] and x[i+1] on a one-element-misaligned array read the same
     chunks: one load stream, not two. *)
  let src =
    "int32 y[128] @ 0;\nint32 x[128] @ 4;\n\
     for (i = 0; i < 100; i++) { y[i] = x[i] + x[i+1]; }"
  in
  let lb, _ = lb_of src Policy.Lazy in
  check_int "one load stream" 1 lb.Lb.distinct_load_streams

let test_lb_zero_counts_runtime () =
  let src =
    "int32 y[128] @ ?;\nint32 x[128] @ ?;\n\
     for (i = 0; i < 100; i++) { y[i] = x[i]; }"
  in
  let lb, _ = lb_of src Policy.Zero in
  (* both streams runtime: both must be counted as shifted *)
  check_int "runtime streams shift" 2 lb.Lb.min_shifts

(* --- measurement --------------------------------------------------------- *)

let test_measure_lb_below_actual () =
  let spec = { Synth.default_spec with Synth.loads_per_stmt = 4 } in
  let p = Synth.generate ~machine spec in
  List.iter
    (fun policy ->
      let config = { Driver.default with Driver.policy } in
      let s = Measure.run ~config p in
      check_bool
        (Policy.name policy ^ ": LB <= measured")
        true
        (Lb.opd s.Measure.lb <= Measure.opd s +. 1e-9);
      check_bool
        (Policy.name policy ^ ": speedup <= LB speedup")
        true
        (Measure.speedup s <= Measure.lb_speedup s +. 1e-9))
    Policy.all

let test_measure_speedup_reasonable () =
  let p = Synth.generate ~machine { Synth.default_spec with Synth.loads_per_stmt = 6 } in
  let s = Measure.run ~config:Driver.default p in
  let sp = Measure.speedup s in
  check_bool "1 < speedup <= 4" true (sp > 1.0 && sp <= 4.0)

let test_weights () =
  let p = Synth.generate ~machine Synth.default_spec in
  let s = Measure.run ~config:Driver.default p in
  let base = Measure.total_simd_ops s in
  let heavy =
    Measure.total_simd_ops
      ~weights:{ Measure.default_weights with Measure.copy = 1.0 }
      s
  in
  check_bool "copies charged" true (heavy >= base)

(* --- experiment drivers (small n, trend assertions) ---------------------- *)

let test_fig11_trends () =
  let f =
    Suite.opd_figure ~machine ~spec:Synth.default_spec ~count:6 ~reassoc:false
  in
  Alcotest.(check (float 1e-9)) "SEQ = 12" 12.0 f.Suite.seq_opd;
  let get name =
    (List.find (fun (r : Suite.opd_row) -> r.Suite.name = name) f.Suite.rows)
      .Suite.total_opd
  in
  (* reuse beats no-reuse for every policy; all simdized beat SEQ *)
  List.iter
    (fun p ->
      let u = String.uppercase_ascii p in
      check_bool (p ^ " reuse helps") true (get (u ^ "-sp") <= get (u ^ "-plain"));
      check_bool (p ^ " beats scalar") true (get (u ^ "-sp") < f.Suite.seq_opd))
    [ "zero"; "eager"; "lazy"; "dominant" ];
  (* zero-shift with reuse is the worst of the four policies with reuse *)
  check_bool "zero worst with reuse" true
    (get "ZERO-sp" >= get "LAZY-sp" && get "ZERO-sp" >= get "DOMINANT-sp")

let test_fig12_reassoc_reduces_shift_overhead () =
  let off = Suite.opd_figure ~machine ~spec:Synth.default_spec ~count:6 ~reassoc:false in
  let on = Suite.opd_figure ~machine ~spec:Synth.default_spec ~count:6 ~reassoc:true in
  let shift_of (f : Suite.opd_figure) name =
    (List.find (fun (r : Suite.opd_row) -> r.Suite.name = name) f.Suite.rows)
      .Suite.shift_overhead
  in
  List.iter
    (fun name ->
      check_bool (name ^ " shift overhead not increased") true
        (shift_of on name <= shift_of off name +. 1e-9))
    [ "LAZY-sp"; "DOMINANT-sp"; "LAZY-pc"; "DOMINANT-pc" ]

let test_table_trends () =
  let t =
    Suite.speedup_table ~machine ~elem:Ast.I32 ~shapes:[ (1, 2); (4, 8) ] ~count:4 ()
  in
  (match t.Suite.rows with
  | [ small; large ] ->
    check_bool "speedup grows with loop size" true
      (large.Suite.ct_actual > small.Suite.ct_actual);
    List.iter
      (fun (r : Suite.speedup_row) ->
        check_bool (r.Suite.label ^ " ct >= rt") true
          (r.Suite.ct_actual >= r.Suite.rt_actual -. 0.15);
        check_bool (r.Suite.label ^ " actual <= LB") true
          (r.Suite.ct_actual <= r.Suite.ct_lb +. 1e-9))
      t.Suite.rows
  | _ -> Alcotest.fail "rows");
  (* shorts roughly double ints *)
  let t16 =
    Suite.speedup_table ~machine ~elem:Ast.I16 ~shapes:[ (4, 8) ] ~count:4 ()
  in
  let s32 = (List.nth t.Suite.rows 1).Suite.ct_actual in
  let s16 = (List.hd t16.Suite.rows).Suite.ct_actual in
  check_bool "16-bit gains more" true (s16 > s32 *. 1.3)

let test_coverage_small () =
  let r = Suite.coverage ~machine ~seed:11 ~loops:12 () in
  check_int "all verified" r.Suite.attempted r.Suite.verified;
  check_int "36 variants" 36 r.Suite.attempted

(* The driver rejects what it does not know before computing anything:
   a stale flag or a typo exits 2 instead of running the default sweep. *)
let test_driver_rejects_unknown_arguments () =
  let command line = Sys.command (line ^ " >/dev/null 2>&1") in
  check_int "stale --no-bench exits 2" 2 (command "../bench/main.exe --no-bench");
  check_int "typo --loop exits 2" 2 (command "../bench/main.exe --loop 5")

let suite =
  [
    ( "bench",
      [
        Alcotest.test_case "synth shape" `Quick test_synth_shape;
        Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
        Alcotest.test_case "synth bias" `Quick test_synth_bias;
        Alcotest.test_case "synth reuse" `Quick test_synth_reuse;
        Alcotest.test_case "synth variants" `Quick test_synth_variants;
        Alcotest.test_case "LB fig1 by hand" `Quick test_lb_fig1;
        Alcotest.test_case "LB S1L6 shape" `Quick test_lb_s1l6_shape;
        Alcotest.test_case "LB distinct chunks" `Quick test_lb_distinct_chunks;
        Alcotest.test_case "LB runtime zero" `Quick test_lb_zero_counts_runtime;
        Alcotest.test_case "LB below measured" `Quick test_measure_lb_below_actual;
        Alcotest.test_case "speedup in range" `Quick test_measure_speedup_reasonable;
        Alcotest.test_case "weights" `Quick test_weights;
        Alcotest.test_case "fig11 trends" `Slow test_fig11_trends;
        Alcotest.test_case "fig12 reassoc trend" `Slow test_fig12_reassoc_reduces_shift_overhead;
        Alcotest.test_case "table trends" `Slow test_table_trends;
        Alcotest.test_case "coverage small" `Slow test_coverage_small;
        Alcotest.test_case "driver rejects unknown arguments" `Quick
          test_driver_rejects_unknown_arguments;
      ] );
  ]
