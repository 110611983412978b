(** Experiment drivers reproducing §5's figures and tables.

    Each driver returns plain data (so tests can assert on trends) plus a
    renderer used by the evaluation driver [bench/main]. *)

open Simd_loopir
module Policy = Simd_dreorg.Policy
module Driver = Simd_codegen.Driver

type scheme = { policy : Policy.t; reuse : Driver.reuse }

let scheme_name s =
  Printf.sprintf "%s-%s"
    (String.uppercase_ascii (Policy.name s.policy))
    (Driver.reuse_name s.reuse)

let all_schemes =
  List.concat_map
    (fun policy ->
      List.map
        (fun reuse -> { policy; reuse })
        [ Driver.No_reuse; Driver.Predictive_commoning; Driver.Software_pipelining ])
    Policy.all

let config_of_scheme ~machine ~reassoc (s : scheme) =
  { Driver.default with Driver.machine; policy = s.policy; reuse = s.reuse; reassoc }

(* ------------------------------------------------------------------ *)
(* Figures 11 & 12: OPD breakdown per scheme                           *)
(* ------------------------------------------------------------------ *)

(** One stacked bar: measured OPD decomposed into the analytic lower bound,
    the shift overhead actually introduced beyond the bound, and the
    remaining (compiler/loop) overhead. *)
type opd_row = {
  name : string;
  lb_opd : float;
  shift_overhead : float;
  other_overhead : float;
  total_opd : float;  (** = lb + shift + other (arithmetic means) *)
  hmean_opd : float;  (** harmonic mean of per-loop totals *)
}

type opd_figure = {
  seq_opd : float;  (** the non-simdized reference bar *)
  rows : opd_row list;
  loops : int;
  reassoc : bool;
}

let opd_figure ~machine ~(spec : Synth.spec) ~count ~reassoc : opd_figure =
  let programs = Synth.benchmark ~machine ~spec ~count in
  let seq =
    Simd_support.Util.mean
      (List.map
         (fun p -> Lb.seq_opd ~analysis:(Analysis.check_exn ~machine p))
         programs)
  in
  let rows =
    List.map
      (fun scheme ->
        let config = config_of_scheme ~machine ~reassoc scheme in
        let samples = List.map (fun p -> Measure.run ~config p) programs in
        let totals = List.map (fun s -> Measure.opd s) samples in
        let lbs = List.map (fun s -> Lb.opd s.Measure.lb) samples in
        let shift_overs =
          List.map
            (fun s ->
              Float.max 0.0
                (Measure.shifts_per_datum s -. Lb.shifts_per_datum s.Measure.lb))
            samples
        in
        let lb_opd = Simd_support.Util.mean lbs in
        let shift_overhead = Simd_support.Util.mean shift_overs in
        let mean_total = Simd_support.Util.mean totals in
        {
          name = scheme_name scheme;
          lb_opd;
          shift_overhead;
          other_overhead = Float.max 0.0 (mean_total -. lb_opd -. shift_overhead);
          total_opd = mean_total;
          hmean_opd = Simd_support.Util.harmonic_mean totals;
        })
      all_schemes
  in
  { seq_opd = seq; rows; loops = count; reassoc }

let pp_opd_figure fmt (f : opd_figure) =
  Format.fprintf fmt
    "OPD breakdown (%d loops, OffsetReassoc %s); SEQ = %.3f opd@\n" f.loops
    (if f.reassoc then "ON" else "OFF")
    f.seq_opd;
  Format.fprintf fmt "%-14s %8s %8s %8s %8s %8s@\n" "scheme" "LB" "shift+" "other+"
    "total" "hmean";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-14s %8.3f %8.3f %8.3f %8.3f %8.3f@\n" r.name r.lb_opd
        r.shift_overhead r.other_overhead r.total_opd r.hmean_opd)
    f.rows

(* ------------------------------------------------------------------ *)
(* Tables 1 & 2: best-scheme speedups                                  *)
(* ------------------------------------------------------------------ *)

(** One table row: a loop family (s statements × l loads), the best
    compile-time scheme and the best runtime-alignment scheme, with actual
    and bound speedups (harmonic means over the family). *)
type speedup_row = {
  label : string;
  stmts : int;
  loads : int;
  ct_policy : string;
  ct_actual : float;
  ct_lb : float;
  rt_policy : string;
  rt_actual : float;
  rt_lb : float;
}

type speedup_table = {
  elem : Ast.elem_ty;
  peak : int;  (** B: data per vector *)
  rows : speedup_row list;
  loops_per_row : int;
}

let best_scheme ~machine ~reassoc ~schemes programs =
  (* (scheme, hmean actual speedup, hmean LB speedup) maximizing actual *)
  let evaluate scheme =
    let config = config_of_scheme ~machine ~reassoc scheme in
    let samples = List.map (fun p -> Measure.run ~config p) programs in
    ( scheme,
      Simd_support.Util.harmonic_mean (List.map (fun s -> Measure.speedup s) samples),
      Simd_support.Util.harmonic_mean (List.map (fun s -> Measure.lb_speedup s) samples)
    )
  in
  Simd_support.Util.max_by (fun (_, actual, _) -> actual) (List.map evaluate schemes)

let speedup_table ~machine ~(elem : Ast.elem_ty) ?(shapes =
    [ (1, 2); (1, 4); (1, 6); (2, 4); (4, 4); (4, 8) ]) ?(count = 50)
    ?(base_spec = Synth.default_spec) () : speedup_table =
  let compile_time_schemes =
    (* the paper's contenders: each policy with each reuse strategy *)
    all_schemes
  in
  let runtime_schemes =
    List.map
      (fun reuse -> { policy = Policy.Zero; reuse })
      [ Driver.No_reuse; Driver.Predictive_commoning; Driver.Software_pipelining ]
  in
  let rows =
    List.map
      (fun (s, l) ->
        let spec = { base_spec with Synth.stmts = s; loads_per_stmt = l; elem } in
        let programs = Synth.benchmark ~machine ~spec ~count in
        let ct_scheme, ct_actual, ct_lb =
          best_scheme ~machine ~reassoc:false ~schemes:compile_time_schemes programs
        in
        let rt_programs = List.map Synth.hide_alignments programs in
        let rt_scheme, rt_actual, rt_lb =
          best_scheme ~machine ~reassoc:false ~schemes:runtime_schemes rt_programs
        in
        {
          label = Printf.sprintf "S%d*L%d" s l;
          stmts = s;
          loads = l;
          ct_policy = scheme_name ct_scheme;
          ct_actual;
          ct_lb;
          rt_policy = scheme_name rt_scheme;
          rt_actual;
          rt_lb;
        })
      shapes
  in
  {
    elem;
    peak = Simd_machine.Config.blocking_factor machine ~elem:(Ast.elem_width elem);
    rows;
    loops_per_row = count;
  }

let pp_speedup_table fmt (t : speedup_table) =
  Format.fprintf fmt
    "Speedup of simdized vs scalar code (%s, %d data per vector → peak %d; %d \
     loops per row)@\n"
    (Ast.elem_ty_name t.elem) t.peak t.peak t.loops_per_row;
  Format.fprintf fmt "%-8s | %-14s %7s %7s | %-14s %7s %7s@\n" "loop"
    "best(ct)" "actual" "LB" "best(rt)" "actual" "LB";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s | %-14s %7.2f %7.2f | %-14s %7.2f %7.2f@\n" r.label
        r.ct_policy r.ct_actual r.ct_lb r.rt_policy r.rt_actual r.rt_lb)
    t.rows

(* ------------------------------------------------------------------ *)
(* §5.4 coverage: simdize everything, verify everything                *)
(* ------------------------------------------------------------------ *)

type coverage_failure = {
  spec : Synth.spec;
  variant : string;
  scheme : string;
  message : string;
}

type coverage_report = {
  attempted : int;
  verified : int;
  failures : coverage_failure list;
}

(** [coverage ~machine ~loops ()] — generate loops across the (l, s, n, b,
    r) grid (l ≤ 8, s ≤ 4, trip ∈ [997, 1000]) with randomly drawn bias and
    reuse, in compile-time, runtime-alignment and runtime-trip variants,
    simdize each under a rotating scheme, simulate, and verify against the
    scalar interpreter (§5.4). *)
let coverage ~machine ?(seed = 7) ?(loops = 1000) () : coverage_report =
  let prng = Simd_support.Prng.create ~seed in
  let attempted = ref 0 in
  let verified = ref 0 in
  let failures = ref [] in
  let schemes = Array.of_list all_schemes in
  for k = 0 to loops - 1 do
    let spec =
      {
        Synth.stmts = Simd_support.Prng.range prng ~lo:1 ~hi:4;
        loads_per_stmt = Simd_support.Prng.range prng ~lo:1 ~hi:8;
        trip = Simd_support.Prng.range prng ~lo:997 ~hi:1000;
        elem =
          Simd_support.Prng.pick prng [ Ast.I8; Ast.I16; Ast.I32; Ast.I64 ];
        bias = Simd_support.Prng.float prng;
        reuse = Simd_support.Prng.float prng;
        (* a third of the sweep also exercises the extensions *)
        stride_prob =
          (if Simd_support.Prng.chance prng 0.33 then 0.3 else 0.0);
        reduce_prob =
          (if Simd_support.Prng.chance prng 0.33 then 0.3 else 0.0);
        seed = 100_000 + k;
      }
    in
    let program = Synth.generate ~machine spec in
    let scheme = schemes.(k mod Array.length schemes) in
    let variants =
      [
        ("compile-time", program, None);
        ("runtime-align", Synth.hide_alignments program, None);
        ("runtime-trip", Synth.hide_trip program, Some spec.Synth.trip);
      ]
    in
    List.iter
      (fun (variant, p, trip) ->
        incr attempted;
        let config = config_of_scheme ~machine ~reassoc:false scheme in
        match Measure.verify ~config ?trip ~setup_seed:(1000 + k) p with
        | Ok () -> incr verified
        | Error message ->
          failures :=
            { spec; variant; scheme = scheme_name scheme; message } :: !failures)
      variants
  done;
  { attempted = !attempted; verified = !verified; failures = List.rev !failures }

let pp_coverage fmt (r : coverage_report) =
  Format.fprintf fmt "coverage: %d/%d loop variants simdized and verified@\n"
    r.verified r.attempted;
  List.iteri
    (fun i f ->
      if i < 10 then
        Format.fprintf fmt "  FAIL %s %s (%s): %s@\n"
          (Synth.show_spec f.spec) f.variant f.scheme f.message)
    r.failures

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice studies beyond the paper's figures         *)
(* ------------------------------------------------------------------ *)

(** Reuse/unrolling ablation: operations per datum with copies charged at
    full cost (weight 1), isolating what software pipelining buys and what
    unrolling recovers. One row per (reuse, unroll) pair. *)
type ablation_row = { knob : string; value : string; opd : float; speedup : float }

type ablation = { title : string; rows : ablation_row list }

let pp_ablation fmt (a : ablation) =
  Format.fprintf fmt "%s@\n%-16s %-12s %8s %9s@\n" a.title "knob" "value" "opd"
    "speedup";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-16s %-12s %8.3f %8.2fx@\n" r.knob r.value r.opd
        r.speedup)
    a.rows

let charged = { Measure.default_weights with Measure.copy = 1.0 }

let mean_opd ~weights ~config programs =
  let samples = List.map (fun p -> Measure.run ~config p) programs in
  ( Simd_support.Util.mean (List.map (Measure.opd ~weights) samples),
    Simd_support.Util.harmonic_mean
      (List.map (Measure.speedup ~weights) samples) )

(** Reuse × unrolling, with copies charged (weight 1): quantifies the
    paper's §4.5 claim that unrolling removes the pipelining copies. *)
let ablation_reuse_unroll ~machine ?(spec = Synth.default_spec) ?(count = 20) ()
    : ablation =
  let programs = Synth.benchmark ~machine ~spec ~count in
  let rows =
    List.concat_map
      (fun reuse ->
        List.map
          (fun unroll ->
            let config =
              {
                Driver.default with
                Driver.machine;
                policy = Policy.Dominant;
                reuse;
                unroll;
              }
            in
            let opd, speedup = mean_opd ~weights:charged ~config programs in
            {
              knob = Driver.reuse_name reuse;
              value = Printf.sprintf "unroll=%d" unroll;
              opd;
              speedup;
            })
          [ 1; 2; 4 ])
      [ Driver.No_reuse; Driver.Predictive_commoning; Driver.Software_pipelining ]
  in
  { title = "Ablation: reuse strategy x unrolling (copies charged at weight 1)";
    rows }

(** MemNorm ablation on a same-array multi-tap loop (FIR-like), where chunk
    normalization is what exposes the redundant loads. *)
let ablation_memnorm ~machine () : ablation =
  let src taps =
    let loads =
      String.concat " + " (List.init taps (fun k -> Printf.sprintf "x[i+%d]" k))
    in
    Printf.sprintf
      "int32 y[1100] @ 0;\nint32 x[1100] @ 4;\nfor (i = 0; i < 1000; i++) { y[i] = %s; }"
      loads
  in
  let rows =
    List.concat_map
      (fun taps ->
        let program = Simd_loopir.Parse.program_of_string (src taps) in
        List.map
          (fun memnorm ->
            let config =
              {
                Driver.default with
                Driver.machine;
                memnorm;
                reuse = Driver.Predictive_commoning;
              }
            in
            let sample = Measure.run ~config program in
            {
              knob = Printf.sprintf "%d-tap FIR" taps;
              value = (if memnorm then "memnorm" else "no-memnorm");
              opd = Measure.opd sample;
              speedup = Measure.speedup sample;
            })
          [ false; true ])
      [ 2; 4; 8 ]
  in
  { title = "Ablation: memory normalization on same-array multi-tap loops"; rows }

(** Vector length sweep: the framework is parametric in V; speedups should
    scale with data per vector. *)
let ablation_vector_length ?(spec = Synth.default_spec) ?(count = 20) () :
    ablation =
  let rows =
    List.map
      (fun vl ->
        let machine = Simd_machine.Config.create ~vector_len:vl in
        let programs = Synth.benchmark ~machine ~spec ~count in
        let config = { Driver.default with Driver.machine } in
        let opd, speedup = mean_opd ~weights:Measure.default_weights ~config programs in
        {
          knob = "vector_len";
          value = Printf.sprintf "V=%d (B=%d)" vl (vl / 4);
          opd;
          speedup;
        })
      [ 8; 16; 32; 64 ]
  in
  { title = "Ablation: vector register length (int32 loops, S1*L6)"; rows }

(** Element width sweep at V=16 — extends Tables 1/2 to all four widths. *)
let ablation_elem_width ~machine ?(count = 20) () : ablation =
  let rows =
    List.map
      (fun elem ->
        let spec = { Synth.default_spec with Synth.elem } in
        let programs = Synth.benchmark ~machine ~spec ~count in
        let config = { Driver.default with Driver.machine } in
        let opd, speedup = mean_opd ~weights:Measure.default_weights ~config programs in
        {
          knob = "elem_width";
          value =
            Printf.sprintf "%s (peak %d)"
              (Simd_loopir.Ast.elem_ty_name elem)
              (16 / Simd_loopir.Ast.elem_width elem);
          opd;
          speedup;
        })
      [ Simd_loopir.Ast.I8; Simd_loopir.Ast.I16; Simd_loopir.Ast.I32; Simd_loopir.Ast.I64 ]
  in
  { title = "Ablation: element width at V=16 (S1*L6 loops)"; rows }

(** Peeling-baseline comparison (§6): fraction of loops the prior-work
    baseline can simdize at all, vs. this paper's scheme, by misalignment
    bias. *)
type peel_row = { bias : float; peel_ok : int; ours_ok : int; total : int }

let peeling_coverage ~machine ?(count = 40) () : peel_row list =
  List.map
    (fun bias ->
      let spec = { Synth.default_spec with Synth.bias; loads_per_stmt = 3 } in
      let programs = Synth.benchmark ~machine ~spec ~count in
      let peel_ok =
        List.length
          (List.filter
             (fun p ->
               match
                 Driver.simdize
                   { Driver.default with Driver.machine; peel_baseline = true }
                   p
               with
               | Driver.Simdized _ -> true
               | Driver.Scalar _ -> false)
             programs)
      in
      let ours_ok =
        List.length
          (List.filter
             (fun p ->
               match Driver.simdize { Driver.default with Driver.machine } p with
               | Driver.Simdized _ -> true
               | Driver.Scalar _ -> false)
             programs)
      in
      { bias; peel_ok; ours_ok; total = count })
    [ 0.0; 0.3; 0.7; 1.0 ]

let pp_peeling fmt rows =
  Format.fprintf fmt
    "Baseline comparison: loops simdizable by peeling (prior work) vs this \
     scheme@\n%-8s %10s %10s %8s@\n"
    "bias" "peeling" "ours" "total";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8.1f %10d %10d %8d@\n" r.bias r.peel_ok r.ours_ok
        r.total)
    rows

(* ------------------------------------------------------------------ *)
(* JSON serialization (the bench harness's --json output)              *)
(* ------------------------------------------------------------------ *)

module Json = Simd_support.Json

let opd_row_to_json (r : opd_row) : Json.t =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("lb_opd", Json.Float r.lb_opd);
      ("shift_overhead", Json.Float r.shift_overhead);
      ("other_overhead", Json.Float r.other_overhead);
      ("total_opd", Json.Float r.total_opd);
      ("hmean_opd", Json.Float r.hmean_opd);
    ]

let opd_figure_to_json (f : opd_figure) : Json.t =
  Json.Obj
    [
      ("seq_opd", Json.Float f.seq_opd);
      ("loops", Json.Int f.loops);
      ("reassoc", Json.Bool f.reassoc);
      ("rows", Json.List (List.map opd_row_to_json f.rows));
    ]

let speedup_row_to_json (r : speedup_row) : Json.t =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("stmts", Json.Int r.stmts);
      ("loads", Json.Int r.loads);
      ("ct_policy", Json.String r.ct_policy);
      ("ct_actual", Json.Float r.ct_actual);
      ("ct_lb", Json.Float r.ct_lb);
      ("rt_policy", Json.String r.rt_policy);
      ("rt_actual", Json.Float r.rt_actual);
      ("rt_lb", Json.Float r.rt_lb);
    ]

let speedup_table_to_json (t : speedup_table) : Json.t =
  Json.Obj
    [
      ("elem", Json.String (Ast.elem_ty_name t.elem));
      ("peak", Json.Int t.peak);
      ("loops_per_row", Json.Int t.loops_per_row);
      ("rows", Json.List (List.map speedup_row_to_json t.rows));
    ]

let coverage_to_json (c : coverage_report) : Json.t =
  Json.Obj
    [
      ("attempted", Json.Int c.attempted);
      ("verified", Json.Int c.verified);
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("spec", Json.String (Synth.show_spec f.spec));
                   ("variant", Json.String f.variant);
                   ("scheme", Json.String f.scheme);
                   ("message", Json.String f.message);
                 ])
             c.failures) );
    ]
