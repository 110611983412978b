(* The evaluation driver: regenerates every table and figure of the
   paper's §5 evaluation (printing the same rows/series), then the
   design-choice ablations and the extension measurements. EXPERIMENTS.md
   records paper vs measured.

   Usage:  dune exec bench/main.exe [-- --loops N] [--jobs N] [--json PATH]
   N defaults to 50 (the paper's benchmark size). --jobs N computes the
   five figure/table artifacts on a Simd.Par.Pool of N workers (the
   printed artifacts are identical to the sequential run; the pool report
   goes to stderr). --json also writes every figure/table row, the static
   cost reports of the benchmark programs under each policy, and the
   backend matrix to PATH as one JSON document. The run exits 1 when the
   coverage sweep lists a failure, and fails when an extension program
   does not verify. Any other argument exits 2 before anything runs. *)

let machine = Simd.Machine.default

let loops, jobs, json_path =
  let loops = ref 50 in
  let jobs = ref 1 in
  let json = ref None in
  let usage msg =
    prerr_endline
      ("main.exe: " ^ msg
     ^ "\nusage: main.exe [--loops N] [--jobs N] [--json PATH]");
    exit 2
  in
  let int_arg flag n =
    match int_of_string_opt n with
    | Some v -> v
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" flag n)
  in
  let rec parse = function
    | [] -> ()
    | "--loops" :: n :: rest ->
      loops := int_arg "--loops" n;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_arg "--jobs" n;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | arg :: _ -> usage (Printf.sprintf "unknown or incomplete argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!loops, !jobs, !json)

(* ------------------------------------------------------------------ *)
(* Regenerate the paper's tables and figures                           *)
(* ------------------------------------------------------------------ *)

let spec = Simd.Synth.default_spec

(* The five independent artifact computations, as data so --jobs can farm
   them out to a Simd.Par.Pool. Results are plain records — marshal-safe. *)
type artifact = Fig11 | Fig12 | Table1 | Table2 | Cov

type artifact_result =
  | Fig of Simd.Suite.opd_figure
  | Table of Simd.Suite.speedup_table
  | Coverage of Simd.Suite.coverage_report

let compute = function
  | Fig11 ->
    Fig (Simd.Suite.opd_figure ~machine ~spec ~count:loops ~reassoc:false)
  | Fig12 ->
    Fig (Simd.Suite.opd_figure ~machine ~spec ~count:loops ~reassoc:true)
  | Table1 ->
    Table (Simd.Suite.speedup_table ~machine ~elem:Simd.Ast.I32 ~count:loops ())
  | Table2 ->
    Table (Simd.Suite.speedup_table ~machine ~elem:Simd.Ast.I16 ~count:loops ())
  | Cov -> Coverage (Simd.Suite.coverage ~machine ~loops:(max 100 loops) ())

let fig11, fig12, table1, table2, cov =
  let artifacts = [| Fig11; Fig12; Table1; Table2; Cov |] in
  let results =
    if jobs <= 1 then Array.map compute artifacts
    else begin
      let results, report =
        Simd.Par.Pool.map ~workers:jobs
          (fun i -> compute artifacts.(i))
          (Array.length artifacts)
      in
      Format.eprintf "%a@." Simd.Par.Pool.pp_report report;
      (* A lost worker just means we recompute that artifact here. *)
      Array.mapi
        (fun i (r : _ Simd.Par.Pool.result) ->
          match r.Simd.Par.Pool.outcome with
          | Simd.Par.Pool.Done v -> v
          | _ -> compute artifacts.(i))
        results
    end
  in
  match results with
  | [| Fig a; Fig b; Table c; Table d; Coverage e |] -> (a, b, c, d, e)
  | _ -> assert false

let () =
  Format.printf
    "=== Figure 11: OPD per scheme (S1*L6, int32), OffsetReassoc OFF ===@.";
  Format.printf "%a@." Simd.Suite.pp_opd_figure fig11;
  Format.printf
    "=== Figure 12: OPD per scheme (S1*L6, int32), OffsetReassoc ON ===@.";
  Format.printf "%a@." Simd.Suite.pp_opd_figure fig12;
  Format.printf "=== Table 1: speedups, 4 ints per vector ===@.";
  Format.printf "%a@." Simd.Suite.pp_speedup_table table1;
  Format.printf "=== Table 2: speedups, 8 shorts per vector ===@.";
  Format.printf "%a@." Simd.Suite.pp_speedup_table table2;
  Format.printf "=== Coverage (§5.4) ===@.";
  Format.printf "%a@." Simd.Suite.pp_coverage cov

(* ------------------------------------------------------------------ *)
(* Ablations and extensions: studies beyond the paper's figures        *)
(* ------------------------------------------------------------------ *)

let ablations () =
  let count = max 4 (loops / 2) in
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_reuse_unroll ~machine ~spec ~count ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_memnorm ~machine ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_vector_length ~spec ~count ());
  Format.printf "%a@." Simd.Suite.pp_ablation
    (Simd.Suite.ablation_elem_width ~machine ~count ());
  Format.printf "%a@." Simd.Suite.pp_peeling
    (Simd.Suite.peeling_coverage ~machine ~count:(2 * count) ())

let extensions () =
  (* The future-work extension measurements quoted in EXPERIMENTS.md. *)
  let report label ?(config = Simd.Driver.default) src =
    let program = Simd.parse_exn src in
    (match Simd.verify ~config program with
    | Ok () -> ()
    | Error m -> failwith (label ^ ": " ^ m));
    let sample, opd, speedup = Simd.measure ~config program in
    let c = sample.Simd.Measure.counts in
    Format.printf
      "%-28s %8.3f opd  %6.2fx speedup  (LB %.2fx; %d loads, %d shifts, %d \
       packs)@."
      label opd speedup
      (Simd.Measure.lb_speedup sample)
      c.Simd.Exec.vloads c.Simd.Exec.vshifts c.Simd.Exec.vpacks
  in
  Format.printf "Extension measurements (verified differentially first):@.";
  report "dot+max reductions"
    "int32 dot[1] @ 12;\nint32 hi[1] @ 4;\nint32 a[1100] @ 4;\nint32 b[1100] @ 8;\n\
     for (i = 0; i < 1000; i++) { dot += a[i+1] * b[i+3]; hi max= a[i+1]; }";
  report "int16 sum reduction"
    "int16 s[1] @ 2;\nint16 x[1100] @ 6;\n\
     for (i = 0; i < 1000; i++) { s += x[i+3]; }";
  report "deinterleave (stride 2)"
    "int32 re[1024] @ 0;\nint32 im[1024] @ 4;\nint32 x[2100] @ 8;\n\
     for (i = 0; i < 1000; i++) { re[i] = x[2*i]; im[i+1] = x[2*i+1]; }"
    ~config:
      { Simd.Driver.default with
        Simd.Driver.reuse = Simd.Driver.Predictive_commoning };
  report "RGBA channel (stride 4, i8)"
    "int8 red[1100] @ 1;\nint8 rgba[4400] @ 2;\n\
     for (i = 0; i < 1000; i++) { red[i+1] = rgba[4*i+2]; }"
    ~config:
      { Simd.Driver.default with
        Simd.Driver.reuse = Simd.Driver.Predictive_commoning };
  report "strided reduction"
    "int32 s[1] @ 4;\nint32 x[2100] @ 4;\n\
     for (i = 0; i < 1000; i++) { s += x[2*i+1]; }"

let () =
  Format.printf "=== Ablations ===@.";
  ablations ();
  Format.printf "=== Extensions ===@.";
  extensions ()

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let programs =
  [
    ("fig11_S1L6", Simd.Synth.generate ~machine spec);
    ( "table1_S4L8",
      Simd.Synth.generate ~machine
        { spec with Simd.Synth.stmts = 4; loads_per_stmt = 8 } );
    ( "table2_S4L4_int16",
      Simd.Synth.generate ~machine
        {
          spec with
          Simd.Synth.stmts = 4;
          loads_per_stmt = 4;
          elem = Simd.Ast.I16;
        } );
  ]

let config policy reuse =
  { Simd.Driver.default with Simd.Driver.machine; policy; reuse }

(* Static cost reports of the benchmark programs under every policy: what
   each placement decided and what it cost (the data behind the exact-
   solver series), each paired with the compact pass-pipeline trace
   summary (Simd.Trace) of that compilation — which passes ran, which
   changed the IR, and their operation-count deltas — and with the static
   verifier's document (Simd.Driver.check_to_json): its verdict,
   per-boundary violations (none, for a healthy compiler) and the proof
   obligations discharged — plus the simd-lint/2 report (Simd.Lint) of
   wasted or suspicious vector code. *)
let compile_scheme program policy : Simd.Json.t option =
  let trace = Simd.Trace.create () in
  match
    Simd.Driver.simdize ~trace ~check:true
      (config policy Simd.Driver.Software_pipelining)
      program
  with
  | Simd.Driver.Simdized o ->
    Some
      (Simd.Json.Obj
         [
           ("report", Simd.Opt.Report.to_json (Simd.Driver.report o));
           ("trace", Simd.Trace.summary_to_json trace);
           ("lint", Simd.Lint.report_to_json (Simd.Lint.run o));
           ("check", Simd.Driver.check_to_json o);
         ])
  | Simd.Driver.Scalar _ -> None

let static_reports () : Simd.Json.t =
  Simd.Json.Obj
    (List.map
       (fun (label, program) ->
         ( label,
           Simd.Json.Obj
             (List.filter_map
                (fun policy ->
                  compile_scheme program policy
                  |> Option.map (fun d -> (Simd.Policy.name policy, d)))
                Simd.Policy.all) ))
       programs)

(* ------------------------------------------------------------------ *)
(* The backend matrix: one placement per program, retargeted to every
   registry backend's native V, probed, simulated, and priced           *)
(* ------------------------------------------------------------------ *)

let backends_json () : Simd.Json.t =
  let cc = Simd.Cc.find () in
  let probe =
    Simd.Json.List
      (List.map
         (fun (b, support) -> Simd.Backend.to_json b support)
         (Simd.Backend.probe_all ?cc ()))
  in
  let row_json program (row : Simd.Matrix.row) =
    let base =
      match Simd.Matrix.row_to_json row with
      | Simd.Json.Obj fields -> fields
      | j -> [ ("row", j) ]
    in
    let perf =
      match row.Simd.Matrix.retarget with
      | Error _ -> []
      | Ok t -> (
        let trip =
          match program.Simd.Ast.loop.Simd.Ast.trip with
          | Simd.Ast.Trip_const _ -> None
          | Simd.Ast.Trip_param _ -> Some 200
        in
        match
          Simd.Measure.of_outcome ?trip program t.Simd.Retarget.outcome
        with
        | sample ->
          [
            ("opd", Simd.Json.Float (Simd.Measure.opd sample));
            ("speedup", Simd.Json.Float (Simd.Measure.speedup sample));
          ]
        | exception e ->
          [ ("sim_error", Simd.Json.String (Printexc.to_string e)) ])
    in
    Simd.Json.Obj (base @ perf)
  in
  let program_json (label, program) =
    match
      Simd.Driver.simdize ~check:true
        (config Simd.Policy.Dominant Simd.Driver.Software_pipelining)
        program
    with
    | Simd.Driver.Scalar r ->
      ( label,
        Simd.Json.Obj
          [
            ( "scalar",
              Simd.Json.String (Format.asprintf "%a" Simd.Driver.pp_reason r)
            );
          ] )
    | Simd.Driver.Simdized o ->
      ( label,
        Simd.Json.List (List.map (row_json program) (Simd.Matrix.rows ?cc o))
      )
  in
  Simd.Json.Obj
    [
      ( "cc",
        match cc with
        | Some c -> Simd.Json.String (Simd.Cc.id c)
        | None -> Simd.Json.Null );
      ("probe", probe);
      ("programs", Simd.Json.Obj (List.map program_json programs));
    ]

let () =
  (match json_path with
  | None -> ()
  | Some path ->
    Simd.Json.to_file ~indent:2 path
      (Simd.Json.Obj
         [
           ("loops", Simd.Json.Int loops);
           ("fig11", Simd.Suite.opd_figure_to_json fig11);
           ("fig12", Simd.Suite.opd_figure_to_json fig12);
           ("table1", Simd.Suite.speedup_table_to_json table1);
           ("table2", Simd.Suite.speedup_table_to_json table2);
           ("coverage", Simd.Suite.coverage_to_json cov);
           ("static_reports", static_reports ());
           ("backends", backends_json ());
         ]);
    Format.printf "wrote %s@." path);
  if cov.Simd.Suite.failures <> [] then exit 1
