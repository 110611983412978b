(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printing the same rows/series), then times the pipeline
   behind each experiment with Bechamel — one Test.make per table/figure.

   Usage:  dune exec bench/main.exe [-- --loops N] [--jobs N] [--no-bench]
           [--json PATH] [--cache DIR]
   N defaults to 50 (the paper's benchmark size). --jobs N computes the
   five figure/table artifacts on a Simd.Par.Pool of N workers (the
   printed artifacts are identical to the sequential run; the pool report
   goes to stderr). --json also writes every figure/table row, the static
   cost reports of the benchmark programs under each policy, and the
   Bechamel timings to PATH as one JSON document. The static reports are
   served from the content-addressed artifact cache at --cache DIR
   (default _bench_cache; --no-cache disables) — a scheme whose program,
   config, and library version are unchanged since the last run is not
   recompiled, and the report notes the time that saved. *)

open Bechamel
open Toolkit

let machine = Simd.Machine.default

let loops, jobs, run_bench, json_path, cache_dir =
  let loops = ref 50 in
  let jobs = ref 1 in
  let bench = ref true in
  let json = ref None in
  let cache = ref (Some "_bench_cache") in
  let rec parse = function
    | [] -> ()
    | "--loops" :: n :: rest ->
      loops := int_of_string n;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | "--no-bench" :: rest ->
      bench := false;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--cache" :: dir :: rest ->
      cache := Some dir;
      parse rest
    | "--no-cache" :: rest ->
      cache := None;
      parse rest
    | _ :: rest -> parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!loops, !jobs, !bench, !json, !cache)

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
(* Bechamel micro-benchmarks: the pipeline behind each experiment      *)
(* ------------------------------------------------------------------ *)

let fig_program = Simd.Synth.generate ~machine spec

let table1_program =
  Simd.Synth.generate ~machine
    { spec with Simd.Synth.stmts = 4; loads_per_stmt = 8 }

let table2_program =
  Simd.Synth.generate ~machine
    { spec with Simd.Synth.stmts = 4; loads_per_stmt = 4; elem = Simd.Ast.I16 }

let coverage_program =
  Simd.Synth.generate ~machine
    { spec with Simd.Synth.stmts = 2; loads_per_stmt = 4 }

let config policy reuse =
  { Simd.Driver.default with Simd.Driver.machine; policy; reuse }

let measure_once ~config program = ignore (Simd.Measure.run ~config program)

let tests =
  [
    (* Figure 11: simdize + simulate one S1*L6 loop under headline schemes
       (reassociation off). *)
    Test.make ~name:"fig11/dominant-sp"
      (Staged.stage (fun () ->
           measure_once
             ~config:
               (config Simd.Policy.Dominant Simd.Driver.Software_pipelining)
             fig_program));
    Test.make ~name:"fig11/zero-sp"
      (Staged.stage (fun () ->
           measure_once
             ~config:(config Simd.Policy.Zero Simd.Driver.Software_pipelining)
             fig_program));
    (* Figure 12: the reassociated variant. *)
    Test.make ~name:"fig12/lazy-pc+reassoc"
      (Staged.stage (fun () ->
           measure_once
             ~config:
               {
                 (config Simd.Policy.Lazy Simd.Driver.Predictive_commoning) with
                 Simd.Driver.reassoc = true;
               }
             fig_program));
    (* The exact-solver series of Figure 11. *)
    Test.make ~name:"fig11/optimal-sp"
      (Staged.stage (fun () ->
           measure_once
             ~config:
               (config Simd.Policy.Optimal Simd.Driver.Software_pipelining)
             fig_program));
    (* Table 1: the S4*L8 int32 row's winning scheme. *)
    Test.make ~name:"table1/S4L8-dominant-pc"
      (Staged.stage (fun () ->
           measure_once
             ~config:
               (config Simd.Policy.Dominant Simd.Driver.Predictive_commoning)
             table1_program));
    (* Table 2: the S4*L4 int16 row. *)
    Test.make ~name:"table2/S4L4-int16-dominant-sp"
      (Staged.stage (fun () ->
           measure_once
             ~config:
               (config Simd.Policy.Dominant Simd.Driver.Software_pipelining)
             table2_program));
    (* Coverage: one full differential verification (scalar run + simdized
       run + whole-arena compare). *)
    Test.make ~name:"coverage/verify-one-loop"
      (Staged.stage (fun () ->
           match
             Simd.Measure.verify
               ~config:(config Simd.Policy.Lazy Simd.Driver.Software_pipelining)
               coverage_program
           with
           | Ok () -> ()
           | Error m -> failwith m));
    (* The simdizer alone (no simulation): compile-time cost. *)
    Test.make ~name:"simdize-only/S4L8"
      (Staged.stage (fun () ->
           ignore
             (Simd.Driver.simdize
                (config Simd.Policy.Dominant Simd.Driver.Software_pipelining)
                table1_program)));
    (* The exact solver alone on the widest statement shape. *)
    Test.make ~name:"simdize-only/S4L8-optimal"
      (Staged.stage (fun () ->
           ignore
             (Simd.Driver.simdize
                (config Simd.Policy.Optimal Simd.Driver.Software_pipelining)
                table1_program)));
  ]

let benchmark () : (string * float) list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"experiments" tests)
  in
  List.concat_map
    (fun instance ->
      Hashtbl.fold
        (fun test_name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (test_name, est) :: acc
          | Some _ | None -> acc)
        (Analyze.all ols instance raw) []
      |> List.sort compare)
    instances

let timings =
  if run_bench then begin
    Format.printf "=== Bechamel timings (monotonic clock) ===@.";
    let ts = benchmark () in
    List.iter
      (fun (test_name, est) ->
        Format.printf "%-40s %12.0f ns/run@." test_name est)
      ts;
    ts
  end
  else []

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

(* Static cost reports of the benchmark programs under every policy: what
   each placement decided and what it cost (the data behind the exact-
   solver series), each paired with the compact pass-pipeline trace
   summary (Simd.Trace) of that compilation — which passes ran, which
   changed the IR, and their operation-count deltas — and with the static
   verifier's verdict (Simd.Check): per-boundary violations (none, for a
   healthy compiler) and the proof obligations discharged — plus the
   simd-lint/1 report (Simd.Lint) of wasted or suspicious vector code.

   Each (program, policy) scheme's report is served from the artifact
   cache: the key covers library version, program source, and canonical
   config, so an unchanged scheme is never recompiled across bench runs.
   The cached payload remembers how long the cold compile took — the time
   a hit saves. *)
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
           ( "check",
             let violation_json (boundary, v) =
               let fields =
                 match Simd.Check.violation_to_json v with
                 | Simd.Json.Obj fields -> fields
                 | j -> [ ("violation", j) ]
               in
               Simd.Json.Obj
                 (("boundary", Simd.Json.String boundary) :: fields)
             in
             Simd.Json.Obj
               [
                 ( "violations",
                   Simd.Json.List
                     (List.map violation_json (Simd.Driver.check_violations o))
                 );
                 ("facts", Simd.Check.facts_to_json (Simd.Driver.check_facts o));
               ] );
         ])
  | Simd.Driver.Scalar _ -> None

type report_cache_stats = {
  mutable sr_hits : int;
  mutable sr_misses : int;
  mutable sr_saved_ms : float;
}

let report_cache = { sr_hits = 0; sr_misses = 0; sr_saved_ms = 0. }

(* Cold compiles wrap the document with their own elapsed time; a hit
   replays the document and books that time as saved. A scalar outcome is
   cached too (as null), so unvectorizable schemes are not re-attempted. *)
let compile_scheme_cached cas program policy : Simd.Json.t option =
  let key =
    Simd.Cas.key
      [
        "bench-static/1";
        Simd.Serve.Protocol.library_version;
        Simd.Driver.config_to_string
          (config policy Simd.Driver.Software_pipelining);
        Simd.Pp.program_to_string program;
      ]
  in
  let unwrap doc =
    match
      (Simd.Json.member "elapsed_ms" doc, Simd.Json.member "doc" doc)
    with
    | Some (Simd.Json.Float ms), Some payload -> Some (ms, payload)
    | _ -> None
  in
  let hit =
    match Simd.Cas.find cas ~key with
    | None -> None
    | Some payload -> (
      match Simd.Json.of_string payload with
      | Ok doc -> unwrap doc
      | Error _ -> None)
  in
  match hit with
  | Some (ms, payload) ->
    report_cache.sr_hits <- report_cache.sr_hits + 1;
    report_cache.sr_saved_ms <- report_cache.sr_saved_ms +. ms;
    (match payload with Simd.Json.Null -> None | doc -> Some doc)
  | None ->
    report_cache.sr_misses <- report_cache.sr_misses + 1;
    let t0 = Unix.gettimeofday () in
    let result = compile_scheme program policy in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let payload = Option.value ~default:Simd.Json.Null result in
    Simd.Cas.store cas ~key
      (Simd.Json.to_line
         (Simd.Json.Obj
            [
              ("elapsed_ms", Simd.Json.Float elapsed_ms); ("doc", payload);
            ]));
    result

let static_reports () : Simd.Json.t =
  let programs =
    [
      ("fig11_S1L6", fig_program);
      ("table1_S4L8", table1_program);
      ("table2_S4L4_int16", table2_program);
    ]
  in
  let compile =
    match cache_dir with
    | None -> compile_scheme
    | Some dir -> compile_scheme_cached (Simd.Cas.create ~dir ())
  in
  let doc =
    Simd.Json.Obj
      (List.map
         (fun (label, program) ->
           ( label,
             Simd.Json.Obj
               (List.filter_map
                  (fun policy ->
                    compile program policy
                    |> Option.map (fun d -> (Simd.Policy.name policy, d)))
                  Simd.Policy.all) ))
         programs)
  in
  if cache_dir <> None then
    Format.eprintf
      "static reports: %d schemes from cache (%.0f ms of compilation \
       saved), %d compiled cold@."
      report_cache.sr_hits report_cache.sr_saved_ms report_cache.sr_misses;
  doc

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
      ( "programs",
        Simd.Json.Obj
          (List.map program_json
             [
               ("fig11_S1L6", fig_program);
               ("table1_S4L8", table1_program);
               ("table2_S4L4_int16", table2_program);
             ]) );
    ]

let () =
  match json_path with
  | None -> ()
  | Some path ->
    (* Bind first: report_cache must be populated before it is rendered
       (list-element evaluation order is unspecified). *)
    let reports = static_reports () in
    let doc =
      Simd.Json.Obj
        [
          ("loops", Simd.Json.Int loops);
          ("fig11", Simd.Suite.opd_figure_to_json fig11);
          ("fig12", Simd.Suite.opd_figure_to_json fig12);
          ("table1", Simd.Suite.speedup_table_to_json table1);
          ("table2", Simd.Suite.speedup_table_to_json table2);
          ("coverage", Simd.Suite.coverage_to_json cov);
          ("static_reports", reports);
          ("backends", backends_json ());
          ( "static_reports_cache",
            if cache_dir = None then Simd.Json.Null
            else
              Simd.Json.Obj
                [
                  ("hits", Simd.Json.Int report_cache.sr_hits);
                  ("misses", Simd.Json.Int report_cache.sr_misses);
                  ("saved_ms", Simd.Json.Float report_cache.sr_saved_ms);
                ] );
          ( "timings_ns_per_run",
            Simd.Json.Obj
              (List.map (fun (n, e) -> (n, Simd.Json.Float e)) timings) );
        ]
    in
    Simd.Json.to_file ~indent:2 path doc;
    Format.printf "wrote %s@." path
