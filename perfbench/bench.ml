(* perfbench — one benchmark for the whole system.

   Every run exercises the three layers a user meets — emitted code
   (kernels), the compiler (compile) and the service (serve) — because the
   result line carries every end-to-end metric. The workload names the
   phase that gets the full input set and most of the time budget; the
   other two run as short side phases on the same definitions (the
   kernels side phase on a fixed five-program corpus subset, since its
   gcc builds dominate set-up). The serve phase is always a side phase:
   its cold phase is the same at home or not, and its hot latencies are
   per-request bests over many replays either way, so a serve workload
   only repeated the other two at the cost of run time.

   Usage:
     bench.exe --workload kernels|compile --seed N --seconds S
               --trace 0|1

   The last line of standard output is the result object; everything
   before it is the human-readable report (environment, per-row table,
   failures, and in traced runs the per-layer table). *)

module Backend = Simd.Backend
module Policy = Simd.Policy
module Json = Simd.Json

let workloads = [ "kernels"; "compile" ]

(* Set-up is repeated and the median reported, so that one slow gcc or
   server start does not read as a regression: at least twice, and a
   third time unless set-up has already used the run's whole measured
   time budget (the kernels workload's ~70 gcc builds do). *)
let more_setups ~seconds times =
  match List.length times with
  | 0 | 1 -> true
  | 2 -> List.fold_left ( +. ) 0. times < float_of_int seconds
  | _ -> false

(* Share of the time budget the named workload's phase gets; the two side
   phases split the rest. *)
let home_share = 0.6

let rounds = 5

let side_corpus =
  [ "fig1_paper"; "fig6a_relative"; "fig6b_dominant"; "fir8"; "saxpy_short" ]

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "kernels|compile");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measured time budget");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("perfbench: " ^ usage);
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let command_output argv =
  match Unix.open_process_args_in argv.(0) argv with
  | ic ->
    let out = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    String.trim out
  | exception Unix.Unix_error _ -> ""

let cpu_info () =
  let lines = try String.split_on_char '\n' (Stats.read_file "/proc/cpuinfo") with Sys_error _ -> [] in
  let model =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  let nproc =
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         lines)
  in
  (Option.value ~default:"unknown" model, nproc)

let environment args ~cc ~probes =
  let model, nproc = cpu_info () in
  Json.Obj
    [
      ("cpu_model", Json.String model);
      ("nproc", Json.Int nproc);
      ("gcc_path", Json.String (Simd.Cc.path cc));
      ("gcc_version", Json.String (command_output [| Simd.Cc.path cc; "-dumpfullversion" |]));
      ( "gcc_flags",
        Json.Obj
          (List.map (fun b -> (Backend.name b, Json.String (Kernels.flags b))) Kernels.backends) );
      ( "backend_probe",
        Json.Obj (List.map (fun (b, s) -> (Backend.name b, Json.String (Backend.support_name s))) probes) );
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("library_version", Json.String Simd.Serve.Protocol.library_version);
      ("workload", Json.String args.workload);
      ("seed", Json.Int args.seed);
      ("seconds", Json.Int args.seconds);
      ("trace", Json.Bool args.trace);
      ("serve_window", Json.Int Serve_phase.window);
    ]

(* ------------------------------------------------------------------ *)
(* Inputs and set-up                                                   *)
(* ------------------------------------------------------------------ *)

type inputs = {
  rows : Kernels.row list;
  compile_stream : Compile_phase.req array;
  serve_stream : Serve_phase.req array;
}

(* Serve requests per run; at --seconds 10, enough for a p99 with ten
   samples beyond it. Half as many compile requests are traced. *)
let serve_requests args = 100 * args.seconds

let make_inputs args =
  let home = args.workload in
  let corpus = Kernels.corpus_sources () in
  let sources_for ~vl =
    if home = "kernels" then
      corpus @ Kernels.synth_sources ~seed:args.seed ~per_shape:1 ~vl
    else List.filter (fun (s : Kernels.source) -> List.mem s.Kernels.pname side_corpus) corpus
  in
  {
    rows = Kernels.rows ~sources_for;
    compile_stream = Compile_phase.stream ~seed:args.seed ~genloop:((5 * args.seconds) + 2);
    serve_stream = Serve_phase.stream ~seed:args.seed ~count:(serve_requests args);
  }

let inputs_digest i =
  Stats.digest_strings
    (List.concat_map (fun (r : Kernels.row) -> [ r.Kernels.name; r.unit_text; r.main_text ]) i.rows
    @ Array.to_list
        (Array.map
           (fun (r : Compile_phase.req) -> Simd.Serve.Protocol.request_to_line r.Compile_phase.request)
           i.compile_stream)
    @ Array.to_list (Array.map (fun (r : Serve_phase.req) -> r.Serve_phase.line) i.serve_stream))

type setup = {
  inputs : inputs;
  builds : (string, Kernels.build) Hashtbl.t;
  server : Serve_phase.server;
  dir : string;
}

let teardown s =
  Serve_phase.stop s.server;
  Stats.remove_tree s.dir

(* Program generation, the gcc builds of every row, and the server start —
   everything before the first timed operation. *)
let set_up args ~cc ~root ~rep =
  let dir = Filename.concat root (Printf.sprintf "setup%d" rep) in
  Sys.mkdir dir 0o755;
  let inputs, inputs_ms = Stats.time (fun () -> make_inputs args) in
  let builds, builds_ms = Stats.time (fun () -> Kernels.build_all ~cc ~dir ~jobs:2 inputs.rows) in
  let server = Serve_phase.start_server ~cache_dir:(Filename.concat dir "cache") in
  Printf.printf "setup %d: inputs %.3f s, %d gcc builds %.3f s\n%!" rep (inputs_ms /. 1000.)
    (Hashtbl.length builds) (builds_ms /. 1000.);
  { inputs; builds; server; dir }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* A value that is not a finite number (a counter that could not be read,
   a median of no samples) is written as null; the run counts it as a
   failure. *)
let metric_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit_, v) ->
         let v = if Float.is_finite v then Json.Float v else Json.Null in
         (name, Json.Obj [ ("value", v); ("unit", Json.String unit_) ]))
       metrics)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-42s %14.6g %s\n" name v unit_) metrics

let print_rows results =
  Printf.printf "kernels rows (program/policy/backend): measured vs modeled speedup\n";
  Printf.printf "  %-44s %9s %9s %8s %8s %8s  %s\n" "row" "scalar_ns" "simd_ns" "measured"
    "modeled" "opd" "scalar_digest";
  List.iter
    (fun r ->
      match r.Kernels.measured with
      | Ok m ->
        Printf.printf "  %-44s %9.4f %9.4f %8.3f %8.3f %8.3f  %s\n" r.Kernels.row.Kernels.name
          m.Kernels.scalar_ns m.simd_ns (Kernels.speedup m) r.modeled_speedup r.opd
          r.row.scalar_digest
      | Error e -> Printf.printf "  %-44s FAILED: %s\n" r.Kernels.row.Kernels.name e)
    results

let main args =
  let cc =
    match Simd.Cc.find () with
    | Some cc -> cc
    | None -> failwith "no C compiler found"
  in
  let probes = Backend.probe_all ~cc () in
  List.iter
    (fun b ->
      if List.assoc b probes <> Backend.Supported then
        failwith (Printf.sprintf "backend %s is not supported on this machine" (Backend.name b)))
    Kernels.backends;
  let env = environment args ~cc ~probes in
  Printf.printf "env %s\n%!" (Json.to_line env);
  let root = Filename.concat ".perfbench_work" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Sys.mkdir ".perfbench_work" 0o755 with Sys_error _ -> ());
  Sys.mkdir root 0o755;
  let current = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter teardown !current;
      Stats.remove_tree root)
    (fun () ->
      let rec setups times =
        if not (more_setups ~seconds:args.seconds times) then times
        else begin
          Option.iter teardown !current;
          current := None;
          let s, ms =
            Stats.time (fun () -> set_up args ~cc ~root ~rep:(List.length times))
          in
          current := Some s;
          setups ((ms /. 1000.) :: times)
        end
      in
      let setup_times = setups [] in
      let s = Option.get !current in
      Printf.printf "inputs %s\n%!" (inputs_digest s.inputs);
      let budget phase =
        float_of_int args.seconds
        *. (if phase = args.workload then home_share else (1. -. home_share) /. 2.)
      in
      (* The three phases run in interleaved rounds, so each metric
         integrates over the whole run rather than one window of it: on a
         shared 2-vCPU Xeon VM, CPU speed drifts by ±15 % within seconds. *)
      let rows = s.inputs.rows in
      let kernel_ms =
        1000. *. budget "kernels" /. float_of_int (rounds * max 1 (List.length rows))
      in
      (match Host_speed.share_cpu [ s.server.Serve_phase.pid ] with
      | Some cpu -> Printf.printf "timed phases pinned to cpu %d with the server\n%!" cpu
      | None -> Printf.printf "timed phases not pinned: sched_setaffinity refused\n%!");
      let speed = Host_speed.create () in
      let cs =
        Compile_phase.start ~speed
          ~passes:(if args.workload = "compile" then 3 else 2)
          s.inputs.compile_stream
      in
      let ss = Serve_phase.start ~speed s.server s.inputs.serve_stream in
      let sweeps =
        List.init rounds (fun k ->
            let sweep = Kernels.sweep s.builds rows ~budget_ms:kernel_ms in
            Compile_phase.slice cs ~k ~slices:rounds;
            Serve_phase.round ss ~k ~rounds
              ~hot_budget_s:(budget "serve" /. float_of_int rounds);
            sweep)
      in
      let kernel_results = Kernels.results rows sweeps in
      let compile = Compile_phase.finish cs in
      let serve = Serve_phase.finish ss in
      let self_rss = Stats.peak_rss_mb (Unix.getpid ()) in
      Serve_phase.stop s.server;
      print_rows kernel_results;
      (* Correctness: every failing row or request by name. *)
      let kernel_failures =
        List.filter_map
          (fun r -> match r.Kernels.measured with Error e -> Some (r.Kernels.row.Kernels.name, e) | Ok _ -> None)
          kernel_results
      in
      let failures =
        List.map (fun (n, m) -> ("kernels", n, m)) kernel_failures
        @ List.map (fun (n, m) -> ("compile", n, m)) compile.Compile_phase.failures
        @ List.map (fun (n, m) -> ("serve", n, m)) serve.Serve_phase.failures
      in
      List.iter (fun (p, n, m) -> Printf.printf "FAIL %s %s: %s\n" p n m) failures;
      let attempted =
        List.length kernel_results + compile.Compile_phase.processed + serve.Serve_phase.attempted
      in
      let failed =
        List.length kernel_failures + compile.Compile_phase.failed + serve.Serve_phase.failed
      in
      let lat = compile.Compile_phase.latencies in
      let geo_speedup backend ?policy () =
        Stats.geomean (List.map (fun (_, m) -> Kernels.speedup m) (Kernels.ok_rows kernel_results ~backend ?policy ()))
      in
      let end_to_end =
        [
          ("native_speedup_sse", "x", geo_speedup Backend.Sse ());
          ("native_speedup_avx2", "x", geo_speedup Backend.Avx2 ());
          ("compile_rps", "1/s", compile.Compile_phase.rate);
          ("compile_ms_p50", "ms", Stats.percentile lat 0.50);
          ("compile_ms_p99", "ms", Stats.percentile lat 0.99);
          ("serve_cold_rps", "1/s", serve.Serve_phase.cold_rate);
          ("serve_cold_ms_p50", "ms", Stats.percentile serve.Serve_phase.cold_ms 0.50);
          ("serve_cold_ms_p99", "ms", Stats.percentile serve.Serve_phase.cold_ms 0.99);
          ("serve_hot_rps", "1/s", serve.Serve_phase.hot_rate);
          ("serve_hot_ms_p50", "ms", Stats.percentile serve.Serve_phase.hot_ms 0.50);
          ("serve_hot_ms_p99", "ms", Stats.percentile serve.Serve_phase.hot_ms 0.99);
          ("peak_rss_mb", "MB", self_rss +. serve.Serve_phase.server_rss_mb);
          ("setup_s", "s", Stats.median setup_times);
        ]
      in
      let error_rate = float_of_int failed /. float_of_int (max 1 attempted) in
      Printf.printf
        "samples: kernels %d rows, compile %d requests (%d runs), serve %d cold + %d hot\n"
        (List.length kernel_results) (List.length lat) compile.Compile_phase.processed
        (List.length serve.Serve_phase.cold_ms) serve.Serve_phase.hot_requests;
      Printf.printf "peak rss: benchmark %.1f MB, server %.1f MB\n" self_rss
        serve.Serve_phase.server_rss_mb;
      Printf.printf
        "host speed: reference kernel %.4f ms (median of %d samples), %.4f ms at reference speed\n"
        (Host_speed.median_ms speed) (List.length speed.Host_speed.all) Host_speed.reference_ms;
      print_table "end-to-end (untraced)" end_to_end;
      Printf.printf "  %-42s %14.6g ratio (%d of %d failed)\n" "error_rate" error_rate failed
        attempted;
      let metrics =
        if not args.trace then end_to_end
        else begin
          let per_layer =
            Layers.metrics ~dir:root ~traced_requests:(serve_requests args / 2) ~kernels:kernel_results
              ~builds:s.builds ~compile_stream:s.inputs.compile_stream ~serve
              ~serve_stream:s.inputs.serve_stream ~error_rate
          in
          print_table "per-layer (traced)" per_layer;
          per_layer
        end
      in
      let broken = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
      List.iter (fun (name, _, _) -> Printf.printf "FAIL metric %s: not a finite number\n" name) broken;
      let failed = failed + List.length broken in
      print_endline
        (Json.to_line
           (Json.Obj
              [
                ("correct", Json.Bool (failed = 0));
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", metric_json metrics);
              ])))

let () =
  let args = parse_args () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match main args with
  | () -> exit 0
  | exception Failure m ->
    prerr_endline ("perfbench: " ^ m);
    exit 1
