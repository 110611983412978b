(* fuzz — differential fuzzing front end.

   Default mode runs a seeded campaign: generate --budget random loop
   programs, check each one differentially (scalar interpreter vs. the
   simdized execution) under a randomly sampled driver configuration, and
   write a minimized reproducer for every divergence or crash into the
   output directory (corpus/fuzz/ by convention).

   --jobs N shards the campaign across N forked worker processes using the
   deterministic chunk plan (Simd.Fuzz.Campaign.plan): stdout, reproducer
   files, and the JSON report's result section are byte-identical for
   every N — only timing (stderr, and the report's "perf" section) varies.

   --native switches the oracle to the native-differential one: each case's
   portable-C self-checking harness is compiled with the discovered C
   compiler (cached by source hash) and executed, and its verdict is
   cross-checked against the simulator.

   --replay re-runs a committed reproducer file and reports its outcome;
   --replay-dir replays every .simd file in a directory. Both honor
   --native. The exit code distinguishes pass/skip (0) from
   divergence/crash (1). *)

open Cmdliner
module Fuzz = Simd.Fuzz
module Par = Simd.Par

let default_replay_trip = 203

(* ------------------------------------------------------------------ *)
(* Oracle selection                                                    *)
(* ------------------------------------------------------------------ *)

let make_oracle ~native ~cache =
  if not native then Ok Par.Campaign.Simulator
  else
    match Par.Native.create ~cache_dir:cache () with
    | Ok t -> Ok (Par.Campaign.Native t)
    | Error m -> Error m

let oracle_case_fn = function
  | Par.Campaign.Simulator -> Fuzz.Oracle.run
  | Par.Campaign.Native t -> Par.Native.check t
  | Par.Campaign.Custom f -> f

(* ------------------------------------------------------------------ *)
(* Campaign mode                                                       *)
(* ------------------------------------------------------------------ *)

let write_failures ~out ~seed failures =
  if failures <> [] && not (Sys.file_exists out) then Sys.mkdir out 0o755;
  List.map
    (fun (f : Fuzz.Campaign.failure) ->
      let path =
        Filename.concat out
          (Printf.sprintf "fuzz-seed%d-case%d.simd" seed f.Fuzz.Campaign.index)
      in
      Fuzz.Case.to_file path f.Fuzz.Campaign.minimized;
      (f, path))
    failures

(* Per-rule lint counters over a deterministic bounded sample of the
   campaign's cases: the first [min budget 200] cases of its chunk plan,
   regenerated from each chunk's seed, compiled under their sampled
   configs and linted. A pure function of [seed], [budget] and
   [chunk_size], so reports stay byte-identical for fixed inputs. *)
let lint_json ~seed ~budget ~chunk_size : Simd.Json.t =
  let sample = min budget 200 in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (r : Simd.Lint.rule) -> Hashtbl.replace totals r.Simd.Lint.name 0)
    Simd.Lint.rules;
  let simdized = ref 0 and scalar = ref 0 and findings = ref 0 in
  let lint_case (case : Fuzz.Case.t) =
    match
      Simd.Driver.simdize case.Fuzz.Case.config case.Fuzz.Case.program
    with
    | Simd.Driver.Scalar _ -> incr scalar
    | Simd.Driver.Simdized o ->
      incr simdized;
      let r = Simd.Lint.run o in
      findings := !findings + List.length r.Simd.Lint.findings;
      List.iter
        (fun (name, n) ->
          Hashtbl.replace totals name (Hashtbl.find totals name + n))
        r.Simd.Lint.counts
  in
  List.iter
    (fun (c : Fuzz.Campaign.chunk) ->
      let prng = Simd.Prng.create ~seed:c.Fuzz.Campaign.chunk_seed in
      for _ = 1 to c.Fuzz.Campaign.size do
        lint_case (Fuzz.Genloop.gen_case prng)
      done)
    (Fuzz.Campaign.plan ~chunk_size ~seed ~budget:sample ());
  Simd.Json.Obj
    [
      ("sample", Simd.Json.Int sample);
      ("simdized", Simd.Json.Int !simdized);
      ("scalar", Simd.Json.Int !scalar);
      ("findings", Simd.Json.Int !findings);
      ( "counts",
        Simd.Json.Obj
          (List.map
             (fun (r : Simd.Lint.rule) ->
               (r.Simd.Lint.name, Simd.Json.Int (Hashtbl.find totals r.Simd.Lint.name)))
             Simd.Lint.rules) );
    ]

let report_json ~seed ~budget ~jobs ~chunk_size ~oracle ~wall_s
    (r : Par.Campaign.result) (written : (Fuzz.Campaign.failure * string) list)
    : Simd.Json.t =
  let failure_json ((f : Fuzz.Campaign.failure), path) =
    Simd.Json.Obj
      ([
         ("index", Simd.Json.Int f.Fuzz.Campaign.index);
         ( "outcome",
           Simd.Json.String (Fuzz.Oracle.outcome_name f.Fuzz.Campaign.outcome)
         );
         ( "message",
           Simd.Json.String
             (Format.asprintf "%a" Fuzz.Oracle.pp_outcome f.Fuzz.Campaign.outcome)
         );
         ("file", Simd.Json.String path);
       ]
      @
      match f.Fuzz.Campaign.culprit with
      | None -> []
      | Some v ->
        [ ("first_diverging_pass", Simd.Json.String (Fuzz.Bisect.verdict_name v)) ])
  in
  let lost_json (l : Par.Campaign.lost_chunk) =
    Simd.Json.Obj
      [
        ("chunk", Simd.Json.Int l.Par.Campaign.chunk.Fuzz.Campaign.chunk_index);
        ("first_case", Simd.Json.Int l.Par.Campaign.chunk.Fuzz.Campaign.first);
        ("size", Simd.Json.Int l.Par.Campaign.chunk.Fuzz.Campaign.size);
        ("class", Simd.Json.String l.Par.Campaign.classification);
        ("detail", Simd.Json.String l.Par.Campaign.detail);
      ]
  in
  Simd.Json.Obj
    [
      ("schema", Simd.Json.String "simd-fuzz-report/1");
      ("seed", Simd.Json.Int seed);
      ("budget", Simd.Json.Int budget);
      ("jobs", Simd.Json.Int jobs);
      ("chunk_size", Simd.Json.Int chunk_size);
      ("oracle", Simd.Json.String (Par.Campaign.oracle_name oracle));
      ("stats", Fuzz.Campaign.stats_to_json r.Par.Campaign.stats);
      ("failures", Simd.Json.List (List.map failure_json written));
      ("lost_chunks", Simd.Json.List (List.map lost_json r.Par.Campaign.lost));
      ("lint", lint_json ~seed ~budget ~chunk_size);
      (* Everything above is deterministic for fixed seed/budget/oracle;
         the perf section below is the only part that varies with --jobs
         and machine load. *)
      ( "perf",
        Simd.Json.Obj
          [
            ("wall_s", Simd.Json.Float wall_s);
            ( "cases_per_s",
              Simd.Json.Float
                (if wall_s > 0. then
                   float_of_int r.Par.Campaign.stats.Fuzz.Campaign.total /. wall_s
                 else 0.) );
            ("pool", Par.Pool.report_to_json r.Par.Campaign.pool);
            ( "cache",
              (* Counters are process-local (pooled workers count in their
                 own process); "entries" is read from disk, so it reflects
                 the whole campaign. *)
              match oracle with
              | Par.Campaign.Native t -> (
                let cas = Par.Native.cas t in
                match Simd.Cas.stats_to_json (Simd.Cas.stats cas) with
                | Simd.Json.Obj fields ->
                  Simd.Json.Obj
                    (fields
                    @ [ ("entries", Simd.Json.Int (Simd.Cas.entry_count cas)) ])
                | other -> other)
              | Par.Campaign.Simulator | Par.Campaign.Custom _ -> Simd.Json.Null
            );
          ] );
    ]

let run_campaign ~seed ~budget ~jobs ~chunk_size ~timeout ~out ~shrink
    ~shrink_steps ~quiet ~oracle ~json_path =
  let timeout = if timeout <= 0. then None else Some timeout in
  let on_chunk ~done_chunks ~total_chunks =
    if not quiet then
      Format.eprintf "fuzz: %d/%d chunks...@." done_chunks total_chunks
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Par.Campaign.run ~jobs ~chunk_size ?timeout ~shrink ~shrink_steps
      ~on_chunk ~oracle ~seed ~budget ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Deterministic summary on stdout; timing on stderr. *)
  Format.printf "%a@." Fuzz.Campaign.pp_stats r.Par.Campaign.stats;
  if not quiet then
    Format.eprintf "fuzz: %d cases in %.2f s (%.0f cases/s): %a@."
      r.Par.Campaign.stats.Fuzz.Campaign.total wall_s
      (if wall_s > 0. then
         float_of_int r.Par.Campaign.stats.Fuzz.Campaign.total /. wall_s
       else 0.)
      Par.Pool.pp_report r.Par.Campaign.pool;
  let written = write_failures ~out ~seed r.Par.Campaign.failures in
  List.iter
    (fun ((f : Fuzz.Campaign.failure), path) ->
      Format.printf "case %d (%s) minimized to %s:@.%a@." f.Fuzz.Campaign.index
        (Fuzz.Oracle.outcome_name f.Fuzz.Campaign.outcome)
        path Fuzz.Case.pp f.Fuzz.Campaign.minimized;
      Option.iter
        (fun v ->
          Format.printf "first diverging pass: %a@." Fuzz.Bisect.pp_verdict v)
        f.Fuzz.Campaign.culprit)
    written;
  List.iter
    (fun (l : Par.Campaign.lost_chunk) ->
      Format.printf "chunk %d (cases %d..%d) lost: %s (%s)@."
        l.Par.Campaign.chunk.Fuzz.Campaign.chunk_index
        l.Par.Campaign.chunk.Fuzz.Campaign.first
        (l.Par.Campaign.chunk.Fuzz.Campaign.first
        + l.Par.Campaign.chunk.Fuzz.Campaign.size - 1)
        l.Par.Campaign.classification l.Par.Campaign.detail)
    r.Par.Campaign.lost;
  Option.iter
    (fun path ->
      Simd.Json.to_file ~indent:2 path
        (report_json ~seed ~budget ~jobs ~chunk_size ~oracle ~wall_s r written);
      if not quiet then Format.eprintf "fuzz: wrote %s@." path)
    json_path;
  if r.Par.Campaign.failures <> [] || not (Par.Campaign.completed r) then 1
  else 0

(* ------------------------------------------------------------------ *)
(* Replay modes                                                        *)
(* ------------------------------------------------------------------ *)

(* Corpus programs without a fuzz-trip header still need a concrete trip
   when their bound is a runtime parameter. *)
let with_default_trip (case : Fuzz.Case.t) =
  match (case.Fuzz.Case.program.Simd.Ast.loop.Simd.Ast.trip, case.Fuzz.Case.trip) with
  | Simd.Ast.Trip_param _, None ->
    { case with Fuzz.Case.trip = Some default_replay_trip }
  | _ -> case

let replay_one ~oracle ~verbose path =
  match Fuzz.Case.of_file path with
  | Error m ->
    Format.eprintf "replay: %s@." m;
    `Load_error
  | Ok case -> (
    let case = with_default_trip case in
    if verbose then Format.printf "replaying %s:@.%a@." path Fuzz.Case.pp case;
    match oracle_case_fn oracle case with
    | Fuzz.Oracle.Pass ->
      Format.printf "%s: pass@." path;
      `Pass
    | Fuzz.Oracle.Skipped m ->
      Format.printf "%s: skipped (%s)@." path m;
      `Pass
    | outcome ->
      Format.printf "%s: %a@." path Fuzz.Oracle.pp_outcome outcome;
      (match oracle with
      | Par.Campaign.Simulator ->
        Format.printf "first diverging pass: %a@." Fuzz.Bisect.pp_verdict
          (Fuzz.Bisect.run case)
      | _ -> ());
      `Failure)

let run_replay ~oracle path =
  match replay_one ~oracle ~verbose:true path with
  | `Pass -> 0
  | `Failure -> 1
  | `Load_error -> 2

let run_replay_dir ~oracle dir =
  match Sys.readdir dir with
  | exception Sys_error m ->
    Format.eprintf "replay-dir: %s@." m;
    2
  | entries ->
    let files =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".simd")
      |> List.sort compare
      |> List.map (Filename.concat dir)
    in
    if files = [] then begin
      Format.eprintf "replay-dir: no .simd files in %s@." dir;
      2
    end
    else begin
      let failures = ref 0 and errors = ref 0 in
      List.iter
        (fun f ->
          match replay_one ~oracle ~verbose:false f with
          | `Pass -> ()
          | `Failure -> incr failures
          | `Load_error -> incr errors)
        files;
      Format.printf "%d files: %d failed, %d unreadable@." (List.length files)
        !failures !errors;
      if !failures > 0 then 1 else if !errors > 0 then 2 else 0
    end

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let run seed budget replay replay_dir out no_shrink shrink_steps quiet jobs
    chunk_size timeout native cache json_path =
  match make_oracle ~native ~cache with
  | Error m ->
    Format.eprintf "fuzz: %s@." m;
    2
  | Ok oracle -> (
    match (replay, replay_dir) with
    | Some path, _ -> run_replay ~oracle path
    | None, Some dir -> run_replay_dir ~oracle dir
    | None, None ->
      run_campaign ~seed ~budget ~jobs ~chunk_size ~timeout ~out
        ~shrink:(not no_shrink) ~shrink_steps ~quiet ~oracle ~json_path)

let cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (same seed, same cases).")
  in
  let budget =
    Arg.(
      value & opt int 500
      & info [ "budget" ] ~docv:"N" ~doc:"Number of generated programs.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one reproducer file instead of running a campaign.")
  in
  let replay_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-dir" ] ~docv:"DIR"
          ~doc:
            "Replay every .simd file in a directory (with $(b,--native): \
             the whole directory through the native oracle).")
  in
  let out =
    Arg.(
      value & opt string "corpus/fuzz"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized reproducers of new failures.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let shrink_steps =
    Arg.(
      value & opt int 1500
      & info [ "shrink-steps" ] ~docv:"N"
          ~doc:"Oracle-run budget per minimization.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes. Results are byte-identical for every N \
             (deterministic chunked sharding); only wall clock changes.")
  in
  let chunk_size =
    Arg.(
      value
      & opt int Fuzz.Campaign.default_chunk_size
      & info [ "chunk-size" ] ~docv:"N"
          ~doc:
            "Cases per chunk (the unit of work and of PRNG stream \
             splitting). Changing it changes the generated cases.")
  in
  let timeout =
    Arg.(
      value & opt float 300.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-chunk wall-clock budget; an expired worker is killed and \
             the chunk classified. 0 disables the timeout.")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Cross-check every case against the compiled portable-C \
             harness (native differential oracle); requires a C compiler.")
  in
  let cache =
    Arg.(
      value & opt string "_harness_cache"
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Compiled-harness cache for $(b,--native), keyed by source hash.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-json" ] ~docv:"PATH"
          ~doc:
            "Write the machine-readable campaign report \
             (simd-fuzz-report/1) to PATH.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~version:"1.0"
       ~doc:"Differential fuzzing of the simdizer against the scalar \
             interpreter")
    Term.(
      const run $ seed $ budget $ replay $ replay_dir $ out $ no_shrink
      $ shrink_steps $ quiet $ jobs $ chunk_size $ timeout $ native $ cache
      $ json_path)

let () = exit (Cmd.eval' cmd)
