(* Differential fuzzing subsystem tests: generator well-formedness, case
   serialization, campaign determinism, shrinker behavior, a fixed-seed
   smoke campaign (the tier-1 gate), and replay of every committed
   reproducer in corpus/fuzz/. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Locate corpus/fuzz the same way test_corpus locates corpus/. *)
let fuzz_corpus_dir =
  List.find_opt Sys.file_exists
    [
      "../corpus/fuzz";
      "corpus/fuzz";
      "../../corpus/fuzz";
      "../../../corpus/fuzz";
    ]

let test_generator_well_formed () =
  let prng = Prng.create ~seed:7 in
  for _ = 1 to 500 do
    let case = Fuzz.Genloop.gen_case prng in
    (* Legality is judged on the if-converted program, exactly as the
       driver judges it: raw guarded reductions are rejected by design. *)
    (match
       Analysis.check ~machine:case.Fuzz.Case.config.Driver.machine
         (Mask.apply case.Fuzz.Case.program)
     with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "generated program is illegal: %s\n%s"
        (Analysis.error_to_string e)
        (Pp.program_to_string case.Fuzz.Case.program));
    (* runtime-bound cases always carry a concrete trip to run at *)
    ignore (Fuzz.Case.effective_trip case)
  done

let test_case_roundtrip () =
  let prng = Prng.create ~seed:11 in
  for _ = 1 to 200 do
    let case = Fuzz.Genloop.gen_case prng in
    match Fuzz.Case.of_string (Fuzz.Case.to_string case) with
    | Error m -> Alcotest.failf "reproducer did not re-parse: %s" m
    | Ok case' ->
      check_bool "program round trips" true
        (Ast.equal_program case.Fuzz.Case.program case'.Fuzz.Case.program);
      check_bool "config round trips" true
        (case.Fuzz.Case.config = case'.Fuzz.Case.config);
      check_bool "trip round trips" true
        (case.Fuzz.Case.trip = case'.Fuzz.Case.trip);
      check_int "seed round trips" case.Fuzz.Case.setup_seed
        case'.Fuzz.Case.setup_seed
  done

let codec_source =
  "int32 a[64] @ 0;\nint32 b[64] @ 4;\nfor (i = 0; i < 40; i++) {\n  \
   a[i] = b[i+1];\n}\n"

(* Both config codecs invert their printers over the sampled config space,
   compared as whole records: a field that the printer and the parser both
   forgot would survive a comparison of printed lines. *)
let test_config_codecs_roundtrip () =
  let prng = Prng.create ~seed:13 in
  let program = Parse.program_of_string codec_source in
  for i = 0 to 511 do
    let machine = Fuzz.Genloop.gen_machine prng in
    let config =
      {
        (Fuzz.Genloop.gen_config prng ~machine) with
        Driver.cleanup = i land 1 = 1;
        peel_baseline = i land 2 = 2;
      }
    in
    let case = { Fuzz.Case.program; config; trip = None; setup_seed = i } in
    (match Fuzz.Case.of_string (Fuzz.Case.to_string case) with
    | Ok c -> check_bool "header round trip" true (c.Fuzz.Case.config = config)
    | Error m -> Alcotest.failf "header did not re-parse: %s" m);
    match Serve.Protocol.config_of_json (Serve.Protocol.config_to_json config) with
    | Ok c -> check_bool "json round trip" true (c = config)
    | Error m -> Alcotest.failf "json did not re-parse: %s" m
  done

(* [none] is an alias of [plain] everywhere a reuse name is read. *)
let test_header_reuse_none () =
  match Fuzz.Case.of_string ("// fuzz-config: reuse=none\n" ^ codec_source) with
  | Ok c ->
    check_bool "reuse=none reads as plain" true
      (c.Fuzz.Case.config.Driver.reuse = Driver.No_reuse)
  | Error m -> Alcotest.failf "reuse=none rejected: %s" m

let test_campaign_deterministic () =
  let record () =
    let log = ref [] in
    let on_case index case outcome =
      log :=
        ( index,
          Pp.program_to_string case.Fuzz.Case.program,
          Driver.config_to_string case.Fuzz.Case.config,
          Fuzz.Oracle.outcome_name outcome )
        :: !log
    in
    let stats, _ =
      Fuzz.Campaign.run ~shrink:false ~on_case ~seed:99 ~budget:150 ()
    in
    (stats, List.rev !log)
  in
  let stats_a, log_a = record () in
  let stats_b, log_b = record () in
  check_bool "same stats" true (stats_a = stats_b);
  check_bool "same cases and outcomes" true (log_a = log_b);
  check_int "all cases observed" 150 (List.length log_a)

(* The tier-1 smoke gate: a fixed-seed budget must come back clean. *)
let test_smoke_no_failures () =
  let stats, failures =
    Fuzz.Campaign.run ~shrink:false ~seed:1 ~budget:2000 ()
  in
  check_int "no divergences" 0 stats.Fuzz.Campaign.divergences;
  check_int "no crashes" 0 stats.Fuzz.Campaign.crashes;
  check_bool "no failures" true (failures = []);
  check_bool "mostly passing" true (stats.Fuzz.Campaign.passed > 1000)

(* Shrinking against a synthetic oracle: the minimizer must preserve the
   failure class while strictly reducing the case, and must terminate. *)
let test_shrinker_minimizes () =
  let prng = Prng.create ~seed:5 in
  (* Find a roomy case so there is something to shrink. *)
  let rec pick () =
    let c = Fuzz.Genloop.gen_case prng in
    if List.length c.Fuzz.Case.program.Ast.loop.Ast.body >= 2 then c
    else pick ()
  in
  let case = pick () in
  (* Synthetic failure: any program that still loads something. *)
  let oracle (c : Fuzz.Case.t) =
    if
      List.exists
        (fun (s : Ast.stmt) -> Ast.expr_loads s.Ast.rhs <> [])
        c.Fuzz.Case.program.Ast.loop.Ast.body
    then Fuzz.Oracle.Divergence "synthetic"
    else Fuzz.Oracle.Pass
  in
  let min = Fuzz.Shrink.minimize ~oracle case in
  check_bool "still failing" true (Fuzz.Oracle.is_failure (oracle min));
  check_int "one statement left" 1
    (List.length min.Fuzz.Case.program.Ast.loop.Ast.body);
  check_bool "fewer or equal arrays" true
    (List.length min.Fuzz.Case.program.Ast.arrays
    <= List.length case.Fuzz.Case.program.Ast.arrays);
  (* a passing case comes back unchanged *)
  let pass = { case with Fuzz.Case.setup_seed = case.Fuzz.Case.setup_seed } in
  check_bool "non-failure untouched" true
    (Fuzz.Shrink.minimize ~oracle:(fun _ -> Fuzz.Oracle.Pass) pass == pass)

(* An always-failing oracle accepts every step the shrinker proposes, so a
   case with every pass switched on must shrink to one with all of them
   off. *)
let test_shrinker_disables_every_pass () =
  let case = Fuzz.Genloop.gen_case (Prng.create ~seed:5) in
  let all_on =
    {
      case.Fuzz.Case.config with
      Driver.reassoc = true;
      hoist_splats = true;
      memnorm = true;
      cse = true;
      reuse = Driver.Predictive_commoning;
      unroll = 3;
      specialize_epilogue = true;
      cleanup = true;
    }
  in
  let min =
    Fuzz.Shrink.minimize
      ~oracle:(fun _ -> Fuzz.Oracle.Divergence "synthetic")
      { case with Fuzz.Case.config = all_on }
  in
  List.iter
    (fun (p : Driver.pass) ->
      check_bool (p.name ^ " on before") true (p.enabled all_on);
      check_bool (p.name ^ " off after") false
        (p.enabled min.Fuzz.Case.config))
    Driver.passes

(* Every committed reproducer is a regression seed: it must load and its
   bug must stay fixed. *)
let test_replay_reproducers () =
  match fuzz_corpus_dir with
  | None -> Alcotest.fail "corpus/fuzz directory not found"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".simd")
      |> List.sort compare
    in
    check_bool "reproducers present" true (files <> []);
    List.iter
      (fun f ->
        match Fuzz.Case.of_file (Filename.concat dir f) with
        | Error m -> Alcotest.failf "%s: %s" f m
        | Ok case -> (
          match Fuzz.Oracle.run case with
          | Fuzz.Oracle.Pass -> ()
          | o ->
            Alcotest.failf "%s: regressed to %s" f
              (Format.asprintf "%a" Fuzz.Oracle.pp_outcome o)))
      files

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator well-formed" `Quick
          test_generator_well_formed;
        Alcotest.test_case "case serialization round trip" `Quick
          test_case_roundtrip;
        Alcotest.test_case "config codecs round trip" `Quick
          test_config_codecs_roundtrip;
        Alcotest.test_case "header accepts reuse=none" `Quick
          test_header_reuse_none;
        Alcotest.test_case "campaign deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "fixed-seed smoke clean" `Quick
          test_smoke_no_failures;
        Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
        Alcotest.test_case "shrinker turns every pass off" `Quick
          test_shrinker_disables_every_pass;
        Alcotest.test_case "reproducers stay fixed" `Quick
          test_replay_reproducers;
      ] );
  ]
