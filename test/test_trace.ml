(* Pass-pipeline tracing (Simd.Trace) and fuzz bisection tests: the diff
   engine, trace determinism (byte-identical JSON/human output modulo
   timings), the zero-cost no-op sink, the simd-trace/1 schema shape, the
   per-scheme summary, non-perturbation of the compilation, and the
   regression that pipeline bisection names [unroll] on the pre-fix PR-1
   reproducers when the seam-coalescer bug is re-injected. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let source =
  {|
int32 a[128] @ 0;
int32 b[128] @ 4;
int32 c[128] @ 8;
for (i = 0; i < 100; i++) {
  a[i+3] = b[i+1] + c[i+2];
}
|}

let program () = parse_exn source

let fuzz_corpus_dir =
  List.find_opt Sys.file_exists
    [
      "../corpus/fuzz";
      "corpus/fuzz";
      "../../corpus/fuzz";
      "../../../corpus/fuzz";
    ]

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let test_diff () =
  let render ls = String.concat "|" (List.map Trace.Diff.line_to_string ls) in
  check_string "equal inputs keep everything" "  a|  b"
    (render (Trace.Diff.lines "a\nb" "a\nb"));
  check_string "insertion" "  a|+ x|  b"
    (render (Trace.Diff.lines "a\nb" "a\nx\nb"));
  check_string "deletion" "  a|- x|  b"
    (render (Trace.Diff.lines "a\nx\nb" "a\nb"));
  check_string "replacement" "- a|+ b" (render (Trace.Diff.lines "a" "b"));
  check_string "trailing newline adds no phantom line" "  a"
    (render (Trace.Diff.lines "a\n" "a"));
  check_bool "changed detects edits" true
    (Trace.Diff.changed (Trace.Diff.lines "a" "b"));
  check_bool "changed false on equality" false
    (Trace.Diff.changed (Trace.Diff.lines "a\nb" "a\nb"));
  check_int "changes_only drops keeps" 2
    (List.length (Trace.Diff.changes_only (Trace.Diff.lines "a\nx" "a\ny")));
  (* LCS minimality on a shared middle *)
  check_string "common subsequence preserved" "- p|  m|+ q"
    (render (Trace.Diff.lines "p\nm" "m\nq"))

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let trace_of config =
  let trace = Trace.create () in
  (match Driver.simdize ~trace config (program ()) with
  | Driver.Simdized _ -> ()
  | Driver.Scalar r ->
    Alcotest.failf "unexpectedly scalar: %a" Driver.pp_reason r);
  trace

let test_determinism () =
  List.iter
    (fun config ->
      let t1 = trace_of config and t2 = trace_of config in
      check_string "human transcript is byte-identical"
        (Trace.to_string t1) (Trace.to_string t2);
      check_string "JSON trace is byte-identical"
        (Json.to_string ~indent:2 (Trace.to_json t1))
        (Json.to_string ~indent:2 (Trace.to_json t2)))
    [
      Driver.default;
      { Driver.default with Driver.reuse = Driver.Predictive_commoning };
      { Driver.default with Driver.unroll = 2; reassoc = true };
      { Driver.default with Driver.policy = Policy.Optimal; cse = false };
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_timings_excluded () =
  (* wall-clock fields appear only on request *)
  let t = trace_of Driver.default in
  let base = Json.to_string (Trace.to_json t) in
  let timed = Json.to_string (Trace.to_json ~timings:true t) in
  check_bool "default JSON has no elapsed_ms" false (contains base "elapsed_ms");
  check_bool "timings JSON has elapsed_ms" true (contains timed "elapsed_ms")

(* ------------------------------------------------------------------ *)
(* The no-op sink                                                      *)
(* ------------------------------------------------------------------ *)

let test_noop_sink () =
  check_bool "none is inactive" false (Trace.active Trace.none);
  check_bool "create is active" true (Trace.active (Trace.create ()));
  Trace.add Trace.none
    (Trace.Reassoc { applied = false; before = ""; after = "" });
  check_int "add on none records nothing" 0
    (List.length (Trace.events Trace.none));
  (* the inactive path must touch neither the snapshotter nor the clock *)
  let result =
    Trace.record_pass Trace.none ~name:"x" ~enabled:true 41
      ~snap:(fun _ -> Alcotest.fail "snap called on inactive sink")
      (fun n -> n + 1)
  in
  check_int "record_pass still applies the pass" 42 result;
  let result =
    Trace.record_pass Trace.none ~name:"x" ~enabled:false 41
      ~snap:(fun _ -> Alcotest.fail "snap called on inactive sink")
      (fun _ -> Alcotest.fail "disabled pass applied")
  in
  check_int "record_pass skips a disabled pass" 41 result

let test_no_perturbation () =
  (* tracing must not change what is compiled *)
  List.iter
    (fun config ->
      let trace = Trace.create () in
      match
        (Driver.simdize config (program ()),
         Driver.simdize ~trace config (program ()))
      with
      | Driver.Simdized a, Driver.Simdized b ->
        check_string "same vector IR with and without tracing"
          (Vir_prog.to_string a.Driver.prog)
          (Vir_prog.to_string b.Driver.prog)
      | _ -> Alcotest.fail "unexpectedly scalar")
    [
      Driver.default;
      { Driver.default with Driver.unroll = 2; reuse = Driver.Predictive_commoning };
    ]

(* ------------------------------------------------------------------ *)
(* Schema and event shape                                              *)
(* ------------------------------------------------------------------ *)

let pass_row name =
  List.find_opt (fun (p : Driver.pass) -> p.name = name) Driver.passes

let test_schema () =
  let config = { Driver.default with Driver.reassoc = true; unroll = 2 } in
  let t = trace_of config in
  (match Trace.to_json t with
  | Json.Obj fields ->
    (match List.assoc_opt "schema" fields with
    | Some (Json.String s) -> check_string "schema tag" "simd-trace/1" s
    | _ -> Alcotest.fail "missing schema tag");
    (match List.assoc_opt "events" fields with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "missing events")
  | _ -> Alcotest.fail "trace JSON is not an object");
  let events = Trace.events t in
  check_bool "records a reassoc event" true
    (List.exists (function Trace.Reassoc _ -> true | _ -> false) events);
  check_bool "records a placement event" true
    (List.exists (function Trace.Placement _ -> true | _ -> false) events);
  check_bool "records the generated IR" true
    (List.exists (function Trace.Generated _ -> true | _ -> false) events);
  (* every Pass event name is either a registered pass, run exactly when
     its row says the config enables it, or a structural stage *)
  let structural = [ "derive_epilogues"; "finalize_reductions"; "dce" ] in
  List.iter
    (function
      | Trace.Pass { name; enabled; _ } -> (
        match pass_row name with
        | Some p ->
          check_bool (name ^ " enabled as its row says") (p.enabled config)
            enabled
        | None ->
          check_bool ("known pass name: " ^ name) true (List.mem name structural))
      | _ -> ())
    events;
  (* pass events appear in pipeline application order *)
  let order =
    List.filter_map
      (function
        | Trace.Pass { name; _ } when pass_row name <> None ->
          Some name
        | _ -> None)
      events
  in
  check_bool "pipeline order" true
    (order
    = [
        "hoist_splats";
        "memnorm";
        "cse";
        "predictive_commoning";
        "cse";
        "unroll";
        "vir_cleanup";
      ])

let test_placement_provenance () =
  let t = trace_of Driver.default in
  match
    List.find_opt
      (function Trace.Placement _ -> true | _ -> false)
      (Trace.events t)
  with
  | Some (Trace.Placement p) ->
    check_int "statement index" 0 p.Trace.pl_index;
    check_bool "requested policy recorded" true
      (p.Trace.pl_requested = Policy.Dominant);
    check_bool "has shift provenance" true (p.Trace.pl_shifts <> []);
    (* dominant shift on fig1-style alignments: every shift is priced *)
    List.iter
      (fun (s : Trace.shift_prov) ->
        check_bool "shift cost is positive" true (s.Trace.sp_cost > 0.))
      p.Trace.pl_shifts;
    check_bool "statement cost covers the shift cost" true
      (p.Trace.pl_cost >= p.Trace.pl_shift_cost)
  | _ -> Alcotest.fail "no placement event"

let test_summary () =
  let t =
    trace_of { Driver.default with Driver.reuse = Driver.Predictive_commoning }
  in
  let rows = Trace.summary t in
  let names = List.map (fun r -> r.Trace.row_pass) rows in
  (* repeated passes (cse runs on body and prologue) merge into one row *)
  check_int "one row per pass"
    (List.length (Simd_support.Util.dedup names))
    (List.length names);
  let row name =
    match List.find_opt (fun r -> r.Trace.row_pass = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "summary lacks a %s row" name
  in
  check_bool "pc row enabled" true (row "predictive_commoning").Trace.row_enabled;
  check_bool "unroll row disabled" false (row "unroll").Trace.row_enabled;
  check_bool "reassoc row disabled" false (row "reassoc").Trace.row_enabled;
  check_bool "memnorm changed the IR" true (row "memnorm").Trace.row_changed

(* ------------------------------------------------------------------ *)
(* Bisection                                                           *)
(* ------------------------------------------------------------------ *)

let prefix_reproducers () =
  match fuzz_corpus_dir with
  | None -> Alcotest.fail "corpus/fuzz directory not found"
  | Some dir ->
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           String.length f >= 20
           && String.sub f 0 20 = "pc-unroll-carry-chai")
    |> List.map (fun f ->
           match Fuzz.Case.of_file (Filename.concat dir f) with
           | Ok case -> (f, case)
           | Error m -> Alcotest.failf "%s: %s" f m)

let test_bisect_names_unroll () =
  (* Re-inject the PR-1 seam-coalescer bug and check that bisection blames
     [unroll] — the pass whose coalescer miscompiles — on every committed
     pre-fix reproducer. *)
  let cases = prefix_reproducers () in
  check_bool "found the PR-1 reproducers" true (List.length cases >= 4);
  Fun.protect
    ~finally:(fun () -> Passes.unsafe_unroll_seam_coalesce_bug := false)
    (fun () ->
      Passes.unsafe_unroll_seam_coalesce_bug := true;
      List.iter
        (fun (name, case) ->
          check_bool (name ^ " diverges under the re-broken coalescer") true
            (Fuzz.Oracle.is_failure (Fuzz.Oracle.run case));
          match Fuzz.Bisect.run case with
          | Fuzz.Bisect.First_diverging p ->
            check_string (name ^ " blames unroll") "unroll" p
          | v ->
            Alcotest.failf "%s: expected First_diverging unroll, got %s" name
              (Fuzz.Bisect.verdict_name v))
        cases)

let test_bisect_vanished_when_fixed () =
  (* With the real (fixed) coalescer the same reproducers pass, and
     bisection reports that honestly. *)
  List.iter
    (fun (name, case) ->
      match Fuzz.Bisect.run case with
      | Fuzz.Bisect.Vanished -> ()
      | v ->
        Alcotest.failf "%s: expected Vanished on fixed pipeline, got %s" name
          (Fuzz.Bisect.verdict_name v))
    (prefix_reproducers ())

let test_bisect_prefix_configs () =
  (* with_prefix 0 disables everything; full prefix is the identity *)
  let case =
    {
      Fuzz.Case.program = program ();
      config =
        {
          Driver.default with
          Driver.reuse = Driver.Predictive_commoning;
          unroll = 2;
          reassoc = true;
        };
      trip = None;
      setup_seed = 1;
    }
  in
  let n = List.length Driver.passes in
  let none_on = (Fuzz.Bisect.with_prefix case 0).Fuzz.Case.config in
  List.iter
    (fun (p : Driver.pass) ->
      check_bool ("prefix 0 disables " ^ p.name) false (p.enabled none_on))
    Driver.passes;
  check_bool "full prefix leaves the config unchanged" true
    ((Fuzz.Bisect.with_prefix case n).Fuzz.Case.config = case.Fuzz.Case.config)

let suite =
  [
    ( "trace",
      [
      Alcotest.test_case "structural line diff" `Quick test_diff;
      Alcotest.test_case "deterministic output" `Quick test_determinism;
      Alcotest.test_case "timings only on request" `Quick test_timings_excluded;
      Alcotest.test_case "no-op sink does no work" `Quick test_noop_sink;
      Alcotest.test_case "tracing does not perturb compilation" `Quick
        test_no_perturbation;
      Alcotest.test_case "schema and event shape" `Quick test_schema;
      Alcotest.test_case "shift placement provenance" `Quick
        test_placement_provenance;
      Alcotest.test_case "per-scheme summary" `Quick test_summary;
      Alcotest.test_case "bisection blames unroll on PR-1 reproducers" `Quick
        test_bisect_names_unroll;
      Alcotest.test_case "bisection reports vanished when fixed" `Quick
        test_bisect_vanished_when_fixed;
      Alcotest.test_case "bisection prefix configs" `Quick
        test_bisect_prefix_configs;
      ] );
  ]
