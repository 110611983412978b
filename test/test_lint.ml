(* The lint driver (Simd.Lint): the rule registry, the acceptance
   corpus programs (dead-shift-zero-policy flagged, zero-policy detours
   flagged whether or not another statement rides them, the cleanup
   witness dirty-then-clean, shared streams not flagged), hand-tampered VIR
   negative tests for the structural rules, the simd-lint/2 JSON shape,
   and the exit codes end-to-end through simdize --lint. *)

open Simd
module Prog = Vir_prog
module Expr = Vir_expr
module Addr = Vir_addr

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let corpus_dir =
  List.find_opt Sys.file_exists
    [ "../corpus"; "corpus"; "../../corpus"; "../../../corpus" ]
  |> Option.value ~default:"../corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile ?(config = Driver.default) file =
  let program =
    Parse.program_of_string (read_file (Filename.concat corpus_dir file))
  in
  Driver.simdize_exn ~check:true config program

let count rule (r : Lint.report) = List.assoc rule r.Lint.counts

let witness_outcome ~cleanup =
  match
    Fuzz.Case.of_file (Filename.concat corpus_dir "cleanup-beats-placed.simd")
  with
  | Error m -> Alcotest.failf "witness: %s" m
  | Ok case ->
    Driver.simdize_exn
      { case.Fuzz.Case.config with Driver.cleanup }
      case.Fuzz.Case.program

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  check_int "six rules" 6 (List.length Lint.rules);
  let names = List.map (fun (r : Lint.rule) -> r.Lint.name) Lint.rules in
  check_int "names unique" 6 (List.length (List.sort_uniq compare names));
  List.iter
    (fun (r : Lint.rule) ->
      check_bool (r.Lint.name ^ " documented") true (r.Lint.doc <> ""))
    Lint.rules

(* ------------------------------------------------------------------ *)
(* Acceptance programs                                                 *)
(* ------------------------------------------------------------------ *)

(* Every stream of the committed program already sits at offset 4, so the
   zero policy's detour through offset 0 is waste: the emitted shifts are
   redundant, the exact placement places none, and the verifier (which
   proves, and reports no waste) passes the detour clean. *)
let test_dead_shift_zero_policy_flagged () =
  let compile_with policy =
    let program =
      Parse.program_of_string
        (read_file (Filename.concat corpus_dir "dead-shift-zero-policy.simd"))
    in
    Driver.simdize_exn ~check:true
      { Driver.default with Driver.policy; reuse = Driver.No_reuse }
      program
  in
  let o = compile_with Policy.Zero in
  let r = Lint.run o in
  check_bool "zero-policy detour is flagged" true
    (count "redundant-shift" r > 0);
  check_int "the verifier finds nothing to refute" 0
    (List.length (Driver.check_violations o));
  let optimal = compile_with Policy.Optimal in
  check_int "exact placement places no shift" 0
    (List.fold_left
       (fun acc (_, g) -> acc + Graph.graph_shift_count g)
       0 optimal.Driver.graphs)

(* The zero policy's 4 -> 0 -> 4 detour wastes shifts whether or not
   another statement rides the same reorganization chain: both programs
   lint dirty as placed and clean after the cleanup pass. *)
let test_zero_policy_detours_flagged () =
  List.iter
    (fun (label, src) ->
      let lint cleanup =
        Lint.run
          (Driver.simdize_exn
             {
               Driver.default with
               Driver.policy = Policy.Zero;
               reuse = Driver.No_reuse;
               cleanup;
             }
             (Parse.program_of_string src))
      in
      check_bool (label ^ ": placed detour is flagged") true
        (count "redundant-shift" (lint false) > 0);
      check_bool (label ^ ": cleaned program lints clean") true
        (Lint.clean (lint true)))
    [
      ( "shared",
        "int32 a[128] @ 4;\nint32 b[128] @ 4;\nint32 c[128] @ 0;\n\
         for (i = 0; i < 100; i++) { a[i] = b[i]; c[i] = b[i]; }" );
      ( "unshared",
        "int32 a[128] @ 4;\nint32 b[128] @ 4;\nint32 c[128] @ 0;\n\
         int32 d[128] @ 0;\n\
         for (i = 0; i < 100; i++) { a[i] = b[i]; c[i] = d[i]; }" );
    ]

let test_witness_dirty_then_clean () =
  let dirty = Lint.run (witness_outcome ~cleanup:false) in
  check_bool "placed witness lints dirty" false (Lint.clean dirty);
  check_bool "witness dirt is evidence-backed" true
    (count "dead-vop" dirty > 0 && count "redundant-shift" dirty > 0);
  let clean = Lint.run (witness_outcome ~cleanup:true) in
  check_bool "cleaned witness lints clean" true (Lint.clean clean)

(* A stream shared across statements is cheap by design, not waste: the
   joint-placement corpus program must not trip the shift rules. *)
let test_shared_streams_not_flagged () =
  let o =
    compile
      ~config:{ Driver.default with Driver.policy = Policy.Joint }
      "joint-beats-optimal.simd"
  in
  check_bool "program really shares streams" true (o.Driver.shared_streams <> []);
  let r = Lint.run o in
  check_int "no redundant-shift findings" 0 (count "redundant-shift" r);
  check_int "no verifier violations" 0 (List.length (Driver.check_violations o))

(* ------------------------------------------------------------------ *)
(* Tampered outcomes: the structural rules                             *)
(* ------------------------------------------------------------------ *)

let tamper_body (o : Driver.outcome) extra =
  let p = o.Driver.prog in
  { o with Driver.prog = { p with Prog.body = p.Prog.body @ extra } }

let test_mask_uniform_fires () =
  let o = witness_outcome ~cleanup:true in
  check_bool "base is clean" true (Lint.clean (Lint.run o));
  let a = { Addr.array = "a"; offset = 0; scale = 1 } in
  let tampered =
    tamper_body o
      [ Expr.Storem (a, Expr.Load a, Expr.Splat (Ast.Const 1L)) ]
  in
  let r = Lint.run tampered in
  check_bool "splat mask flagged" true (count "mask-uniform" r > 0);
  check_bool "mask-uniform prints as a warning" true
    (List.for_all
       (fun (f : Lint.finding) ->
         f.Lint.rule <> "mask-uniform"
         || String.starts_with ~prefix:"warning body#"
              (Format.asprintf "%a" Lint.pp_finding f))
       r.Lint.findings)

let test_unused_stream_fires () =
  (* a declared stream no lint pass can see used anywhere *)
  let src =
    "int32 a[64] @ 0;\nint32 b[64] @ 0;\nint32 zz[64] @ 0;\n\
     for (i = 0; i < 40; i++) { a[i] = b[i]; }"
  in
  let o = Driver.simdize_exn Driver.default (Parse.program_of_string src) in
  let r = Lint.run o in
  check_bool "unused stream flagged" true (count "unused-stream" r > 0);
  check_bool "finding names the stream" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.rule = "unused-stream"
         && f.Lint.where = "program"
         && String.length f.Lint.detail > 0)
       r.Lint.findings)

(* ------------------------------------------------------------------ *)
(* The simd-lint/2 document                                            *)
(* ------------------------------------------------------------------ *)

let test_json_shape () =
  let r = Lint.run (witness_outcome ~cleanup:false) in
  match Lint.report_to_json r with
  | Json.Obj fields ->
    check_bool "schema tag" true
      (List.assoc_opt "schema" fields = Some (Json.String "simd-lint/2"));
    check_bool "top-level keys" true
      (List.map fst fields = [ "schema"; "findings"; "counts" ]);
    (match List.assoc_opt "counts" fields with
    | Some (Json.Obj counts) ->
      check_bool "counts cover the registry in order, zeros included" true
        (List.map fst counts
        = List.map (fun (r : Lint.rule) -> r.Lint.name) Lint.rules)
    | _ -> Alcotest.fail "counts object missing");
    (match List.assoc_opt "findings" fields with
    | Some (Json.List findings) ->
      check_int "findings serialized 1:1" (List.length r.Lint.findings)
        (List.length findings);
      check_bool "each finding is exactly rule, where, detail" true
        (List.for_all
           (function
             | Json.Obj kv -> List.map fst kv = [ "rule"; "where"; "detail" ]
             | _ -> false)
           findings)
    | _ -> Alcotest.fail "findings array missing")
  | _ -> Alcotest.fail "report_to_json must be an object"

(* ------------------------------------------------------------------ *)
(* Exit codes end-to-end through simdize --lint                        *)
(* ------------------------------------------------------------------ *)

let command line = Sys.command (line ^ " >/dev/null 2>&1")

let test_simdize_lint_exit_codes () =
  if not (Sys.file_exists "../bin/simdize.exe") then ()
  else begin
    (* simdize ignores reproducer headers, so the witness's zero policy
       must be restated on the command line *)
    let witness = Filename.concat corpus_dir "cleanup-beats-placed.simd" in
    let zero = Filename.concat corpus_dir "dead-shift-zero-policy.simd" in
    check_int "simdize --lint tolerates warnings" 0
      (command ("../bin/simdize.exe " ^ witness ^ " -p zero --lint"));
    check_int "simdize --lint=strict escalates" 1
      (command ("../bin/simdize.exe " ^ witness ^ " -p zero --lint=strict"));
    check_int "simdize --cleanup --lint=strict is clean" 0
      (command ("../bin/simdize.exe " ^ witness ^ " -p zero --cleanup --lint=strict"));
    check_int "zero-policy detour escalates under strict" 1
      (command ("../bin/simdize.exe " ^ zero ^ " -p zero --lint=strict"));
    check_int "unparseable input exits 2" 2
      (command "echo 'not a loop' | ../bin/simdize.exe - --lint")
  end

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "rule registry" `Quick test_registry;
        Alcotest.test_case "dead-shift-zero-policy is flagged" `Quick
          test_dead_shift_zero_policy_flagged;
        Alcotest.test_case "zero-policy detours flagged, shared or not"
          `Quick test_zero_policy_detours_flagged;
        Alcotest.test_case "witness dirty without cleanup, clean with" `Quick
          test_witness_dirty_then_clean;
        Alcotest.test_case "shared streams are not waste" `Quick
          test_shared_streams_not_flagged;
        Alcotest.test_case "mask-uniform fires on a splat mask" `Quick
          test_mask_uniform_fires;
        Alcotest.test_case "unused-stream fires" `Quick test_unused_stream_fires;
        Alcotest.test_case "simd-lint/2 document shape" `Quick test_json_shape;
        Alcotest.test_case "simdize --lint exit codes" `Quick
          test_simdize_lint_exit_codes;
      ] );
  ]
