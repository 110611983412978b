(* The vir_cleanup driver pass (Passes.vir_cleanup over
   Dataflow.Cleanup): the committed witness strictly reduces steady-state
   vop counts, the pass is a semantic no-op over the whole corpus under
   every policy and vector length (simulator agreement + zero
   static-verifier violations), and the placement cost
   report is unaffected (so joint <= optimal <= heuristics orderings are
   untouched). *)

open Simd
module Prog = Vir_prog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let corpus_dir =
  List.find_opt Sys.file_exists
    [ "../corpus"; "corpus"; "../../corpus"; "../../../corpus" ]
  |> Option.value ~default:"../corpus"

let fuzz_corpus_dir =
  List.find_opt Sys.file_exists
    [
      "../corpus/fuzz";
      "corpus/fuzz";
      "../../corpus/fuzz";
      "../../../corpus/fuzz";
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let total (c : Prog.static_counts) =
  c.Prog.loads + c.Prog.stores + c.Prog.ops + c.Prog.splats + c.Prog.shifts
  + c.Prog.splices + c.Prog.packs + c.Prog.copies

let witness_case () =
  match Fuzz.Case.of_file (Filename.concat corpus_dir "cleanup-beats-placed.simd") with
  | Ok case -> case
  | Error m -> Alcotest.failf "witness: %s" m

(* ------------------------------------------------------------------ *)
(* The committed witness strictly beats placed code                    *)
(* ------------------------------------------------------------------ *)

let test_witness_strictly_reduces () =
  let case = witness_case () in
  check_bool "witness header requests cleanup" true
    case.Fuzz.Case.config.Driver.cleanup;
  let placed =
    Driver.simdize_exn
      { case.Fuzz.Case.config with Driver.cleanup = false }
      case.Fuzz.Case.program
  in
  let cleaned =
    Driver.simdize_exn
      { case.Fuzz.Case.config with Driver.cleanup = true }
      case.Fuzz.Case.program
  in
  let before = Prog.body_counts placed.Driver.prog in
  let after = Prog.body_counts cleaned.Driver.prog in
  check_bool "steady-state shifts strictly drop" true
    (after.Prog.shifts < before.Prog.shifts);
  check_bool "steady-state vop total strictly drops" true
    (total after < total before);
  (* the genuine shift of the control statement survives *)
  check_bool "cleanup does not erase needed shifts" true (after.Prog.shifts > 0)

let test_witness_actions_and_fixpoint () =
  let case = witness_case () in
  let o =
    Driver.simdize_exn ~check:true
      { case.Fuzz.Case.config with Driver.cleanup = true }
      case.Fuzz.Case.program
  in
  List.iter
    (fun (boundary, viol) ->
      Alcotest.failf "witness: at %s: %s" boundary
        (Check.violation_to_string viol))
    (Driver.check_violations o);
  (* cleanup already ran: a second dry run finds nothing left to do *)
  let v = Machine.vector_len o.Driver.analysis.Analysis.machine in
  let p = o.Driver.prog in
  let actions =
    Dataflow.Cleanup.dry_run ~v ~block:p.Prog.block
      ~prologue:p.Prog.prologue ~body:p.Prog.body
      ~epilogues:p.Prog.epilogues
  in
  let residual =
    List.filter
      (function Dataflow.Cleanup.Propagated _ -> false | _ -> true)
      actions
  in
  check_int "cleanup reaches a fixpoint" 0 (List.length residual)

(* ------------------------------------------------------------------ *)
(* Semantic no-op over corpus x policies x V                           *)
(* ------------------------------------------------------------------ *)

(* Runtime-bound corpus loops need a concrete trip for the simulator. *)
let trip_for file =
  match file with
  | "pred-masked-epilogue.simd" | "runtime_everything.simd" -> Some 40
  | _ -> None

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simd")
  |> List.sort compare

let test_cleanup_is_semantic_noop () =
  let files = corpus_files () in
  check_bool "corpus present" true (files <> []);
  let verified = ref 0 in
  List.iter
    (fun file ->
      let program =
        Parse.program_of_string (read_file (Filename.concat corpus_dir file))
      in
      List.iter
        (fun vl ->
          let machine = Machine.create ~vector_len:vl in
          List.iter
            (fun policy ->
              let config =
                { Driver.default with Driver.machine; policy; cleanup = true }
              in
              (* translation validation at every pass boundary; a scalar
                 fallback (e.g. an @8 base at V=8) is a legitimate skip *)
              match Driver.simdize ~check:true config program with
              | Driver.Scalar _ -> ()
              | Driver.Simdized o -> (
                List.iter
                  (fun (boundary, viol) ->
                    Alcotest.failf "%s (V=%d, %s): at %s: %s" file vl
                      (Policy.name policy) boundary
                      (Check.violation_to_string viol))
                  (Driver.check_violations o);
                (* differential simulation against the scalar interpreter *)
                match
                  Measure.verify ~config ?trip:(trip_for file) program
                with
                | Ok () -> incr verified
                | Error m ->
                  Alcotest.failf "%s (V=%d, %s): %s" file vl
                    (Policy.name policy) m
                | exception Measure.Not_simdized _ -> ()))
            Policy.all)
        [ 8; 16; 32 ])
    files;
  check_bool "sweep really simulated loops" true (!verified > 100)

(* Committed fuzz reproducers replay their exact configs with cleanup
   forced on; the rewrites must not resurrect any of the original bugs. *)
let test_fuzz_corpus_cleanup_clean () =
  match fuzz_corpus_dir with
  | None -> ()
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".simd")
    |> List.iter (fun f ->
           match Fuzz.Case.of_file (Filename.concat dir f) with
           | Error m -> Alcotest.failf "%s: %s" f m
           | Ok case -> (
             let config =
               { case.Fuzz.Case.config with Driver.cleanup = true }
             in
             match
               Measure.verify ~config ~setup_seed:case.Fuzz.Case.setup_seed
                 ?trip:case.Fuzz.Case.trip case.Fuzz.Case.program
             with
             | Ok () -> ()
             | Error m -> Alcotest.failf "%s: %s" f m
             | exception Measure.Not_simdized _ -> ()))

(* ------------------------------------------------------------------ *)
(* Placement costs are blind to cleanup                                *)
(* ------------------------------------------------------------------ *)

(* The cost report prices the *placed* graphs, before generation; the
   cleanup pass rewrites emitted VIR only. Identical reports mean every
   policy comparison (joint <= optimal <= heuristics) is unchanged. *)
let test_report_unchanged () =
  let files = corpus_files () in
  List.iter
    (fun file ->
      let program =
        Parse.program_of_string (read_file (Filename.concat corpus_dir file))
      in
      let report cleanup =
        match
          Driver.simdize { Driver.default with Driver.cleanup } program
        with
        | Driver.Scalar _ -> None
        | Driver.Simdized o ->
          Some (Json.to_line (Opt.Report.to_json (Driver.report o)))
      in
      match (report false, report true) with
      | Some off, Some on ->
        Alcotest.(check string) (file ^ ": report unchanged") off on
      | None, None -> ()
      | _ -> Alcotest.failf "%s: cleanup changed the scalar decision" file)
    files

let suite =
  [
    ( "cleanup",
      [
        Alcotest.test_case "witness strictly reduces vops" `Quick
          test_witness_strictly_reduces;
        Alcotest.test_case "witness validates and reaches fixpoint" `Quick
          test_witness_actions_and_fixpoint;
        Alcotest.test_case "semantic no-op over corpus x policies x V" `Slow
          test_cleanup_is_semantic_noop;
        Alcotest.test_case "fuzz reproducers stay green under cleanup" `Slow
          test_fuzz_corpus_cleanup_clean;
        Alcotest.test_case "cost report blind to cleanup" `Quick
          test_report_unchanged;
      ] );
  ]
