(* The static verifier (Simd.Check): the Absoff lattice, the clean sweep
   over the whole corpus under every suite scheme and vector length, the
   re-injected PR-1 seam miscompilation caught *statically* at the unroll
   boundary, hand-tampered VIR negative tests, and the fuzz-oracle static
   failure class. *)

open Simd

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

(* ------------------------------------------------------------------ *)
(* Absoff lattice                                                      *)
(* ------------------------------------------------------------------ *)

let v = 16

let test_absoff_lattice () =
  let byte k = Absoff.Byte k in
  let sym ?(sign = 1) ?(k = 0) arr = Absoff.Sym { arr; sign; k } in
  (* cmp *)
  check_bool "byte= proved" true (Absoff.cmp ~v (byte 4) (byte 4) = Absoff.Proved);
  check_bool "byte/= refuted" true
    (Absoff.cmp ~v (byte 4) (byte 8) = Absoff.Refuted);
  check_bool "bot proves" true (Absoff.cmp ~v Absoff.Bot (byte 12) = Absoff.Proved);
  check_bool "top unknown" true
    (Absoff.cmp ~v Absoff.Top (byte 0) = Absoff.Unknown);
  check_bool "sym same proved" true
    (Absoff.cmp ~v (sym "a" ~k:4) (sym "a" ~k:4) = Absoff.Proved);
  check_bool "sym shifted refuted" true
    (Absoff.cmp ~v (sym "a" ~k:4) (sym "a" ~k:8) = Absoff.Refuted);
  check_bool "sym other array unknown" true
    (Absoff.cmp ~v (sym "a") (sym "b") = Absoff.Unknown);
  (* arithmetic mod V *)
  check_bool "add bytes wraps" true
    (Absoff.equal (Absoff.add ~v (byte 12) (byte 8)) (byte 4));
  check_bool "sym + byte" true
    (Absoff.equal (Absoff.add ~v (sym "a" ~k:4) (byte 8)) (sym "a" ~k:12));
  check_bool "sym - sym cancels" true
    (Absoff.equal (Absoff.sub ~v (sym "a" ~k:12) (sym "a" ~k:4)) (byte 8));
  check_bool "neg flips" true
    (Absoff.equal (Absoff.neg ~v (sym "a" ~k:4)) (sym ~sign:(-1) ~k:(v - 4) "a"));
  check_bool "mul by V is zero" true
    (Absoff.equal (Absoff.mul_const ~v (sym "a" ~k:4) 16) (byte 0));
  check_bool "mod V identity" true
    (Absoff.equal (Absoff.mod_const ~v (sym "a" ~k:4) 16) (sym "a" ~k:4));
  check_bool "mod divisor of V on byte" true
    (Absoff.equal (Absoff.mod_const ~v (byte 12) 8) (byte 4));
  (* merge *)
  check_bool "merge equal" true
    (Absoff.equal (Absoff.merge ~v (byte 4) (byte 4)) (byte 4));
  check_bool "merge differing tops out" true
    (Absoff.equal (Absoff.merge ~v (byte 4) (byte 8)) Absoff.Top);
  check_bool "merge bot identity" true
    (Absoff.equal (Absoff.merge ~v Absoff.Bot (sym "a")) (sym "a"))

(* ------------------------------------------------------------------ *)
(* The clean sweep: corpus x suite schemes x vector lengths            *)
(* ------------------------------------------------------------------ *)

let sweep_configs vector_len =
  let machine = Machine.create ~vector_len in
  [
    { Driver.default with Driver.machine };
    { Driver.default with Driver.machine; policy = Policy.Zero;
      reuse = Driver.No_reuse };
    { Driver.default with Driver.machine; policy = Policy.Eager;
      reuse = Driver.Predictive_commoning };
    { Driver.default with Driver.machine; policy = Policy.Lazy;
      reuse = Driver.Predictive_commoning; reassoc = true };
    { Driver.default with Driver.machine; policy = Policy.Eager; unroll = 2 };
    { Driver.default with Driver.machine; policy = Policy.Dominant;
      reuse = Driver.Predictive_commoning; unroll = 4 };
    { Driver.default with Driver.machine; policy = Policy.Optimal };
    { Driver.default with Driver.machine; policy = Policy.Auto;
      memnorm = false };
  ]

(* Every corpus program, under every scheme and V in {8,16,32}, must
   compile with zero violations — and the discharged obligations must be
   non-vacuous in aggregate. *)
let test_corpus_sweep () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".simd")
    |> List.sort compare
  in
  check_bool "corpus present" true (files <> []);
  let facts = ref Check.no_facts in
  let boundaries = ref 0 in
  List.iter
    (fun file ->
      let program = Parse.program_of_string (read_file (Filename.concat corpus_dir file)) in
      List.iter
        (fun vl ->
          List.iter
            (fun config ->
              match Driver.simdize ~check:true config program with
              | Driver.Scalar _ -> ()
              | Driver.Simdized o ->
                boundaries := !boundaries + List.length o.Driver.checks;
                facts := Check.add_facts !facts (Driver.check_facts o);
                List.iter
                  (fun (boundary, viol) ->
                    Alcotest.failf "%s (V=%d): at %s: %s" file vl boundary
                      (Check.violation_to_string viol))
                  (Driver.check_violations o))
            (sweep_configs vl))
        [ 8; 16; 32 ])
    files;
  (* non-vacuity: the sweep really discharged obligations of every kind *)
  check_bool "boundaries checked" true (!boundaries > 1000);
  check_bool "ops proved" true ((!facts).Check.ops_proved > 100);
  check_bool "stores proved" true ((!facts).Check.stores_proved > 100);
  check_bool "shifts proved" true ((!facts).Check.shifts_proved > 100);
  check_bool "seams proved" true ((!facts).Check.seams_proved > 10)

(* Committed fuzz reproducers replay their exact configs; none may
   trigger the static verifier on the fixed compiler. *)
let test_fuzz_corpus_static_clean () =
  match fuzz_corpus_dir with
  | None -> ()
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".simd")
    |> List.iter (fun f ->
           match Fuzz.Case.of_file (Filename.concat dir f) with
           | Error m -> Alcotest.failf "%s: %s" f m
           | Ok case -> (
             match
               Driver.simdize ~check:true case.Fuzz.Case.config
                 case.Fuzz.Case.program
             with
             | Driver.Scalar _ -> ()
             | Driver.Simdized o ->
               List.iter
                 (fun (boundary, viol) ->
                   Alcotest.failf "%s: at %s: %s" f boundary
                     (Check.violation_to_string viol))
                 (Driver.check_violations o)))

(* ------------------------------------------------------------------ *)
(* The re-injected PR-1 seam miscompilation, caught statically         *)
(* ------------------------------------------------------------------ *)

(* Flip the unroll seam-coalescer fault injection back on and compile
   the committed carry-chain reproducer with the verifier: the clobber
   must be refuted *without running the simulator*, and the violation
   must name the unroll pass boundary. *)
let test_seam_bug_detected_statically () =
  let dir =
    match fuzz_corpus_dir with
    | Some d -> d
    | None -> Alcotest.fail "corpus/fuzz not found"
  in
  let case =
    match Fuzz.Case.of_file (Filename.concat dir "pc-unroll-carry-chain-eager.simd") with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let config = { case.Fuzz.Case.config with Driver.unroll = 2 } in
  let compile () =
    match Driver.simdize ~check:true config case.Fuzz.Case.program with
    | Driver.Scalar _ -> Alcotest.fail "reproducer left scalar"
    | Driver.Simdized o -> o
  in
  let with_bug f =
    Passes.unsafe_unroll_seam_coalesce_bug := true;
    Fun.protect
      ~finally:(fun () -> Passes.unsafe_unroll_seam_coalesce_bug := false)
      f
  in
  let seam_refuted (o : Driver.outcome) =
    List.exists
      (fun (boundary, (viol : Check.violation)) ->
        boundary = "unroll"
        && (viol.Check.rule = "carried-clobber"
           || viol.Check.rule = "unroll-equiv"))
      (Driver.check_violations o)
  in
  (* healthy compiler: clean *)
  let healthy = compile () in
  check_int "no errors without the bug" 0
    (List.length (Driver.check_violations healthy));
  (* buggy coalescer: the verifier alone refutes the seam *)
  check_bool "clobber refuted at the unroll boundary" true
    (seam_refuted (with_bug compile));
  (* a retarget lowers through the same boundaries: the healthy placement
     re-lowered by the buggy coalescer is refuted at unroll too *)
  let vl = Machine.vector_len config.Driver.machine in
  let retargeted =
    with_bug (fun () -> Retarget.retarget_exn ~vector_len:vl healthy)
  in
  check_bool "retarget: clobber refuted at the unroll boundary" true
    (seam_refuted retargeted.Retarget.outcome);
  (* and the fuzz oracle's static half classifies it without execution *)
  let outcome =
    with_bug (fun () -> Fuzz.Oracle.run { case with Fuzz.Case.config })
  in
  check_bool "oracle classifies static_violation" true
    (match outcome with Fuzz.Oracle.Static_violation _ -> true | _ -> false)

(* check_unroll translation validation on a hand-tampered unrolled body *)
let test_check_unroll_tamper () =
  let program =
    Parse.program_of_string
      "int32 a[64] @ 0;\nint32 b[64] @ 0;\nfor (i = 0; i < 32; i++) { a[i] = b[i]; }"
  in
  let machine = Machine.create ~vector_len:16 in
  let analysis = Analysis.check_exn ~machine program in
  let addr arr off = { Vir_addr.array = arr; offset = off; scale = 1 } in
  (* a depth-1 carry: t0 carries t1's previous value *)
  let pre =
    [
      Vir_expr.Assign ("t2", Vir_expr.Op (Ast.Add, Vir_expr.Temp "t0",
                                          Vir_expr.Load (addr "b" 0)));
      Vir_expr.Store (addr "a" 0, Vir_expr.Temp "t2");
      Vir_expr.Assign ("t0", Vir_expr.Temp "t1");
      Vir_expr.Assign ("t1", Vir_expr.Load (addr "b" 4));
    ]
  in
  let block = analysis.Analysis.block in
  let good = Passes.unroll ~block ~factor:2 pre in
  let r = Check.check_unroll ~analysis ~factor:2 ~pre ~post:good in
  check_int "correct unroll validates" 0 (List.length r.Check.violations);
  check_bool "seams counted" true (r.Check.facts.Check.seams_proved > 0);
  (* drop the coalesced restore of the carried temp [t0]: it ends the
     unrolled body holding a stale value — exactly the PR-1 clobber *)
  let tampered =
    List.filter
      (function Vir_expr.Assign ("t0", _) -> false | _ -> true)
      good
  in
  let r = Check.check_unroll ~analysis ~factor:2 ~pre ~post:tampered in
  check_bool "missing restores refuted" true
    (List.exists
       (fun (viol : Check.violation) -> viol.Check.rule = "carried-clobber")
       r.Check.violations);
  (* a displaced store: the store sequences diverge *)
  let skewed =
    List.map
      (function
        | Vir_expr.Store (a, e) ->
          Vir_expr.Store ({ a with Vir_addr.offset = a.Vir_addr.offset + 1 }, e)
        | s -> s)
      good
  in
  let r = Check.check_unroll ~analysis ~factor:2 ~pre ~post:skewed in
  check_bool "skewed stores refuted" true
    (List.exists
       (fun (viol : Check.violation) -> viol.Check.rule = "unroll-equiv")
       r.Check.violations)

(* ------------------------------------------------------------------ *)
(* Hand-tampered VIR: each invariant refutable in isolation            *)
(* ------------------------------------------------------------------ *)

let tamper_fixture () =
  let program =
    Parse.program_of_string
      "int32 a[64] @ 0;\nint32 b[64] @ 4;\nfor (i = 0; i < 32; i++) { a[i] = b[i]; }"
  in
  let machine = Machine.create ~vector_len:16 in
  Analysis.check_exn ~machine program

let addr arr off = { Vir_addr.array = arr; offset = off; scale = 1 }

let regions_errors analysis ~prologue ~body =
  (Check.check_regions ~analysis ~prologue ~body ~epilogues:[] ())
    .Check.violations

let has_rule rule errors =
  List.exists (fun (viol : Check.violation) -> viol.Check.rule = rule) errors

let test_tampered_vir_refuted () =
  let analysis = tamper_fixture () in
  (* (C.3): a and b sit at offsets 0 and 4 — combining their raw loads
     misaligns lanes *)
  let c3 =
    regions_errors analysis ~prologue:[]
      ~body:
        [
          Vir_expr.Store
            ( addr "a" 0,
              Vir_expr.Op (Ast.Add, Vir_expr.Load (addr "a" 0),
                           Vir_expr.Load (addr "b" 0)) );
        ]
  in
  check_bool "C.3 refuted" true (has_rule "C.3" c3);
  (* (C.2): storing b's stream (offset 4) to a (offset 0) unshifted *)
  let c2 =
    regions_errors analysis ~prologue:[]
      ~body:[ Vir_expr.Store (addr "a" 0, Vir_expr.Load (addr "b" 0)) ]
  in
  check_bool "C.2 refuted" true (has_rule "C.2" c2);
  (* adjacency: the halves are two registers apart, not one *)
  let adj =
    regions_errors analysis ~prologue:[]
      ~body:
        [
          Vir_expr.Store
            ( addr "a" 0,
              Vir_expr.Shiftpair
                ( Vir_expr.Load (addr "a" 0),
                  Vir_expr.Load (addr "a" 8),
                  Vir_rexpr.Const 4 ) );
        ]
  in
  check_bool "non-adjacent halves refuted" true (has_rule "adjacency" adj);
  (* def-before-use: a temp read that nothing defines *)
  let dbu =
    regions_errors analysis ~prologue:[]
      ~body:[ Vir_expr.Store (addr "a" 0, Vir_expr.Temp "ghost") ]
  in
  check_bool "undefined temp refuted" true (has_rule "def-before-use" dbu);
  (* range: a shift amount beyond V *)
  let range =
    regions_errors analysis ~prologue:[]
      ~body:
        [
          Vir_expr.Store
            ( addr "a" 0,
              Vir_expr.Shiftpair
                ( Vir_expr.Load (addr "a" 0),
                  Vir_expr.Load (addr "a" 4),
                  Vir_rexpr.Const 20 ) );
        ]
  in
  check_bool "out-of-range amount refuted" true (has_rule "range" range);
  (* range: a shift amount that splits an int32 lane *)
  let split =
    regions_errors analysis ~prologue:[]
      ~body:
        [
          Vir_expr.Store
            ( addr "a" 0,
              Vir_expr.Shiftpair
                ( Vir_expr.Load (addr "a" 0),
                  Vir_expr.Load (addr "a" 4),
                  Vir_rexpr.Const 2 ) );
        ]
  in
  check_bool "lane-splitting amount refuted" true (has_rule "range" split);
  (* range: a splice point beyond V *)
  let splice =
    regions_errors analysis ~prologue:[]
      ~body:
        [
          Vir_expr.Store
            ( addr "a" 0,
              Vir_expr.Splice
                ( Vir_expr.Load (addr "a" 0),
                  Vir_expr.Load (addr "a" 4),
                  Vir_rexpr.Const 20 ) );
        ]
  in
  check_bool "out-of-range splice point refuted" true (has_rule "range" splice)

(* ------------------------------------------------------------------ *)
(* Plumbing: outcome.checks, campaign counting                         *)
(* ------------------------------------------------------------------ *)

let test_checks_plumbing () =
  let program =
    Parse.program_of_string
      (read_file (Filename.concat corpus_dir "fig6b_dominant.simd"))
  in
  let off = Driver.simdize_exn Driver.default program in
  check_bool "no checks without ~check" true (off.Driver.checks = []);
  let on = Driver.simdize_exn ~check:true Driver.default program in
  let names = List.map fst on.Driver.checks in
  List.iter
    (fun b -> check_bool (b ^ " boundary present") true (List.mem b names))
    [ "placement"; "generate"; "memnorm"; "cse"; "final" ];
  check_bool "clean compile, non-vacuous facts" true
    ((Driver.check_facts on).Check.stores_proved > 0)

let test_campaign_counts_static_violations () =
  let oracle _ = Fuzz.Oracle.Static_violation "injected" in
  let stats, failures =
    Fuzz.Campaign.run ~shrink:false ~bisect:false ~oracle ~seed:3 ~budget:5 ()
  in
  check_int "all counted" 5 stats.Fuzz.Campaign.static_violations;
  check_int "all reported" 5 (List.length failures);
  check_bool "class preserved" true
    (List.for_all
       (fun (f : Fuzz.Campaign.failure) ->
         Fuzz.Oracle.same_class f.Fuzz.Campaign.outcome
           (Fuzz.Oracle.Static_violation ""))
       failures)

let suite =
  [
    ( "check",
      [
        Alcotest.test_case "absoff lattice" `Quick test_absoff_lattice;
        Alcotest.test_case "corpus sweep is violation-free" `Slow
          test_corpus_sweep;
        Alcotest.test_case "fuzz corpus is statically clean" `Quick
          test_fuzz_corpus_static_clean;
        Alcotest.test_case "seam bug caught statically at unroll" `Quick
          test_seam_bug_detected_statically;
        Alcotest.test_case "check_unroll refutes tampering" `Quick
          test_check_unroll_tamper;
        Alcotest.test_case "tampered VIR refuted per rule" `Quick
          test_tampered_vir_refuted;
        Alcotest.test_case "outcome.checks plumbing" `Quick
          test_checks_plumbing;
        Alcotest.test_case "campaign counts static violations" `Quick
          test_campaign_counts_static_violations;
      ] );
  ]
