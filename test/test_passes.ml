(* Optimization pass tests: splat hoisting, memory normalization, local
   value numbering, predictive commoning, epilogue specialization, DCE. *)

open Simd

let machine = Machine.default
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Parse.program_of_string

let simdize_with config src = Driver.simdize_exn config (parse src)

let body_counts o = Vir_prog.body_counts o.Driver.prog

(* --- memnorm ---------------------------------------------------------- *)

let test_memnorm_merges_chunk_loads () =
  (* x[i] and x[i+1] land in the same chunk when x is misaligned by one
     element: with memnorm + cse they become one load. *)
  let src =
    "int32 y[128] @ 0;\nint32 x[128] @ 4;\n\
     for (i = 0; i < 100; i++) { y[i] = x[i] + x[i+1] + x[i+2]; }"
  in
  let with_norm =
    simdize_with { Driver.default with Driver.reuse = Driver.No_reuse } src
  in
  let without_norm =
    simdize_with
      { Driver.default with Driver.reuse = Driver.No_reuse; memnorm = false }
      src
  in
  check_bool "memnorm reduces loads" true
    ((body_counts with_norm).Vir_prog.loads
    < (body_counts without_norm).Vir_prog.loads)

let test_memnorm_rewrites_to_chunk_addresses () =
  let a = Analysis.check_exn ~machine
      (parse "int32 y[64] @ 0;\nint32 x[64] @ 8;\nfor (i = 0; i < 32; i++) { y[i] = x[i+1]; }")
  in
  (* x[i+1] has offset (8+4) = 12; normalized element offset 1 - 3 = -2 *)
  let stmts =
    Passes.memnorm ~analysis:a
      [ Vir_expr.Store
          ( { Vir_addr.array = "y"; offset = 0; scale = 1 },
            Vir_expr.Load { Vir_addr.array = "x"; offset = 1; scale = 1 } );
      ]
  in
  (match stmts with
  | [ Vir_expr.Store (st, Vir_expr.Load ld) ] ->
    check_int "store address untouched" 0 st.Vir_addr.offset;
    check_int "load normalized" (-2) ld.Vir_addr.offset
  | _ -> Alcotest.fail "shape")

(* --- cse --------------------------------------------------------------- *)

let test_cse_dedups_within_statement () =
  let src =
    "int32 y[128] @ 0;\nint32 z[128] @ 0;\nint32 x[128] @ 0;\n\
     for (i = 0; i < 100; i++) { y[i] = x[i+4] + x[i+4]; z[i] = x[i+4]; }"
  in
  let o = simdize_with { Driver.default with Driver.reuse = Driver.No_reuse } src in
  check_int "x loaded once per iteration" 1 (body_counts o).Vir_prog.loads

let test_cse_respects_store_kills () =
  (* A load of the stored array after the store must not reuse the value
     loaded before it. Construct the statement list manually (the frontend
     forbids such aliasing, but the pass must still be sound). *)
  let names = Names.create () in
  let y0 = { Vir_addr.array = "y"; offset = 0; scale = 1 } in
  let stmts =
    [
      Vir_expr.Assign ("before", Vir_expr.Load y0);
      Vir_expr.Store (y0, Vir_expr.Temp "before");
      Vir_expr.Assign ("after", Vir_expr.Load y0);
    ]
  in
  let out = Passes.cse ~names stmts in
  let loads = Vir_expr.count_nodes Vir_expr.is_load out in
  check_int "load after store survives" 2 loads

let test_cse_respects_temp_versions () =
  (* t := load x; a := t+t; t := load z; b := t+t — b must not reuse a. *)
  let names = Names.create () in
  let lx = Vir_expr.Load { Vir_addr.array = "x"; offset = 0; scale = 1 } in
  let lz = Vir_expr.Load { Vir_addr.array = "z"; offset = 0; scale = 1 } in
  let stmts =
    [
      Vir_expr.Assign ("t", lx);
      Vir_expr.Assign ("a", Vir_expr.Op (Ast.Add, Vir_expr.Temp "t", Vir_expr.Temp "t"));
      Vir_expr.Assign ("t", lz);
      Vir_expr.Assign ("b", Vir_expr.Op (Ast.Add, Vir_expr.Temp "t", Vir_expr.Temp "t"));
      Vir_expr.Store ({ Vir_addr.array = "y"; offset = 0; scale = 1 },
                      Vir_expr.Op (Ast.Add, Vir_expr.Temp "a", Vir_expr.Temp "b"));
    ]
  in
  let out = Passes.cse ~names stmts in
  let adds =
    Vir_expr.count_nodes (function Vir_expr.Op _ -> true | _ -> false) out
  in
  check_int "both adds computed" 3 adds

(* --- predictive commoning ---------------------------------------------- *)

let test_pc_equals_sp_on_loads_and_shifts () =
  let src =
    "int32 a[128] @ 0;\nint32 b[128] @ 0;\nint32 c[128] @ 0;\n\
     for (i = 0; i < 100; i++) { a[i+3] = b[i+1] + c[i+2]; }"
  in
  let pc =
    simdize_with { Driver.default with Driver.reuse = Driver.Predictive_commoning } src
  in
  let sp =
    simdize_with { Driver.default with Driver.reuse = Driver.Software_pipelining } src
  in
  check_int "same loads" (body_counts sp).Vir_prog.loads (body_counts pc).Vir_prog.loads;
  check_int "same shifts" (body_counts sp).Vir_prog.shifts (body_counts pc).Vir_prog.shifts

let test_pc_carries_across_chains () =
  (* offsets i, i+B, i+2B: a 3-link chain; only the highest loads. *)
  let src =
    "int32 y[256] @ 0;\nint32 x[256] @ 0;\n\
     for (i = 0; i < 200; i++) { y[i] = x[i] + x[i+4] + x[i+8]; }"
  in
  let o =
    simdize_with { Driver.default with Driver.reuse = Driver.Predictive_commoning } src
  in
  check_int "one real load" 1 (body_counts o).Vir_prog.loads;
  check_int "two carried copies" 2 (body_counts o).Vir_prog.copies

let test_pc_survives_doubling_expressions () =
  (* Value numbering shares subtrees; PC's expansion must not explode on
     deep doubling expressions (it gives up carrying instead). *)
  let rec doubled n = if n = 0 then "x[i]" else
    let inner = doubled (n - 1) in
    Printf.sprintf "(%s + %s)" inner inner
  in
  let src =
    (* depth 14: the CSE-shared value tree re-expands to 2^14 > budget *)
    Printf.sprintf
      "int32 y[128] @ 0;\nint32 x[128] @ 4;\n\
       for (i = 0; i < 100; i++) { y[i] = %s; }"
      (doubled 14)
  in
  let t0 = Sys.time () in
  let o =
    simdize_with { Driver.default with Driver.reuse = Driver.Predictive_commoning } src
  in
  check_bool "fast" true (Sys.time () -. t0 < 5.0);
  match Measure.verify ~config:o.Driver.config (parse src) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let test_pc_does_not_carry_invariants () =
  let src =
    "int32 y[128] @ 0;\nparam k;\nfor (i = 0; i < 100; i++) { y[i] = k; }"
  in
  let o =
    simdize_with { Driver.default with Driver.reuse = Driver.Predictive_commoning } src
  in
  check_int "no copies for invariants" 0 (body_counts o).Vir_prog.copies

(* --- specialization and dce -------------------------------------------- *)

let test_specialize_folds_counters () =
  let a =
    Analysis.check_exn ~machine
      (parse "int32 y[64] @ 0;\nint32 x[64] @ 4;\nfor (i = 0; i < 32; i++) { y[i] = x[i]; }")
  in
  let stmts =
    [
      Vir_expr.If
        ( Vir_rexpr.Ge
            ( Vir_rexpr.Add
                ( Vir_rexpr.Mul_const
                    (Vir_rexpr.Sub (Vir_rexpr.Trip, Vir_rexpr.Counter), 4),
                  Vir_rexpr.Const 0 ),
              Vir_rexpr.Const 16 ),
          [ Vir_expr.Store
              ( { Vir_addr.array = "y"; offset = 0; scale = 1 },
                Vir_expr.Load { Vir_addr.array = "x"; offset = 0; scale = 1 } );
          ],
          [] );
    ]
  in
  (* trip 32, i = 28: L = 16 >= 16: the store survives, frozen *)
  (match Passes.specialize ~analysis:a ~trip:(Some 32) ~i:(Some 28) stmts with
  | [ Vir_expr.Store (addr, _) ] ->
    check_bool "frozen" false (Vir_addr.with_counter addr);
    check_int "at 28" 28 addr.Vir_addr.offset
  | _ -> Alcotest.fail "guard should fold to the store");
  (* i = 32: L = 0 < 16: everything folds away *)
  match Passes.specialize ~analysis:a ~trip:(Some 32) ~i:(Some 32) stmts with
  | [] -> ()
  | _ -> Alcotest.fail "guard should fold to nothing"

let test_dce_removes_dead_chains () =
  let load name =
    Vir_expr.Load { Vir_addr.array = name; offset = 0; scale = 0 }
  in
  let segments =
    [
      [
        Vir_expr.Assign ("dead1", load "x");
        Vir_expr.Assign ("dead2", Vir_expr.Op (Ast.Add, Vir_expr.Temp "dead1", Vir_expr.Temp "dead1"));
        Vir_expr.Assign ("live", load "z");
      ];
      [ Vir_expr.Store ({ Vir_addr.array = "y"; offset = 0; scale = 0 },
                        Vir_expr.Temp "live") ];
    ]
  in
  match Dataflow.Cleanup.dce_epilogues segments with
  | [ seg1; seg2 ] ->
    check_int "dead chain removed" 1 (List.length seg1);
    check_int "store kept" 1 (List.length seg2)
  | _ -> Alcotest.fail "segment count"

let test_dce_keeps_cross_segment_uses () =
  let segments =
    [
      [ Vir_expr.Assign ("t", Vir_expr.Load { Vir_addr.array = "x"; offset = 0; scale = 0 }) ];
      [ Vir_expr.Store ({ Vir_addr.array = "y"; offset = 0; scale = 0 }, Vir_expr.Temp "t") ];
    ]
  in
  match Dataflow.Cleanup.dce_epilogues segments with
  | [ [ _ ]; [ _ ] ] -> ()
  | _ -> Alcotest.fail "cross-segment liveness broken"

let test_dce_liveness_is_polynomial () =
  (* Regression: liveness through conditionals must be a set union, not a
     list concatenation — the latter doubled per conditional and went
     exponential over many guarded epilogue segments. 60 nested-guard
     segments with shared temps must finish instantly. *)
  let guard k =
    Vir_expr.If
      ( Vir_rexpr.Gt (Vir_rexpr.Trip, Vir_rexpr.Const k),
        [ Vir_expr.Store
            ( { Vir_addr.array = "y"; offset = k; scale = 0 },
              Vir_expr.Op (Ast.Add, Vir_expr.Temp "a", Vir_expr.Temp "b") ) ],
        [ Vir_expr.Store
            ( { Vir_addr.array = "y"; offset = k; scale = 0 },
              Vir_expr.Op (Ast.Add, Vir_expr.Temp "b", Vir_expr.Temp "c") ) ] )
  in
  let seg = List.init 20 guard in
  let t0 = Sys.time () in
  let out = Dataflow.Cleanup.dce_epilogues (List.init 60 (fun _ -> seg)) in
  check_bool "fast" true (Sys.time () -. t0 < 2.0);
  check_int "segments preserved" 60 (List.length out)

let test_dce_drops_empty_ifs () =
  let segments =
    [ [ Vir_expr.If (Vir_rexpr.Gt (Vir_rexpr.Trip, Vir_rexpr.Const 0),
          [ Vir_expr.Assign ("dead", Vir_expr.Load { Vir_addr.array = "x"; offset = 0; scale = 0 }) ],
          []) ] ]
  in
  match Dataflow.Cleanup.dce_epilogues segments with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "empty if should disappear"

(* --- splat hoisting ----------------------------------------------------- *)

let test_hoist_dedups_equal_splats () =
  let src =
    "int32 y[128] @ 0;\nint32 z[128] @ 0;\nparam k;\n\
     for (i = 0; i < 100; i++) { y[i] = k + 1; z[i] = k + 1; }"
  in
  let o = simdize_with Driver.default src in
  let prologue_splats =
    (Vir_prog.static_counts_of_stmts o.Driver.prog.Vir_prog.prologue).Vir_prog.splats
  in
  check_int "one shared splat" 1 prologue_splats;
  check_int "no body splats" 0 (body_counts o).Vir_prog.splats

let test_hoist_disabled () =
  let src =
    "int32 y[128] @ 0;\nparam k;\nfor (i = 0; i < 100; i++) { y[i] = k; }"
  in
  let o = simdize_with { Driver.default with Driver.hoist_splats = false } src in
  check_int "splat stays in body" 1 (body_counts o).Vir_prog.splats

let suite =
  [
    ( "passes",
      [
        Alcotest.test_case "memnorm merges chunk loads" `Quick
          test_memnorm_merges_chunk_loads;
        Alcotest.test_case "memnorm chunk addresses" `Quick
          test_memnorm_rewrites_to_chunk_addresses;
        Alcotest.test_case "cse dedups" `Quick test_cse_dedups_within_statement;
        Alcotest.test_case "cse store kills" `Quick test_cse_respects_store_kills;
        Alcotest.test_case "cse temp versions" `Quick test_cse_respects_temp_versions;
        Alcotest.test_case "pc == sp on loads/shifts" `Quick
          test_pc_equals_sp_on_loads_and_shifts;
        Alcotest.test_case "pc chains" `Quick test_pc_carries_across_chains;
        Alcotest.test_case "pc skips invariants" `Quick test_pc_does_not_carry_invariants;
        Alcotest.test_case "pc doubling budget" `Quick
          test_pc_survives_doubling_expressions;
        Alcotest.test_case "specialize folds" `Quick test_specialize_folds_counters;
        Alcotest.test_case "dce dead chains" `Quick test_dce_removes_dead_chains;
        Alcotest.test_case "dce cross-segment" `Quick test_dce_keeps_cross_segment_uses;
        Alcotest.test_case "dce empty ifs" `Quick test_dce_drops_empty_ifs;
        Alcotest.test_case "dce polynomial liveness" `Quick
          test_dce_liveness_is_polynomial;
        Alcotest.test_case "splat hoist dedup" `Quick test_hoist_dedups_equal_splats;
        Alcotest.test_case "splat hoist disabled" `Quick test_hoist_disabled;
      ] );
  ]
