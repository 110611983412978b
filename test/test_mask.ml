(* Predication subsystem tests: Mask.if_convert unit behavior (merging,
   reduction rewriting, idempotence), the guarded-store-under-peeling
   property at every store offset o in [0, V), the predicated corpus
   swept across every policy x V in {8,16,32} with the static verifier
   on, and native-oracle replay of the predicated corpus on every
   probe-supported backend. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse src =
  match Parse.program_of_string_result src with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse error: %s" m

(* --- if-conversion units ------------------------------------------------ *)

let test_merge_complementary () =
  let p =
    parse
      "int32 a[64] @ 0;\nint32 b[64] @ 4;\nint32 c[64] @ 8;\n\
       for (i = 0; i < 40; i++) { if (a[i] > b[i+1]) { c[i+2] = a[i]; } \
       else { c[i+2] = b[i+1]; } }"
  in
  let p', stats = Mask.if_convert p in
  check_int "one merge" 1 stats.Mask.merged_selects;
  check_int "no residual" 0 stats.Mask.residual_guards;
  check_int "one stmt" 1 (List.length p'.Ast.loop.Ast.body);
  let s = List.hd p'.Ast.loop.Ast.body in
  check_bool "unguarded" true (s.Ast.guard = None);
  match s.Ast.rhs with
  | Ast.Select _ -> ()
  | e -> Alcotest.failf "expected a select, got %s" (Ast.show_expr e)

let test_rewrite_guarded_reduction () =
  let p =
    parse
      "int32 s[1] @ 0;\nint32 x[64] @ 4;\n\
       for (i = 0; i < 40; i++) { if (x[i+1] > 0) { s += x[i+1]; } }"
  in
  let p', stats = Mask.if_convert p in
  check_int "one rewrite" 1 stats.Mask.rewritten_reductions;
  let s = List.hd p'.Ast.loop.Ast.body in
  check_bool "reduction unguarded after rewrite" true (s.Ast.guard = None);
  (match s.Ast.rhs with
  | Ast.Select (_, _, Ast.Const 0L) -> () (* add identity on the else arm *)
  | e -> Alcotest.failf "expected identity-select, got %s" (Ast.show_expr e));
  (* the rewritten program is legal where the raw one is rejected *)
  let machine = Machine.create ~vector_len:16 in
  check_bool "raw rejected" true
    (match Analysis.check ~machine p with Error _ -> true | Ok _ -> false);
  check_bool "converted accepted" true
    (match Analysis.check ~machine p' with Ok _ -> true | Error _ -> false)

let test_residual_guard_counted () =
  let p =
    parse
      "int8 x[64] @ 0;\nint8 y[64] @ 1;\n\
       for (i = 0; i < 40; i++) { if (x[i] != 3) { y[i+1] = x[i]; } }"
  in
  let _, stats = Mask.if_convert p in
  check_int "residual" 1 stats.Mask.residual_guards;
  check_int "no merge" 0 stats.Mask.merged_selects

let test_if_convert_idempotent () =
  List.iter
    (fun src ->
      let p = parse src in
      let once = Mask.apply p in
      check_bool "idempotent" true (Ast.equal_program once (Mask.apply once)))
    [
      "int32 a[64] @ 0;\nint32 b[64] @ 4;\nint32 c[64] @ 8;\n\
       for (i = 0; i < 40; i++) { if (a[i] > b[i+1]) { c[i+2] = a[i]; } \
       else { c[i+2] = b[i+1]; } }";
      "int32 s[1] @ 0;\nint32 x[64] @ 4;\n\
       for (i = 0; i < 40; i++) { if (x[i+1] > 0) { s += x[i+1]; } }";
      "int8 x[64] @ 0;\nint8 y[64] @ 1;\n\
       for (i = 0; i < 40; i++) { if (x[i] != 3) { y[i+1] = x[i]; } }";
    ]

(* --- guarded store under peeling, every offset -------------------------- *)

(* For every V and every store offset o in [0, V), a guarded int8 store
   must match the scalar interpreter byte-for-byte: the prologue-peeled
   lanes in [0, o) and the epilogue remainder evaluate the guard
   scalar-wise (a lane whose guard fails must keep its old byte), while
   the steady state takes the vcmp/vsel/masked-store path. *)
let test_peeled_guard_every_offset () =
  List.iter
    (fun v ->
      let config =
        { Driver.default with Driver.machine = Machine.create ~vector_len:v }
      in
      let trip = (4 * v) + 3 in
      for o = 0 to v - 1 do
        let src =
          Printf.sprintf
            "int8 src[%d] @ 1;\nint8 dst[%d] @ 0;\nparam lim;\n\
             for (i = 0; i < %d; i++) { if (src[i+1] > lim) { dst[i+%d] = \
             src[i+1] ^ lim; } }"
            (trip + 4) (trip + o + 2) trip o
        in
        match Measure.verify ~config ~setup_seed:(o + 1) (parse src) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "V=%d o=%d: %s" v o m
      done)
    [ 8; 16; 32 ]

(* --- predicated corpus x policies x V ----------------------------------- *)

let corpus_dir =
  List.find_opt Sys.file_exists
    [ "../corpus"; "corpus"; "../../corpus"; "../../../corpus" ]
  |> Option.value ~default:"../corpus"

let pred_corpus = [ "pred-threshold.simd"; "pred-if-else.simd"; "pred-masked-epilogue.simd" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pred_program file = parse (read_file (Filename.concat corpus_dir file))

let trip_for (p : Ast.program) =
  match p.Ast.loop.Ast.trip with Ast.Trip_const _ -> None | Ast.Trip_param _ -> Some 100

let test_pred_corpus_policies_vls () =
  List.iter
    (fun file ->
      let program = pred_program file in
      let trip = trip_for program in
      List.iter
        (fun policy ->
          List.iter
            (fun v ->
              let config =
                {
                  Driver.default with
                  Driver.policy;
                  machine = Machine.create ~vector_len:v;
                }
              in
              let label =
                Printf.sprintf "%s / %s / V=%d" file (Policy.name policy) v
              in
              (* static: zero Check violations *)
              (match Driver.simdize ~check:true config program with
              | Driver.Scalar r ->
                Alcotest.failf "%s left scalar: %a" label Driver.pp_reason r
              | Driver.Simdized o ->
                List.iter
                  (fun (boundary, viol) ->
                    Alcotest.failf "%s: at %s: %s" label boundary
                      (Check.violation_to_string viol))
                  (Driver.check_violations o));
              (* dynamic: simulator agreement with the scalar interpreter *)
              match Measure.verify ~config ?trip program with
              | Ok () -> ()
              | Error m -> Alcotest.failf "%s: %s" label m)
            [ 8; 16; 32 ])
        Policy.all)
    pred_corpus

(* --- native-oracle replay ----------------------------------------------- *)

let test_pred_corpus_native_oracle () =
  match Cc.find () with
  | None -> () (* no C compiler: skip *)
  | Some cc ->
    let cache_dir = Filename.temp_file "simd_mask_native" "" in
    Sys.remove cache_dir;
    (match Par.Native.create ~cc ~cache_dir () with
    | Error m -> Alcotest.failf "Native.create: %s" m
    | Ok oracle ->
      List.iter
        (fun file ->
          let program = pred_program file in
          let case =
            {
              Fuzz.Case.program;
              config = Driver.default;
              trip = trip_for program;
              setup_seed = 42;
            }
          in
          match Par.Native.check oracle case with
          | Fuzz.Oracle.Pass -> ()
          | o ->
            Alcotest.failf "%s: native oracle: %a" file Fuzz.Oracle.pp_outcome
              o)
        pred_corpus)

let suite =
  [
    ( "mask",
      [
        Alcotest.test_case "merge complementary pair" `Quick
          test_merge_complementary;
        Alcotest.test_case "rewrite guarded reduction" `Quick
          test_rewrite_guarded_reduction;
        Alcotest.test_case "residual guard counted" `Quick
          test_residual_guard_counted;
        Alcotest.test_case "if_convert idempotent" `Quick
          test_if_convert_idempotent;
        Alcotest.test_case "peeled guard, every offset" `Slow
          test_peeled_guard_every_offset;
        Alcotest.test_case "pred corpus x policies x V" `Slow
          test_pred_corpus_policies_vls;
        Alcotest.test_case "pred corpus native oracle" `Slow
          test_pred_corpus_native_oracle;
      ] );
  ]
