(* Vector-length-agnostic retargeting (Simd.Retarget): one placement,
   re-instantiated at every V' in the matrix, must discharge all verifier
   obligations and agree with the scalar interpreter — the property the
   backend matrix stands on. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 =
  "int32 a[128] @ 0;\nint32 b[128] @ 4;\nint32 c[128] @ 8;\nparam k;\n\
   for (i = 0; i < 100; i++) { a[i+3] = b[i+1] + c[i+2] * k; }"

let config ?(vl = 16) policy =
  {
    Driver.default with
    Driver.machine = Machine.create ~vector_len:vl;
    policy;
  }

let simdized ?vl policy src =
  Driver.simdize_exn ~check:true (config ?vl policy) (Parse.program_of_string src)

(* --- single-placement showcase ----------------------------------------- *)

let test_fig1_structure_survives () =
  let o = simdized Policy.Dominant fig1 in
  List.iter
    (fun vl ->
      let t = Retarget.retarget_exn ~vector_len:vl o in
      check_int (Printf.sprintf "fig1 V'=%d from_vl" vl) 16 t.Retarget.from_vl;
      check_int (Printf.sprintf "fig1 V'=%d to_vl" vl) vl t.Retarget.to_vl;
      (* the placed structure is never thrown away for fig1: statuses are
         Preserved at the source V, and at widened Vs at worst Repaired
         (offset equalities like 16 ≡ 0 (mod 16) break at V' = 32, so a
         repair shift is legitimate — a Replaced would mean re-placement) *)
      List.iter
        (fun s ->
          match s with
          | Retarget.Preserved -> ()
          | Retarget.Repaired _ ->
            check_bool
              (Printf.sprintf "fig1 repaired only at widened V (V'=%d)" vl)
              true (vl <> 16)
          | Retarget.Replaced p ->
            Alcotest.failf "fig1 V'=%d replaced (policy %s)" vl
              (Policy.name p))
        t.Retarget.statuses;
      check_int
        (Printf.sprintf "fig1 V'=%d zero check errors" vl)
        0
        (List.length (Driver.check_violations t.Retarget.outcome)))
    Retarget.supported_vls

(* Retargeting to the source V is the identity on statuses: every offset
   equality that held still holds. *)
let test_same_v_is_preserved () =
  List.iter
    (fun policy ->
      let o = simdized policy fig1 in
      let t = Retarget.retarget_exn ~vector_len:16 o in
      List.iter
        (fun s ->
          check_bool
            (Policy.name policy ^ " V'=16 preserved")
            true (s = Retarget.Preserved))
        t.Retarget.statuses)
    [ Policy.Zero; Policy.Dominant; Policy.Optimal; Policy.Joint ]

let test_counts_partition_statuses () =
  let o = simdized Policy.Joint fig1 in
  List.iter
    (fun vl ->
      let t = Retarget.retarget_exn ~vector_len:vl o in
      let p, r, x = Retarget.counts t in
      check_int
        (Printf.sprintf "counts sum V'=%d" vl)
        (List.length t.Retarget.statuses)
        (p + r + x))
    Retarget.supported_vls

let test_sweep_covers_matrix () =
  let o = simdized Policy.Optimal fig1 in
  let results = Retarget.sweep o in
  check_int "sweep arity" (List.length Retarget.supported_vls)
    (List.length results);
  List.iter2
    (fun vl (vl', r) ->
      check_int "sweep V order" vl vl';
      match r with
      | Ok t -> check_int "sweep to_vl" vl t.Retarget.to_vl
      | Error reason ->
        Alcotest.failf "sweep V'=%d failed: %a" vl Driver.pp_reason reason)
    Retarget.supported_vls results

let test_to_json_shape () =
  let o = simdized Policy.Dominant fig1 in
  let t = Retarget.retarget_exn ~vector_len:32 o in
  let doc = Retarget.to_json t in
  List.iter
    (fun field ->
      check_bool ("to_json has " ^ field) true (Json.member field doc <> None))
    [
      "from_vl"; "to_vl"; "statuses"; "preserved"; "repaired"; "replaced";
      "check_errors"; "cost"; "body_cost";
    ]

(* A retarget lowers through the driver: its verifier boundaries are the
   ones a [simdize ~check:true] compilation records, unroll included. *)
let test_retarget_boundaries () =
  List.iter
    (fun unroll ->
      let expected =
        [ "placement"; "generate"; "hoist_splats"; "memnorm"; "cse";
          "predictive_commoning"; "cse" ]
        @ List.init (if unroll > 1 then 2 else 1) (fun _ -> "unroll")
        @ [ "derive_epilogues"; "finalize_reductions"; "dce"; "vir_cleanup";
            "final" ]
      in
      let boundaries (o : Driver.outcome) =
        String.concat " " (List.map fst o.Driver.checks)
      in
      let o =
        Driver.simdize_exn ~check:true
          { (config Policy.Dominant) with Driver.unroll }
          (Parse.program_of_string fig1)
      in
      Alcotest.(check string)
        (Printf.sprintf "simdize boundaries (unroll %d)" unroll)
        (String.concat " " expected) (boundaries o);
      List.iter
        (fun vl ->
          let t = Retarget.retarget_exn ~vector_len:vl o in
          Alcotest.(check string)
            (Printf.sprintf "retarget V'=%d boundaries (unroll %d)" vl unroll)
            (boundaries o) (boundaries t.Retarget.outcome))
        Retarget.supported_vls)
    [ 1; 2 ]

(* --- corpus × policies × V' (the acceptance property) ------------------- *)

let corpus_dir =
  List.find_opt Sys.file_exists
    [ "../corpus"; "corpus"; "../../corpus"; "../../../corpus" ]
  |> Option.value ~default:"../corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simd")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_matrix () =
  let files = corpus_files () in
  check_bool "corpus present" true (files <> []);
  let retargets = ref 0 in
  List.iter
    (fun file ->
      let program = Parse.program_of_string (read_file file) in
      List.iter
        (fun policy ->
          match
            Driver.simdize ~check:true (config policy) program
          with
          | Driver.Scalar _ -> () (* legitimately scalar under this config *)
          | Driver.Simdized o ->
            List.iter
              (fun vl ->
                match Retarget.retarget ~vector_len:vl o with
                | Error _ -> () (* illegal or trip too small at V' *)
                | Ok t ->
                  incr retargets;
                  (* zero verifier violations *)
                  (match Driver.check_violations t.Retarget.outcome with
                  | [] -> ()
                  | (boundary, v) :: _ ->
                    Alcotest.failf "%s %s V'=%d: %s: %a" file
                      (Policy.name policy) vl boundary Check.pp_violation v);
                  (* and the simulator agrees with the scalar original *)
                  let o' = t.Retarget.outcome in
                  let trip =
                    match program.Ast.loop.Ast.trip with
                    | Ast.Trip_const _ -> None
                    | Ast.Trip_param _ -> Some 200
                  in
                  let setup =
                    Sim_run.prepare ?trip
                      ~machine:o'.Driver.config.Driver.machine program
                  in
                  (match Sim_run.verify setup o'.Driver.prog with
                  | Ok () -> ()
                  | Error m ->
                    Alcotest.failf "%s %s V'=%d: simulator mismatch: %a" file
                      (Policy.name policy) vl Sim_run.pp_mismatch m))
              Retarget.supported_vls)
        [ Policy.Zero; Policy.Dominant; Policy.Optimal; Policy.Joint ])
    files;
  (* the sweep must actually exercise the matrix, not vacuously pass *)
  check_bool
    (Printf.sprintf "corpus matrix is populated (%d retargets)" !retargets)
    true (!retargets >= 100)

(* --- retargeted costs stay priced under the V' model -------------------- *)

let test_retarget_cost_is_v'_model () =
  let o = simdized Policy.Dominant fig1 in
  let t = Retarget.retarget_exn ~vector_len:32 o in
  let vl =
    Machine.vector_len t.Retarget.outcome.Driver.config.Driver.machine
  in
  check_int "retargeted machine V" 32 vl;
  (* the retargeted program emits through the V'-native backend *)
  let c = Backend.unit_for Backend.Avx2 t.Retarget.outcome.Driver.prog in
  check_bool "avx2 unit from retargeted prog" true
    (String.length c > 0)

let suite =
  [
    ( "retarget",
      [
        Alcotest.test_case "fig1 structure survives every V'" `Quick
          test_fig1_structure_survives;
        Alcotest.test_case "same V is preserved" `Quick
          test_same_v_is_preserved;
        Alcotest.test_case "counts partition statuses" `Quick
          test_counts_partition_statuses;
        Alcotest.test_case "sweep covers the matrix" `Quick
          test_sweep_covers_matrix;
        Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
        Alcotest.test_case "retargeted V' machine and emitter" `Quick
          test_retarget_cost_is_v'_model;
        Alcotest.test_case "retarget checks the driver's boundaries" `Quick
          test_retarget_boundaries;
        Alcotest.test_case "corpus x policies x V' verifies and agrees" `Slow
          test_corpus_matrix;
      ] );
  ]
