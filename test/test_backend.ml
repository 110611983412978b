(* Backend registry and capability probe (Simd.Backend, Simd.Matrix):
   naming, vector-length support, probe caching, and the matrix join. *)

open Simd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_name_round_trip () =
  List.iter
    (fun b ->
      match Backend.of_name (Backend.name b) with
      | Some b' -> check_bool (Backend.name b ^ " round trip") true (b = b')
      | None -> Alcotest.failf "of_name %s = None" (Backend.name b))
    Backend.all;
  check_bool "c aliases portable" true
    (Backend.of_name "c" = Some Backend.Portable);
  check_bool "unknown name" true (Backend.of_name "mmx" = None)

let test_registry_order () =
  check_int "five backends" 5 (List.length Backend.all);
  check_bool "portable first" true (List.hd Backend.all = Backend.Portable)

let test_supports_vl () =
  (* fixed-width ISAs accept exactly their native V *)
  List.iter
    (fun (b, v) ->
      check_bool (Backend.name b ^ " native") true (Backend.supports_vl b v);
      check_bool (Backend.name b ^ " rejects others") false
        (Backend.supports_vl b (2 * v) || Backend.supports_vl b (v / 2)))
    [ (Backend.Altivec, 16); (Backend.Sse, 16); (Backend.Avx2, 32);
      (Backend.Neon, 16) ];
  (* portable takes any power of two in [4, 64] *)
  List.iter
    (fun v -> check_bool (Printf.sprintf "portable V=%d" v) true
        (Backend.supports_vl Backend.Portable v))
    [ 4; 8; 16; 32; 64 ];
  List.iter
    (fun v -> check_bool (Printf.sprintf "portable rejects V=%d" v) false
        (Backend.supports_vl Backend.Portable v))
    [ 2; 5; 12; 128 ]

let test_default_vl_consistent () =
  List.iter
    (fun b ->
      let v = Backend.default_vl b in
      check_bool (Backend.name b ^ " default_vl supported") true
        (Backend.supports_vl b v);
      match Backend.native_vl b with
      | Some n -> check_int (Backend.name b ^ " native_vl") n v
      | None -> check_int (Backend.name b ^ " portable default") 16 v)
    Backend.all

let test_unit_for_checks_vl () =
  let program =
    Parse.program_of_string
      "int32 a[128] @ 0;\nint32 b[128] @ 4;\n\
       for (i = 0; i < 100; i++) { a[i+1] = b[i+2]; }"
  in
  let o = Driver.simdize_exn Driver.default program in
  (* V = 16 program: avx2 must refuse, the 16-byte backends must emit *)
  (try
     ignore (Backend.unit_for Backend.Avx2 o.Driver.prog);
     Alcotest.fail "avx2 accepted a V=16 program"
   with Invalid_argument _ -> ());
  List.iter
    (fun b ->
      check_bool (Backend.name b ^ " emits at 16") true
        (String.length (Backend.unit_for b o.Driver.prog) > 0))
    [ Backend.Portable; Backend.Altivec; Backend.Sse; Backend.Neon ]

let test_probe_deterministic_and_cached () =
  match Cc.find () with
  | None -> ()
  | Some cc ->
    Backend.clear_probe_cache ();
    let first = Backend.probe_all ~cc () in
    let second = Backend.probe_all ~cc () in
    check_bool "probe stable across calls" true (first = second);
    check_int "probe_all covers registry" (List.length Backend.all)
      (List.length first);
    (* the portable probe is plain C11 — a working cc must support it *)
    check_bool "portable supported" true
      (List.assoc Backend.Portable first = Backend.Supported)

let test_probe_json_fields () =
  let doc = Backend.to_json Backend.Avx2 Backend.Supported in
  List.iter
    (fun field ->
      check_bool ("probe json has " ^ field) true (Json.member field doc <> None))
    [ "backend"; "vl"; "cflags"; "support" ]

(* --- the matrix join ---------------------------------------------------- *)

let test_matrix_rows () =
  let program =
    Parse.program_of_string
      "int32 a[128] @ 0;\nint32 b[128] @ 4;\nint32 c[128] @ 8;\n\
       for (i = 0; i < 100; i++) { a[i+3] = b[i+1] + c[i+2]; }"
  in
  let o = Driver.simdize_exn ~check:true Driver.default program in
  let rows = Simd.Matrix.rows o in
  check_int "one row per backend" (List.length Backend.all) (List.length rows);
  List.iter2
    (fun b (row : Simd.Matrix.row) ->
      check_bool "registry order" true (row.Simd.Matrix.backend = b);
      (* the row targets a V the backend can actually emit *)
      check_bool
        (Backend.name b ^ " row vl supported")
        true
        (Backend.supports_vl b row.Simd.Matrix.vl);
      match row.Simd.Matrix.retarget with
      | Error reason ->
        Alcotest.failf "%s row failed: %a" (Backend.name b) Driver.pp_reason
          reason
      | Ok t ->
        check_int (Backend.name b ^ " row to_vl") row.Simd.Matrix.vl
          t.Retarget.to_vl;
        check_int
          (Backend.name b ^ " zero check errors")
          0
          (List.length (Driver.check_violations t.Retarget.outcome));
        (* the row's unit emits through its own backend *)
        (match Simd.Matrix.unit_of_row row with
        | Some c -> check_bool (Backend.name b ^ " unit") true (String.length c > 0)
        | None -> Alcotest.failf "%s row has no unit" (Backend.name b)))
    Backend.all rows

let test_matrix_json () =
  let program =
    Parse.program_of_string
      "int32 a[128] @ 0;\nint32 b[128] @ 4;\n\
       for (i = 0; i < 100; i++) { a[i+1] = b[i+2]; }"
  in
  let o = Driver.simdize_exn ~check:true Driver.default program in
  match Simd.Matrix.to_json (Simd.Matrix.rows o) with
  | Json.List rows ->
    check_int "json rows" (List.length Backend.all) (List.length rows)
  | _ -> Alcotest.fail "matrix json is not a list"

let suite =
  [
    ( "backend",
      [
        Alcotest.test_case "name round trip" `Quick test_name_round_trip;
        Alcotest.test_case "registry order" `Quick test_registry_order;
        Alcotest.test_case "supports_vl" `Quick test_supports_vl;
        Alcotest.test_case "default_vl consistency" `Quick
          test_default_vl_consistent;
        Alcotest.test_case "unit_for enforces V" `Quick test_unit_for_checks_vl;
        Alcotest.test_case "probe deterministic + cached" `Quick
          test_probe_deterministic_and_cached;
        Alcotest.test_case "probe json fields" `Quick test_probe_json_fields;
        Alcotest.test_case "matrix rows" `Quick test_matrix_rows;
        Alcotest.test_case "matrix json" `Quick test_matrix_json;
      ] );
  ]
