(* backends — the multi-ISA backend matrix, from the command line.

   Compiles each input program once (one placement at the source V),
   retargets the placed compilation to every registry backend's native
   vector length (Simd.Retarget — placement is NOT rerun), probes what
   the build machine can do with each backend, and reports the joined
   matrix: support classification, retarget statuses, verifier verdict,
   simulator agreement, and measured OPD/speedup at each V'.

   Modes:
     backends FILE...            human-readable matrix (default)
     backends --probe            capability probe only (no programs)
     backends --doc-md FILE...   deterministic markdown for gen_docs.sh
                                 (registry facts + retarget matrix; no
                                 compiler probe, so the output is
                                 machine-independent)
     backends --json PATH ...    also write the BENCH_backends.json
                                 document CI uploads. *)

open Cmdliner

let policy_conv =
  let parse s =
    match Simd.Policy.of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Simd.Policy.name p))

let read_program path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Simd.parse src

(* ------------------------------------------------------------------ *)
(* Measurement of a retargeted compilation                             *)
(* ------------------------------------------------------------------ *)

(* Simulate the retargeted program (not a fresh compilation at V'): the
   numbers answer for exactly the code the retarget produced. [Error]
   carries an exception the simulation raised. *)
let measure_retargeted ~trip program (t : Simd.Retarget.t) =
  let o = t.Simd.Retarget.outcome in
  let config = o.Simd.Driver.config in
  let trip =
    match program.Simd.Ast.loop.Simd.Ast.trip with
    | Simd.Ast.Trip_const _ -> None
    | Simd.Ast.Trip_param _ -> Some trip
  in
  try
    let setup =
      Simd.Sim_run.prepare ?trip ~machine:config.Simd.Driver.machine program
    in
    let verified =
      match Simd.Sim_run.verify setup o.Simd.Driver.prog with
      | Ok () -> Ok ()
      | Error m -> Error (Format.asprintf "%a" Simd.Sim_run.pp_mismatch m)
    in
    let sample = Simd.Measure.of_outcome ?trip program o in
    Ok (verified, Simd.Measure.opd sample, Simd.Measure.speedup sample)
  with e -> Error (Printexc.to_string e)

(* Each row paired with its simulation, run once and read by the table,
   the JSON and the exit gate; [None] when the row is not simulated. *)
let measure_rows ~measure ~trip program rows =
  List.map
    (fun (row : Simd.Matrix.row) ->
      ( row,
        match row.Simd.Matrix.retarget with
        | Ok t when measure -> Some (measure_retargeted ~trip program t)
        | Ok _ | Error _ -> None ))
    rows

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let status_cell (row : Simd.Matrix.row) =
  match row.Simd.Matrix.retarget with
  | Error reason -> Format.asprintf "-- (%a)" Simd.Driver.pp_reason reason
  | Ok t ->
    let p, r, f = Simd.Retarget.counts t in
    let errors =
      List.length (Simd.Driver.check_violations t.Simd.Retarget.outcome)
    in
    Printf.sprintf "%dP/%dR/%dX %s" p r f
      (if errors = 0 then "check:ok" else Printf.sprintf "check:%dERR" errors)

let print_probe ?cc () =
  Format.printf "backend capability probe (%s):@."
    (match cc with Some c -> Simd.Cc.id c | None -> "no C compiler found");
  List.iter
    (fun (b, support) ->
      Format.printf "  %-9s V=%-3s %-12s %a@." (Simd.Backend.name b)
        (match Simd.Backend.native_vl b with
        | Some v -> string_of_int v
        | None -> "any")
        (String.concat " " (Simd.Backend.cflags b))
        Simd.Backend.pp_support support)
    (Simd.Backend.probe_all ?cc ())

let print_matrix file rows =
  Format.printf "@.%s:@." file;
  Format.printf "  %-9s %-4s %-15s %-26s %-10s %s@." "backend" "V'" "support"
    "retarget (P/R/X)" "verify" "opd / speedup";
  List.iter
    (fun ((row : Simd.Matrix.row), sim) ->
      let verify_cell, perf =
        match (row.Simd.Matrix.retarget, sim) with
        | Error _, _ -> ("--", "--")
        | Ok _, None -> ("--", "(skipped)")
        | Ok _, Some (Ok (Ok (), opd, speedup)) ->
          ("agrees", Printf.sprintf "%.3f / %.2fx" opd speedup)
        | Ok _, Some (Ok (Error m, _, _)) -> ("FAIL", m)
        | Ok _, Some (Error e) -> ("ERROR", e)
      in
      Format.printf "  %-9s %-4d %-15s %-26s %-10s %s@."
        (Simd.Backend.name row.Simd.Matrix.backend)
        row.Simd.Matrix.vl
        (Simd.Backend.support_name row.Simd.Matrix.support)
        (status_cell row) verify_cell perf)
    rows

(* ------------------------------------------------------------------ *)
(* Deterministic markdown (gen_docs.sh)                                *)
(* ------------------------------------------------------------------ *)

(* No probing here: the table must be byte-identical on every machine, so
   it carries only registry facts and retarget results (pure functions of
   the input program). Probe output is machine-specific by design — see
   --probe. *)
let print_doc_md files policy vl =
  Format.printf
    "| backend | description | native V | extra cflags |@.\
     |---|---|---|---|@.";
  List.iter
    (fun b ->
      Format.printf "| `%s` | %s | %s | %s |@." (Simd.Backend.name b)
        (Simd.Backend.describe b)
        (match Simd.Backend.native_vl b with
        | Some v -> string_of_int v
        | None -> "any power of two in [4, 64]")
        (match Simd.Backend.cflags b with
        | [] -> "—"
        | fs -> "`" ^ String.concat " " fs ^ "`"))
    Simd.Backend.all;
  List.iter
    (fun file ->
      match read_program file with
      | Error m -> failwith (file ^ ": " ^ m)
      | Ok program -> (
        let config =
          {
            Simd.Driver.default with
            Simd.Driver.machine = Simd.Machine.create ~vector_len:vl;
            policy;
          }
        in
        match Simd.Driver.simdize ~check:true config program with
        | Simd.Driver.Scalar r ->
          failwith
            (Format.asprintf "%s: left scalar: %a" file Simd.Driver.pp_reason r)
        | Simd.Driver.Simdized o ->
          Format.printf
            "@.One placement of `%s` (policy `%s`, V = %d), retargeted to \
             every vector length in the matrix:@.@."
            file (Simd.Policy.name policy) vl;
          Format.printf
            "| V' | statements | retarget statuses | check errors | body \
             cost at V' |@.\
             |---|---|---|---|---|@.";
          List.iter
            (fun v' ->
              match Simd.Retarget.retarget ~vector_len:v' o with
              | Error reason ->
                Format.printf "| %d | — | %a | — | — |@." v'
                  Simd.Driver.pp_reason reason
              | Ok t ->
                let statuses =
                  String.concat ", "
                    (List.map
                       (Format.asprintf "%a" Simd.Retarget.pp_status)
                       t.Simd.Retarget.statuses)
                in
                let errors =
                  List.length
                    (Simd.Driver.check_violations t.Simd.Retarget.outcome)
                in
                let report = Simd.Driver.report t.Simd.Retarget.outcome in
                Format.printf "| %d | %d | %s | %d | %.2f |@." v'
                  (List.length t.Simd.Retarget.statuses)
                  statuses errors report.Simd.Opt.Report.body_cost)
            Simd.Retarget.supported_vls))
    files

(* ------------------------------------------------------------------ *)
(* JSON (BENCH_backends.json)                                          *)
(* ------------------------------------------------------------------ *)

let json_doc ?cc ~policy ~vl files_and_rows =
  let probe =
    List.map
      (fun (b, support) -> Simd.Backend.to_json b support)
      (Simd.Backend.probe_all ?cc ())
  in
  let program_doc (file, rows) =
    let row_doc (row, sim) =
      let base =
        match Simd.Matrix.row_to_json row with
        | Simd.Json.Obj fields -> fields
        | j -> [ ("row", j) ]
      in
      let perf =
        match sim with
        | None -> []
        | Some (Ok (verified, opd, speedup)) ->
          [
            ( "verify",
              Simd.Json.String
                (match verified with
                | Ok () -> "agrees"
                | Error m -> "mismatch: " ^ m) );
            ("opd", Simd.Json.Float opd);
            ("speedup", Simd.Json.Float speedup);
          ]
        | Some (Error e) -> [ ("verify", Simd.Json.String ("error: " ^ e)) ]
      in
      Simd.Json.Obj (base @ perf)
    in
    Simd.Json.Obj
      [
        ("file", Simd.Json.String file);
        ("rows", Simd.Json.List (List.map row_doc rows));
      ]
  in
  Simd.Json.Obj
    [
      ("schema", Simd.Json.String "simd-backends/1");
      ( "cc",
        match cc with
        | Some c -> Simd.Json.String (Simd.Cc.id c)
        | None -> Simd.Json.Null );
      ("source_vl", Simd.Json.Int vl);
      ("policy", Simd.Json.String (Simd.Policy.name policy));
      ("probe", Simd.Json.List probe);
      ("programs", Simd.Json.List (List.map program_doc files_and_rows));
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run files policy vl trip probe_only doc_md no_measure json_path =
  let files = if files = [] then [ "corpus/fig1_paper.simd" ] else files in
  try
    if doc_md then begin
      print_doc_md files policy vl;
      0
    end
    else begin
      let cc = Simd.Cc.find () in
      if probe_only then begin
        print_probe ?cc ();
        0
      end
      else begin
        let measure = not no_measure in
        let compiled =
          List.filter_map
            (fun file ->
              match read_program file with
              | Error m -> failwith (file ^ ": " ^ m)
              | Ok program -> (
                let config =
                  {
                    Simd.Driver.default with
                    Simd.Driver.machine = Simd.Machine.create ~vector_len:vl;
                    policy;
                  }
                in
                match Simd.Driver.simdize ~check:true config program with
                | Simd.Driver.Scalar r ->
                  (* a legitimately-scalar program is skipped, not failed —
                     the matrix answers for placed compilations only *)
                  Format.eprintf "%s: left scalar (%a), skipped@." file
                    Simd.Driver.pp_reason r;
                  None
                | Simd.Driver.Simdized o ->
                  Some
                    ( file,
                      measure_rows ~measure ~trip program
                        (Simd.Matrix.rows ?cc o) )))
            files
        in
        print_probe ?cc ();
        List.iter (fun (file, rows) -> print_matrix file rows) compiled;
        (match json_path with
        | None -> ()
        | Some path ->
          Simd.Json.to_file ~indent:2 path (json_doc ?cc ~policy ~vl compiled);
          Format.printf "@.wrote %s@." path);
        (* Exit nonzero if any retarget left verifier violations or
           the simulator disagreed — the matrix is a correctness gate. *)
        let bad =
          List.exists
            (fun (_, rows) ->
              List.exists
                (fun ((row : Simd.Matrix.row), sim) ->
                  match (row.Simd.Matrix.retarget, sim) with
                  | Error _, _ -> false (* legitimately not retargetable *)
                  | Ok t, sim ->
                    Simd.Driver.check_violations t.Simd.Retarget.outcome
                    <> []
                    ||
                    match sim with
                    | None | Some (Ok (Ok (), _, _)) -> false
                    | Some (Ok (Error _, _, _) | Error _) -> true)
                rows)
            compiled
        in
        if bad then 1 else 0
      end
    end
  with Failure m ->
    Format.eprintf "backends: %s@." m;
    2

let cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Loop programs to retarget (default: corpus/fig1_paper.simd).")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Simd.Policy.Dominant
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Shift-placement policy of the one source compilation.")
  in
  let vl =
    Arg.(
      value & opt int 16
      & info [ "V"; "vector-len" ] ~docv:"BYTES"
          ~doc:"Vector length of the source compilation.")
  in
  let trip =
    Arg.(
      value & opt int 200
      & info [ "trip" ] ~docv:"N"
          ~doc:"Trip count for runtime-bound loops when simulating.")
  in
  let probe_only =
    Arg.(
      value & flag
      & info [ "probe" ]
          ~doc:"Print the capability probe (what this machine's toolchain \
                and CPU can do with each backend) and exit.")
  in
  let doc_md =
    Arg.(
      value & flag
      & info [ "doc-md" ]
          ~doc:"Print the deterministic markdown matrix for \
                docs/BACKENDS.md (registry facts + retarget table; no \
                compiler probe, so the output is machine-independent).")
  in
  let no_measure =
    Arg.(
      value & flag
      & info [ "no-measure" ]
          ~doc:"Skip simulation (static retarget + check columns only).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the full matrix (schema simd-backends/1) as \
                JSON — the BENCH_backends.json artifact CI uploads.")
  in
  Cmd.v
    (Cmd.info "backends" ~version:"1.0"
       ~doc:
         "Probe the C backends and retarget one placed compilation across \
          the vector-length matrix")
    Term.(
      const run $ files $ policy $ vl $ trip $ probe_only $ doc_md
      $ no_measure $ json)

let () = exit (Cmd.eval' cmd)
