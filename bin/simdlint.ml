(* simdlint — standalone lint front end.

   Compiles a loop program (honoring any fuzz-reproducer config header)
   and runs the Simd.Lint registry over the result. Exit codes are the
   unified scheme of docs/LINT.md, shared with simdize --lint:
   2 on any error-severity finding (or a failed compilation), 1 on
   warning-only findings under --strict, 0 when clean. *)

open Cmdliner

let read_input = function
  | "-" ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf stdin 4096
       done
     with End_of_file -> ());
    Buffer.contents buf
  | path ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let policy_conv =
  let parse s =
    match Simd.Policy.of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Simd.Policy.name p))

let list_rules () =
  List.iter
    (fun (r : Simd.Lint.rule) ->
      Format.printf "%-16s %-7s %s@." r.Simd.Lint.name
        (Simd.Lint.severity_name r.Simd.Lint.severity)
        r.Simd.Lint.doc)
    Simd.Lint.rules;
  0

let run file policy vector_len cleanup strict json rules =
  if rules then list_rules ()
  else
    let src = read_input file in
    (* Reproducer headers carry a full driver config; honor it, then let
       explicit flags override the pieces the lint caller cares about. *)
    match Simd.Fuzz.Case.of_string src with
    | Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Ok case -> (
      let config = case.Simd.Fuzz.Case.config in
      let config =
        match policy with
        | Some p -> { config with Simd.Driver.policy = p }
        | None -> config
      in
      let config =
        match vector_len with
        | Some v ->
          { config with Simd.Driver.machine = Simd.Machine.create ~vector_len:v }
        | None -> config
      in
      let config = { config with Simd.Driver.cleanup } in
      match Simd.Driver.simdize config case.Simd.Fuzz.Case.program with
      | Simd.Driver.Scalar reason ->
        Format.eprintf "left scalar: %a@." Simd.Driver.pp_reason reason;
        2
      | Simd.Driver.Simdized o ->
        let r = Simd.Lint.run o in
        if json then
          print_endline
            (Simd.Json.to_string ~indent:2 (Simd.Lint.report_to_json r))
        else begin
          List.iter
            (fun f -> Format.printf "%a@." Simd.Lint.pp_finding f)
            r.Simd.Lint.findings;
          if Simd.Lint.clean r then Format.printf "clean@."
          else
            Format.printf "%d error%s, %d warning%s@." r.Simd.Lint.errors
              (if r.Simd.Lint.errors = 1 then "" else "s")
              r.Simd.Lint.warnings
              (if r.Simd.Lint.warnings = 1 then "" else "s")
        end;
        Simd.Lint.exit_code ~strict r)

let cmd =
  let file =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:"Loop program to lint ('-' for stdin). Fuzz-reproducer \
                config headers (// fuzz-config: ...) are honored.")
  in
  let policy =
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Shift placement policy (default: the header's, else the \
                driver default).")
  in
  let vector_len =
    Arg.(
      value
      & opt (some int) None
      & info [ "V"; "vector-len" ] ~docv:"BYTES"
          ~doc:"Vector register length (default: the header's, else 16).")
  in
  let cleanup =
    Arg.(
      value & flag
      & info [ "cleanup" ]
          ~doc:"Run the vir_cleanup pass before linting; the \
                evidence-backed rules then lint clean by construction.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Warning-only findings exit 1 instead of 0 (errors always \
                exit 2).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the simd-lint/1 JSON report instead of text.")
  in
  let rules =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"List the lint rule registry and exit.")
  in
  Cmd.v
    (Cmd.info "simdlint" ~version:"1.0"
       ~doc:"Lint simdized programs for wasted or suspicious vector code")
    Term.(
      const run $ file $ policy $ vector_len $ cleanup $ strict $ json $ rules)

let () = exit (Cmd.eval' cmd)
