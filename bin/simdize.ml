(* simdize — command-line front end to the alignment-handling simdizer.

   Reads a loop program, simdizes it under the selected policy and
   optimizations, and prints the vector IR, emits C, simulates, and/or
   differentially verifies the result. *)

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

let reuse_conv =
  let parse s =
    match Simd.Driver.reuse_of_name s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "unknown reuse strategy %S" s))
  in
  Arg.conv
    (parse, fun fmt r -> Format.pp_print_string fmt (Simd.Driver.reuse_name r))

let emit_conv =
  let parse = function
    | "vir" -> Ok `Vir
    | "c" | "portable" -> Ok `Portable
    | "altivec" -> Ok `Altivec
    | "sse" -> Ok `Sse
    | "avx2" -> Ok `Avx2
    | "neon" -> Ok `Neon
    | "graph" -> Ok `Graph
    | s -> Error (`Msg (Printf.sprintf "unknown output kind %S" s))
  in
  Arg.conv
    ( parse,
      fun fmt k ->
        Format.pp_print_string fmt
          (match k with
          | `Vir -> "vir"
          | `Portable -> "c"
          | `Altivec -> "altivec"
          | `Sse -> "sse"
          | `Avx2 -> "avx2"
          | `Neon -> "neon"
          | `Graph -> "graph") )

let trace_conv =
  let parse = function
    | "human" -> Ok `Human
    | "json" -> Ok `Json
    | s -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))
  in
  Arg.conv
    ( parse,
      fun fmt k ->
        Format.pp_print_string fmt
          (match k with `Human -> "human" | `Json -> "json") )

let lint_conv =
  let parse = function
    | "on" -> Ok `On
    | "strict" -> Ok `Strict
    | s -> Error (`Msg (Printf.sprintf "unknown lint mode %S" s))
  in
  Arg.conv
    ( parse,
      fun fmt k ->
        Format.pp_print_string fmt
          (match k with `On -> "on" | `Strict -> "strict") )

(* Exit codes (see docs/LINT.md): 2 = a parse failure, a scalar
   fallback, a --check violation, a --verify failure or a backend
   mismatch; 1 = lint findings under --lint=strict; 0 = everything
   else. *)
let run file policy reuse memnorm reassoc peel unroll cleanup vector_len emit
    stats simulate verify trip trace_fmt check lint_mode =
  let src = read_input file in
  match Simd.parse src with
  | Error msg ->
    Format.eprintf "%s@." msg;
    2
  | Ok program -> (
    let machine = Simd.Machine.create ~vector_len in
    let config =
      {
        Simd.Driver.default with
        Simd.Driver.machine;
        policy;
        reuse;
        memnorm;
        reassoc;
        unroll;
        peel_baseline = peel;
        cleanup;
      }
    in
    let trace =
      match trace_fmt with
      | None -> Simd.Trace.none
      | Some _ -> Simd.Trace.create ()
    in
    let print_trace () =
      match trace_fmt with
      | None -> ()
      | Some `Human -> print_string (Simd.Trace.to_string trace)
      | Some `Json ->
        print_endline (Simd.Json.to_string ~indent:2 (Simd.Trace.to_json trace))
    in
    match Simd.Driver.simdize ~trace ~check config program with
    | Simd.Driver.Scalar reason ->
      print_trace ();
      Format.eprintf "left scalar: %a@." Simd.Driver.pp_reason reason;
      2
    | Simd.Driver.Simdized o ->
      print_trace ();
      let code = ref 0 in
      let worst n = if n > !code then code := n in
      (if check then
         match Simd.Driver.check_violations o with
         | [] ->
           let facts = Simd.Driver.check_facts o in
           Format.printf
             "// check: OK (%d op, %d store, %d shift, %d seam obligations \
              proved across %d boundaries)@."
             facts.Simd.Check.ops_proved facts.Simd.Check.stores_proved
             facts.Simd.Check.shifts_proved facts.Simd.Check.seams_proved
             (List.length o.Simd.Driver.checks)
         | (first, _) :: _ as violations ->
           List.iter
             (fun (boundary, v) ->
               Format.eprintf "check: at %s: %a@." boundary
                 Simd.Check.pp_violation v)
             violations;
           let errors = List.length violations in
           Format.eprintf
             "check FAILED: %d error%s (first at pass boundary %s)@." errors
             (if errors = 1 then "" else "s")
             first;
           worst 2);
      (match lint_mode with
      | None -> ()
      | Some mode ->
        let r = Simd.Lint.run o in
        List.iter
          (fun f -> Format.eprintf "lint: %a@." Simd.Lint.pp_finding f)
          r.Simd.Lint.findings;
        match List.length r.Simd.Lint.findings with
        | 0 ->
          Format.printf "// lint: clean (%d rules)@."
            (List.length Simd.Lint.rules)
        | n ->
          Format.eprintf "lint: %d warning%s@." n (if n = 1 then "" else "s");
          if mode = `Strict then worst 1);
      (match emit with
      | `Vir -> print_string (Simd.Vir_prog.to_string o.Simd.Driver.prog)
      | `Graph ->
        List.iter
          (fun (_, g) -> Format.printf "%a@." Simd.Graph.pp g)
          o.Simd.Driver.graphs
      | (`Portable | `Altivec | `Sse | `Avx2 | `Neon) as kind ->
        let backend =
          match kind with
          | `Portable -> Simd.Backend.Portable
          | `Altivec -> Simd.Backend.Altivec
          | `Sse -> Simd.Backend.Sse
          | `Avx2 -> Simd.Backend.Avx2
          | `Neon -> Simd.Backend.Neon
        in
        if Simd.Backend.supports_vl backend vector_len then
          print_string (Simd.Backend.unit_for backend o.Simd.Driver.prog)
        else begin
          Format.eprintf
            "emit %s: backend requires V = %d, compiled at V = %d (try -V \
             %d, or retarget with bin/backends.exe)@."
            (Simd.Backend.name backend)
            (Simd.Backend.default_vl backend)
            vector_len
            (Simd.Backend.default_vl backend);
          worst 2
        end);
      if stats then
        print_endline
          (Simd.Opt.Report.to_string ~indent:2 (Simd.Driver.report o));
      if simulate then begin
        match Simd.measure ~config ?trip program with
        | sample, opd, speedup ->
          Format.printf "// counts: %s@." (Simd.Exec.show_counts sample.Simd.Measure.counts);
          Format.printf "// operations per datum: %.3f (LB %.3f, SEQ %.3f)@." opd
            (Simd.Lb.opd sample.Simd.Measure.lb)
            (Simd.Lb.seq_opd ~analysis:o.Simd.Driver.analysis);
          Format.printf "// speedup vs ideal scalar: %.2fx@." speedup
        | exception Simd.Measure.Not_simdized m -> Format.eprintf "simulate: %s@." m
      end;
      if verify then begin
        match Simd.verify ~config ?trip program with
        | Ok () -> Format.printf "// verify: OK (simdized == scalar)@."
        | Error m ->
          Format.eprintf "verify FAILED: %s@." m;
          worst 2
      end;
      !code)

let cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Loop program to simdize ('-' for stdin).")
  in
  let policy =
    (* help text derives from the one registration list, so a new policy
       can't be missing from it *)
    let doc =
      "Shift placement policy: "
      ^ String.concat "; "
          (List.map
             (fun (p, name, aliases, descr) ->
               ignore p;
               let a =
                 match aliases with
                 | [] -> ""
                 | a -> " (" ^ String.concat ", " a ^ ")"
               in
               Printf.sprintf "$(b,%s)%s — %s" name a descr)
             Simd.Policy.registry)
      ^ "."
    in
    Arg.(
      value
      & opt policy_conv Simd.Policy.Dominant
      & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)
  in
  let reuse =
    Arg.(
      value
      & opt reuse_conv Simd.Driver.Software_pipelining
      & info [ "r"; "reuse" ] ~docv:"REUSE"
          ~doc:"Cross-iteration reuse: plain, pc, sp.")
  in
  let memnorm =
    Arg.(value & opt bool true & info [ "memnorm" ] ~doc:"Memory normalization.")
  in
  let reassoc =
    Arg.(
      value & flag & info [ "reassoc" ] ~doc:"Common-offset reassociation.")
  in
  let peel =
    Arg.(
      value & flag
      & info [ "peel-baseline" ]
          ~doc:"Use the prior-work loop-peeling baseline (fails on mixed \
                alignments).")
  in
  let unroll =
    Arg.(
      value & opt int 1
      & info [ "u"; "unroll" ] ~docv:"FACTOR"
          ~doc:"Steady-loop unroll factor (removes pipelining copies).")
  in
  let cleanup =
    Arg.(
      value & flag
      & info [ "cleanup" ]
          ~doc:"Run the dataflow-backed VIR cleanup pass (copy propagation, \
                shift combining, invariant hoisting, dead-code elimination) \
                after placement; see docs/LINT.md.")
  in
  let vector_len =
    Arg.(
      value & opt int 16
      & info [ "V"; "vector-len" ] ~docv:"BYTES" ~doc:"Vector register length.")
  in
  let emit =
    Arg.(
      value & opt emit_conv `Vir
      & info [ "e"; "emit" ] ~docv:"KIND"
          ~doc:"Output: vir, graph, c (portable), altivec, sse, avx2, neon. \
                ISA backends require the matching vector length (avx2 \
                needs -V 32, the others -V 16); see docs/BACKENDS.md.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the static cost report (streams, chosen shifts, \
                operation counts, per-policy costs) as JSON.")
  in
  let simulate =
    Arg.(
      value & flag
      & info [ "s"; "simulate" ]
          ~doc:"Simulate and report dynamic counts, OPD and speedup.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ] ~doc:"Differentially verify against the scalar loop.")
  in
  let trip =
    Arg.(
      value
      & opt (some int) None
      & info [ "trip" ] ~docv:"N" ~doc:"Trip count for runtime-bound loops.")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some `Human) (some trace_conv) None
      & info [ "trace" ] ~docv:"FORMAT"
          ~doc:"Print the pass-pipeline trace before the output: \
                reassociation, per-statement shift placement provenance, \
                and per-pass IR diffs with operation-count deltas. \
                $(docv) is $(b,human) (default) or $(b,json) \
                (schema simd-trace/1, see docs/TRACE.md); both are \
                deterministic (no timings).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Run the static verifier (Simd.Check) at every pass \
                boundary: alignment invariants (C.2)/(C.3), vshiftpair \
                adjacency, bound formulas (Eqs. 8-16), and VIR \
                well-formedness. Violations are reported with the pass \
                boundary that introduced them; any violation exits 2. \
                See docs/CHECK.md.")
  in
  let lint =
    Arg.(
      value
      & opt ~vopt:(Some `On) (some lint_conv) None
      & info [ "lint" ] ~docv:"MODE"
          ~doc:"Run the registry-based linter (Simd.Lint) on the compiled \
                program: dead vector operations, redundant or cancelling \
                stream shifts, unused streams, write-before-read clobbers, \
                unhoisted loop-invariant operations, and lane-uniform store \
                masks. Findings are warnings, printed on stderr. $(docv) \
                is $(b,on) (default) or $(b,strict), under which any \
                finding exits 1 (docs/LINT.md).")
  in
  Cmd.v
    (Cmd.info "simdize" ~version:"1.0"
       ~doc:"Vectorize loops for SIMD architectures with alignment constraints")
    Term.(
      const run $ file $ policy $ reuse $ memnorm $ reassoc $ peel $ unroll
      $ cleanup $ vector_len $ emit $ stats $ simulate $ verify $ trip $ trace
      $ check $ lint)

let () = exit (Cmd.eval' cmd)
