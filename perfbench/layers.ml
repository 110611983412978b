(* The per-layer metrics of a traced run. Times are medians in ms per call
   of the named public function, taken by the benchmark around its own
   calls into the library; counts are exact and repeat for a seed. *)

module Backend = Simd.Backend
module Policy = Simd.Policy

(* The stages that record [Pass] events in the driver's trace sink, in
   pipeline order ([Trace.pass_names] plus the structural stages; reassoc
   and specialize_epilogue are recorded under other events and stages). *)
let passes =
  [
    "hoist_splats";
    "memnorm";
    "cse";
    "predictive_commoning";
    "unroll";
    "derive_epilogues";
    "finalize_reductions";
    "dce";
    "vir_cleanup";
  ]

let assoc_all k l = List.filter_map (fun (k', v) -> if k = k' then Some v else None) l

let metrics ~dir ~traced_requests ~(kernels : Kernels.row_result list) ~builds
    ~compile_stream ~(serve : Serve_phase.result)
    ~serve_stream ~error_rate =
  let ct = Compile_phase.traced ~count:traced_requests compile_stream in
  let st = Serve_phase.traced ~dir serve_stream in
  let med = Stats.median in
  let simdize_of p = assoc_all p ct.Compile_phase.simdize_ms in
  let compile_side =
    [
      ("loopir.parse_ms", "ms", med ct.parse_ms);
      ("codegen.simdize_ms", "ms", med (List.map snd ct.simdize_ms));
      ("codegen.simdize_ms.joint", "ms", med (simdize_of Policy.Joint));
      ("codegen.simdize_ms.optimal", "ms", med (simdize_of Policy.Optimal));
    ]
    @ List.concat_map
        (fun p ->
          [
            ("codegen.pass_ms." ^ p, "ms", med (assoc_all p ct.pass_ms));
            ( "codegen.pass_ops_delta." ^ p,
              "count",
              float_of_int (List.fold_left ( + ) 0 (assoc_all p ct.pass_delta)) );
          ])
        passes
    @ [
        ( "codegen.simdized_ratio",
          "ratio",
          float_of_int ct.simdized /. float_of_int (max 1 ct.attempted) );
      ]
  in
  let rows_of b = List.filter (fun r -> r.Kernels.row.Kernels.backend = b) kernels in
  let per_backend b =
    let name = Backend.name b in
    let rows = rows_of b in
    let ok = Kernels.ok_rows kernels ~backend:b () in
    let sum f = float_of_int (List.fold_left (fun a r -> a + f r.Kernels.row) 0 rows) in
    let build_s =
      Hashtbl.fold
        (fun _ (bd : Kernels.build) acc -> if bd.Kernels.bbackend = b then bd.build_s :: acc else acc)
        builds []
    in
    let geo f = Stats.geomean (List.map f ok) in
    [
      ("codegen.steady_vops." ^ name, "count", sum Kernels.steady_vops);
      ("emit." ^ name ^ ".unit_ms", "ms", med (List.map (fun r -> r.Kernels.row.Kernels.unit_ms) rows));
      ("emit." ^ name ^ ".c_bytes", "bytes", sum (fun r -> String.length r.Kernels.unit_text));
      ("cc." ^ name ^ ".build_s", "s", med build_s);
      ("kernels." ^ name ^ ".simd_ns_per_elem", "ns", geo (fun (_, m) -> m.Kernels.simd_ns));
      ("kernels." ^ name ^ ".scalar_ns_per_elem", "ns", geo (fun (_, m) -> m.Kernels.scalar_ns));
    ]
    @ List.map
        (fun p ->
          ( Printf.sprintf "kernels.%s.%s.speedup" name (Policy.name p),
            "x",
            Stats.geomean
              (List.map (fun (_, m) -> Kernels.speedup m)
                 (Kernels.ok_rows kernels ~backend:b ~policy:p ())) ))
        Kernels.policies
    @ [
        ("sim.opd." ^ name, "ops/datum", geo (fun (r, _) -> r.Kernels.opd));
        ("bench_infra.modeled_speedup." ^ name, "x", geo (fun (r, _) -> r.Kernels.modeled_speedup));
        ( "bench_infra.model_error." ^ name,
          "x",
          geo (fun (r, m) -> r.Kernels.modeled_speedup /. Kernels.speedup m) );
      ]
  in
  let layer_side =
    [
      ("opt.report_ms", "ms", med ct.report_ms);
      ("check.verify_ms", "ms", med ct.verify_ms);
      ("check.obligations", "count", float_of_int ct.obligations);
      ("lint.run_ms", "ms", med ct.lint_ms);
      ("lint.findings", "count", float_of_int ct.findings);
      ("emit.vir_ms", "ms", med ct.vir_ms);
      ("emit.c_ms", "ms", med ct.c_ms);
    ]
  in
  let serve_side =
    [
      ("serve.protocol_parse_ms", "ms", med st.Serve_phase.parse_ms);
      ("serve.cache_key_ms", "ms", med st.key_ms);
      ("serve.response_ms", "ms", med st.response_ms);
      ("serve.compile_run_ms", "ms", med st.compile_ms);
      ("serve.handle_batch_ms", "ms", med st.batch_ms);
      ("serve.batch_size", "count", st.batch_size);
      ("serve.wait_ms", "ms", med serve.Serve_phase.hot_ms -. st.per_request_ms);
      ("serve.server_rss_mb", "MB", serve.server_rss_mb);
      ("support.cas.find_ms", "ms", med st.find_ms);
      ("support.cas.store_ms", "ms", med st.store_ms);
      ("support.cas.hit_ratio.cold", "ratio", serve.hit_ratio_cold);
      ("support.cas.hit_ratio.hot", "ratio", serve.hit_ratio_hot);
      ("support.json.to_line_ms", "ms", med ct.to_line_ms);
      ("trace.overhead_pct", "%", ct.overhead_pct);
      ("error_rate", "ratio", error_rate);
    ]
  in
  compile_side @ layer_side
  @ List.concat_map per_backend Kernels.backends
  @ serve_side
