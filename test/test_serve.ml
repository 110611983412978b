(* Compile service (Simd.Serve) and its foundations: the JSON parser
   (round trips, escapes, malformed input), the content-addressed
   artifact store (counter exactness, corruption recovery, LRU bound,
   concurrent writers), the wire protocol (request round trips, config
   vocabulary, control ops), the pure compile path (agreement with the
   driver, cache-key hygiene, cached-vs-cold byte equality), and the
   batching server (ordering, dedupe, determinism across worker counts,
   the batch cap, the fd loop end to end). *)

open Simd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- scratch directories -------------------------------------------- *)

let tmp_counter = ref 0

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "simd_serve_test.%d.%d" (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

(* --- JSON parser ------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "hello \"world\"\n\ttab\\slash");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  (match Json.of_string (Json.to_line doc) with
  | Ok parsed -> check_bool "compact round trip" true (parsed = doc)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> check_bool "pretty round trip" true (parsed = doc)
  | Error m -> Alcotest.failf "pretty parse failed: %s" m

let test_json_escapes () =
  (match Json.of_string "\"caf\\u00e9\"" with
  | Ok (Json.String s) -> check_string "latin escape" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "latin escape");
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  (match Json.of_string "\"\\b\\f\\r\"" with
  | Ok (Json.String s) -> check_string "controls" "\b\x0c\r" s
  | _ -> Alcotest.fail "controls");
  (* a control character that must come back escaped *)
  match Json.of_string (Json.to_line (Json.String "\x02")) with
  | Ok (Json.String s) -> check_string "control round trip" "\x02" s
  | _ -> Alcotest.fail "control round trip"

let test_json_numbers () =
  check_bool "int" true (Json.of_string "42" = Ok (Json.Int 42));
  check_bool "negative" true (Json.of_string "-7" = Ok (Json.Int (-7)));
  check_bool "float" true (Json.of_string "3.25" = Ok (Json.Float 3.25));
  (match Json.of_string "1e3" with
  | Ok (Json.Float f) -> check_bool "exponent" true (f = 1000.)
  | _ -> Alcotest.fail "exponent");
  match Json.of_string "-0.5e-1" with
  | Ok (Json.Float f) -> check_bool "signed exponent" true (f = -0.05)
  | _ -> Alcotest.fail "signed exponent"

let test_json_malformed () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  bad "";
  bad "{";
  bad {|{"a":|};
  bad "nope";
  bad "{} trailing";
  bad {|{"a" 1}|};
  bad {|[1,]|};
  bad {|"unterminated|}

let test_json_accessors () =
  let doc =
    Json.Obj
      [ ("s", Json.String "x"); ("i", Json.Int 3); ("b", Json.Bool false) ]
  in
  check_bool "member" true (Json.member "i" doc = Some (Json.Int 3));
  check_bool "member missing" true (Json.member "zz" doc = None);
  check_bool "member non-obj" true (Json.member "a" (Json.Int 1) = None);
  check_bool "to_string_opt" true
    (Option.bind (Json.member "s" doc) Json.to_string_opt = Some "x");
  check_bool "to_int_opt" true
    (Option.bind (Json.member "i" doc) Json.to_int_opt = Some 3);
  check_bool "to_bool_opt" true
    (Option.bind (Json.member "b" doc) Json.to_bool_opt = Some false);
  check_bool "bool from int" true (Json.to_bool_opt (Json.Int 1) = Some true)

(* --- Cas: counters, corruption, LRU, concurrency ---------------------- *)

let test_cas_counters () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let key = Cas.key [ "a"; "b" ] in
      check_bool "cold find" true (Cas.find cas ~key = None);
      Cas.store cas ~key "payload";
      check_bool "hot find" true (Cas.find cas ~key = Some "payload");
      let s = Cas.stats cas in
      (* store bumps nothing: exactly one miss, one hit *)
      check_int "hits" 1 s.Cas.hits;
      check_int "misses" 1 s.Cas.misses;
      check_int "evictions" 0 s.Cas.evictions;
      check_int "corrupt" 0 s.Cas.corrupt;
      check_int "entries" 1 (Cas.entry_count cas))

let test_cas_find_or_build () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let key = Cas.key [ "fob" ] in
      let built = ref 0 in
      let build () =
        incr built;
        Ok "artifact"
      in
      check_bool "first" true (Cas.find_or_build cas ~key build = Ok "artifact");
      check_bool "second" true (Cas.find_or_build cas ~key build = Ok "artifact");
      check_int "built once" 1 !built;
      (* builder errors are returned, not cached *)
      let key2 = Cas.key [ "fob2" ] in
      check_bool "error through" true
        (Cas.find_or_build cas ~key:key2 (fun () -> Error "no") = Error "no");
      check_int "error not stored" 1 (Cas.entry_count cas))

(* A store whose directory disappears degrades to a miss; it never
   raises into a caller whose compile already succeeded. *)
let test_cas_store_best_effort () =
  with_tmp_dir (fun dir ->
      let sub = Filename.concat dir "gone" in
      let cas = Cas.create ~dir:sub () in
      let key = Cas.key [ "best-effort" ] in
      Unix.rmdir sub;
      Cas.store cas ~key "artifact";
      check_bool "degrades to a miss" true (Cas.find cas ~key = None);
      (* find_or_build still returns the freshly built artifact *)
      check_bool "build result survives store failure" true
        (Cas.find_or_build cas ~key (fun () -> Ok "artifact") = Ok "artifact"))

let corrupt_entry dir key mangle =
  let path = Filename.concat dir (key ^ ".blob") in
  let content =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc (mangle content);
  close_out oc

let test_cas_corruption_recovery () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let key = Cas.key [ "will-rot" ] in
      Cas.store cas ~key "the artifact";
      (* truncation *)
      corrupt_entry dir key (fun c -> String.sub c 0 (String.length c - 4));
      check_bool "truncated -> miss" true (Cas.find cas ~key = None);
      check_int "corrupt counted" 1 (Cas.stats cas).Cas.corrupt;
      check_int "corrupt entry deleted" 0 (Cas.entry_count cas);
      (* rebuild succeeds and is served again *)
      check_bool "rebuilt" true
        (Cas.find_or_build cas ~key (fun () -> Ok "the artifact")
        = Ok "the artifact");
      check_bool "served after rebuild" true
        (Cas.find cas ~key = Some "the artifact");
      (* garbled header *)
      corrupt_entry dir key (fun c -> "garbage " ^ c);
      check_bool "garbled -> miss" true (Cas.find cas ~key = None);
      check_int "corrupt counted again" 2 (Cas.stats cas).Cas.corrupt;
      (* payload tampering caught by the digest *)
      Cas.store cas ~key "the artifact";
      corrupt_entry dir key (fun c ->
          String.map (fun ch -> if ch = 'a' then 'b' else ch) c);
      check_bool "tampered -> miss" true (Cas.find cas ~key = None);
      check_int "tamper counted" 3 (Cas.stats cas).Cas.corrupt)

let test_cas_lru_bound () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~max_entries:3 ~dir () in
      let key i = Cas.key [ "lru"; string_of_int i ] in
      for i = 1 to 3 do
        Cas.store cas ~key:(key i) (Printf.sprintf "v%d" i);
        Unix.sleepf 0.02
      done;
      (* touch entry 1 so 2 becomes the LRU victim *)
      check_bool "touch 1" true (Cas.find cas ~key:(key 1) = Some "v1");
      Unix.sleepf 0.02;
      for i = 4 to 5 do
        Cas.store cas ~key:(key i) (Printf.sprintf "v%d" i);
        Unix.sleepf 0.02
      done;
      check_int "bounded" 3 (Cas.entry_count cas);
      check_int "evictions" 2 (Cas.stats cas).Cas.evictions;
      check_bool "recently used survives" true
        (Cas.find cas ~key:(key 1) = Some "v1");
      check_bool "LRU victim gone" true (Cas.find cas ~key:(key 2) = None);
      check_bool "newest survive" true
        (Cas.find cas ~key:(key 4) = Some "v4"
        && Cas.find cas ~key:(key 5) = Some "v5"))

let test_cas_concurrent_writers () =
  with_tmp_dir (fun dir ->
      let shared = Cas.key [ "shared" ] in
      let pids =
        List.init 4 (fun i ->
            match Unix.fork () with
            | 0 ->
              (* each child races on the shared key and writes one of its
                 own; exit code signals success *)
              let cas = Cas.create ~dir () in
              Cas.store cas ~key:shared "same payload";
              ignore
                (Cas.find_or_build cas ~key:shared (fun () ->
                     Ok "same payload"));
              Cas.store cas ~key:(Cas.key [ "own"; string_of_int i ])
                (Printf.sprintf "own%d" i);
              exit 0
            | pid -> pid)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "writer child failed")
        pids;
      let cas = Cas.create ~dir () in
      check_bool "shared entry intact" true
        (Cas.find cas ~key:shared = Some "same payload");
      List.iteri
        (fun i () ->
          check_bool
            (Printf.sprintf "own %d intact" i)
            true
            (Cas.find cas
               ~key:(Cas.key [ "own"; string_of_int i ])
            = Some (Printf.sprintf "own%d" i)))
        [ (); (); (); () ];
      (* no stray temp files survive the races *)
      check_int "entries" 5 (Cas.entry_count cas))

let test_cas_raw_entries () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let key = Cas.key [ "exe" ] in
      let built = ref 0 in
      let builder tmp =
        incr built;
        let oc = open_out_bin tmp in
        output_string oc "#!/bin/true\n";
        close_out oc;
        Ok ()
      in
      (match Cas.build_raw cas ~key builder with
      | Ok path -> check_bool "file exists" true (Sys.file_exists path)
      | Error m -> Alcotest.failf "build_raw: %s" m);
      (match Cas.build_raw cas ~key builder with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "build_raw hit: %s" m);
      check_int "built once" 1 !built;
      check_bool "find_raw" true (Cas.find_raw cas ~key <> None))

(* --- Protocol --------------------------------------------------------- *)

let sample_source =
  "int32 a[128] @ 0;\nint32 b[128] @ 0;\nint32 c[128] @ 0;\nfor (i = 0; i < \
   100; i++) {\n  a[i+3] = b[i+1] + c[i+2];\n}\n"

let test_protocol_roundtrip () =
  let config =
    {
      Driver.default with
      Driver.policy = Policy.Joint;
      unroll = 2;
      machine = Machine.create ~vector_len:32;
    }
  in
  let req =
    {
      Serve.Protocol.id = "req-1";
      source = sample_source;
      config;
      emits = [ Serve.Protocol.Vir; Serve.Protocol.Sse ];
    }
  in
  match Serve.Protocol.parse_line (Serve.Protocol.request_to_line req) with
  | Serve.Protocol.Compile r ->
    check_string "id" "req-1" r.Serve.Protocol.id;
    check_string "source" sample_source r.Serve.Protocol.source;
    check_bool "emits" true (r.Serve.Protocol.emits = req.Serve.Protocol.emits);
    check_bool "config" true (r.Serve.Protocol.config = config)
  | _ -> Alcotest.fail "round trip did not parse as Compile"

let test_protocol_ops () =
  (match Serve.Protocol.parse_line {|{"op":"ping"}|} with
  | Serve.Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match Serve.Protocol.parse_line {|{"op":"stats"}|} with
  | Serve.Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  match Serve.Protocol.parse_line {|{"op":"shutdown"}|} with
  | Serve.Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown"

let test_protocol_malformed () =
  (match Serve.Protocol.parse_line "not json at all" with
  | Serve.Protocol.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage line");
  (* unknown config field must be rejected, with the id preserved *)
  (match
     Serve.Protocol.parse_line
       {|{"id":"x","source":"s","config":{"polcy":"zero"}}|}
   with
  | Serve.Protocol.Malformed { id = Some "x"; _ } -> ()
  | _ -> Alcotest.fail "typo in config field");
  (* a string is not a boolean, even one spelling a boolean *)
  (match
     Serve.Protocol.parse_line
       {|{"id":"b","source":"s","config":{"memnorm":"1"}}|}
   with
  | Serve.Protocol.Malformed { id = Some "b"; _ } -> ()
  | _ -> Alcotest.fail "string for a boolean");
  (* a request without a source is not a compile *)
  match Serve.Protocol.parse_line {|{"id":"y"}|} with
  | Serve.Protocol.Malformed _ -> ()
  | _ -> Alcotest.fail "missing source"

(* An out-of-range vector length must come back as a malformed request —
   never as an exception that could take down the serve loop. *)
let test_protocol_bad_vl () =
  List.iter
    (fun vl ->
      match
        Serve.Protocol.parse_line
          (Printf.sprintf {|{"id":"v","source":"s","config":{"vl":%d}}|} vl)
      with
      | Serve.Protocol.Malformed { id = Some "v"; _ } -> ()
      | Serve.Protocol.Malformed _ -> Alcotest.failf "vl=%d: id dropped" vl
      | _ -> Alcotest.failf "vl=%d must be rejected" vl)
    [ 5; 0; -3; 1024 ]

let test_protocol_config_line () =
  let c1 = Driver.default in
  let c2 = { Driver.default with Driver.unroll = 4 } in
  (* cache keys and [library_version] are pinned to this line *)
  check_string "default line"
    "vl=16 policy=dominant reuse=sp memnorm=1 reassoc=0 cse=1 hoist=1 \
     unroll=1 specialize=1 peel=0 cleanup=0"
    (Driver.config_to_string c1);
  check_bool "different configs differ" true
    (Driver.config_to_string c1 <> Driver.config_to_string c2);
  (* config_of_json inverts config_to_json *)
  match Serve.Protocol.config_of_json (Serve.Protocol.config_to_json c2) with
  | Ok c -> (
    check_bool "json round trip" true (c = c2);
    (* booleans may be written 0/1 *)
    match
      Serve.Protocol.config_of_json
        (Json.Obj [ ("memnorm", Json.Int 0); ("reassoc", Json.Int 1) ])
    with
    | Ok c ->
      check_bool "0/1 booleans" true
        (c = { Driver.default with Driver.memnorm = false; reassoc = true })
    | Error m -> Alcotest.failf "0/1 booleans: %s" m)
  | Error m -> Alcotest.failf "config round trip: %s" m

(* --- Compile ---------------------------------------------------------- *)

let compile_request ?(id = "t") ?(config = Driver.default)
    ?(emits = [ Serve.Protocol.Vir; Serve.Protocol.C ]) source =
  { Serve.Protocol.id; source; config; emits }

let test_compile_agrees_with_driver () =
  match Serve.Compile.run (compile_request sample_source) with
  | Serve.Compile.Artifact a ->
    check_bool "check ok" true a.Serve.Compile.check_ok;
    let program = Parse.program_of_string sample_source in
    (match Driver.simdize ~check:true Driver.default program with
    | Driver.Simdized o ->
      let text name =
        match List.assoc name a.Serve.Compile.outputs with
        | Serve.Compile.Text t -> t
        | Serve.Compile.Skipped reason ->
          Alcotest.failf "output %s skipped: %s" name reason
      in
      check_string "vir output matches driver"
        (Vir_prog.to_string o.Driver.prog)
        (text "vir");
      check_string "c output matches driver"
        (Emit_portable.unit o.Driver.prog)
        (text "c");
      check_string "check document is the driver's"
        (Json.to_line (Driver.check_to_json o))
        (Json.to_line a.Serve.Compile.check);
      check_bool "lint document is simd-lint/2" true
        (Option.bind (Json.member "schema" a.Serve.Compile.lint)
           Json.to_string_opt
        = Some "simd-lint/2")
    | Driver.Scalar _ -> Alcotest.fail "driver declined the sample")
  | _ -> Alcotest.fail "sample did not compile"

let test_compile_invalid () =
  match Serve.Compile.run (compile_request "this is not a loop") with
  | Serve.Compile.Invalid _ -> ()
  | _ -> Alcotest.fail "garbage source must be Invalid"

(* Every backend name parses as an emit, and ["portable"] aliases ["c"]. *)
let test_emit_names () =
  List.iter
    (fun e ->
      match Serve.Protocol.emit_of_name (Serve.Protocol.emit_name e) with
      | Some e' ->
        check_bool (Serve.Protocol.emit_name e ^ " round trip") true (e = e')
      | None ->
        Alcotest.failf "emit_of_name %s = None" (Serve.Protocol.emit_name e))
    [
      Serve.Protocol.Vir; Serve.Protocol.C; Serve.Protocol.Altivec;
      Serve.Protocol.Sse; Serve.Protocol.Avx2; Serve.Protocol.Neon;
    ];
  check_bool "portable aliases c" true
    (Serve.Protocol.emit_of_name "portable" = Some Serve.Protocol.C);
  check_bool "unknown emit" true (Serve.Protocol.emit_of_name "mmx" = None)

(* A V-mismatched ISA emit yields a skipped output — the request still
   succeeds, and the matching-V request yields real C. *)
let test_emit_vl_mismatch_skips () =
  (match
     Serve.Compile.run
       (compile_request ~emits:[ Serve.Protocol.Avx2 ] sample_source)
   with
  | Serve.Compile.Artifact a -> (
    match List.assoc "avx2" a.Serve.Compile.outputs with
    | Serve.Compile.Skipped reason ->
      check_bool "reason names both Vs" true
        (let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length reason
             && (String.sub reason i n = sub || go (i + 1))
           in
           go 0
         in
         has "32" && has "16")
    | Serve.Compile.Text _ -> Alcotest.fail "avx2 at V=16 must be skipped")
  | _ -> Alcotest.fail "V=16 avx2 request must still succeed");
  let config_v32 =
    { Driver.default with Driver.machine = Machine.create ~vector_len:32 }
  in
  match
    Serve.Compile.run
      (compile_request ~config:config_v32
         ~emits:[ Serve.Protocol.Avx2; Serve.Protocol.Sse ]
         sample_source)
  with
  | Serve.Compile.Artifact a ->
    (match List.assoc "avx2" a.Serve.Compile.outputs with
    | Serve.Compile.Text c ->
      check_bool "avx2 text at V=32" true (String.length c > 0)
    | Serve.Compile.Skipped r -> Alcotest.failf "avx2 at V=32 skipped: %s" r);
    (match List.assoc "sse" a.Serve.Compile.outputs with
    | Serve.Compile.Skipped _ -> ()
    | Serve.Compile.Text _ -> Alcotest.fail "sse at V=32 must be skipped")
  | _ -> Alcotest.fail "V=32 request did not compile"

(* The skipped output renders as {"skipped": reason} on the wire. *)
let test_emit_skip_json () =
  match
    Serve.Compile.run
      (compile_request ~emits:[ Serve.Protocol.Neon; Serve.Protocol.Avx2 ]
         sample_source)
  with
  | Serve.Compile.Artifact _ as outcome -> (
    let doc = Serve.Compile.outcome_to_json outcome in
    match Json.member "artifact" doc with
    | Some artifact -> (
      match Json.member "outputs" artifact with
      | Some (Json.Obj outputs) ->
        (* neon matches V=16, avx2 does not *)
        (match List.assoc "neon" outputs with
        | Json.String _ -> ()
        | _ -> Alcotest.fail "neon output must be C text");
        (match List.assoc "avx2" outputs with
        | Json.Obj fields ->
          check_bool "skipped field" true (List.mem_assoc "skipped" fields)
        | _ -> Alcotest.fail "avx2 output must be a skip object")
      | _ -> Alcotest.fail "no outputs object")
    | None -> Alcotest.fail "no artifact")
  | _ -> Alcotest.fail "request did not compile"

let test_compile_cache_key () =
  let r1 = compile_request ~id:"a" sample_source in
  let r2 = compile_request ~id:"b" sample_source in
  check_string "id excluded from key" (Serve.Compile.cache_key r1)
    (Serve.Compile.cache_key r2);
  let r3 =
    compile_request ~config:{ Driver.default with Driver.unroll = 2 }
      sample_source
  in
  check_bool "config in key" true
    (Serve.Compile.cache_key r1 <> Serve.Compile.cache_key r3);
  let r4 = compile_request ~emits:[ Serve.Protocol.Vir ] sample_source in
  check_bool "emits in key" true
    (Serve.Compile.cache_key r1 <> Serve.Compile.cache_key r4);
  let r5 = compile_request (sample_source ^ "// changed\n") in
  check_bool "source in key" true
    (Serve.Compile.cache_key r1 <> Serve.Compile.cache_key r5)

let test_compile_cached_byte_identical () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let req = compile_request sample_source in
      let doc1, h1 = Serve.Compile.run_cached cas req in
      let doc2, h2 = Serve.Compile.run_cached cas req in
      check_bool "first is a miss" true (h1 = `Miss);
      check_bool "second is a hit" true (h2 = `Hit);
      check_string "byte identical" (Json.to_line doc1) (Json.to_line doc2))

(* --- Server ----------------------------------------------------------- *)

let compile_line ?id ?config source =
  Serve.Protocol.request_to_line (compile_request ?id ?config source)

let test_server_batch_order_and_dedupe () =
  with_tmp_dir (fun dir ->
      let cas = Cas.create ~dir () in
      let server = Serve.Server.create ~cache:cas () in
      let batch =
        [
          {|{"op":"ping"}|};
          compile_line ~id:"one" sample_source;
          "malformed {{{";
          compile_line ~id:"two" sample_source;
        ]
      in
      let responses, shutdown = Serve.Server.handle_batch server batch in
      check_bool "no shutdown" false shutdown;
      check_int "one response per line" 4 (List.length responses);
      (match responses with
      | [ pong; one; bad; two ] ->
        check_string "pong" {|{"op":"pong"}|} pong;
        check_bool "id one" true
          (Json.member "id" (Result.get_ok (Json.of_string one))
          = Some (Json.String "one"));
        check_bool "malformed answered" true
          (Json.member "status" (Result.get_ok (Json.of_string bad))
          = Some (Json.String "error"));
        check_bool "id two" true
          (Json.member "id" (Result.get_ok (Json.of_string two))
          = Some (Json.String "two"));
        (* identical requests compile once: the only difference is the id *)
        let strip_id line =
          match Json.of_string line with
          | Ok (Json.Obj fields) ->
            Json.to_line (Json.Obj (List.remove_assoc "id" fields))
          | _ -> line
        in
        check_string "dedupe yields identical payloads" (strip_id one)
          (strip_id two)
      | _ -> Alcotest.fail "shape");
      (* two identical compile requests, one unique key: exactly one miss *)
      check_int "single miss" 1 (Cas.stats cas).Cas.misses;
      (* replay the batch: both requests now hit *)
      let responses2, _ = Serve.Server.handle_batch server batch in
      check_bool "cache replay byte identical" true (responses = responses2);
      check_int "replay hits" 1 (Cas.stats cas).Cas.hits)

let test_server_deterministic_across_jobs () =
  let batch =
    [
      compile_line ~id:"a" sample_source;
      compile_line ~id:"b"
        ~config:{ Driver.default with Driver.policy = Policy.Zero }
        sample_source;
      compile_line ~id:"c" "garbage";
    ]
  in
  let inline = Serve.Server.create ~jobs:1 () in
  let pooled = Serve.Server.create ~jobs:2 () in
  let r1, _ = Serve.Server.handle_batch inline batch in
  let r2, _ = Serve.Server.handle_batch pooled batch in
  check_bool "jobs=1 and jobs=2 byte identical" true (r1 = r2)

let test_server_shutdown_and_stats () =
  let server = Serve.Server.create () in
  let responses, shutdown =
    Serve.Server.handle_batch server
      [ compile_line ~id:"x" sample_source; {|{"op":"stats"}|};
        {|{"op":"shutdown"}|} ]
  in
  check_bool "shutdown seen" true shutdown;
  check_int "all answered" 3 (List.length responses);
  (* the in-batch stats snapshot already counts the compile before it *)
  match Json.of_string (List.nth responses 1) with
  | Ok doc ->
    let requests = Option.get (Json.member "requests" doc) in
    check_bool "ok counted" true
      (Json.member "ok" requests = Some (Json.Int 1))
  | Error m -> Alcotest.failf "stats response: %s" m

let test_server_serve_fd () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let lines =
    [
      compile_line ~id:"p1" sample_source;
      {|{"op":"ping"}|};
      {|{"op":"shutdown"}|};
    ]
  in
  let payload = String.concat "\n" lines ^ "\n" in
  let written =
    Unix.write req_w (Bytes.of_string payload) 0 (String.length payload)
  in
  check_int "request bytes written" (String.length payload) written;
  Unix.close req_w;
  let server = Serve.Server.create () in
  let verdict = Serve.Server.serve_fd server req_r resp_w in
  check_bool "shutdown verdict" true (verdict = `Shutdown);
  Unix.close resp_w;
  Unix.close req_r;
  let ic = Unix.in_channel_of_descr resp_r in
  let out = ref [] in
  (try
     while true do
       out := input_line ic :: !out
     done
   with End_of_file -> ());
  close_in ic;
  let out = List.rev !out in
  check_int "three responses" 3 (List.length out);
  match List.map Json.of_string out with
  | [ Ok first; Ok pong; Ok ack ] ->
    check_bool "compile answered" true
      (Json.member "id" first = Some (Json.String "p1"));
    check_bool "pong" true (Json.member "op" pong = Some (Json.String "pong"));
    check_bool "shutdown acked" true
      (Json.member "op" ack = Some (Json.String "shutdown"))
  | _ -> Alcotest.fail "responses did not parse"

(* A poison request inside a batch (invalid vl) gets an error response;
   every other line in the batch is still answered. *)
let test_server_poison_request () =
  let server = Serve.Server.create () in
  let responses, _ =
    Serve.Server.handle_batch server
      [
        {|{"id":"bad","source":"s","config":{"vl":5}}|};
        {|{"op":"ping"}|};
      ]
  in
  check_int "both answered" 2 (List.length responses);
  match List.map Json.of_string responses with
  | [ Ok bad; Ok pong ] ->
    check_bool "poison is an error response" true
      (Json.member "status" bad = Some (Json.String "error"));
    check_bool "stream continues" true
      (Json.member "op" pong = Some (Json.String "pong"))
  | _ -> Alcotest.fail "responses did not parse"

(* A final request without a trailing newline is processed, not dropped. *)
let test_server_no_trailing_newline () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let payload = {|{"op":"ping"}|} ^ "\n" ^ {|{"op":"stats"}|} (* no \n *) in
  let written =
    Unix.write req_w (Bytes.of_string payload) 0 (String.length payload)
  in
  check_int "request bytes written" (String.length payload) written;
  Unix.close req_w;
  let server = Serve.Server.create () in
  let verdict = Serve.Server.serve_fd server req_r resp_w in
  check_bool "eof verdict" true (verdict = `Eof);
  Unix.close resp_w;
  Unix.close req_r;
  let ic = Unix.in_channel_of_descr resp_r in
  let out = ref [] in
  (try
     while true do
       out := input_line ic :: !out
     done
   with End_of_file -> ());
  close_in ic;
  check_int "unterminated final request answered" 2 (List.length !out)

(* [max_batch] caps how many pending lines one batch drains, on both I/O
   paths. Ten pings piped at once fill batches to the cap of three; a
   socket client's trailing stats sees no batch deeper than the cap. *)
let test_server_max_batch () =
  let pings =
    String.concat "" (List.init 10 (fun _ -> {|{"op":"ping"}|} ^ "\n"))
  in
  let max_depth doc =
    Option.bind (Json.member "batches" doc) (Json.member "max_depth")
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  check_int "request bytes written" (String.length pings)
    (Unix.write_substring req_w pings 0 (String.length pings));
  Unix.close req_w;
  let server = Serve.Server.create ~max_batch:3 () in
  check_bool "eof verdict" true (Serve.Server.serve_fd server req_r resp_w = `Eof);
  List.iter Unix.close [ req_r; resp_w; resp_r ];
  check_bool "pipe batches fill to the cap" true
    (max_depth (Serve.Server.telemetry server) = Some (Json.Int 3));
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "sock" in
      match Unix.fork () with
      | 0 ->
        (try
           Serve.Server.listen_unix (Serve.Server.create ~max_batch:3 ()) ~path
         with _ -> ());
        Unix._exit 0
      | pid ->
        let rec await n =
          if Sys.file_exists path then ()
          else if n = 0 then Alcotest.fail "socket never appeared"
          else begin
            Unix.sleepf 0.02;
            await (n - 1)
          end
        in
        await 250;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        let req = pings ^ {|{"op":"stats"}|} ^ "\n" ^ {|{"op":"shutdown"}|} ^ "\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let ic = Unix.in_channel_of_descr fd in
        for _ = 1 to 10 do
          ignore (input_line ic)
        done;
        (match Json.of_string (input_line ic) |> Result.map max_depth with
        | Ok (Some (Json.Int d)) ->
          check_bool "socket batches capped" true (d >= 1 && d <= 3)
        | _ -> Alcotest.fail "stats response lacks batches.max_depth");
        ignore (input_line ic);
        close_in ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "daemon did not exit cleanly"))

(* Two concurrent clients on the Unix-domain socket. Client A parks half
   a request line (no newline); client B, connected alongside, must get a
   full round trip while A is mid-line — the accept loop multiplexes
   connections instead of serving them to completion one at a time. Then
   A completes and is served from its own reader state; B vanishing does
   not kill the daemon; shutdown from A does. *)
let test_socket_two_clients () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "sock" in
      match Unix.fork () with
      | 0 ->
        let server = Serve.Server.create () in
        (try Serve.Server.listen_unix server ~path with _ -> ());
        Unix._exit 0
      | pid ->
        let rec await n =
          if Sys.file_exists path then ()
          else if n = 0 then Alcotest.fail "socket never appeared"
          else begin
            Unix.sleepf 0.02;
            await (n - 1)
          end
        in
        await 250;
        let connect () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
        in
        let send fd str =
          ignore (Unix.write fd (Bytes.of_string str) 0 (String.length str))
        in
        let a = connect () in
        let b = connect () in
        let aic = Unix.in_channel_of_descr a in
        let bic = Unix.in_channel_of_descr b in
        let id_of line =
          Json.member "id" (Result.get_ok (Json.of_string line))
        in
        let op_of line =
          Json.member "op" (Result.get_ok (Json.of_string line))
        in
        (* A parks an incomplete request line. *)
        let a_line = compile_line ~id:"a1" sample_source in
        let half = String.length a_line / 2 in
        send a (String.sub a_line 0 half);
        (* B gets served while A is mid-line. *)
        send b (compile_line ~id:"b1" sample_source ^ "\n");
        check_bool "b served while a mid-line" true
          (id_of (input_line bic) = Some (Json.String "b1"));
        (* A completes its line and is served from its own buffer. *)
        send a (String.sub a_line half (String.length a_line - half) ^ "\n");
        check_bool "a completed and served" true
          (id_of (input_line aic) = Some (Json.String "a1"));
        (* B disconnecting ends only B's connection. *)
        close_in bic;
        send a "{|op-ping|}\n";
        check_bool "malformed still answered" true
          (match Json.of_string (input_line aic) with
          | Ok doc -> Json.member "status" doc = Some (Json.String "error")
          | Error _ -> false);
        send a ({|{"op":"ping"}|} ^ "\n");
        check_bool "daemon alive after b left" true
          (op_of (input_line aic) = Some (Json.String "pong"));
        (* Shutdown from any client stops the daemon. *)
        send a ({|{"op":"shutdown"}|} ^ "\n");
        check_bool "shutdown acked" true
          (op_of (input_line aic) = Some (Json.String "shutdown"));
        close_in aic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "daemon did not exit cleanly"))

let suite =
  [
    ( "serve json",
      [
        Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "escapes" `Quick test_json_escapes;
        Alcotest.test_case "numbers" `Quick test_json_numbers;
        Alcotest.test_case "malformed" `Quick test_json_malformed;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "serve cas",
      [
        Alcotest.test_case "counters" `Quick test_cas_counters;
        Alcotest.test_case "find_or_build" `Quick test_cas_find_or_build;
        Alcotest.test_case "corruption recovery" `Quick
          test_cas_corruption_recovery;
        Alcotest.test_case "LRU bound" `Quick test_cas_lru_bound;
        Alcotest.test_case "concurrent writers" `Quick
          test_cas_concurrent_writers;
        Alcotest.test_case "raw entries" `Quick test_cas_raw_entries;
        Alcotest.test_case "store best-effort" `Quick
          test_cas_store_best_effort;
      ] );
    ( "serve protocol",
      [
        Alcotest.test_case "request round trip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "control ops" `Quick test_protocol_ops;
        Alcotest.test_case "malformed requests" `Quick test_protocol_malformed;
        Alcotest.test_case "bad vector length" `Quick test_protocol_bad_vl;
        Alcotest.test_case "config canonical" `Quick
          test_protocol_config_line;
      ] );
    ( "serve compile",
      [
        Alcotest.test_case "agrees with driver" `Quick
          test_compile_agrees_with_driver;
        Alcotest.test_case "invalid source" `Quick test_compile_invalid;
        Alcotest.test_case "emit names" `Quick test_emit_names;
        Alcotest.test_case "V-mismatched emits skip" `Quick
          test_emit_vl_mismatch_skips;
        Alcotest.test_case "skipped output json" `Quick test_emit_skip_json;
        Alcotest.test_case "cache key" `Quick test_compile_cache_key;
        Alcotest.test_case "cached byte-identical" `Quick
          test_compile_cached_byte_identical;
      ] );
    ( "serve server",
      [
        Alcotest.test_case "batch order and dedupe" `Quick
          test_server_batch_order_and_dedupe;
        Alcotest.test_case "deterministic across jobs" `Quick
          test_server_deterministic_across_jobs;
        Alcotest.test_case "shutdown and in-batch stats" `Quick
          test_server_shutdown_and_stats;
        Alcotest.test_case "serve_fd end to end" `Quick test_server_serve_fd;
        Alcotest.test_case "poison request isolated" `Quick
          test_server_poison_request;
        Alcotest.test_case "socket: two concurrent clients" `Quick
          test_socket_two_clients;
        Alcotest.test_case "no trailing newline" `Quick
          test_server_no_trailing_newline;
        Alcotest.test_case "max_batch caps batches" `Quick
          test_server_max_batch;
      ] );
  ]
