(** The pure compile-once path (see the interface). *)

module Driver = Simd_codegen.Driver
module Policy = Simd_dreorg.Policy
module Parse = Simd_loopir.Parse
module Prog = Simd_vir.Prog
module Report = Simd_opt.Report
module Json = Simd_support.Json
module Cas = Simd_support.Cas

type output = Text of string | Skipped of string

type artifact = {
  policy : string;
  policies_used : string list;
  shared_streams : int;
  outputs : (string * output) list;
  report : Json.t;
  check_ok : bool;
  check : Json.t;
  lint : Json.t;
}

type outcome = Artifact of artifact | Scalar of string | Invalid of string

(* ISA emits are V-specific: a request compiled at a different [vl]
   yields a skipped output (the request still succeeds) rather than an
   error — the skip/fail distinction the backend matrix relies on. *)
let emit_backend (e : Protocol.emit) =
  match e with
  | Protocol.Vir -> None
  | Protocol.C -> Some Simd_emit.Backend.Portable
  | Protocol.Altivec -> Some Simd_emit.Backend.Altivec
  | Protocol.Sse -> Some Simd_emit.Backend.Sse
  | Protocol.Avx2 -> Some Simd_emit.Backend.Avx2
  | Protocol.Neon -> Some Simd_emit.Backend.Neon

let emit_output (prog : Prog.t) (e : Protocol.emit) =
  let out =
    match emit_backend e with
    | None -> Text (Prog.to_string prog)
    | Some b ->
      let vl = Simd_machine.Config.vector_len prog.Prog.machine in
      if Simd_emit.Backend.supports_vl b vl then
        Text (Simd_emit.Backend.unit_for b prog)
      else
        Skipped
          (Printf.sprintf "backend %s requires V = %d, compiled at V = %d"
             (Simd_emit.Backend.name b)
             (Simd_emit.Backend.default_vl b)
             vl)
  in
  (Protocol.emit_name e, out)

let run (r : Protocol.request) : outcome =
  match Parse.program_of_string_result r.Protocol.source with
  | Error m -> Invalid m
  | exception e -> Invalid (Printexc.to_string e)
  | Ok program -> (
    match Driver.simdize ~check:true r.Protocol.config program with
    | Driver.Scalar reason ->
      Scalar (Format.asprintf "%a" Driver.pp_reason reason)
    | Driver.Simdized o ->
      Artifact
        {
          policy = Policy.name r.Protocol.config.Driver.policy;
          policies_used =
            List.map Policy.name o.Driver.policies_used;
          shared_streams = List.length o.Driver.shared_streams;
          outputs = List.map (emit_output o.Driver.prog) r.Protocol.emits;
          report = Report.to_json (Driver.report o);
          check_ok = Driver.check_violations o = [];
          check = Driver.check_to_json o;
          lint = Simd_lint.Lint.report_to_json (Simd_lint.Lint.run o);
        }
    | exception e -> Invalid ("compile: " ^ Printexc.to_string e))

let outcome_to_json = function
  | Artifact a ->
    Json.Obj
      [
        ("status", Json.String "ok");
        ( "artifact",
          Json.Obj
            [
              ("schema", Json.String "simd-serve-artifact/1");
              ("policy", Json.String a.policy);
              ( "policies_used",
                Json.List (List.map (fun p -> Json.String p) a.policies_used)
              );
              ("shared_streams", Json.Int a.shared_streams);
              ( "outputs",
                Json.Obj
                  (List.map
                     (fun (k, v) ->
                       ( k,
                         match v with
                         | Text text -> Json.String text
                         | Skipped reason ->
                           Json.Obj [ ("skipped", Json.String reason) ] ))
                     a.outputs) );
              ("report", a.report);
              ("check", a.check);
              ("lint", a.lint);
            ] );
      ]
  | Scalar reason ->
    Json.Obj
      [ ("status", Json.String "scalar"); ("reason", Json.String reason) ]
  | Invalid message ->
    Json.Obj
      [ ("status", Json.String "error"); ("message", Json.String message) ]

let cache_key (r : Protocol.request) =
  Cas.key
    [
      Protocol.library_version;
      Driver.config_to_string r.Protocol.config;
      String.concat "," (List.map Protocol.emit_name r.Protocol.emits);
      r.Protocol.source;
    ]

let run_cached cas (r : Protocol.request) : Json.t * [ `Hit | `Miss ] =
  let key = cache_key r in
  let build () =
    let doc = outcome_to_json (run r) in
    Cas.store cas ~key (Json.to_line doc);
    (doc, `Miss)
  in
  match Cas.find cas ~key with
  | Some payload -> (
    match Json.of_string payload with
    | Ok doc -> (doc, `Hit)
    (* defended against, not expected: rebuild rather than serve junk *)
    | Error _ -> build ())
  | None -> build ()
