(** Wire protocol of the compile service (see the interface). *)

module Driver = Simd_codegen.Driver
module Json = Simd_support.Json

let schema = "simd-serve/1"

(* Folded into every cache key. Bump when compilation output changes. *)
let library_version = "simd_align/11"

type emit = Vir | C | Altivec | Sse | Avx2 | Neon

let emit_name = function
  | Vir -> "vir"
  | C -> "c"
  | Altivec -> "altivec"
  | Sse -> "sse"
  | Avx2 -> "avx2"
  | Neon -> "neon"

let emit_of_name = function
  | "vir" -> Some Vir
  | "c" | "portable" -> Some C
  | "altivec" -> Some Altivec
  | "sse" -> Some Sse
  | "avx2" -> Some Avx2
  | "neon" -> Some Neon
  | _ -> None

let default_emits = [ Vir; C ]

type request = {
  id : string;
  source : string;
  config : Driver.config;
  emits : emit list;
}

type parsed =
  | Compile of request
  | Ping
  | Stats
  | Shutdown
  | Malformed of { id : string option; message : string }

(* ------------------------------------------------------------------ *)
(* Config codec: the driver's config vocabulary, as JSON              *)
(* ------------------------------------------------------------------ *)

let json_of_value = function
  | Driver.Int n -> Json.Int n
  | Driver.Bool b -> Json.Bool b
  | Driver.Name s -> Json.String s

let value_of_json (like : Driver.value) j =
  match (like, j) with
  | Driver.Int _, Json.Int n -> Some (Driver.Int n)
  | Driver.Bool _, _ -> Option.map (fun b -> Driver.Bool b) (Json.to_bool_opt j)
  | Driver.Name _, Json.String s -> Some (Driver.Name s)
  | _ -> None

let config_to_json (cfg : Driver.config) =
  Json.Obj
    (List.map
       (fun (f : Driver.field) -> (f.key, json_of_value (f.get cfg)))
       Driver.config_fields)

let config_of_json = function
  | Json.Obj fields ->
    Driver.update_config ~read:value_of_json Driver.default fields
  | Json.Null -> Ok Driver.default
  | _ -> Error "config: expected an object"

exception Bad_field of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_field m)) fmt

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let parse_emits = function
  | None -> Ok default_emits
  | Some (Json.List items) -> (
    try
      Ok
        (List.map
           (fun item ->
             match item with
             | Json.String s -> (
               match emit_of_name s with
               | Some e -> e
               | None -> bad "unknown emit kind %S" s)
             | _ -> bad "emit: expected a list of strings")
           items)
    with Bad_field m -> Error m)
  | Some _ -> Error "emit: expected a list of strings"

let parse_line line : parsed =
  match Json.of_string line with
  | Error m -> Malformed { id = None; message = m }
  | Ok doc -> (
    let id = Option.bind (Json.member "id" doc) Json.to_string_opt in
    match Option.bind (Json.member "op" doc) Json.to_string_opt with
    | Some "ping" -> Ping
    | Some "stats" -> Stats
    | Some "shutdown" -> Shutdown
    | Some op -> Malformed { id; message = Printf.sprintf "unknown op %S" op }
    | None -> (
      match Option.bind (Json.member "source" doc) Json.to_string_opt with
      | None -> Malformed { id; message = "missing \"source\" (or \"op\")" }
      | Some source -> (
        match
          config_of_json
            (Option.value ~default:Json.Null (Json.member "config" doc))
        with
        | Error m -> Malformed { id; message = m }
        | Ok config -> (
          match parse_emits (Json.member "emit" doc) with
          | Error m -> Malformed { id; message = m }
          | Ok emits ->
            Compile { id = Option.value ~default:"" id; source; config; emits }
          ))))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let request_to_line (r : request) =
  Json.to_line
    (Json.Obj
       [
         ("id", Json.String r.id);
         ("source", Json.String r.source);
         ("config", config_to_json r.config);
         ( "emit",
           Json.List (List.map (fun e -> Json.String (emit_name e)) r.emits) );
       ])

let response_line ~id outcome_doc =
  match outcome_doc with
  | Json.Obj fields -> Json.to_line (Json.Obj (("id", Json.String id) :: fields))
  | other ->
    Json.to_line (Json.Obj [ ("id", Json.String id); ("outcome", other) ])

let error_response ~id message =
  response_line ~id
    (Json.Obj
       [ ("status", Json.String "error"); ("message", Json.String message) ])
