(** A fuzz case: one loop program plus everything needed to replay its
    differential check bit-for-bit — the sampled driver configuration, the
    concrete trip count for runtime bounds, and the simulation seed that
    fixes array placement and memory noise.

    Cases serialize to ordinary [.simd] files whose header carries the
    replay data in comment lines the lexer already skips, so a committed
    reproducer is simultaneously a valid corpus program:

    {v
      // simd-fuzz reproducer
      // fuzz-config: vl=16 policy=dominant reuse=sp memnorm=1 reassoc=0
      //              cse=1 hoist=1 unroll=2 specialize=1 peel=0 cleanup=0
      //              seed=77
      // fuzz-trip: 40
      int32 y1[44] @ 4;
      ...
    v}

    (The [fuzz-config] line is a single line in practice: the canonical
    {!Simd_codegen.Driver.config_to_string} line plus [seed]. [fuzz-trip]
    is present only for runtime-bound loops.) *)

open Simd_loopir
module Driver = Simd_codegen.Driver

type t = {
  program : Ast.program;
  config : Driver.config;
  trip : int option;  (** concrete trip count when the bound is a param *)
  setup_seed : int;  (** seed for array placement and memory noise *)
}

(** [effective_trip case] — the trip count the simulation runs with. *)
let effective_trip (c : t) =
  match c.program.Ast.loop.Ast.trip with
  | Ast.Trip_const n -> n
  | Ast.Trip_param _ -> (
    match c.trip with
    | Some n -> n
    | None -> invalid_arg "Case.effective_trip: runtime trip without a value")

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let to_string (c : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "// simd-fuzz reproducer\n";
  Buffer.add_string buf
    (Printf.sprintf "// fuzz-config: %s seed=%d\n"
       (Driver.config_to_string c.config)
       c.setup_seed);
  (match c.trip with
  | Some t -> Buffer.add_string buf (Printf.sprintf "// fuzz-trip: %d\n" t)
  | None -> ());
  Buffer.add_string buf (Pp.program_to_string c.program);
  Buffer.contents buf

exception Bad_header of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad_header m)) fmt

let parse_kv token =
  match String.index_opt token '=' with
  | Some i ->
    ( String.sub token 0 i,
      String.sub token (i + 1) (String.length token - i - 1) )
  | None -> fail "malformed field %S (expected key=value)" token

let parse_int key v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> fail "field %s: expected integer, got %S" key v

let header_payload ~prefix line =
  let line = String.trim line in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Some (String.trim (String.sub line (String.length prefix)
                            (String.length line - String.length prefix)))
  else None

let of_string src : (t, string) result =
  try
    let lines = String.split_on_char '\n' src in
    let cfg = ref Driver.default in
    let seed = ref 0x5EED in
    let trip = ref None in
    List.iter
      (fun line ->
        (match header_payload ~prefix:"// fuzz-config:" line with
        | Some payload ->
          let seeds, fields =
            String.split_on_char ' ' payload
            |> List.filter (fun s -> s <> "")
            |> List.map parse_kv
            |> List.partition (fun (key, _) -> key = "seed")
          in
          List.iter (fun (key, v) -> seed := parse_int key v) seeds;
          (match
             Driver.update_config ~read:Driver.value_of_string !cfg fields
           with
          | Ok c -> cfg := c
          | Error m -> raise (Bad_header m))
        | None -> ());
        match header_payload ~prefix:"// fuzz-trip:" line with
        | Some payload -> trip := Some (parse_int "fuzz-trip" payload)
        | None -> ())
      lines;
    match Parse.program_of_string_result src with
    | Error m -> Error m
    | Ok program ->
      Ok { program; config = !cfg; trip = !trip; setup_seed = !seed }
  with
  | Bad_header m -> Error ("bad fuzz header: " ^ m)
  | Invalid_argument m -> Error ("bad fuzz header: " ^ m)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let to_file path (c : t) =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string c))

let of_file path : (t, string) result =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match of_string src with
  | Ok c -> Ok c
  | Error m -> Error (Printf.sprintf "%s: %s" path m)

let pp fmt (c : t) =
  Format.fprintf fmt "config: %s seed=%d%s@\n%a"
    (Driver.config_to_string c.config)
    c.setup_seed
    (match c.trip with Some t -> Printf.sprintf " trip=%d" t | None -> "")
    Pp.pp_program c.program
