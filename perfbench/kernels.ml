(* The kernels phase: native run time of emitted code.

   A row is one program compiled under one policy for one ISA backend.
   Each row becomes one gcc binary: the backend's translation unit
   ([Backend.unit_for]) plus a generated timing [main] in its own
   translation unit, so gcc cannot inline the kernels into the timing
   loop. The binary places the arrays at the simulator's layout offsets
   ([Sim_run.prepare]), times [kernel_scalar] and [kernel_simd]
   alternately, and byte-compares the two arenas at the end. The scalar
   baseline is gcc's own code for the source loop at the same flags. *)

module Ast = Simd.Ast
module Backend = Simd.Backend
module Driver = Simd.Driver
module Policy = Simd.Policy
module Sim_run = Simd.Sim_run
module C_syntax = Simd.C_syntax

let policies = [ Policy.Dominant; Policy.Joint ]
let base_flags = "-O2"
let flags b = String.concat " " (base_flags :: Backend.cflags b)

(* The ISA backends the end-to-end metrics name. *)
let backends = [ Backend.Sse; Backend.Avx2 ]

type source = { pname : string; program : Ast.program; trip : int option }

let corpus_dir = "corpus"

(* Runtime-trip corpus programs run at this trip (arrays are sized for it). *)
let corpus_runtime_trip = 1000

let corpus_sources () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simd")
  |> List.sort compare
  |> List.map (fun f ->
         let text = Stats.read_file (Filename.concat corpus_dir f) in
         let program = Simd.parse_exn text in
         let trip =
           match program.Ast.loop.Ast.trip with
           | Ast.Trip_const _ -> None
           | Ast.Trip_param _ -> Some corpus_runtime_trip
         in
         { pname = Filename.chop_suffix f ".simd"; program; trip })

(* Synth shapes: Figure 11 (S1·L6) and Table 1 (S4·L8), each at a trip
   whose footprint sits in L1 and one that needs L2 (int32 elements;
   about 7 and 26 distinct arrays respectively). *)
let shapes = [ ("s1l6", 1, 6, 800, 32000); ("s4l8", 4, 8, 200, 8000) ]

let synth_sources ~seed ~per_shape ~vl =
  let machine = Simd.Machine.create ~vector_len:vl in
  List.concat_map
    (fun (shape, stmts, loads, l1, l2) ->
      List.concat_map
        (fun k ->
          let spec_seed = (seed * 7919) + (k * 104729) + stmts in
          List.map
            (fun (size, trip) ->
              let spec =
                {
                  Simd.Synth.default_spec with
                  Simd.Synth.stmts;
                  loads_per_stmt = loads;
                  trip;
                  seed = spec_seed;
                }
              in
              {
                pname = Printf.sprintf "synth-%s-%s-%d" shape size k;
                program = Simd.Synth.generate ~machine spec;
                trip = None;
              })
            [ ("l1", l1); ("l2", l2) ])
        (List.init per_shape Fun.id))
    shapes

type row = {
  name : string;  (** program/policy/backend *)
  source : source;
  policy : Policy.t;
  backend : Backend.id;
  outcome : Driver.outcome;
  setup : Sim_run.setup;
  unit_text : string;
  unit_ms : float;  (** [Backend.unit_for] wall time *)
  main_text : string;
  scalar_digest : string;  (** kernel_scalar text + flags *)
  build_key : string;
}

(* The kernel_scalar definition, as emitted: everything from its
   signature up to the kernel_simd signature. *)
let scalar_text unit_text =
  let find sub =
    let n = String.length sub and m = String.length unit_text in
    let rec go i =
      if i + n > m then m
      else if String.sub unit_text i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let a = find "void kernel_scalar(" and b = find "void kernel_simd(" in
  if b > a then String.sub unit_text a (b - a) else ""

(* The timing main: two noise-filled arenas laid out like the simulator's,
   a calibrated repetition count per sample so each sample lasts at least
   ~20 us, then alternating scalar/simd samples (order flipped every
   sample) until the time budget is spent; medians per element, then an
   arena byte-compare. *)
let main_source (row_setup : Sim_run.setup) =
  let program = row_setup.Sim_run.program in
  let layout = row_setup.Sim_run.layout in
  let ct = C_syntax.ctype (Ast.elem_ty_of_program program) in
  let size = layout.Simd.Layout.arena_size in
  let buf = Buffer.create 2048 in
  let add = Buffer.add_string buf in
  add
    "#include <stdint.h>\n#include <stdio.h>\n#include <stdlib.h>\n\
     #include <string.h>\n#include <time.h>\n\n";
  add (Printf.sprintf "void kernel_scalar(%s);\n" (C_syntax.kernel_params program));
  add (Printf.sprintf "void kernel_simd(%s);\n\n" (C_syntax.kernel_params program));
  add
    (Printf.sprintf
       "static uint8_t pb_arena_s[%d] __attribute__((aligned(64)));\n\
        static uint8_t pb_arena_v[%d] __attribute__((aligned(64)));\n\n"
       size size);
  let runner name kernel arena =
    add (Printf.sprintf "static void %s(long pb_reps) {\n" name);
    List.iter
      (fun (d : Ast.array_decl) ->
        add
          (Printf.sprintf "  %s *%s = (%s *)(%s + %d);\n" ct d.Ast.arr_name ct
             arena
             (Simd.Layout.base layout d.Ast.arr_name)))
      program.Ast.arrays;
    add (Printf.sprintf "  long %s = %d;\n" (C_syntax.ub_name program) row_setup.Sim_run.trip);
    List.iter
      (fun p ->
        let value =
          Option.value ~default:1L (List.assoc_opt p row_setup.Sim_run.params)
        in
        add (Printf.sprintf "  %s %s = (%s)%LdLL;\n" ct p ct value))
      program.Ast.params;
    add
      (Printf.sprintf
         "  for (long pb_r = 0; pb_r < pb_reps; pb_r++) %s(%s);\n}\n\n" kernel
         (C_syntax.kernel_args program))
  in
  runner "run_scalar" "kernel_scalar" "pb_arena_s";
  runner "run_simd" "kernel_simd" "pb_arena_v";
  add
    (Printf.sprintf
       "static double now_ns(void) {\n\
       \  struct timespec t;\n\
       \  clock_gettime(CLOCK_MONOTONIC, &t);\n\
       \  return (double)t.tv_sec * 1e9 + (double)t.tv_nsec;\n\
        }\n\n\
        static int cmp_d(const void *x, const void *y) {\n\
       \  double a = *(const double *)x, b = *(const double *)y;\n\
       \  return (a > b) - (a < b);\n\
        }\n\n\
        #define PB_MAX 200000\n\
        static double pb_ts[PB_MAX], pb_tv[PB_MAX];\n\n\
        int main(int argc, char **argv) {\n\
       \  double budget = (argc > 1 ? atof(argv[1]) : 50.0) * 1e6;\n\
       \  uint64_t st = 0x5EEDULL;\n\
       \  for (int k = 0; k < %d; k++) {\n\
       \    uint64_t z = (st += 0x9E3779B97F4A7C15ULL);\n\
       \    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;\n\
       \    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;\n\
       \    pb_arena_s[k] = (uint8_t)((z ^ (z >> 31)) & 0xff);\n\
       \  }\n\
       \  memcpy(pb_arena_v, pb_arena_s, %d);\n\
       \  long inner = 1;\n\
       \  for (;;) {\n\
       \    double t0 = now_ns();\n\
       \    run_scalar(inner);\n\
       \    double t1 = now_ns();\n\
       \    run_simd(inner);\n\
       \    if (t1 - t0 >= 20000.0 || inner >= (1L << 24)) break;\n\
       \    inner *= 2;\n\
       \  }\n\
       \  int n = 0;\n\
       \  double start = now_ns();\n\
       \  while (n < PB_MAX && (n < 16 || now_ns() - start < budget)) {\n\
       \    double t0 = now_ns();\n\
       \    if (n & 1) run_simd(inner); else run_scalar(inner);\n\
       \    double t1 = now_ns();\n\
       \    if (n & 1) run_scalar(inner); else run_simd(inner);\n\
       \    double t2 = now_ns();\n\
       \    pb_ts[n] = (n & 1) ? t2 - t1 : t1 - t0;\n\
       \    pb_tv[n] = (n & 1) ? t1 - t0 : t2 - t1;\n\
       \    n++;\n\
       \  }\n\
       \  for (int k = 0; k < %d; k++)\n\
       \    if (pb_arena_s[k] != pb_arena_v[k]) {\n\
       \      printf(\"MISMATCH %%d %%02x %%02x\\n\", k, pb_arena_s[k], pb_arena_v[k]);\n\
       \      return 1;\n\
       \    }\n\
       \  qsort(pb_ts, n, sizeof(double), cmp_d);\n\
       \  qsort(pb_tv, n, sizeof(double), cmp_d);\n\
       \  double per = (double)inner * %d.0;\n\
       \  printf(\"OK %%.6f %%.6f %%d %%ld\\n\", pb_ts[n / 2] / per, pb_tv[n / 2] / per, n, inner);\n\
       \  return 0;\n\
        }\n"
       size size size row_setup.Sim_run.trip);
  Buffer.contents buf

(* Every row of the phase. A program the driver declines (a legitimate
   scalar fallback) contributes no row. *)
let rows ~sources_for : row list =
  List.concat_map
    (fun backend ->
      let vl = Backend.default_vl backend in
      let machine = Simd.Machine.create ~vector_len:vl in
      List.concat_map
        (fun (src : source) ->
          List.filter_map
            (fun policy ->
              let config = { Driver.default with Driver.policy; machine } in
              match Driver.simdize config src.program with
              | Driver.Scalar _ -> None
              | Driver.Simdized outcome ->
                let setup = Sim_run.prepare ?trip:src.trip ~machine src.program in
                let unit_text, unit_ms =
                  Stats.time (fun () -> Backend.unit_for backend outcome.Driver.prog)
                in
                let main_text = main_source setup in
                let fl = flags backend in
                Some
                  {
                    name =
                      Printf.sprintf "%s/%s/%s" src.pname (Policy.name policy)
                        (Backend.name backend);
                    source = src;
                    policy;
                    backend;
                    outcome;
                    setup;
                    unit_text;
                    unit_ms;
                    main_text;
                    scalar_digest =
                      Stats.digest_strings [ scalar_text unit_text; fl ];
                    build_key = Stats.digest_strings [ unit_text; main_text; fl ];
                  })
            policies)
        (sources_for ~vl))
    backends

(* ------------------------------------------------------------------ *)
(* Builds                                                              *)
(* ------------------------------------------------------------------ *)

type build = { exe : (string, string) result; build_s : float; bbackend : Backend.id }

(* Run shell commands at most [jobs] at a time; [k] receives each one's
   exit status and wall seconds. *)
let run_parallel ~jobs tasks =
  let running = Hashtbl.create 4 in
  let rec loop = function
    | (cmd, log, k) :: rest when Hashtbl.length running < jobs ->
      let pid = Stats.spawn ~log [| "/bin/sh"; "-c"; cmd |] in
      Hashtbl.replace running pid (k, Stats.now ());
      loop rest
    | pending ->
      if Hashtbl.length running > 0 then begin
        (match Unix.wait () with
        | pid, status -> (
          match Hashtbl.find_opt running pid with
          | Some (k, t0) ->
            Hashtbl.remove running pid;
            k status (Stats.now () -. t0)
          | None -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop pending
      end
  in
  loop tasks

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Build every distinct binary, [jobs] at a time. Each backend's system
   headers (the unit's own #include lines; <immintrin.h> alone takes
   most of an AVX2 unit's compile time) are precompiled once per set-up
   and force-included ahead of the unit, which leaves the generated code
   unchanged. The unit and the timing main are compiled separately and
   linked. *)
let build_all ~cc ~dir ~jobs rows : (string, build) Hashtbl.t =
  let q = Filename.quote in
  let gcc b = String.concat " " [ q (Simd.Cc.path cc); flags b ] in
  let builds = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun r ->
        if Hashtbl.mem builds r.build_key then false
        else begin
          Hashtbl.replace builds r.build_key
            { exe = Error "not built"; build_s = 0.; bbackend = r.backend };
          true
        end)
      rows
  in
  let pch b = Filename.concat dir ("pch_" ^ Backend.name b ^ ".h") in
  run_parallel ~jobs
    (List.filter_map
       (fun b ->
         match List.find_opt (fun r -> r.backend = b) todo with
         | None -> None
         | Some r ->
           let h = pch b in
           String.split_on_char '\n' r.unit_text
           |> List.filter (starts_with ~prefix:"#include")
           |> String.concat "\n" |> Stats.write_file h;
           Some
             ( Printf.sprintf "%s -x c-header %s -o %s" (gcc b) (q h) (q (h ^ ".gch")),
               h ^ ".log",
               fun _ _ -> () ))
       backends);
  run_parallel ~jobs
    (List.map
       (fun r ->
         let base = Filename.concat dir ("k" ^ r.build_key) in
         Stats.write_file (base ^ "_unit.c") r.unit_text;
         Stats.write_file (base ^ "_main.c") r.main_text;
         let g = gcc r.backend in
         let cmd =
           Printf.sprintf "%s -include %s -c %s -o %s && %s -c %s -o %s && %s -o %s %s %s" g
             (q (pch r.backend)) (q (base ^ "_unit.c")) (q (base ^ "_unit.o")) g
             (q (base ^ "_main.c")) (q (base ^ "_main.o")) g (q (base ^ ".exe"))
             (q (base ^ "_unit.o")) (q (base ^ "_main.o"))
         in
         ( cmd,
           base ^ ".log",
           fun status build_s ->
             let exe =
               if Stats.exit_ok status then Ok (base ^ ".exe")
               else
                 Error
                   (Printf.sprintf "gcc %s: %s" (Stats.status_to_string status)
                      (String.trim (Stats.read_file (base ^ ".log"))))
             in
             Hashtbl.replace builds r.build_key { exe; build_s; bbackend = r.backend } ))
       todo);
  builds

(* ------------------------------------------------------------------ *)
(* Timing runs                                                         *)
(* ------------------------------------------------------------------ *)

type measured = {
  scalar_ns : float;  (** median per element *)
  simd_ns : float;
  samples : int;
  ratio : float;  (** in-binary scalar ns ÷ simd ns *)
}

let run_binary ~exe ~budget_ms : (measured, string) result =
  let log = exe ^ ".out" in
  let pid = Stats.spawn ~log [| exe; Printf.sprintf "%.3f" budget_ms |] in
  let status = Stats.wait_pid pid in
  let out = String.trim (try Stats.read_file log with Sys_error _ -> "") in
  if not (Stats.exit_ok status) then
    Error (Printf.sprintf "binary %s: %s" (Stats.status_to_string status) out)
  else
    match Scanf.sscanf_opt out "OK %f %f %d %d" (fun s v n _ -> (s, v, n)) with
    | Some (scalar_ns, simd_ns, samples) when scalar_ns > 0. && simd_ns > 0. ->
      Ok { scalar_ns; simd_ns; samples; ratio = scalar_ns /. simd_ns }
    | _ -> Error ("unexpected output: " ^ out)

(* The simulator's view of the same compilation: modeled speedup and
   operations per datum ([Measure.of_outcome]). *)
let modeled row =
  let sample =
    Simd.Measure.of_outcome ?trip:row.source.trip row.source.program row.outcome
  in
  (Simd.Measure.speedup sample, Simd.Measure.opd sample)

(* Steady-state vector operations per iteration (register copies
   excluded: they cost nothing after unrolling). *)
let steady_vops row =
  let c = Simd.Vir_prog.body_counts row.outcome.Driver.prog in
  c.Simd.Vir_prog.loads + c.stores + c.ops + c.splats + c.shifts + c.splices
  + c.packs

type row_result = {
  row : row;
  measured : (measured, string) result;
  modeled_speedup : float;
  opd : float;
}

(* Rows are timed in sweeps over all rows, one binary at a time, and the
   benchmark interleaves the sweeps with the other phases; a row's figures
   are the medians over its sweeps, so a few seconds of host noise during
   one sweep do not move them. *)
let sweep builds rows ~budget_ms =
  List.map
    (fun row ->
      match Hashtbl.find builds row.build_key with
      | { exe = Ok exe; _ } -> run_binary ~exe ~budget_ms
      | { exe = Error m; _ } -> Error m)
    rows

let combine = function
  | [] -> Error "not run"
  | runs -> (
    match List.find_opt Result.is_error runs with
    | Some e -> e
    | None ->
      let ms = List.map Result.get_ok runs in
      let med f = Stats.median (List.map f ms) in
      Ok
        {
          scalar_ns = med (fun m -> m.scalar_ns);
          simd_ns = med (fun m -> m.simd_ns);
          samples = List.fold_left (fun a m -> a + m.samples) 0 ms;
          ratio = med (fun m -> m.ratio);
        })

(* Per row: the medians over [sweeps], and the simulator's model of the
   row (outside every timed section). *)
let results rows sweeps =
  List.mapi
    (fun i row ->
      let modeled_speedup, opd = modeled row in
      {
        row;
        measured = combine (List.map (fun s -> List.nth s i) sweeps);
        modeled_speedup;
        opd;
      })
    rows

let speedup m = m.ratio

let ok_rows results ~backend ?policy () =
  List.filter_map
    (fun r ->
      match r.measured with
      | Ok m
        when r.row.backend = backend
             && (match policy with None -> true | Some p -> r.row.policy = p) ->
        Some (r, m)
      | _ -> None)
    results
