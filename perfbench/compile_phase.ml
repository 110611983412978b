(* The compile phase: in-process compile latency, closed loop, one request
   at a time, no protocol and no cache. Every request goes through
   [Compile.run] and then [Compile.outcome_to_json] and [Json.to_line] —
   parse, simdize with the verifier on, report, lint, and the VIR and C
   emits: what a caller of the library pays per program. *)

module Ast = Simd.Ast
module Driver = Simd.Driver
module Policy = Simd.Policy
module Protocol = Simd.Serve.Protocol
module Compile = Simd.Serve.Compile
module Json = Simd.Json
module Prng = Simd.Prng
module Trace = Simd.Trace

let vls = [ 16; 32 ]

type req = {
  rname : string;
  request : Protocol.request;
  program : Ast.program;
  trip : int option;  (** trip to verify a runtime-trip program at *)
}

(* A program is usable when it passes legality at every V the stream
   compiles it for, so no request is invalid by construction. *)
let legal_everywhere program =
  List.for_all
    (fun vl ->
      Result.is_ok
        (Simd.Analysis.check
           ~machine:(Simd.Machine.create ~vector_len:vl)
           (Simd.Mask.apply program)))
    vls

(* Program size sets most of a request's cost (the slowest requests are
   the largest programs under every policy), so each seed draws the same
   number of programs per body length — one to four statements; the rare
   longer bodies are left out, as a few of them would set the tail on
   their own — and streams are interleaved so that every prefix holds
   each length in proportion. The seed still picks every program; only
   the size mix is fixed. *)
let size_shares = [ (1, 0.4); (2, 0.3); (3, 0.15); (4, 0.15) ]

let size_class (p : Ast.program) = List.length p.Ast.loop.Ast.body

(* [count] draws from [draw] (a program and its payload, or [None] to
   reject), stratified by [size_class]: one group per class, in
   [size_shares] order. *)
let stratified ~count draw =
  let last = List.length size_shares - 1 in
  let quota i share =
    if i < last then int_of_float (share *. float_of_int count)
    else
      count
      - List.fold_left
          (fun a (_, s) -> a + int_of_float (s *. float_of_int count))
          0
          (List.filteri (fun j _ -> j < last) size_shares)
  in
  let groups =
    List.mapi (fun i (cls, share) -> (cls, ref (quota i share), ref [])) size_shares
  in
  while List.exists (fun (_, q, _) -> !q > 0) groups do
    match draw () with
    | None -> ()
    | Some ((program : Ast.program), payload) -> (
      match List.find_opt (fun (cls, _, _) -> cls = size_class program) groups with
      | Some (_, q, acc) when !q > 0 ->
        decr q;
        acc := payload :: !acc
      | _ -> ())
  done;
  List.map (fun (_, _, acc) -> List.rev !acc) groups

(* Merge [groups] so that every prefix holds each group in proportion to
   its size. *)
let interleave groups =
  let groups = Array.of_list (List.map Array.of_list groups) in
  let taken = Array.make (Array.length groups) 0 in
  let total = Array.fold_left (fun a g -> a + Array.length g) 0 groups in
  Array.init total (fun _ ->
      let best = ref (-1) and best_v = ref infinity in
      Array.iteri
        (fun i g ->
          let n = Array.length g in
          if taken.(i) < n then begin
            let v = (float_of_int taken.(i) +. 0.5) /. float_of_int n in
            if v < !best_v then begin
              best := i;
              best_v := v
            end
          end)
        groups;
      let i = !best in
      taken.(i) <- taken.(i) + 1;
      groups.(i).(taken.(i) - 1))

let shuffled prng l =
  let a = Array.of_list l in
  Prng.shuffle prng a;
  Array.to_list a

(* [count] seeded [Genloop] programs, each with its own sampled pass
   configuration (policy and V are overridden per request), grouped by
   size class. *)
let genloop_programs prng ~count =
  let machine = Simd.Machine.create ~vector_len:16 in
  let k = ref 0 in
  stratified ~count (fun () ->
      let program, trip = Simd.Fuzz.Genloop.gen_program prng ~machine in
      let config = Simd.Fuzz.Genloop.gen_config prng ~machine in
      let config = { config with Driver.cleanup = Prng.bool prng } in
      if legal_everywhere program then begin
        incr k;
        Some (program, (Printf.sprintf "g%03d" !k, program, trip, config))
      end
      else None)

let make_req ~rname ~source ~trip ~config =
  {
    rname;
    request = { Protocol.id = rname; source; config; emits = Protocol.default_emits };
    program = Simd.parse_exn source;
    trip;
  }

(* The Genloop programs of the compile stream come from a fixed pool.
   Per-request compile cost spans three orders of magnitude and each
   program fans out into 14 requests, so a seeded draw of a few dozen
   programs moved compile p99 by a factor of three between seeds (even
   stratified by size); with a fixed pool the latency distribution is a
   property of the compiler, not of the draw. The run's seed orders the
   stream. *)
let pool_seed = 0x5EED

(* Every program × every policy × V ∈ {16, 32}: the corpus and each size
   class of Genloop programs shuffled by the seed, then interleaved. *)
let stream ~seed ~genloop =
  let prng = Prng.create ~seed:(seed lxor 0xC0111E) in
  let variants (name, program, trip, base) =
    let source = Simd.Pp.program_to_string program in
    List.concat_map
      (fun policy ->
        List.map
          (fun vl ->
            let config =
              { base with Driver.policy; machine = Simd.Machine.create ~vector_len:vl }
            in
            make_req
              ~rname:(Printf.sprintf "%s/%s/v%d" name (Policy.name policy) vl)
              ~source ~trip ~config)
          vls)
      Policy.all
  in
  let corpus =
    List.concat_map
      (fun (s : Kernels.source) ->
        variants
          ( "c-" ^ s.Kernels.pname,
            s.Kernels.program,
            (match s.Kernels.trip with Some _ -> Some 100 | None -> None),
            Driver.default ))
      (Kernels.corpus_sources ())
  in
  let classes =
    List.map (List.concat_map variants)
      (genloop_programs (Prng.create ~seed:pool_seed) ~count:genloop)
  in
  interleave (List.map (shuffled prng) (corpus :: classes))

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

type kind = Art | Scal

let classify = function
  | Compile.Invalid m -> Error ("invalid: " ^ m)
  | Compile.Scalar _ -> Ok Scal
  | Compile.Artifact a -> if a.Compile.check_ok then Ok Art else Error "check_ok = false"

(* The simdized program against the scalar interpreter on the
   simulator — outside the timed section. *)
let verify (r : req) =
  match Driver.simdize r.request.Protocol.config r.program with
  | Driver.Scalar _ -> Ok ()
  | Driver.Simdized o -> (
    let setup =
      Simd.Sim_run.prepare ?trip:r.trip
        ~machine:r.request.Protocol.config.Driver.machine r.program
    in
    match Simd.Sim_run.verify setup o.Driver.prog with
    | Ok () -> Ok ()
    | Error m -> Error (Format.asprintf "Sim_run.verify: %a" Simd.Sim_run.pp_mismatch m))
  | exception e -> Error ("verify raised " ^ Printexc.to_string e)

(* The phase runs as slices interleaved with the other phases; over all
   slices it processes [passes] whole passes over the stream, so the
   measured population is the same in every run, and each request is
   timed once per pass, at times spread over the run. A request's latency
   is its fastest run, scaled to reference host speed ([Host_speed]): the
   host's speed drifts within seconds and for minutes, and the fastest of
   several runs taken far apart is what the compiler costs, not what the
   host was doing at that moment. *)
type state = {
  stream : req array;
  speed : Host_speed.t;
  total : int;
  verdicts : (int, (kind, string) Stdlib.result) Hashtbl.t;
  best : float array;  (** ms at reference speed, each request's fastest run so far *)
  mutable processed : int;
}

let start ~speed ~passes stream =
  let n = Array.length stream in
  {
    stream;
    speed;
    total = passes * n;
    verdicts = Hashtbl.create n;
    best = Array.make n infinity;
    processed = 0;
  }

(* Slice [k] of [slices]: the next share of the requests, one at a time. *)
let slice st ~k ~slices =
  let stop = st.total * (k + 1) / slices in
  let n = Array.length st.stream in
  while st.processed < stop do
    let i = st.processed mod n in
    let r = st.stream.(i) in
    Host_speed.tick st.speed;
    let verdict, ms =
      Stats.time (fun () ->
          match Compile.run r.request with
          | o ->
            ignore (Json.to_line (Compile.outcome_to_json o));
            classify o
          | exception e -> Error ("raised " ^ Printexc.to_string e))
    in
    st.best.(i) <- Float.min st.best.(i) (ms *. Host_speed.factor st.speed);
    if not (Hashtbl.mem st.verdicts i) then Hashtbl.replace st.verdicts i verdict;
    st.processed <- st.processed + 1
  done

type result = {
  latencies : float list;  (** ms at reference speed, each distinct request's fastest run *)
  processed : int;
  rate : float;  (** requests/s: distinct requests over the sum of their latencies *)
  failed : int;
  failures : (string * string) list;  (** request name, reason *)
}

(* Verify every distinct simdized request that ran, then tally. *)
let finish st : result =
  let n = Array.length st.stream in
  let seen = List.init (min n st.processed) Fun.id in
  List.iter
    (fun i ->
      match Hashtbl.find st.verdicts i with
      | Ok Art -> (
        match verify st.stream.(i) with
        | Ok () -> ()
        | Error m -> Hashtbl.replace st.verdicts i (Error m))
      | _ -> ())
    seen;
  let failures =
    List.filter_map
      (fun i ->
        match Hashtbl.find st.verdicts i with
        | Error m -> Some (st.stream.(i).rname, m)
        | Ok _ -> None)
      seen
  in
  let failed = ref 0 in
  for k = 0 to st.processed - 1 do
    match Hashtbl.find st.verdicts (k mod n) with Error _ -> incr failed | Ok _ -> ()
  done;
  let latencies = List.map (fun i -> st.best.(i)) seen in
  {
    latencies;
    processed = st.processed;
    rate = float_of_int (List.length latencies) /. (List.fold_left ( +. ) 0. latencies /. 1000.);
    failed = !failed;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* Spans around each layer call Compile.run makes, taken from the
   benchmark's side of the library boundary, plus the [Pass] events the
   driver's own trace sink records. *)
type traced = {
  parse_ms : float list;
  simdize_ms : (Policy.t * float) list;  (** unchecked *)
  verify_ms : float list;  (** checked minus unchecked *)
  report_ms : float list;
  lint_ms : float list;
  vir_ms : float list;
  c_ms : float list;
  to_line_ms : float list;
  pass_ms : (string * float) list;  (** enabled passes only *)
  pass_delta : (string * int) list;
  attempted : int;
  simdized : int;
  obligations : int;
  findings : int;
  overhead_pct : float;
}

let section_ops (s : Trace.section) =
  let c = s.Trace.counts in
  Simd.Vir_prog.(c.loads + c.stores + c.ops + c.splats + c.shifts + c.splices + c.packs)

let snapshot_ops (s : Trace.snapshot) =
  section_ops s.Trace.prologue + section_ops s.Trace.body + section_ops s.Trace.epilogues

let traced ~count (stream : req array) : traced =
  let acc = ref [] in
  let push k v = acc := (k, v) :: !acc in
  let simdize_ms = ref [] and pass_ms = ref [] and pass_delta = ref [] in
  let simdized = ref 0 and obligations = ref 0 and findings = ref 0 in
  let traced_total = ref 0. and untraced_total = ref 0. in
  let count = min count (Array.length stream) in
  (* The untraced reference for the overhead: the same requests, through
     Compile.run and JSON, just before the traced pass. *)
  let untraced =
    Array.init count (fun i ->
        snd
          (Stats.time (fun () ->
               Json.to_line (Compile.outcome_to_json (Compile.run stream.(i).request)))))
  in
  for i = 0 to count - 1 do
    let r = stream.(i) in
    let config = r.request.Protocol.config in
    let spent = ref 0. in
    let span k f =
      let v, ms = Stats.time f in
      push k ms;
      spent := !spent +. ms;
      v
    in
    (match
       span "parse" (fun () ->
           Simd.Parse.program_of_string_result r.request.Protocol.source)
     with
    | Error _ -> ()
    | Ok program ->
      let _, plain = Stats.time (fun () -> Driver.simdize ~check:false config program) in
      simdize_ms := (config.Driver.policy, plain) :: !simdize_ms;
      let checked, full =
        Stats.time (fun () -> Driver.simdize ~check:true config program)
      in
      spent := !spent +. full;
      push "verify" (full -. plain);
      let sink = Trace.create () in
      ignore (Driver.simdize ~trace:sink config program);
      List.iter
        (function
          | Trace.Pass { name; enabled = true; before; after; elapsed_ms } ->
            pass_ms := (name, elapsed_ms) :: !pass_ms;
            pass_delta := (name, snapshot_ops after - snapshot_ops before) :: !pass_delta
          | _ -> ())
        (Trace.events sink);
      (match checked with
      | Driver.Scalar _ -> ()
      | Driver.Simdized o ->
        incr simdized;
        let f = Driver.check_facts o in
        obligations :=
          !obligations + Simd.Check.(f.ops_proved + f.stores_proved + f.shifts_proved + f.seams_proved);
        ignore
          (span "report" (fun () -> Simd.Opt.Report.to_json (Driver.report o)));
        let report = span "lint" (fun () -> Simd.Lint.run o) in
        findings := !findings + List.length report.Simd.Lint.findings;
        ignore (span "vir" (fun () -> Simd.Vir_prog.to_string o.Driver.prog));
        ignore
          (span "c" (fun () -> Simd.Backend.unit_for Simd.Backend.Portable o.Driver.prog)));
      let outcome = Compile.run r.request in
      let doc, doc_ms = Stats.time (fun () -> Compile.outcome_to_json outcome) in
      spent := !spent +. doc_ms;
      ignore (span "to_line" (fun () -> Json.to_line doc)));
    traced_total := !traced_total +. !spent;
    untraced_total := !untraced_total +. untraced.(i)
  done;
  let get k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) !acc in
  {
    parse_ms = get "parse";
    simdize_ms = !simdize_ms;
    verify_ms = get "verify";
    report_ms = get "report";
    lint_ms = get "lint";
    vir_ms = get "vir";
    c_ms = get "c";
    to_line_ms = get "to_line";
    pass_ms = !pass_ms;
    pass_delta = !pass_delta;
    attempted = count;
    simdized = !simdized;
    obligations = !obligations;
    findings = !findings;
    overhead_pct =
      (if !untraced_total > 0. then 100. *. ((!traced_total /. !untraced_total) -. 1.)
       else Float.nan);
  }
