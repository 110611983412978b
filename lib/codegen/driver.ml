(** The simdization driver: analysis → (reassociation) → shift placement →
    code generation → optimization passes → epilogue derivation.

    This is the top of the compilation scheme the paper describes in §1:
    simdize as if unconstrained, insert reorganization via a policy, then
    generate and optimize SIMD code.

    Every phase is instrumented for {!Simd_trace.Trace}: pass the [?trace]
    sink to {!simdize} to record reassociation, per-statement
    shift-placement provenance, the generated IR, and one event per
    optimization stage with pre/post snapshots. The default sink is
    {!Simd_trace.Trace.none} and every snapshot construction is guarded by
    {!Simd_trace.Trace.active}, so an untraced compilation does no extra
    work. *)

open Simd_loopir
open Simd_vir
module Policy = Simd_dreorg.Policy
module Graph = Simd_dreorg.Graph
module Reassoc = Simd_dreorg.Reassoc
module Trace = Simd_trace.Trace
module Check = Simd_check.Check
module Json = Simd_support.Json

(** Cross-iteration reuse strategy (§5.5): none, predictive commoning (a
    post-pass on standard code), or software-pipelined generation. *)
type reuse = No_reuse | Predictive_commoning | Software_pipelining
[@@deriving show { with_path = false }, eq]

(** Every accepted reuse name; the first name of a strategy is the one
    {!reuse_name} prints, later ones are aliases. *)
let reuse_names =
  [
    ("plain", No_reuse);
    ("none", No_reuse);
    ("pc", Predictive_commoning);
    ("sp", Software_pipelining);
  ]

let reuse_name r = fst (List.find (fun (_, r') -> equal_reuse r r') reuse_names)
let reuse_of_name s = List.assoc_opt s reuse_names

(** Software pipelining is a generation mode; predictive commoning is a
    post-pass over standard code. *)
let mode_of_reuse = function
  | Software_pipelining -> Gen.Pipelined
  | No_reuse | Predictive_commoning -> Gen.Standard

type config = {
  machine : Simd_machine.Config.t;
  policy : Policy.t;
  reuse : reuse;
  memnorm : bool;  (** normalize load addresses to aligned chunks *)
  reassoc : bool;  (** common-offset reassociation *)
  cse : bool;  (** local value numbering (traditional redundancy elim.) *)
  hoist_splats : bool;
  unroll : int;
      (** steady-loop unroll factor (≥ 1); 2 removes depth-1 pipelining
          copies by modulo variable expansion (§4.5) *)
  specialize_epilogue : bool;
      (** fold the guarded epilogue for compile-time trip counts *)
  peel_baseline : bool;
      (** simdize only if loop peeling (prior work) is applicable — the
          baseline scheme; the policy is forced to eager *)
  cleanup : bool;
      (** dataflow-backed VIR cleanup after placement: copy propagation,
          no-op/adjacent shift combining, invariant hoisting, DCE
          ({!Passes.vir_cleanup}) *)
}

let default =
  {
    machine = Simd_machine.Config.default;
    policy = Policy.Dominant;
    reuse = Software_pipelining;
    memnorm = true;
    reassoc = false;
    cse = true;
    hoist_splats = true;
    unroll = 1;
    specialize_epilogue = true;
    peel_baseline = false;
    cleanup = false;
  }

(* ------------------------------------------------------------------ *)
(* The config vocabulary                                              *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Bool of bool | Name of string

type field = {
  key : string;
  get : config -> value;
  set : config -> value -> config;
}

(* Decoders read a value as its field's kind, so [set] meeting another
   kind is a caller bug. *)
let mismatch () = invalid_arg "Driver.config_fields: value of another kind"

let int_field key get set =
  let set c = function Int n -> set c n | _ -> mismatch () in
  { key; get = (fun c -> Int (get c)); set }

let flag key get set =
  let set c = function Bool b -> set c b | _ -> mismatch () in
  { key; get = (fun c -> Bool (get c)); set }

let name_field key ~what get of_name set =
  let set c = function
    | Name s -> (
      match of_name s with
      | Some x -> set c x
      | None -> invalid_arg (Printf.sprintf "unknown %s %S" what s))
    | _ -> mismatch ()
  in
  { key; get = (fun c -> Name (get c)); set }

(** One row per {!config} field except the machine's cost weights, in
    canonical order. *)
let config_fields =
  [
    int_field "vl"
      (fun c -> Simd_machine.Config.vector_len c.machine)
      (fun c vector_len ->
        { c with machine = Simd_machine.Config.create ~vector_len });
    name_field "policy" ~what:"policy"
      (fun c -> Policy.name c.policy)
      Policy.of_name
      (fun c policy -> { c with policy });
    name_field "reuse" ~what:"reuse strategy"
      (fun c -> reuse_name c.reuse)
      reuse_of_name
      (fun c reuse -> { c with reuse });
    flag "memnorm" (fun c -> c.memnorm) (fun c memnorm -> { c with memnorm });
    flag "reassoc" (fun c -> c.reassoc) (fun c reassoc -> { c with reassoc });
    flag "cse" (fun c -> c.cse) (fun c cse -> { c with cse });
    flag "hoist"
      (fun c -> c.hoist_splats)
      (fun c b -> { c with hoist_splats = b });
    int_field "unroll" (fun c -> c.unroll) (fun c unroll -> { c with unroll });
    flag "specialize"
      (fun c -> c.specialize_epilogue)
      (fun c b -> { c with specialize_epilogue = b });
    flag "peel"
      (fun c -> c.peel_baseline)
      (fun c b -> { c with peel_baseline = b });
    flag "cleanup" (fun c -> c.cleanup) (fun c cleanup -> { c with cleanup });
  ]

let config_to_string c =
  let text = function
    | Int n -> string_of_int n
    | Bool b -> if b then "1" else "0"
    | Name s -> s
  in
  String.concat " "
    (List.map (fun f -> f.key ^ "=" ^ text (f.get c)) config_fields)

let value_of_string like s =
  match (like, s) with
  | Int _, _ -> Option.map (fun n -> Int n) (int_of_string_opt s)
  | Bool _, ("0" | "false") -> Some (Bool false)
  | Bool _, ("1" | "true") -> Some (Bool true)
  | Bool _, _ -> None
  | Name _, _ -> Some (Name s)

let update_config ~read config pairs =
  let kind = function
    | Int _ -> "integer"
    | Bool _ -> "boolean"
    | Name _ -> "string"
  in
  let apply c (key, raw) =
    match List.find_opt (fun f -> f.key = key) config_fields with
    | None -> invalid_arg (Printf.sprintf "unknown config field %S" key)
    | Some f -> (
      let like = f.get c in
      match read like raw with
      | Some v -> f.set c v
      | None ->
        invalid_arg
          (Printf.sprintf "config field %s: expected %s" key (kind like)))
  in
  match List.fold_left apply config pairs with
  | c -> Ok c
  | exception Invalid_argument m -> Error m

(* ------------------------------------------------------------------ *)
(* The optional passes                                                *)
(* ------------------------------------------------------------------ *)

type pass = {
  name : string;
  charter : string;
  enabled : config -> bool;
  disable : config -> config;
}

let pass name charter enabled disable = { name; charter; enabled; disable }

(* Each row is bound to a name: the driver and {!run_passes} gate on the
   row itself, so no gate predicate is written twice. *)
let reassoc =
  pass "reassoc" "common-offset reassociation of the scalar AST (§5.5)"
    (fun c -> c.reassoc) (fun c -> { c with reassoc = false })

let hoist_splats =
  pass "hoist_splats" "loop-invariant vsplat hoisting into the prologue"
    (fun c -> c.hoist_splats) (fun c -> { c with hoist_splats = false })

let memnorm =
  pass "memnorm" "load-address normalization to V-aligned chunks"
    (fun c -> c.memnorm) (fun c -> { c with memnorm = false })

let cse =
  pass "cse" "local value numbering (three-address form)"
    (fun c -> c.cse) (fun c -> { c with cse = false })

let predictive_commoning =
  pass "predictive_commoning" "cross-iteration value reuse via carried temps"
    (fun c -> c.reuse = Predictive_commoning)
    (fun c ->
      if c.reuse = Predictive_commoning then { c with reuse = No_reuse } else c)

let unroll =
  pass "unroll" "steady-body unrolling with seam-restore coalescing (§4.5)"
    (fun c -> c.unroll > 1) (fun c -> { c with unroll = 1 })

let specialize_epilogue =
  pass "specialize_epilogue" "guard folding for compile-time trip counts"
    (fun c -> c.specialize_epilogue)
    (fun c -> { c with specialize_epilogue = false })

let vir_cleanup =
  pass "vir_cleanup"
    "dataflow-backed cleanup: copy propagation, shift combining, invariant \
     hoisting, DCE"
    (fun c -> c.cleanup) (fun c -> { c with cleanup = false })

(** The config-gated passes in application order, named as their trace
    events are. [reassoc] rewrites the scalar AST before placement; the
    rest transform the generated vector IR ({!run_passes}). *)
let passes =
  [
    reassoc;
    hoist_splats;
    memnorm;
    cse;
    predictive_commoning;
    unroll;
    specialize_epilogue;
    vir_cleanup;
  ]

(** Why a loop was left scalar. *)
type reason =
  | Illegal of Analysis.error
  | Trip_too_small of { trip : int; needed : int }
  | Peeling_inapplicable of Peel.verdict

let pp_reason fmt = function
  | Illegal e -> Format.fprintf fmt "not simdizable: %a" Analysis.pp_error e
  | Trip_too_small { trip; needed } ->
    Format.fprintf fmt "trip count %d too small (need > %d)" trip needed
  | Peeling_inapplicable v ->
    Format.fprintf fmt "peeling baseline: %a" Peel.pp_verdict v

type outcome = {
  prog : Prog.t;
  analysis : Analysis.t;
  graphs : (Ast.stmt * Graph.t) list;
  policies_used : Policy.t list;
      (** per statement; differs from the requested policy when runtime
          alignments forced the zero-shift fallback (§4.4) *)
  shared_streams : Simd_opt.Joint.shared list;
      (** reorganization chains occurring in more than one placed graph —
          the streams value numbering collapses into one [vshiftstream].
          Detected for every policy; the [joint] policy is the one that
          actively steers placement toward them. *)
  config : config;
  checks : (string * Check.result) list;
      (** per pass boundary, in pipeline order, when [simdize ~check:true]
          ran the static verifier; each boundary records only the
          violations first observed there, so the boundary name is the
          offending pass. Empty when checking was off. *)
}

type result = Simdized of outcome | Scalar of reason

(* ------------------------------------------------------------------ *)

let place_with_fallback config ~analysis stmt =
  let p = Simd_opt.Place.place_with_fallback config.policy ~analysis stmt in
  (p.Simd_opt.Place.graph, p.Simd_opt.Place.used)

(* The boundary verifier of one compilation: [verify name f] records the
   result of [f ()] as boundary [name] when [check] is on (and is a no-op
   otherwise); [boundaries ()] lists them in pipeline order. Each boundary
   re-verifies the whole IR but reports only violations not already seen
   at an earlier one, so the first boundary a violation surfaces at names
   the pass that introduced it. *)
let verifier ~trace check =
  let checks = ref [] in
  let seen = Hashtbl.create 64 in
  let verify name f =
    if check then begin
      let (r : Check.result) = f () in
      let fresh =
        List.filter
          (fun (v : Check.violation) ->
            if Hashtbl.mem seen v then false
            else begin
              Hashtbl.add seen v ();
              true
            end)
          r.Check.violations
      in
      checks := (name, { r with Check.violations = fresh }) :: !checks;
      if Trace.active trace && fresh <> [] then
        Trace.add trace
          (Trace.Check
             { name; violations = List.map Check.violation_to_string fresh })
    end
  in
  (verify, fun () -> List.rev !checks)

(* The pass-pipeline state: the three IR regions a pass may rewrite
   (epilogues stay empty until derived), and whether MemNorm has rewritten
   the load addresses — from then on a compile-time-aligned load no longer
   carries its stream offset and the checker treats it as opaque. *)
type pstate = {
  st_prologue : Expr.stmt list;
  st_body : Expr.stmt list;
  st_epilogues : Expr.stmt list list;
  st_normalized : bool;
}

let snap st =
  Trace.snapshot ~prologue:st.st_prologue ~body:st.st_body
    ~epilogues:st.st_epilogues

(* The optimization passes over a freshly generated program; returns the
   optimized program and whether its loads are normalized. Every stage is
   a [verify] boundary: the whole IR is re-checked after it, whether it
   ran or not, and a stage that ran with a [validate] also has its pre and
   post states compared there. *)
let run_passes ~trace ~verify config ~analysis (prog : Prog.t) =
  let names = Names.create () in
  let stage ?validate ~name ~enabled st f =
    let st' = Trace.record_pass trace ~name ~enabled st ~snap f in
    (match validate with
    | Some validate when enabled -> verify name (fun () -> validate st st')
    | _ -> ());
    verify name (fun () ->
        Check.check_regions ~analysis ~loads_normalized:st'.st_normalized
          ~prologue:st'.st_prologue ~body:st'.st_body
          ~epilogues:st'.st_epilogues ());
    st'
  in
  let gated ?validate (p : pass) =
    stage ?validate ~name:p.name ~enabled:(p.enabled config)
  in
  let st =
    {
      st_prologue = prog.Prog.prologue;
      st_body = prog.Prog.body;
      st_epilogues = [];
      st_normalized = false;
    }
  in
  let st =
    gated hoist_splats st (fun st ->
        let p, b =
          Passes.hoist_splats ~names ~prologue:st.st_prologue ~body:st.st_body
        in
        { st with st_prologue = p; st_body = b })
  in
  let st =
    gated memnorm st (fun st ->
        {
          st with
          st_body = Passes.memnorm ~analysis st.st_body;
          st_prologue = Passes.memnorm ~analysis st.st_prologue;
          st_normalized = true;
        })
  in
  let st =
    gated cse st (fun st -> { st with st_body = Passes.cse ~names st.st_body })
  in
  let st =
    gated predictive_commoning st (fun st ->
        let inits, b =
          Passes.predictive_commoning ~block:prog.Prog.block
            ~lb:prog.Prog.lower ~prologue:st.st_prologue
            (if cse.enabled config then st.st_body
             else Passes.cse ~names st.st_body)
        in
        { st with st_body = b; st_prologue = st.st_prologue @ inits })
  in
  (* A second [cse] event: the prologue is value-numbered only after
     predictive commoning has appended its carried-temp initializers. *)
  let st =
    gated cse st (fun st ->
        { st with st_prologue = Passes.cse ~names st.st_prologue })
  in
  (* Rebuild the per-iteration epilogue template from the optimized (but
     not yet unrolled) body; the epilogue always advances one block at a
     time regardless of unrolling. *)
  let template =
    Gen.derive_epilogue ~analysis ~reductions:prog.Prog.reductions st.st_body
  in
  let factor = max 1 config.unroll in
  let st =
    gated unroll st
      ~validate:(fun pre post ->
        Check.check_unroll ~analysis ~factor ~pre:pre.st_body
          ~post:post.st_body)
      (fun st ->
        {
          st with
          st_body = Passes.unroll ~block:prog.Prog.block ~factor st.st_body;
        })
  in
  let trip_const =
    match prog.Prog.source.Ast.loop.Ast.trip with
    | Ast.Trip_const n -> Some n
    | Ast.Trip_param _ -> None
  in
  let n_virtual = factor + 1 in
  (* Always runs; [specialize_epilogue] selects between exit-counter
     specialization (compile-time trip) and the generic guarded template. *)
  let st =
    stage ~name:"derive_epilogues" ~enabled:true st (fun st ->
        let prog_shape = { prog with Prog.body = st.st_body; unroll = factor } in
        let epilogues =
          match (specialize_epilogue.enabled config, trip_const) with
          | true, Some trip ->
            let exit = Prog.exit_counter prog_shape ~trip in
            List.init n_virtual (fun k ->
                Passes.specialize ~analysis ~trip:(Some trip)
                  ~i:(Some (exit + (k * prog.Prog.block)))
                  template)
          | _ ->
            let t =
              Passes.specialize ~analysis ~trip:trip_const ~i:None template
            in
            List.init n_virtual (fun _ -> t)
        in
        { st with st_epilogues = epilogues })
  in
  (* Reduction finalization (horizontal combine + scalar write-back) runs
     once, after the last virtual epilogue iteration. *)
  let st =
    stage ~name:"finalize_reductions" ~enabled:(prog.Prog.reductions <> []) st
      (fun st ->
        match (prog.Prog.reductions, List.rev st.st_epilogues) with
        | [], _ | _, [] -> st
        | reds, last :: earlier ->
          {
            st with
            st_epilogues =
              List.rev
                ((last @ Gen.finalize_reductions ~analysis ~names reds)
                :: earlier);
          })
  in
  let st =
    stage ~name:"dce" ~enabled:true st (fun st ->
        {
          st with
          st_epilogues =
            Simd_dataflow.Dataflow.Cleanup.dce_epilogues st.st_epilogues;
        })
  in
  let st =
    gated vir_cleanup st (fun st ->
        let p, b, e =
          Passes.vir_cleanup
            ~v:(Simd_machine.Config.vector_len config.machine)
            ~block:prog.Prog.block ~prologue:st.st_prologue ~body:st.st_body
            ~epilogues:st.st_epilogues
        in
        { st with st_prologue = p; st_body = b; st_epilogues = e })
  in
  ( {
      prog with
      Prog.prologue = st.st_prologue;
      body = st.st_body;
      epilogues = st.st_epilogues;
      unroll = factor;
    },
    st.st_normalized )

(* Shift-placement provenance for the trace: every [vshiftstream] of a
   placed graph, in evaluation order, priced individually. *)
let rec shift_provenance machine (n : Graph.node) : Trace.shift_prov list =
  match n with
  | Graph.Load _ | Graph.Strided _ | Graph.Splat _ -> []
  | Graph.Op (_, a, b) | Graph.Cmp (_, a, b) ->
    shift_provenance machine a @ shift_provenance machine b
  | Graph.Sel (m, a, b) ->
    shift_provenance machine m @ shift_provenance machine a
    @ shift_provenance machine b
  | Graph.Shift (src, from, to_) ->
    shift_provenance machine src
    @ [
        {
          Trace.sp_from = from;
          sp_to = to_;
          sp_dir = Simd_opt.Cost.direction ~from ~to_;
          sp_cost = Simd_opt.Cost.shift_cost machine ~from ~to_;
        };
      ]

let record_placements trace config ~analysis placed =
  if Trace.active trace then
    List.iteri
      (fun i (stmt, g, used) ->
        Trace.add trace
          (Trace.Placement
             {
               Trace.pl_index = i;
               pl_source = Pp.stmt_to_string stmt;
               pl_requested = config.policy;
               pl_used = used;
               pl_target = g.Graph.store_offset;
               pl_graph = Graph.to_string g;
               pl_shifts =
                 (shift_provenance config.machine g.Graph.root
                 @
                 match g.Graph.mask with
                 | Some m -> shift_provenance config.machine m
                 | None -> []);
               pl_shift_cost = Simd_opt.Cost.shift_cost_of_graph ~analysis g;
               pl_cost = Simd_opt.Cost.graph_cost ~analysis ~stmt g;
             }))
      placed

(** [lower ?trace ?check config ~analysis placed] — placed graphs, each
    with the policy that placed it, to a compilation: generation, the pass
    pipeline and, with [check], the static verifier ({!Simd_check.Check})
    at every boundary. The back half of {!simdize}, and what {!Retarget}
    lowers its re-instantiated graphs through. *)
let lower ?(trace = Trace.none) ?(check = false) config ~analysis placed =
  let verify, boundaries = verifier ~trace check in
  record_placements trace config ~analysis placed;
  let graphs = List.map (fun (s, g, _) -> (s, g)) placed in
  let shared = Simd_opt.Joint.shared_streams ~analysis (List.map snd graphs) in
  if shared <> [] && Trace.active trace then
    Trace.note trace ~label:"shared-streams"
      (Format.asprintf "%a"
         (Format.pp_print_list
            ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
            Simd_opt.Joint.pp_shared)
         shared);
  verify "placement" (fun () -> Check.check_graphs ~analysis graphs);
  let mode = mode_of_reuse config.reuse in
  match Gen.generate ~analysis ~names:(Names.create ()) ~mode graphs with
  | Error e -> Error e
  | Ok prog ->
    if Trace.active trace then
      Trace.add trace
        (Trace.Generated
           {
             mode =
               (match mode with
               | Gen.Pipelined -> "pipelined"
               | Gen.Standard -> "standard");
             snap =
               Trace.snapshot ~prologue:prog.Prog.prologue ~body:prog.Prog.body
                 ~epilogues:[];
           });
    verify "generate" (fun () ->
        Check.check_regions ~analysis ~prologue:prog.Prog.prologue
          ~body:prog.Prog.body ~epilogues:[] ());
    let prog, loads_normalized =
      run_passes ~trace ~verify config ~analysis prog
    in
    verify "final" (fun () ->
        let peel_amount =
          if config.peel_baseline then
            match Peel.check analysis with
            | Peel.Applicable -> Some (Peel.peel_amount analysis)
            | Peel.Mixed_alignments | Peel.Runtime_alignment -> None
          else None
        in
        Check.check_prog ?peel_amount ~loads_normalized ~analysis prog);
    Ok
      {
        prog;
        analysis;
        graphs;
        policies_used = List.map (fun (_, _, p) -> p) placed;
        shared_streams = shared;
        config;
        checks = boundaries ();
      }

(** [simdize ?trace ?check config program] — the whole pipeline: the front
    half (if-conversion, legality, reassociation, the peeling gate and
    shift placement) here, the rest in {!lower}. *)
let simdize ?(trace = Trace.none) ?(check = false) (config : config)
    (program : Ast.program) : result =
  (* If-conversion (the predication extension, [Simd.Mask]) runs before
     legality analysis: complementary guarded pairs become selects, guarded
     reductions become identity-selects, and whatever guards remain lower
     as masked stores. *)
  let program, mask_stats = Simd_mask.Mask.if_convert program in
  if
    Trace.active trace
    && (mask_stats.Simd_mask.Mask.merged_selects > 0
       || mask_stats.Simd_mask.Mask.rewritten_reductions > 0
       || mask_stats.Simd_mask.Mask.residual_guards > 0)
  then
    Trace.note trace ~label:"if-convert"
      (Simd_mask.Mask.show_stats mask_stats);
  match Analysis.check ~machine:config.machine program with
  | Error e -> Scalar (Illegal e)
  | Ok analysis -> (
    let program, analysis =
      if reassoc.enabled config then begin
        let before =
          if Trace.active trace then Pp.program_to_string program else ""
        in
        let program' = Reassoc.apply_program ~analysis program in
        if Trace.active trace then
          Trace.add trace
            (Trace.Reassoc
               {
                 applied = true;
                 before;
                 after = Pp.program_to_string program';
               });
        (program', Analysis.check_exn ~machine:config.machine program')
      end
      else begin
        (if Trace.active trace then
           let s = Pp.program_to_string program in
           Trace.add trace (Trace.Reassoc { applied = false; before = s; after = s }));
        (program, analysis)
      end
    in
    match
      if config.peel_baseline then
        match Peel.check analysis with
        | Peel.Applicable -> Ok { config with policy = Policy.Eager }
        | v -> Error (Peeling_inapplicable v)
      else Ok config
    with
    | Error r -> Scalar r
    | Ok config -> (
      let placed =
        match config.policy with
        | Policy.Joint ->
          (* whole-body placement: offsets are chosen body-globally so one
             vshiftstream can feed several statements (value numbering
             merges the structurally equal chains at lowering) *)
          Simd_opt.Joint.place_body ~analysis program.Ast.loop.Ast.body
        | _ ->
          List.map
            (fun stmt ->
              let g, p = place_with_fallback config ~analysis stmt in
              (stmt, g, p))
            program.Ast.loop.Ast.body
      in
      match lower ~trace ~check config ~analysis placed with
      | Ok o -> Simdized o
      | Error (Gen.Trip_too_small { trip; needed }) ->
        Scalar (Trip_too_small { trip; needed })
      | Error (Gen.Unsupported_shift msg) ->
        invalid_arg ("Driver.simdize: unexpected shift failure: " ^ msg)))

(** [simdize_exn] — [simdize] that raises on scalar fallback (tests). *)
let simdize_exn ?trace ?check config program =
  match simdize ?trace ?check config program with
  | Simdized o -> o
  | Scalar r -> invalid_arg (Format.asprintf "Driver.simdize_exn: %a" pp_reason r)

(** [check_violations outcome] — every static-verifier violation of a
    [~check:true] compilation, flattened in boundary order, each paired
    with the pass boundary that first surfaced it. *)
let check_violations (o : outcome) : (string * Check.violation) list =
  List.concat_map
    (fun (name, (r : Check.result)) ->
      List.map (fun v -> (name, v)) r.Check.violations)
    o.checks

(** [check_facts outcome] — the proof obligations discharged across all
    boundaries of a [~check:true] compilation. *)
let check_facts (o : outcome) : Check.facts =
  List.fold_left
    (fun acc (_, (r : Check.result)) -> Check.add_facts acc r.Check.facts)
    Check.no_facts o.checks

(** [check_to_json outcome] — the verifier's verdict, violations and
    discharged obligations as one document. *)
let check_to_json (o : outcome) : Json.t =
  let violations = check_violations o in
  Json.Obj
    [
      ("ok", Json.Bool (violations = []));
      ( "violations",
        Json.List
          (List.map
             (fun (boundary, v) -> Check.violation_to_json ~boundary v)
             violations) );
      ("facts", Check.facts_to_json (check_facts o));
    ]

(** [report outcome] — the static cost report of a compilation: what each
    statement's placement cost under the machine's cost model, and what
    every other policy would have cost ([--stats], bench JSON). *)
let report (o : outcome) : Simd_opt.Report.t =
  let placed =
    List.map2 (fun (s, g) p -> (s, g, p)) o.graphs o.policies_used
  in
  Simd_opt.Report.make ~analysis:o.analysis ~requested:o.config.policy ~placed
