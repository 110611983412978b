(** Vector-length-agnostic retargeting (Revec's rejuvenation premise):
    re-instantiate one placed compilation at a different vector length
    without rerunning shift placement.

    The placement decisions of {!Driver.simdize} — which reorganization
    chains exist and where the shifts sit — are structural and largely
    V-independent; what changes with V are the numeric stream offsets
    ([(base + offset·D) mod V]), the blocking factor B = V/D, and every
    bound formula derived from them (Eqs. 8–16). Retargeting therefore:

    - re-runs only the {e analysis} at V′ (alignments, blocking factor,
      legality — e.g. V′ may exceed an array's base alignment);
    - walks each placed graph top-down, keeping its shift {e structure}
      and recomputing every endpoint offset at V′. A leaf whose natural
      V′-offset no longer meets its context's requirement gets one repair
      shift; a shift that became a no-op at V′ is dropped;
    - falls back to a fresh per-statement placement ({!Simd_opt.Place},
      [Replaced]) only when the preserved structure cannot be lowered at
      V′ (e.g. a repair would need an unsupported runtime→runtime
      reorganization);
    - lowers the result through {!Driver.lower}, the back half of
      {!Driver.simdize}: code generation and the full pass pipeline — the
      peel amounts and Eqs. 8–16 bounds are recomputed for free — with
      {!Simd_check.Check} discharging the retargeted obligations at every
      boundary the driver checks.

    The subtle part is that offset equalities do not survive widening:
    offsets 4 and 20 coincide mod 16 but differ mod 32, so a shift chain
    that was a no-op at V = 16 may be load-bearing at V′ = 32 (and vice
    versa). The top-down rebuild handles both directions: the context
    requirement is re-derived at V′ at every node, so shifts are kept,
    dropped, or inserted exactly where the V′ offsets demand. *)

open Simd_loopir
module Policy = Simd_dreorg.Policy
module Graph = Simd_dreorg.Graph
module Offset = Simd_dreorg.Offset
module Machine = Simd_machine.Config
module Json = Simd_support.Json

(** How one statement's graph survived the retarget. *)
type status =
  | Preserved  (** structure unchanged; only offsets renumbered *)
  | Repaired of int  (** kept, with [n] repair shifts inserted/dropped *)
  | Replaced of Policy.t
      (** structure not lowerable at V′ — re-placed with this policy *)

let status_name = function
  | Preserved -> "preserved"
  | Repaired _ -> "repaired"
  | Replaced _ -> "replaced"

let pp_status fmt = function
  | Preserved -> Format.pp_print_string fmt "preserved"
  | Repaired n -> Format.fprintf fmt "repaired(%d)" n
  | Replaced p -> Format.fprintf fmt "replaced(%s)" (Policy.name p)

type t = {
  outcome : Driver.outcome;
  statuses : status list;
  from_vl : int;
  to_vl : int;
}

let supported_vls = [ 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Graph re-instantiation                                              *)
(* ------------------------------------------------------------------ *)

exception Unsupported of string

(* A compile-time offset renumbered at V′. Offsets recorded in a placed
   graph are canonical ([0, V)); widening keeps them, narrowing wraps. *)
let map_offset ~vl (o : Offset.t) =
  match o with
  | Offset.Known k -> Offset.Known (((k mod vl) + vl) mod vl)
  | Offset.Runtime _ | Offset.Any -> o

(* The stream-shift directions {!Gen} can lower (§4.4): compile-time on
   both ends, or runtime paired with offset 0 (vshiftleft/vshiftright by a
   runtime amount). Anything else must be re-placed. *)
let supported_direction ~from ~to_ =
  match (from, to_) with
  | Offset.Known _, Offset.Known _ -> true
  | Offset.Runtime _, Offset.Known 0 -> true
  | Offset.Known 0, Offset.Runtime _ -> true
  | _ -> false

let leaf_offset ~analysis (n : Graph.node) =
  match n with
  | Graph.Load r -> Offset.of_align (Analysis.offset_of analysis r) ~ref_:r
  | Graph.Strided _ -> Offset.Known 0
  | Graph.Splat _ -> Offset.Any
  | Graph.Op _ | Graph.Cmp _ | Graph.Sel _ | Graph.Shift _ ->
    invalid_arg "Retarget.leaf_offset: not a leaf"

let is_leaf = function
  | Graph.Load _ | Graph.Strided _ | Graph.Splat _ -> true
  | Graph.Op _ | Graph.Cmp _ | Graph.Sel _ | Graph.Shift _ -> false

let unsupported from to_ =
  raise
    (Unsupported
       (Format.asprintf "cannot reorganize stream %a -> %a" Offset.pp from
          Offset.pp to_))

(* Rebuild a placed subtree against the context requirement [req] (the
   offset this subtree must produce at V′). [repairs] counts structural
   edits — shifts inserted at leaves or dropped as V′ no-ops. *)
let rec rebuild ~analysis ~block ~vl ~repairs (n : Graph.node)
    (req : Offset.t) : Graph.node =
  match n with
  | Graph.Splat _ -> n (* offset ⊥ satisfies every requirement (Eq. 6) *)
  | Graph.Load _ | Graph.Strided _ ->
    let from = leaf_offset ~analysis n in
    if Offset.matches ~block from req then n
    else if supported_direction ~from ~to_:req then begin
      incr repairs;
      Graph.Shift (n, from, req)
    end
    else unsupported from req
  | Graph.Op (op, a, b) ->
    (* (C.3): both operands must produce the context offset. *)
    Graph.Op
      ( op,
        rebuild ~analysis ~block ~vl ~repairs a req,
        rebuild ~analysis ~block ~vl ~repairs b req )
  | Graph.Cmp (c, a, b) ->
    Graph.Cmp
      ( c,
        rebuild ~analysis ~block ~vl ~repairs a req,
        rebuild ~analysis ~block ~vl ~repairs b req )
  | Graph.Sel (m, a, b) ->
    (* (C.3) is ternary for vsel: mask and both arms at the context offset. *)
    Graph.Sel
      ( rebuild ~analysis ~block ~vl ~repairs m req,
        rebuild ~analysis ~block ~vl ~repairs a req,
        rebuild ~analysis ~block ~vl ~repairs b req )
  | Graph.Shift (src, from_old, _) ->
    (* The shift absorbs the requirement: its source is rebuilt against
       the old intermediate offset renumbered at V′ (leaves instead keep
       their natural offset — the shift's [from] end is recomputed from
       whatever the source now produces). *)
    let src' =
      if is_leaf src then src
      else rebuild ~analysis ~block ~vl ~repairs src (map_offset ~vl from_old)
    in
    let from = Graph.offset_of ~analysis src' in
    if Offset.is_any from then src' (* splat-only subtree: shift is moot *)
    else if Offset.matches ~block from req then begin
      incr repairs;
      (* no-op at V′ *)
      src'
    end
    else if supported_direction ~from ~to_:req then Graph.Shift (src', from, req)
    else unsupported from req

(* One statement: preserve/repair the placed graph, or re-place it. *)
let retarget_graph ~analysis ~fallback (stmt : Ast.stmt) (g : Graph.t) :
    Graph.t * status =
  let block = analysis.Analysis.block in
  let vl = Machine.vector_len analysis.Analysis.machine in
  let target = Policy.target_offset ~analysis stmt in
  let replace () =
    let p = Simd_opt.Place.place_with_fallback fallback ~analysis stmt in
    (p.Simd_opt.Place.graph, Replaced p.Simd_opt.Place.used)
  in
  let repairs = ref 0 in
  match
    (* The mask stream is renumbered exactly like the value stream: it must
       reach the store offset at V′ (the (C.2) analogue for masks). *)
    ( rebuild ~analysis ~block ~vl ~repairs g.Graph.root target,
      Option.map
        (fun m -> rebuild ~analysis ~block ~vl ~repairs m target)
        g.Graph.mask )
  with
  | exception (Unsupported _ | Graph.Invalid _) -> replace ()
  | root, mask -> (
    let g' =
      { Graph.store = stmt.Ast.lhs; store_offset = target; root; block; mask }
    in
    match Graph.validate ~analysis g' with
    | Ok () -> (g', if !repairs = 0 then Preserved else Repaired !repairs)
    | Error _ -> replace ())

(* ------------------------------------------------------------------ *)
(* Whole-compilation retarget                                          *)
(* ------------------------------------------------------------------ *)

let retarget ~vector_len (o : Driver.outcome) : (t, Driver.reason) result =
  let from_vl = Machine.vector_len o.Driver.config.Driver.machine in
  let machine =
    Machine.with_costs
      (Machine.costs o.Driver.config.Driver.machine)
      (Machine.create ~vector_len)
  in
  (* Peeling applicability is V-dependent; a retarget never re-asserts the
     baseline's claim. *)
  let config = { o.Driver.config with Driver.machine; peel_baseline = false } in
  (* [o.analysis.program] is the program the graphs were placed for
     (post-reassociation when that ran), so placement inputs line up. *)
  let program = o.Driver.analysis.Analysis.program in
  match Analysis.check ~machine program with
  | Error e -> Error (Driver.Illegal e)
  | Ok analysis -> (
    let fallback =
      (* [Joint] is a whole-body placement; the per-statement fallback
         uses the exact solver instead. *)
      match config.Driver.policy with
      | Policy.Joint -> Policy.Optimal
      | p -> p
    in
    let retarget_stmt (stmt, g) used =
      let g', status = retarget_graph ~analysis ~fallback stmt g in
      let used' = match status with Replaced p -> p | _ -> used in
      ((stmt, g', used'), status)
    in
    let replace (stmt, _, _) =
      let p = Simd_opt.Place.place_with_fallback fallback ~analysis stmt in
      ((stmt, p.Simd_opt.Place.graph, p.Simd_opt.Place.used),
       Replaced p.Simd_opt.Place.used)
    in
    let lower placed = Driver.lower ~check:true config ~analysis placed in
    let finish statuses = function
      | Ok outcome -> Ok { outcome; statuses; from_vl; to_vl = vector_len }
      | Error (Gen.Trip_too_small { trip; needed }) ->
        Error (Driver.Trip_too_small { trip; needed })
      | Error (Gen.Unsupported_shift msg) ->
        invalid_arg ("Retarget.retarget: unexpected shift failure: " ^ msg)
    in
    let placed, statuses =
      List.split (List.map2 retarget_stmt o.Driver.graphs o.Driver.policies_used)
    in
    (* First try the preserved/repaired graphs; if lowering still rejects
       a shift direction (a preserved structure [Gen] cannot lower at V′),
       re-place every statement — the same totality the driver relies
       on. *)
    match lower placed with
    | Error (Gen.Unsupported_shift _) ->
      let placed, statuses = List.split (List.map replace placed) in
      finish statuses (lower placed)
    | lowered -> finish statuses lowered)

let retarget_exn ~vector_len o =
  match retarget ~vector_len o with
  | Ok t -> t
  | Error r ->
    invalid_arg (Format.asprintf "Retarget.retarget_exn: %a" Driver.pp_reason r)

let sweep ?(vector_lens = supported_vls) (o : Driver.outcome) =
  List.map (fun vl -> (vl, retarget ~vector_len:vl o)) vector_lens

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let counts (t : t) =
  List.fold_left
    (fun (p, r, x) -> function
      | Preserved -> (p + 1, r, x)
      | Repaired _ -> (p, r + 1, x)
      | Replaced _ -> (p, r, x + 1))
    (0, 0, 0) t.statuses

let to_json (t : t) =
  let preserved, repaired, replaced = counts t in
  let report = Driver.report t.outcome in
  Json.Obj
    [
      ("from_vl", Json.Int t.from_vl);
      ("to_vl", Json.Int t.to_vl);
      ( "statuses",
        Json.List
          (List.map
             (fun st -> Json.String (Format.asprintf "%a" pp_status st))
             t.statuses) );
      ("preserved", Json.Int preserved);
      ("repaired", Json.Int repaired);
      ("replaced", Json.Int replaced);
      ( "check_errors",
        Json.Int (List.length (Driver.check_violations t.outcome)) );
      ("cost", Json.Float report.Simd_opt.Report.total_cost);
      ("body_cost", Json.Float report.Simd_opt.Report.body_cost);
    ]
