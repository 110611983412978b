(* The static verifier. See the interface for the invariant catalogue and
   docs/CHECK.md for the rule-by-rule derivations. *)

open Simd_loopir
open Simd_vir
module Graph = Simd_dreorg.Graph
module Util = Simd_support.Util
module Json = Simd_support.Json
module SM = Util.String_map
module SS = Util.String_set
module Absoff = Simd_dataflow.Absoff
module Dataflow = Simd_dataflow.Dataflow
module Offsets = Dataflow.Offsets

type violation = { rule : string; where : string; detail : string }

type facts = {
  ops_proved : int;
  stores_proved : int;
  shifts_proved : int;
  seams_proved : int;
}

type result = { violations : violation list; facts : facts }

let no_facts =
  { ops_proved = 0; stores_proved = 0; shifts_proved = 0; seams_proved = 0 }

let add_facts a b =
  {
    ops_proved = a.ops_proved + b.ops_proved;
    stores_proved = a.stores_proved + b.stores_proved;
    shifts_proved = a.shifts_proved + b.shifts_proved;
    seams_proved = a.seams_proved + b.seams_proved;
  }

let pp_violation fmt v =
  Format.fprintf fmt "error[%s] %s: %s" v.rule v.where v.detail

let violation_to_string v = Format.asprintf "%a" pp_violation v

let violation_to_json ~boundary v =
  Json.Obj
    [
      ("boundary", Json.String boundary);
      ("rule", Json.String v.rule);
      ("where", Json.String v.where);
      ("detail", Json.String v.detail);
    ]

let facts_to_json f =
  Json.Obj
    [
      ("ops_proved", Json.Int f.ops_proved);
      ("stores_proved", Json.Int f.stores_proved);
      ("shifts_proved", Json.Int f.shifts_proved);
      ("seams_proved", Json.Int f.seams_proved);
    ]

(* ------------------------------------------------------------------ *)
(* Checker context                                                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  analysis : Analysis.t;
  off : Offsets.ctx;
      (** geometry, base alignments, and whether MemNorm made
          known-aligned load offsets opaque *)
  mutable viols : violation list;  (* reversed *)
  mutable ops_proved : int;
  mutable stores_proved : int;
  mutable shifts_proved : int;
  mutable seams_proved : int;
}

let make_ctx ?(loads_normalized = false) (analysis : Analysis.t) =
  let lookup arr =
    match Ast.find_array analysis.Analysis.program arr with
    | Some { Ast.arr_align = Ast.Known k; _ } -> Some k
    | Some { Ast.arr_align = Ast.Unknown; _ } | None -> None
  in
  {
    analysis;
    off =
      {
        Offsets.v = Simd_machine.Config.vector_len analysis.Analysis.machine;
        elem = analysis.Analysis.elem;
        lookup;
        opaque_loads = loads_normalized;
      };
    viols = [];
    ops_proved = 0;
    stores_proved = 0;
    shifts_proved = 0;
    seams_proved = 0;
  }

let report ctx ~rule ~where detail =
  ctx.viols <- { rule; where; detail } :: ctx.viols

let result_of_ctx ctx =
  {
    violations = List.rev ctx.viols;
    facts =
      {
        ops_proved = ctx.ops_proved;
        stores_proved = ctx.stores_proved;
        shifts_proved = ctx.shifts_proved;
        seams_proved = ctx.seams_proved;
      };
  }

(* A store address's stream offset. Store addresses are never rewritten by
   MemNorm: the address itself carries the alignment (C.2) is stated
   against. *)
let addr_off ctx (a : Addr.t) =
  Absoff.of_addr ~v:ctx.off.v ~elem:ctx.off.elem ~lookup:ctx.off.lookup a

(* ------------------------------------------------------------------ *)
(* Graph-level checks: (C.2)/(C.3) re-validation                       *)
(* ------------------------------------------------------------------ *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec count_graph_ops = function
  | Graph.Load _ | Graph.Strided _ | Graph.Splat _ -> 0
  | Graph.Op (_, a, b) | Graph.Cmp (_, a, b) ->
    1 + count_graph_ops a + count_graph_ops b
  | Graph.Sel (m, a, b) ->
    1 + count_graph_ops m + count_graph_ops a + count_graph_ops b
  | Graph.Shift (src, _, _) -> count_graph_ops src

let check_graphs ~analysis graphs =
  let ctx = make_ctx analysis in
  List.iteri
    (fun i ((_stmt : Ast.stmt), (g : Graph.t)) ->
      match Graph.validate ~analysis g with
      | Ok () ->
        (* [validate] discharged (C.2) for the root and (C.3) at every
           op/shift of this graph. *)
        ctx.stores_proved <- ctx.stores_proved + 1;
        ctx.ops_proved <- ctx.ops_proved + count_graph_ops g.Graph.root;
        ctx.shifts_proved <- ctx.shifts_proved + Graph.graph_shift_count g
      | Error msg ->
        let rule = if contains_sub ~sub:"(C.2)" msg then "C.2" else "C.3" in
        report ctx ~rule ~where:(Printf.sprintf "graph#%d" i) msg)
    graphs;
  result_of_ctx ctx

(* ------------------------------------------------------------------ *)
(* VIR-level abstract interpretation                                   *)
(* ------------------------------------------------------------------ *)

(* Compile-time shift amounts and splice points must be in-register byte
   counts; shift amounts must also be whole elements (the analysis rejects
   sub-element base alignments, so every stream offset is a multiple of
   D). Runtime amounts are checked structurally: Mod_const moduli must be
   positive. *)
let rec range_check_rexpr ctx ~where ~kind r =
  (match r with
  | Rexpr.Mod_const (_, m) when m <= 0 ->
    report ctx ~rule:"range" ~where
      (Format.asprintf "%s %a has non-positive modulus %d" kind Rexpr.pp r m)
  | _ -> ());
  match r with
  | Rexpr.Const _ | Rexpr.Offset_of _ | Rexpr.Trip | Rexpr.Counter -> ()
  | Rexpr.Add (a, b) | Rexpr.Sub (a, b) ->
    range_check_rexpr ctx ~where ~kind a;
    range_check_rexpr ctx ~where ~kind b
  | Rexpr.Mul_const (a, _) | Rexpr.Mod_const (a, _) ->
    range_check_rexpr ctx ~where ~kind a

let range_check_amount ctx ~where ~kind ~elem_multiple r =
  range_check_rexpr ctx ~where ~kind r;
  if Rexpr.is_const r then begin
    let c = Rexpr.const_exn r in
    if c < 0 || c > ctx.off.v then
      report ctx ~rule:"range" ~where
        (Printf.sprintf "%s %d out of range [0, %d]" kind c ctx.off.v)
    else if elem_multiple && c mod ctx.off.elem <> 0 then
      report ctx ~rule:"range" ~where
        (Printf.sprintf "%s %d is not a multiple of the element width %d"
           kind c ctx.off.elem)
  end

(* The vshiftpair adjacency discipline: the two operands must be the
   current and next V-byte register of one stream — structurally identical
   except for load addresses, which must pair up within one array, same
   stride, exactly one block apart. Operands containing temporaries are
   carried-register protocols (software pipelining); their adjacency is
   established where the temps are defined, so they are skipped here. *)
let rec vexpr_has_temp = function
  | Expr.Temp _ -> true
  | Expr.Load _ | Expr.Splat _ -> false
  | Expr.Op (_, a, b) | Expr.Pack (a, b) | Expr.Cmp (_, a, b) ->
    vexpr_has_temp a || vexpr_has_temp b
  | Expr.Shiftpair (a, b, _) | Expr.Splice (a, b, _) ->
    vexpr_has_temp a || vexpr_has_temp b
  | Expr.Sel (m, a, b) ->
    vexpr_has_temp m || vexpr_has_temp a || vexpr_has_temp b

let adjacency_check ctx ~where x y =
  let ok = ref true in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        if !ok then begin
          ok := false;
          report ctx ~rule:"adjacency" ~where msg
        end)
      fmt
  in
  (* Runtime shift amounts of the two halves are one iteration apart
     textually ([Offset_of] of counter-displaced addresses) but must
     denote the same value mod V — whole-register displacements vanish.
     Fail only on a provable difference. *)
  let lock_amount kind s1 s2 =
    if not (Rexpr.equal s1 s2) then
      match
        Absoff.cmp ~v:ctx.off.v
          (Offsets.eval_rexpr ctx.off s1)
          (Offsets.eval_rexpr ctx.off s2)
      with
      | Absoff.Refuted ->
        fail "vshiftpair halves' %s %a and %a provably differ" kind Rexpr.pp
          s1 Rexpr.pp s2
      | Absoff.Proved | Absoff.Unknown -> ()
  in
  let rec lock a b =
    match (a, b) with
    | Expr.Load p, Expr.Load q ->
      (* Two legitimate register distances: V bytes when the shiftpair
         advances the raw array stream (stride-one streams, and the
         inner gather combines of a strided stream), and [scale * V]
         bytes when it advances a packed strided stream (one packed
         register consumes [scale] raw registers). Counter-free
         addresses (scale 0, specialized epilogues) lost the original
         stride, so any positive whole number of registers is accepted
         there. *)
      let v = ctx.off.v in
      let delta_bytes = (q.Addr.offset - p.Addr.offset) * ctx.off.elem in
      let adjacent =
        if p.Addr.scale >= 1 then
          delta_bytes = v || delta_bytes = p.Addr.scale * v
        else delta_bytes > 0 && delta_bytes mod v = 0
      in
      if
        not
          (p.Addr.array = q.Addr.array
          && p.Addr.scale = q.Addr.scale
          && adjacent)
      then
        fail "vshiftpair halves %s and %s are not adjacent registers"
          (Addr.to_string p) (Addr.to_string q)
    | Expr.Splat e1, Expr.Splat e2 when Ast.equal_expr e1 e2 -> ()
    | Expr.Op (o1, a1, b1), Expr.Op (o2, a2, b2) when o1 = o2 ->
      lock a1 a2;
      lock b1 b2
    | Expr.Shiftpair (a1, b1, s1), Expr.Shiftpair (a2, b2, s2) ->
      lock_amount "vshiftpair amounts" s1 s2;
      lock a1 a2;
      lock b1 b2
    | Expr.Splice (a1, b1, s1), Expr.Splice (a2, b2, s2) ->
      lock_amount "vsplice points" s1 s2;
      lock a1 a2;
      lock b1 b2
    | Expr.Pack (a1, b1), Expr.Pack (a2, b2) ->
      lock a1 a2;
      lock b1 b2
    | Expr.Cmp (c1, a1, b1), Expr.Cmp (c2, a2, b2) when c1 = c2 ->
      lock a1 a2;
      lock b1 b2
    | Expr.Sel (m1, a1, b1), Expr.Sel (m2, a2, b2) ->
      lock m1 m2;
      lock a1 a2;
      lock b1 b2
    | _ -> fail "vshiftpair halves are structurally dissimilar"
  in
  if not (vexpr_has_temp x || vexpr_has_temp y) then begin
    lock x y;
    if !ok then ctx.shifts_proved <- ctx.shifts_proved + 1
  end

(* Abstract-interpreter state threaded through a region. *)
type xstate = {
  env : Absoff.t SM.t;  (** temp -> abstract stream offset *)
  defs : Expr.vexpr SM.t;  (** temp -> defining expression *)
  defined : SS.t;  (** temps defined so far (def-before-use) *)
}

let empty_state = { env = SM.empty; defs = SM.empty; defined = SS.empty }

(* (C.3) for a lane-wise node: its operands must sit at one stream offset.
   [count] marks the nodes whose proof counts as an op obligation. *)
let lanewise ctx ~where ~count oa ob describe =
  match Absoff.cmp ~v:ctx.off.v oa ob with
  | Absoff.Refuted -> report ctx ~rule:"C.3" ~where (describe ())
  | Absoff.Proved -> if count then ctx.ops_proved <- ctx.ops_proved + 1
  | Absoff.Unknown -> ()

(* The proof obligations of one VIR node. [Offsets.eval] calls this on
   every node post-order, with the operands' offsets [os] in operand
   order, so the checked walk computes each offset exactly once. *)
let obligations ctx ~check_defs ~where st (e : Expr.vexpr) os =
  match (e, os) with
  | Expr.Temp x, _ ->
    if check_defs && not (SS.mem x st.defined) then
      report ctx ~rule:"def-before-use" ~where
        (Printf.sprintf "temporary %s is read before any definition" x)
  | Expr.Op (op, _, _), [ oa; ob ] ->
    lanewise ctx ~where ~count:true oa ob (fun () ->
        Format.asprintf "operands of v%s at offsets %a vs %a violate (C.3)"
          (Pp.binop_symbol op) Absoff.pp oa Absoff.pp ob)
  | Expr.Cmp (c, _, _), [ oa; ob ] ->
    (* A vcmp is lane-wise like a vop: (C.3) is the same obligation, and
       the mask it produces inherits the common stream offset. *)
    lanewise ctx ~where ~count:true oa ob (fun () ->
        Format.asprintf "operands of vcmp_%s at offsets %a vs %a violate (C.3)"
          (Simd_machine.Lane.cmp_name c) Absoff.pp oa Absoff.pp ob)
  | Expr.Shiftpair (x, y, s), _ when Expr.equal_vexpr x y ->
    (* register rotation: only the amount is an obligation *)
    range_check_amount ctx ~where ~kind:"vshiftpair amount"
      ~elem_multiple:true s
  | Expr.Shiftpair (x, y, s), [ ox; oy ] ->
    lanewise ctx ~where ~count:false ox oy (fun () ->
        Format.asprintf
          "vshiftpair halves at offsets %a vs %a are not one stream" Absoff.pp
          ox Absoff.pp oy);
    adjacency_check ctx ~where x y;
    range_check_amount ctx ~where ~kind:"vshiftpair amount"
      ~elem_multiple:true s
  | Expr.Splice (_, _, p), [ ox; oy ] ->
    lanewise ctx ~where ~count:false ox oy (fun () ->
        Format.asprintf "vsplice operands at offsets %a vs %a violate (C.3)"
          Absoff.pp ox Absoff.pp oy);
    range_check_amount ctx ~where ~kind:"vsplice point" ~elem_multiple:false p
  | Expr.Sel _, [ om; oa; ob ] ->
    (* (C.3) is ternary for vsel: the mask and both arms must sit at one
       common offset, or lanes blend values from different iterations. *)
    let cmps =
      List.map
        (fun (x, y) -> Absoff.cmp ~v:ctx.off.v x y)
        [ (om, oa); (om, ob); (oa, ob) ]
    in
    if List.mem Absoff.Refuted cmps then
      report ctx ~rule:"C.3" ~where
        (Format.asprintf
           "operands of vsel at offsets %a / %a / %a violate (C.3)" Absoff.pp
           om Absoff.pp oa Absoff.pp ob)
    else if List.for_all (( = ) Absoff.Proved) cmps then
      ctx.ops_proved <- ctx.ops_proved + 1
  | _ -> ()

let stmt_label s =
  let full = Format.asprintf "%a" (Prog.pp_stmt ~indent:0) s in
  match String.index_opt full '\n' with
  | Some i -> String.sub full 0 i ^ " ..."
  | None -> full

(* Join at an [If]: keep what both branches agree on; a temp defined on
   either branch counts as defined. The join is optimistic because the
   arms are alternatives realizing one slot, and the verifier reports
   only what it can refute, never what it merely cannot prove. *)
let join_xstate ctx st_t st_f =
  {
    env = Dataflow.join_env ~v:ctx.off.v st_t.env st_f.env;
    defs = SM.union (fun _ a _ -> Some a) st_t.defs st_f.defs;
    defined = SS.union st_t.defined st_f.defined;
  }

(* (C.2): a stored stream's root offset must be the store alignment. *)
let store_c2 ctx ~where ov oa =
  match Absoff.cmp ~v:ctx.off.v ov oa with
  | Absoff.Refuted ->
    report ctx ~rule:"C.2" ~where
      (Format.asprintf "root offset %a does not match store alignment %a (C.2)"
         Absoff.pp ov Absoff.pp oa)
  | Absoff.Proved -> ctx.stores_proved <- ctx.stores_proved + 1
  | Absoff.Unknown -> ()

let exec_leaf ctx ~check_defs ~region ~idx st (s : Expr.stmt) : xstate =
  let where = Printf.sprintf "%s#%d (%s)" region idx (stmt_label s) in
  let visit e os = obligations ctx ~check_defs ~where st e os in
  let eval e = Offsets.eval ~visit ctx.off st.env e in
  match s with
  | Expr.Store (addr, value) ->
    store_c2 ctx ~where (eval value) (addr_off ctx addr);
    st
  | Expr.Storem (addr, value, mask) ->
    let ov = eval value in
    let om = eval mask in
    let oa = addr_off ctx addr in
    store_c2 ctx ~where ov oa;
    (* The (C.2) analogue for masks: a mask lane guards the store lane at
       the same stream position, so the mask stream must reach the store
       alignment too. *)
    (match Absoff.cmp ~v:ctx.off.v om oa with
    | Absoff.Refuted ->
      report ctx ~rule:"C.2" ~where
        (Format.asprintf
           "mask offset %a does not match store alignment %a ((C.2) for \
            masks)"
           Absoff.pp om Absoff.pp oa)
    | Absoff.Proved | Absoff.Unknown -> ());
    st
  | Expr.Assign (x, e) ->
    let o = eval e in
    {
      env = SM.add x o st.env;
      defs = SM.add x e st.defs;
      defined = SS.add x st.defined;
    }
  | Expr.If _ ->
    (* guards are handled structurally by [Dataflow.forward] *)
    st

(* Range-check the guard operands of an [If] before its branches run. *)
let guard_checks ctx ~region ~idx (_ : xstate) (s : Expr.stmt) =
  match s with
  | Expr.If (c, _, _) ->
    let where = Printf.sprintf "%s#%d (%s)" region idx (stmt_label s) in
    let a, b =
      match c with
      | Rexpr.Ge (a, b) | Rexpr.Gt (a, b) | Rexpr.Le (a, b) | Rexpr.Lt (a, b)
        ->
        (a, b)
    in
    range_check_rexpr ctx ~where ~kind:"guard operand" a;
    range_check_rexpr ctx ~where ~kind:"guard operand" b
  | _ -> ()

let exec_region ctx ~check_defs ~region st stmts =
  Dataflow.forward
    ~leaf:(fun ~idx st s -> exec_leaf ctx ~check_defs ~region ~idx st s)
    ~guard:(fun ~idx st s -> guard_checks ctx ~region ~idx st s)
    ~join:(join_xstate ctx) ~idx0:0 st stmts

(* ------------------------------------------------------------------ *)
(* Body well-formedness: the carried-temp seam discipline               *)
(* ------------------------------------------------------------------ *)

(* A temp that is live into the body (read before any body definition)
   names a loop-carried register, which the prologue must initialize.
   The carried-temp discovery is the reaching-definitions analysis of the
   dataflow library; the seam *semantics* under unrolling are verified
   separately by {!check_unroll}'s translation validation. *)
let body_wf ctx ~prologue_defined body =
  List.iter
    (fun (c : Dataflow.Reach.carried) ->
      if not (SS.mem c.ca_name prologue_defined) then
        report ctx ~rule:"def-before-use"
          ~where:(Printf.sprintf "body#%d" c.ca_first_read)
          (Printf.sprintf
             "loop-carried temporary %s is read before any definition (not \
              initialized by the prologue)"
             c.ca_name))
    (Dataflow.Reach.carried_temps body)

(* ------------------------------------------------------------------ *)
(* Unroll translation validation                                       *)
(* ------------------------------------------------------------------ *)

(* Value-numbering keys: symbolic values over loads at concrete
   (displaced) addresses, splats, and the live-in values of carried
   temporaries. Sharing keeps the representation linear in the body size
   where explicit substitution would blow up on deep carry chains. *)
type vn_key =
  | K_init of string  (** value a temporary carries into the body *)
  | K_load of Addr.t
  | K_splat of Ast.expr
  | K_op of Ast.binop * int * int
  | K_shiftpair of int * int * Rexpr.t
  | K_splice of int * int * Rexpr.t
  | K_pack of int * int
  | K_cmp of Simd_machine.Lane.cmp * int * int
  | K_sel of int * int * int
  | K_masked of int * int
      (** a masked store's observable value: (value, mask) *)

(* [check_unroll] validates the unroll pass semantically: executing the
   unrolled body once must leave every loop-carried temporary holding the
   same symbolic value as executing the original body [factor] times
   (instance [j] advanced [j*block] iterations), and must perform the
   same stores in the same order. This is the invariant the seam-restore
   coalescer can break (the PR-1 carry-chain miscompilation): renaming a
   definition onto a carried name another seam restore still reads makes
   that restore observe the overwritten value — a divergence no
   per-statement offset check can see, because the clobbering value sits
   at the same stream offset mod V. *)
let check_unroll ~analysis ~factor ~(pre : Expr.stmt list)
    ~(post : Expr.stmt list) : result =
  let ctx = make_ctx analysis in
  let has_if = List.exists (function Expr.If _ -> true | _ -> false) in
  if factor <= 1 || has_if pre || has_if post then result_of_ctx ctx
  else begin
    let table : (vn_key, int) Hashtbl.t = Hashtbl.create 256 in
    let next = ref 0 in
    let vn key =
      match Hashtbl.find_opt table key with
      | Some id -> id
      | None ->
        let id = !next in
        incr next;
        Hashtbl.add table key id;
        id
    in
    (* Both executions share one table, so equal value numbers mean
       structurally equal (fully substituted) expressions. *)
    let eval env ~disp e =
      let rec go e =
        match e with
        | Expr.Temp x -> (
          match SM.find_opt x env with
          | Some id -> id
          | None -> vn (K_init x))
        | Expr.Load a -> vn (K_load (Addr.shift_iter a ~by:disp))
        | Expr.Splat s -> vn (K_splat s)
        | Expr.Op (op, a, b) -> vn (K_op (op, go a, go b))
        | Expr.Shiftpair (a, b, s) ->
          vn (K_shiftpair (go a, go b, Expr.shift_iter_rexpr s ~by:disp))
        | Expr.Splice (a, b, p) ->
          vn (K_splice (go a, go b, Expr.shift_iter_rexpr p ~by:disp))
        | Expr.Pack (a, b) -> vn (K_pack (go a, go b))
        | Expr.Cmp (c, a, b) -> vn (K_cmp (c, go a, go b))
        | Expr.Sel (m, a, b) -> vn (K_sel (go m, go a, go b))
      in
      go e
    in
    let run stmts ~disps =
      List.fold_left
        (fun acc disp ->
          List.fold_left
            (fun (env, stores) s ->
              match s with
              | Expr.Assign (x, e) -> (SM.add x (eval env ~disp e) env, stores)
              | Expr.Store (a, e) ->
                ( env,
                  (Addr.shift_iter a ~by:disp, eval env ~disp e) :: stores )
              | Expr.Storem (a, e, m) ->
                ( env,
                  ( Addr.shift_iter a ~by:disp,
                    vn (K_masked (eval env ~disp e, eval env ~disp m)) )
                  :: stores )
              | Expr.If _ -> (env, stores))
            acc stmts)
        (SM.empty, []) disps
    in
    let ref_env, ref_stores =
      run pre
        ~disps:(List.init factor (fun j -> j * analysis.Analysis.block))
    in
    let post_env, post_stores = run post ~disps:[ 0 ] in
    let ref_stores = List.rev ref_stores
    and post_stores = List.rev post_stores in
    (* Loop-carried temporaries: read before any definition in the
       original body. Each must end the unrolled body holding the value
       [factor] original iterations would have left in it. *)
    let live_in =
      List.map
        (fun c -> c.Dataflow.Reach.ca_name)
        (Dataflow.Reach.carried_temps pre)
    in
    let final env x =
      match SM.find_opt x env with Some id -> id | None -> vn (K_init x)
    in
    List.iter
      (fun x ->
        if final ref_env x = final post_env x then
          ctx.seams_proved <- ctx.seams_proved + 1
        else
          report ctx ~rule:"carried-clobber" ~where:"body"
            (Printf.sprintf
               "loop-carried temporary %s does not hold its protocol value \
                after the unrolled body (factor %d) — a seam restore was \
                coalesced over a live carry"
               x factor))
      live_in;
    (if List.length ref_stores <> List.length post_stores then
       report ctx ~rule:"unroll-equiv" ~where:"body"
         (Printf.sprintf
            "unrolled body performs %d stores where %d iterations of the \
             original body perform %d"
            (List.length post_stores) factor (List.length ref_stores))
     else
       List.iteri
         (fun k ((ra, rv), (pa, pv)) ->
           if not (Addr.equal ra pa && rv = pv) then
             report ctx ~rule:"unroll-equiv"
               ~where:(Printf.sprintf "body store#%d" k)
               (Format.asprintf
                  "unrolled store to %a diverges from the original body's \
                   store to %a"
                  Addr.pp pa Addr.pp ra))
         (List.combine ref_stores post_stores));
    result_of_ctx ctx
  end

(* ------------------------------------------------------------------ *)
(* Region driver                                                        *)
(* ------------------------------------------------------------------ *)

let run_regions ctx ~prologue ~body ~epilogues =
  let stp =
    exec_region ctx ~check_defs:true ~region:"prologue" empty_state prologue
  in
  body_wf ctx ~prologue_defined:stp.defined body;
  (* The loop-entry environment is the offset analysis's widened
     fixpoint. The checked body pass evaluates with the same
     [Offsets.eval], so it sees exactly the environment the fixpoint
     settled on. Reads of temps defined later in the body are legal
     exactly for the carried names [body_wf] vets, so this pass runs
     def-check-free. *)
  let entry = Offsets.entry ctx.off stp.env body in
  let stb =
    exec_region ctx ~check_defs:false ~region:"body"
      { stp with env = entry } body
  in
  let _ =
    List.fold_left
      (fun (st, k) seg ->
        ( exec_region ctx ~check_defs:true
            ~region:(Printf.sprintf "epilogue[%d]" k) st seg,
          k + 1 ))
      (stb, 0) epilogues
  in
  stb

let check_regions ~analysis ?(loads_normalized = false) ~prologue ~body
    ~epilogues () =
  let ctx = make_ctx ~loads_normalized analysis in
  let _ = run_regions ctx ~prologue ~body ~epilogues in
  result_of_ctx ctx

(* ------------------------------------------------------------------ *)
(* Whole-program structural checks (Eqs. 8-16)                          *)
(* ------------------------------------------------------------------ *)

let epi_splice_elems ~v ~elem ~store_off ~trip =
  Util.pos_mod (store_off + (trip * elem)) v / elem

let trip_const_of (p : Prog.t) =
  match p.Prog.source.Ast.loop.Ast.trip with
  | Ast.Trip_const n -> Some n
  | Ast.Trip_param _ -> None

(* Recompute the steady-loop bounds from the source program (Eqs. 12/13/15)
   and compare with what codegen recorded. *)
let check_bounds ctx (p : Prog.t) =
  let where = "bounds" in
  if p.Prog.lower <> p.Prog.block then
    report ctx ~rule:"bounds" ~where
      (Printf.sprintf "steady lower bound %d is not the block size %d (Eq. 12)"
         p.Prog.lower p.Prog.block);
  if p.Prog.min_trip <> 3 * p.Prog.block then
    report ctx ~rule:"bounds" ~where
      (Printf.sprintf "trip guard %d is not 3B = %d (Eq. 16)" p.Prog.min_trip
         (3 * p.Prog.block));
  let store_offsets =
    List.map
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Reduce _ -> Align.Known 0
        | Ast.Assign -> Analysis.offset_of ctx.analysis s.Ast.lhs)
      p.Prog.source.Ast.loop.Ast.body
  in
  let expected =
    match trip_const_of p with
    | Some trip when List.for_all Align.is_known store_offsets ->
      let max_epi =
        List.fold_left
          (fun acc o ->
            max acc
              (epi_splice_elems ~v:ctx.off.v ~elem:ctx.off.elem
                 ~store_off:(Align.known_exn o) ~trip))
          0 store_offsets
      in
      Prog.B_const (trip - max_epi)
    | _ -> Prog.B_trip_minus (ctx.analysis.Analysis.block - 1)
  in
  if not (Prog.equal_bound p.Prog.upper expected) then
    report ctx ~rule:"bounds" ~where
      (Format.asprintf
         "steady upper bound %a does not match the Eq. 13/15 recomputation \
          %a"
         Prog.pp_bound p.Prog.upper Prog.pp_bound expected);
  if p.Prog.epilogues <> [] then begin
    let n = List.length p.Prog.epilogues in
    if n <> p.Prog.unroll + 1 then
      report ctx ~rule:"bounds" ~where
        (Printf.sprintf
           "%d epilogue segments for unroll factor %d (need unroll + 1 \
            virtual iterations)"
           n p.Prog.unroll)
  end

let check_peel ctx peel_amount (p : Prog.t) =
  List.iter
    (fun (r : Ast.mem_ref) ->
      match Analysis.offset_of ctx.analysis r with
      | Align.Runtime ->
        report ctx ~rule:"peel" ~where:"peel"
          (Printf.sprintf
             "peeling baseline chose %d iterations but %s has a runtime \
              alignment"
             peel_amount r.Ast.ref_array)
      | Align.Known o ->
        if Util.pos_mod (o + (peel_amount * ctx.off.elem)) ctx.off.v <> 0 then
          report ctx ~rule:"peel" ~where:"peel"
            (Printf.sprintf
               "peeling %d iterations leaves %s misaligned (offset %d, \
                residue %d)"
               peel_amount r.Ast.ref_array o
               (Util.pos_mod (o + (peel_amount * ctx.off.elem)) ctx.off.v)))
    (Ast.program_refs p.Prog.source)

(* Chase a temp through its (straight-line) defining expressions. *)
let resolve defs e =
  let rec go n e =
    match e with
    | Expr.Temp x when n > 0 -> (
      match SM.find_opt x defs with Some e' -> go (n - 1) e' | None -> e)
    | e -> e
  in
  go 8 e

(* Eq. 8: a prologue store either writes a fully aligned stream (offset
   provably 0) or splices the new bytes in above the store alignment. *)
let check_prologue_splices ctx defs prologue =
  List.iteri
    (fun i s ->
      match s with
      | Expr.Store (addr, value) | Expr.Storem (addr, value, _) -> (
        let where = Printf.sprintf "prologue#%d (%s)" i (stmt_label s) in
        let oa = addr_off ctx addr in
        match resolve defs value with
        | Expr.Splice (_, _, point) -> (
          match Absoff.cmp ~v:ctx.off.v (Offsets.eval_rexpr ctx.off point) oa with
          | Absoff.Refuted ->
            report ctx ~rule:"prologue" ~where
              (Format.asprintf
                 "prologue splice point %a does not match the store \
                  alignment %a (Eq. 8)"
                 Rexpr.pp point Absoff.pp oa)
          | Absoff.Proved | Absoff.Unknown -> ())
        | _ -> (
          match oa with
          | Absoff.Byte 0 -> ()
          | _ ->
            report ctx ~rule:"prologue" ~where
              (Format.asprintf
                 "unspliced prologue store at alignment %a clobbers bytes \
                  below the stream (Eq. 8)"
                 Absoff.pp oa)))
      | Expr.Assign _ | Expr.If _ -> ())
    prologue

let rec seg_has_if seg =
  List.exists
    (function
      | Expr.If _ -> true
      | Expr.Store _ | Expr.Storem _ | Expr.Assign _ -> false)
    seg
  ||
  List.exists
    (function
      | Expr.If (_, t, f) -> seg_has_if t || seg_has_if f
      | _ -> false)
    seg

(* For a compile-time trip with specialized (guard-free) epilogues, every
   segment's stores must realize Eq. 9/14 exactly: with L = (ub - i)*D + o
   leftover bytes at virtual iteration i, a full store when L >= V, a
   splice at point L when 0 < L < V, and no store when L <= 0. *)
let check_specialized_epilogues ctx defs (p : Prog.t) trip =
  let exit = Prog.exit_counter p ~trip in
  let stored_arrays =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Reduce _ -> None
        | Ast.Assign -> (
          match Analysis.offset_of ctx.analysis s.Ast.lhs with
          | Align.Known o -> Some (s.Ast.lhs.Ast.ref_array, o)
          | Align.Runtime -> None))
      p.Prog.source.Ast.loop.Ast.body
  in
  (* skip arrays stored by more than one statement: ambiguous pairing *)
  let stored_arrays =
    List.filter
      (fun (a, _) ->
        List.length (List.filter (fun (b, _) -> a = b) stored_arrays) = 1)
      stored_arrays
  in
  List.iteri
    (fun k seg ->
      let i = exit + (k * p.Prog.block) in
      List.iter
        (fun (arr, o) ->
          let l = ((trip - i) * ctx.off.elem) + o in
          let where = Printf.sprintf "epilogue[%d]" k in
          let stores =
            List.filter_map
              (function
                | (Expr.Store (addr, value) | Expr.Storem (addr, value, _))
                  when addr.Addr.array = arr ->
                  Some value
                | _ -> None)
              seg
          in
          match stores with
          | [] ->
            if l > 0 then
              report ctx ~rule:"epilogue" ~where
                (Printf.sprintf
                   "no store to %s at virtual iteration i=%d with %d \
                    leftover bytes (Eq. 14)"
                   arr i l)
          | value :: _ -> (
            if l <= 0 then
              report ctx ~rule:"epilogue" ~where
                (Printf.sprintf
                   "store to %s at virtual iteration i=%d past the trip \
                    count (leftover %d bytes)"
                   arr i l)
            else
              match resolve defs value with
              | Expr.Splice (_, _, point) when Rexpr.is_const point ->
                let c = Rexpr.const_exn point in
                if l >= ctx.off.v then
                  report ctx ~rule:"epilogue" ~where
                    (Printf.sprintf
                       "spliced store to %s where %d leftover bytes demand \
                        a full store"
                       arr l)
                else if c <> l then
                  report ctx ~rule:"epilogue" ~where
                    (Printf.sprintf
                       "splice point %d for %s does not match the %d \
                        leftover bytes (Eq. 9)"
                       c arr l)
              | Expr.Splice _ -> ()
              | _ ->
                if l < ctx.off.v then
                  report ctx ~rule:"epilogue" ~where
                    (Printf.sprintf
                       "full store to %s where only %d leftover bytes \
                        remain (Eq. 9)"
                       arr l)))
        stored_arrays)
    p.Prog.epilogues

let check_prog ?peel_amount ?(loads_normalized = false) ~analysis
    (p : Prog.t) =
  let ctx = make_ctx ~loads_normalized analysis in
  let st =
    run_regions ctx ~prologue:p.Prog.prologue ~body:p.Prog.body
      ~epilogues:p.Prog.epilogues
  in
  check_bounds ctx p;
  check_prologue_splices ctx st.defs p.Prog.prologue;
  (match (trip_const_of p, p.Prog.epilogues) with
  | Some trip, _ :: _
    when not (List.exists seg_has_if p.Prog.epilogues) ->
    check_specialized_epilogues ctx st.defs p trip
  | _ -> ());
  (match peel_amount with
  | Some pa -> check_peel ctx pa p
  | None -> ());
  result_of_ctx ctx
