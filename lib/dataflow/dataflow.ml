(* A generic iterative dataflow engine over the emitted vector IR.

   The VIR a compilation produces is three regions — prologue, steady
   body, epilogue segments — of mostly straight-line statements, with
   [If] guards only inside epilogues. Every static fact the verifier and
   the linter need (liveness, carried-temp discipline, reaching
   definitions, available shift expressions, abstract stream offsets) is
   a walk over that shape; this module provides the walks once so
   [Simd.Check], [Simd.Lint] and the [vir_cleanup] pass stop hand-rolling
   them.

   Conventions shared with the checker: statements are numbered by their
   top-level position in the region; statements inside an [If] inherit
   the guard's index (they are alternatives for one slot, and the
   checker's diagnostics already use that numbering). *)

open Simd_vir
module Util = Simd_support.Util
module SM = Util.String_map
module SS = Util.String_set

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(** Forward walk: [leaf ~idx st s] transfers over a non-[If] statement,
    [guard ~idx st s] observes an [If] before its branches run (both
    branches start from the state before the guard, with the guard's
    index), and [join] merges the branch exits. *)
let rec forward ~leaf ~guard ~join ~idx0 st stmts =
  let st, _ =
    List.fold_left
      (fun (st, i) s ->
        let st' =
          match s with
          | Expr.If (_, t, f) ->
            guard ~idx:i st s;
            let st_t = forward ~leaf ~guard ~join ~idx0:i st t in
            let st_f = forward ~leaf ~guard ~join ~idx0:i st f in
            join st_t st_f
          | Expr.Store _ | Expr.Storem _ | Expr.Assign _ -> leaf ~idx:i st s
        in
        (st', i + 1))
      (st, idx0) stmts
  in
  st

(** Backward walk: [leaf out s] transfers over a non-[If] statement;
    an [If]'s in-fact is the [join] of both branches' in-facts (each
    computed against the fact after the [If]). *)
let rec backward ~leaf ~join out stmts =
  List.fold_right
    (fun s out ->
      match s with
      | Expr.If (_, t, f) ->
        join (backward ~leaf ~join out t) (backward ~leaf ~join out f)
      | Expr.Store _ | Expr.Storem _ | Expr.Assign _ -> leaf out s)
    stmts out

(** Bounded Kleene iteration: apply [f] until [equal], at most [rounds]
    times, then force convergence with one [widen] step. Termination
    therefore never depends on the client lattice having finite height —
    only on [widen x (f x)] being a post-fixpoint. *)
let fixpoint ?(rounds = 4) ~equal ~widen ~f x =
  let rec go n x =
    let x' = f x in
    if equal x x' then x else if n = 0 then widen x x' else go (n - 1) x'
  in
  go rounds x

(* Ready-made lattice plumbing for [Absoff] environments (temp name ->
   abstract stream offset), shared by the checker and the offset
   analysis below. *)

let env_equal a b = SM.equal Absoff.equal a b

(** Optimistic join at an [If]: keep what both branches agree on; a
    binding present on only one side survives as-is (the branches are
    alternatives realizing the same slot — this is the checker's
    historical join, false positives being worse than missed lints). *)
let join_env ~v a b =
  SM.merge
    (fun _ a b ->
      match (a, b) with
      | Some a, Some b -> Some (Absoff.merge ~v a b)
      | Some a, None | None, Some a -> Some a
      | None, None -> None)
    a b

(** Widening for the loop-entry fixpoint: any disagreement (or binding
    present on one side only) goes to [Top]. *)
let widen_env prev next =
  SM.merge
    (fun _ a b ->
      match (a, b) with
      | Some a, Some b -> if Absoff.equal a b then Some a else Some Absoff.Top
      | Some _, None | None, Some _ -> Some Absoff.Top
      | None, None -> None)
    prev next

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

module Live = struct
  let add_reads acc e =
    Expr.fold_vexpr
      (fun acc n -> match n with Expr.Temp x -> SS.add x acc | _ -> acc)
      acc e

  let transfer out = function
    | Expr.Assign (x, e) -> add_reads (SS.remove x out) e
    | Expr.Store (_, e) -> add_reads out e
    | Expr.Storem (_, e, m) -> add_reads (add_reads out e) m
    | Expr.If _ -> out (* handled structurally by [backward] *)

  (** Temps live on entry to [stmts] given the live-out set [out]. *)
  let live_in out stmts = backward ~leaf:transfer ~join:SS.union out stmts

  (** Live-out of a loop body whose exit feeds [tail]: the least set
      closed under the back edge, [out = tail ∪ live_in(out, body)].
      [live_in] is monotone, so iterating from [tail] converges. *)
  let loop_out ~body tail =
    let rec go out =
      let out' = SS.union tail (live_in out body) in
      if SS.equal out out' then out else go out'
    in
    go tail

  (** Every temp read anywhere in [stmts]. *)
  let reads_of stmts = Expr.fold_stmts add_reads SS.empty stmts
end

(* ------------------------------------------------------------------ *)
(* Reaching definitions: the carried-temp discipline                   *)
(* ------------------------------------------------------------------ *)

module Reach = struct
  (* Temps read by a statement, in evaluation order (value before mask,
     then-branch before else-branch) — the checker's historical order,
     which fixes the reporting position of carried-temp diagnostics. *)
  let rec stmt_reads acc = function
    | Expr.Store (_, e) | Expr.Assign (_, e) ->
      Expr.fold_vexpr
        (fun acc e -> match e with Expr.Temp x -> x :: acc | _ -> acc)
        acc e
    | Expr.Storem (_, e, m) ->
      let note acc e =
        Expr.fold_vexpr
          (fun acc e -> match e with Expr.Temp x -> x :: acc | _ -> acc)
          acc e
      in
      note (note acc e) m
    | Expr.If (_, t, f) ->
      let acc = List.fold_left stmt_reads acc t in
      List.fold_left stmt_reads acc f

  let stmt_defs = function
    | Expr.Assign (x, _) -> [ x ]
    | Expr.Store _ | Expr.Storem _ -> []
    | Expr.If (_, t, f) -> Expr.temps_written t @ Expr.temps_written f

  (** A loop-carried temporary: read at [ca_first_read] before any body
      definition reaches it. *)
  type carried = { ca_name : string; ca_first_read : int }

  (** The loop-carried temporaries of a body, in first-read order. A
      temp is carried iff its first read is at or before its first
      definition (reads and defs of one statement count the read
      first). *)
  let carried_temps body =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    List.iteri
      (fun i s ->
        List.iter
          (fun x ->
            if not (Hashtbl.mem seen x) then begin
              Hashtbl.add seen x ();
              acc := { ca_name = x; ca_first_read = i } :: !acc
            end)
          (List.rev (stmt_reads [] s));
        List.iter (fun x -> Hashtbl.replace seen x ()) (stmt_defs s))
      body;
    List.rev !acc
end

(* ------------------------------------------------------------------ *)
(* Definition summaries (single-def resolution)                        *)
(* ------------------------------------------------------------------ *)

module Defs = struct
  (** Top-level definition summary of a region: last defining expression,
      first definition index, and definition count per temp. Definitions
      inside [If] branches poison the name (count bumped past 1 and the
      expression dropped) — single-def resolution never looks through a
      guard. *)
  type t = {
    last : Expr.vexpr SM.t;
    first_idx : int SM.t;
    count : int SM.t;
  }

  let scan stmts =
    let bump x i acc ~by ~expr =
      {
        last =
          (match expr with
          | Some e -> SM.add x e acc.last
          | None -> SM.remove x acc.last);
        first_idx =
          (if SM.mem x acc.first_idx then acc.first_idx
           else SM.add x i acc.first_idx);
        count =
          SM.add x
            (by + Option.value ~default:0 (SM.find_opt x acc.count))
            acc.count;
      }
    in
    let t, _ =
      List.fold_left
        (fun (acc, i) s ->
          let acc =
            match s with
            | Expr.Assign (x, e) -> bump x i acc ~by:1 ~expr:(Some e)
            | Expr.If (_, tb, fb) ->
              List.fold_left
                (fun acc x -> bump x i acc ~by:2 ~expr:None)
                acc
                (Expr.temps_written tb @ Expr.temps_written fb)
            | Expr.Store _ | Expr.Storem _ -> acc
          in
          (acc, i + 1))
        ({ last = SM.empty; first_idx = SM.empty; count = SM.empty }, 0)
        stmts
    in
    t

  (** [single_def t x] is [Some (idx, e)] iff [x] has exactly one
      top-level definition [Assign (x, e)] in the region, at index
      [idx]. *)
  let single_def t x =
    match
      (SM.find_opt x t.count, SM.find_opt x t.last, SM.find_opt x t.first_idx)
    with
    | Some 1, Some e, Some i -> Some (i, e)
    | _ -> None

  (** Chase a temporary through single definitions, at most [n] hops
      (structural resolution only — callers owning a value question must
      check evaluation-order safety themselves). *)
  let resolve ?(n = 8) t e =
    let rec go n e =
      match e with
      | Expr.Temp x when n > 0 -> (
        match single_def t x with Some (_, e') -> go (n - 1) e' | None -> e)
      | e -> e
    in
    go n e
end

(* ------------------------------------------------------------------ *)
(* Available expressions: when is a definition still valid at a use?    *)
(* ------------------------------------------------------------------ *)

module Avail = struct
  (** Availability summary of one region: per-index stored-array sets
      plus the definition summary, answering "does the expression [e],
      taken from statement [src], still denote the same value at
      statement [use]?". *)
  type t = { defs : Defs.t; stored : SS.t array; all_stored : SS.t }

  let rec stmt_stored acc = function
    | Expr.Store (a, _) | Expr.Storem (a, _, _) ->
      SS.add a.Addr.array acc
    | Expr.Assign _ -> acc
    | Expr.If (_, t, f) ->
      List.fold_left stmt_stored (List.fold_left stmt_stored acc t) f

  let analyze stmts =
    let arr = Array.of_list stmts in
    let stored = Array.map (fun s -> stmt_stored SS.empty s) arr in
    {
      defs = Defs.scan stmts;
      stored;
      all_stored = Array.fold_left SS.union SS.empty stored;
    }

  (* Arrays stored by statements strictly between [src] and [use]. *)
  let stores_between t ~src ~use =
    let acc = ref SS.empty in
    for k = src + 1 to use - 1 do
      if k >= 0 && k < Array.length t.stored then
        acc := SS.union !acc t.stored.(k)
    done;
    !acc

  (** [safe t ~src ~use e]: every read [e] performs yields the same value
      at statement [use] as at statement [src] (src < use, same region,
      one execution). Temps must be unredefined between the two points
      ([If]-defined names are poisoned by {!Defs.scan}); loads must not
      have their array stored in between. *)
  let safe t ~src ~use e =
    let tainted = stores_between t ~src ~use in
    let ok = ref true in
    ignore
      (Expr.fold_vexpr
         (fun () n ->
           (match n with
           | Expr.Temp z -> (
             match SM.find_opt z t.defs.Defs.count with
             | None -> () (* no definition here: constant over the region *)
             | Some 1 -> (
               match SM.find_opt z t.defs.Defs.first_idx with
               | Some dz when dz < src || dz >= use -> ()
               | _ -> ok := false)
             | Some _ -> ok := false)
           | Expr.Load a ->
             if SS.mem a.Addr.array tainted then ok := false
           | _ -> ());
           ())
         () e);
    !ok

  (** View a shiftpair half as an available compile-time shift: either an
      inline [Shiftpair] (source = the using statement itself) or a temp
      whose single definition before [use] is one. Returns
      [(src, x, y, amount)]. *)
  let as_shift t ~use h =
    match h with
    | Expr.Shiftpair (x, y, s) when Rexpr.is_const s ->
      Some (use, x, y, Rexpr.const_exn s)
    | Expr.Temp z -> (
      match Defs.single_def t.defs z with
      | Some (dz, Expr.Shiftpair (x, y, s))
        when dz < use && Rexpr.is_const s ->
        Some (dz, x, y, Rexpr.const_exn s)
      | _ -> None)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Stream-offset constant propagation                                  *)
(* ------------------------------------------------------------------ *)

module Offsets = struct
  (** The abstract-interpretation context: vector width, element width,
      base-alignment lookup, and whether MemNorm already rewrote
      known-aligned load addresses (making their offsets opaque). *)
  type ctx = {
    v : int;
    elem : int;
    lookup : string -> int option;
    opaque_loads : bool;
  }

  let load_off ctx (a : Addr.t) =
    if ctx.opaque_loads && ctx.lookup a.Addr.array <> None then Absoff.Top
    else Absoff.of_addr ~v:ctx.v ~elem:ctx.elem ~lookup:ctx.lookup a

  let eval_rexpr ctx r =
    Absoff.eval_rexpr ~v:ctx.v ~elem:ctx.elem ~lookup:ctx.lookup r

  (** The abstract stream offset of [e] in environment [env]. [visit]
      sees every node post-order, with its operands' offsets in operand
      order; the checker discharges its per-node obligations there. *)
  let eval ?(visit = fun _ _ -> ()) ctx env e =
    let v = ctx.v in
    let rec go e =
      match e with
      | Expr.Load a ->
        visit e [];
        load_off ctx a
      | Expr.Splat _ ->
        visit e [];
        Absoff.Bot
      | Expr.Temp x -> (
        visit e [];
        match SM.find_opt x env with Some o -> o | None -> Absoff.Top)
      | Expr.Op (_, a, b) | Expr.Cmp (_, a, b) ->
        let oa = go a in
        let ob = go b in
        visit e [ oa; ob ];
        Absoff.merge ~v oa ob
      | Expr.Shiftpair (x, y, _) when Expr.equal_vexpr x y ->
        (* Register rotation (reduction finalization): lane positions no
           longer denote stream offsets. The result is Top, not Bot — a
           half-reduced register is not lane-uniform, so treating it as
           "matches anything" would falsely discharge the (C.3)
           obligations of the combining ops downstream. The one register
           is still evaluated once, so [visit] sees inside it. *)
        let ox = go x in
        visit e [ ox; ox ];
        Absoff.Top
      | Expr.Shiftpair (x, y, s) ->
        let ox = go x in
        let oy = go y in
        visit e [ ox; oy ];
        (* Selecting V bytes starting [s] bytes into the pair moves the
           stream offset down by [s] (mod V) — both the left and right
           lowering of a [from -> to] stream shift reduce to this. *)
        Absoff.sub ~v (Absoff.merge ~v ox oy) (eval_rexpr ctx s)
      | Expr.Splice (x, y, _) ->
        let ox = go x in
        let oy = go y in
        visit e [ ox; oy ];
        Absoff.merge ~v ox oy
      | Expr.Pack (x, y) -> (
        let ox = go x in
        let oy = go y in
        visit e [ ox; oy ];
        (* Strided gathers window every chunk to offset 0 before packing. *)
        match (ox, oy) with
        | Absoff.Byte 0, Absoff.Byte 0 -> Absoff.Byte 0
        | _ -> Absoff.Top)
      | Expr.Sel (m, a, b) ->
        let om = go m in
        let oa = go a in
        let ob = go b in
        visit e [ om; oa; ob ];
        Absoff.merge ~v om (Absoff.merge ~v oa ob)
    in
    go e

  let transfer ctx ~idx:_ env = function
    | Expr.Assign (x, e) -> SM.add x (eval ctx env e) env
    | Expr.Store _ | Expr.Storem _ | Expr.If _ -> env

  (** Propagate an offset environment through a region. *)
  let exec ctx env stmts =
    forward ~leaf:(transfer ctx)
      ~guard:(fun ~idx:_ _ _ -> ())
      ~join:(join_env ~v:ctx.v) ~idx0:0 env stmts

  (** The loop-entry environment: the least (widened) fixpoint of
      running the body from [env0] — carried temps settle on the offset
      their seam protocol maintains, disagreements widen to [Top]. *)
  let entry ctx env0 body =
    fixpoint ~rounds:4 ~equal:env_equal ~widen:widen_env
      ~f:(fun env -> exec ctx env body)
      env0
end

(* ------------------------------------------------------------------ *)
(* The cleanup rewriter                                                *)
(* ------------------------------------------------------------------ *)

module Cleanup = struct
  (** What one cleanup application did, in application order. These
      double as the linter's evidence: a dry run's actions are exactly
      the wasted work the report points at. *)
  type action =
    | Combined of { where : string; detail : string }
        (** a shift was folded away or merged with its producer *)
    | Propagated of { where : string; temp : string }
        (** a read of a copy temp was redirected to its source *)
    | Hoisted of { where : string; temp : string }
        (** a loop-invariant body definition moved to the prologue *)
    | Removed of { where : string; temp : string; clobber : bool }
        (** a dead definition was deleted; [clobber] marks a value that
            is overwritten or abandoned even though the name is read
            elsewhere (write-before-read) *)

  let action_where = function
    | Combined { where; _ }
    | Propagated { where; _ }
    | Hoisted { where; _ }
    | Removed { where; _ } ->
      where

  (* --- shift combining + copy propagation (one region) ------------- *)

  (* The combining algebra. With X = vshiftpair(A, B, s) and
     Y = vshiftpair(B, C, s), vshiftpair(X, Y, t) selects bytes
     [s+t .. s+t+V-1] of A·B·C, so with m = s + t:
       m = 0          -> A
       0 < m < V      -> vshiftpair(A, B, m)
       m = V          -> B
       V < m < 2V     -> vshiftpair(B, C, m - V)
       m = 2V         -> C *)
  let concat3_window ~v ~x1 ~y1 ~x2 ~y2 m =
    if m = 0 then Some x1
    else if m < v then Some (Expr.Shiftpair (x1, y1, Rexpr.Const m))
    else if m = v then Some y1
    else if m < 2 * v then Some (Expr.Shiftpair (x2, y2, Rexpr.Const (m - v)))
    else if m = 2 * v then Some y2
    else None

  let combine_region ~v ~block ~region ~prologue_defined ~note stmts =
    let elem = v / block in
    let avail = Avail.analyze stmts in
    let defs = avail.Avail.defs in
    let where i = Printf.sprintf "%s#%d" region i in
    let amount_ok m = m >= 0 && m mod elem = 0 in
    (* Resolve a shiftpair half to the load it windows, tracking how many
       software-pipelining seams the chase crosses: a definition at or
       after the read point supplies last iteration's value, whose load
       sits one iteration — [scale * block] elements — earlier in the
       stream. Returns the resolved expression with its iteration lag. *)
    let resolve_lagged ~at e =
      let rec go n at lag e =
        match e with
        | Expr.Temp x when n > 0 -> (
          match Defs.single_def defs x with
          | Some (d, e') -> go (n - 1) d (if d < at then lag else lag + 1) e'
          | None -> (e, lag))
        | _ -> (e, lag)
      in
      go 4 at 0 e
    in
    (* One rewrite attempt at a (children-already-rewritten) node. *)
    let try_rules i e =
      match e with
      | Expr.Temp x -> (
        (* copy propagation through single-def temp-to-temp copies *)
        match Defs.single_def defs x with
        | Some (dx, (Expr.Temp y as ey))
          when dx < i && y <> x && Avail.safe avail ~src:dx ~use:i ey ->
          Some (ey, Propagated { where = where i; temp = x })
        | _ -> None)
      | Expr.Shiftpair (a, b, s) when Rexpr.is_const s -> (
        let t = Rexpr.const_exn s in
        if t = 0 then
          Some
            ( a,
              Combined
                {
                  where = where i;
                  detail = "vshiftpair amount 0 is the identity on its \
                            first half";
                } )
        else if t = v then
          Some
            ( b,
              Combined
                {
                  where = where i;
                  detail =
                    Printf.sprintf
                      "vshiftpair amount %d selects exactly its second half"
                      v;
                } )
        else if t < 0 || t > v then None
        else
          (* straight-line combine with the producing shiftpairs *)
          let straight =
            match (Avail.as_shift avail ~use:i a, Avail.as_shift avail ~use:i b)
            with
            | Some (da, x1, y1, s1), Some (db, x2, y2, s2)
              when s1 = s2 && s1 >= 0 && s1 <= v && Expr.equal_vexpr y1 x2 ->
              let m = s1 + t in
              if not (amount_ok m) then None
              else (
                match concat3_window ~v ~x1 ~y1 ~x2 ~y2 m with
                | Some r
                  when Avail.safe avail ~src:da ~use:i x1
                       && Avail.safe avail ~src:da ~use:i y1
                       && Avail.safe avail ~src:db ~use:i x2
                       && Avail.safe avail ~src:db ~use:i y2 ->
                  Some
                    ( r,
                      Combined
                        {
                          where = where i;
                          detail =
                            Printf.sprintf
                              "combined adjacent vshiftpairs (amounts %d + \
                               %d over one stream)"
                              s1 t;
                        } )
                | _ -> None)
            | _ -> None
          in
          if straight <> None then straight
          else
            (* Carried combine: vshiftpair(tx, ty, t) where tx is the
               software-pipelining copy of ty (tx@k = ty@(k-1)) and ty's
               definition vshiftpair(x2, y2, s) advances a pure load
               stream — y2 one full iteration ahead of x2, so
               ty@(k-1) = vshiftpair(x2@(k-1), x2@k, s) and the whole
               expression is a window over x2@(k-1)·x2@k·y2@k. Windows
               needing the unmaterialized x2@(k-1) (m < V) are skipped. *)
            match (prologue_defined, a, b) with
            | Some prologue_defined, Expr.Temp tx, Expr.Temp ty -> (
              match (Defs.single_def defs tx, Defs.single_def defs ty) with
              | ( Some (dx, Expr.Temp ty'),
                  Some (dy, Expr.Shiftpair (x2, y2, s2)) )
                when ty' = ty && dx > i && dy < i
                     && SS.mem tx prologue_defined
                     && Rexpr.is_const s2 -> (
                let sc = Rexpr.const_exn s2 in
                let m = sc + t in
                match (resolve_lagged ~at:dy x2, resolve_lagged ~at:dy y2)
                with
                | (Expr.Load p, lp), (Expr.Load q, lq)
                  when sc >= 0 && sc <= v && amount_ok m
                       && p.Addr.array = q.Addr.array
                       && p.Addr.scale = q.Addr.scale
                       && p.Addr.scale >= 1
                       && q.Addr.offset
                          - (lq * q.Addr.scale * block)
                          - (p.Addr.offset - (lp * p.Addr.scale * block))
                          = p.Addr.scale * block
                       && not (SS.mem p.Addr.array avail.Avail.all_stored)
                  -> (
                  let repl =
                    if m = v then Some x2
                    else if m > v && m < 2 * v then
                      Some (Expr.Shiftpair (x2, y2, Rexpr.Const (m - v)))
                    else if m = 2 * v then Some y2
                    else None (* m < V needs last iteration's register *)
                  in
                  match repl with
                  | Some r
                    when Avail.safe avail ~src:dy ~use:i x2
                         && Avail.safe avail ~src:dy ~use:i y2 ->
                    Some
                      ( r,
                        Combined
                          {
                            where = where i;
                            detail =
                              Printf.sprintf
                                "combined the carried vshiftpair chain \
                                 through %s/%s (amounts %d + %d over one \
                                 stream)"
                                tx ty sc t;
                          } )
                  | _ -> None)
                | _ -> None)
              | _ -> None)
            | _ -> None)
      | _ -> None
    in
    let rewrite_at i e =
      let rec go e =
        let e =
          match e with
          | Expr.Op (op, a, b) -> Expr.Op (op, go a, go b)
          | Expr.Shiftpair (a, b, s) -> Expr.Shiftpair (go a, go b, s)
          | Expr.Splice (a, b, p) -> Expr.Splice (go a, go b, p)
          | Expr.Pack (a, b) -> Expr.Pack (go a, go b)
          | Expr.Cmp (c, a, b) -> Expr.Cmp (c, go a, go b)
          | Expr.Sel (m, a, b) -> Expr.Sel (go m, go a, go b)
          | Expr.Load _ | Expr.Splat _ | Expr.Temp _ -> e
        in
        (* at most one rule application per node per round: later rounds
           pick up follow-on opportunities, and cyclic copy chains
           cannot ping-pong *)
        match try_rules i e with
        | Some (e', act) ->
          note act;
          e'
        | None -> e
      in
      go e
    in
    List.mapi
      (fun i s ->
        match s with
        | Expr.Store (a, e) -> Expr.Store (a, rewrite_at i e)
        | Expr.Assign (x, e) -> Expr.Assign (x, rewrite_at i e)
        | Expr.Storem (a, e, m) ->
          Expr.Storem (a, rewrite_at i e, rewrite_at i m)
        | Expr.If _ -> s)
      stmts

  (* --- loop-invariant hoisting -------------------------------------- *)

  let hoist_invariants ~prologue ~body ~prologue_defined ~note =
    let defs = Defs.scan body in
    let body_defined = SS.of_list (Expr.temps_written body) in
    let carried =
      SS.of_list
        (List.map (fun c -> c.Reach.ca_name) (Reach.carried_temps body))
    in
    (* Invariant: no loads (addresses move every iteration), no reads of
       body-defined temps, and only compile-time shift amounts / splice
       points (runtime amounts may carry the loop counter). *)
    let rec expr_ok e =
      match e with
      | Expr.Load _ -> false
      | Expr.Splat _ -> true
      | Expr.Temp z -> not (SS.mem z body_defined)
      | Expr.Op (_, a, b) | Expr.Pack (a, b) | Expr.Cmp (_, a, b) ->
        expr_ok a && expr_ok b
      | Expr.Shiftpair (a, b, s) | Expr.Splice (a, b, s) ->
        Rexpr.is_const s && expr_ok a && expr_ok b
      | Expr.Sel (m, a, b) -> expr_ok m && expr_ok a && expr_ok b
    in
    let hoisted = ref [] and kept = ref [] in
    List.iteri
      (fun i s ->
        match s with
        | Expr.Assign (x, e)
          when Defs.single_def defs x <> None
               && (not (SS.mem x carried))
               && (not (SS.mem x prologue_defined))
               && expr_ok e ->
          hoisted := s :: !hoisted;
          note (Hoisted { where = Printf.sprintf "body#%d" i; temp = x })
        | _ -> kept := s :: !kept)
      body;
    (prologue @ List.rev !hoisted, List.rev !kept)

  (* --- liveness-based DCE ------------------------------------------- *)

  (* Backward sweep over one region (or [If] branch; branch statements
     inherit the guard's index). Stores are always kept; an [Assign]
     whose temp is dead is deleted, cascading within the sweep; an [If]
     whose branches both empty out is dropped. Returns the kept
     statements and the live-in set. *)
  let rec sweep ~region ~read_anywhere ~idx0 ~note out stmts =
    let indexed = List.mapi (fun k s -> (idx0 + k, s)) stmts in
    List.fold_right
      (fun (i, s) (kept, out) ->
        match s with
        | Expr.Assign (x, e) ->
          if SS.mem x out then (s :: kept, Live.add_reads (SS.remove x out) e)
          else begin
            note
              (Removed
                 {
                   where = Printf.sprintf "%s#%d" region i;
                   temp = x;
                   clobber = SS.mem x read_anywhere;
                 });
            (kept, out)
          end
        | Expr.Store (_, e) -> (s :: kept, Live.add_reads out e)
        | Expr.Storem (_, e, m) ->
          (s :: kept, Live.add_reads (Live.add_reads out e) m)
        | Expr.If (c, t, f) ->
          let t', out_t =
            sweep ~region ~read_anywhere ~idx0:i ~note out t
          in
          let f', out_f =
            sweep ~region ~read_anywhere ~idx0:i ~note out f
          in
          if t' = [] && f' = [] then (kept, SS.union out_t out_f)
          else (Expr.If (c, t', f') :: kept, SS.union out_t out_f))
      indexed ([], out)

  (* The epilogue segments are the program tail: thread liveness through
     them back to front from an empty live-out. Returns the kept segments
     (one per input segment, even when it empties — the bound checks
     demand [unroll + 1]) and the first segment's live-in. *)
  let sweep_epilogues sweep epilogues =
    List.fold_right
      (fun (k, seg) (acc, out) ->
        let seg', inn =
          sweep ~region:(Printf.sprintf "epilogue[%d]" k) out seg
        in
        (seg' :: acc, inn))
      (List.mapi (fun k seg -> (k, seg)) epilogues)
      ([], SS.empty)

  let dce_epilogues epilogues =
    fst
      (sweep_epilogues
         (sweep ~read_anywhere:SS.empty ~idx0:0 ~note:ignore)
         epilogues)

  (* Whole-program DCE: the epilogues as above; the body's live-out
     closes over the back edge; the prologue's live-out is the union of
     the body's live-in and the epilogues' (the steady loop may run zero
     iterations). *)
  let dce_program ~note prologue body epilogues =
    let read_anywhere =
      List.fold_left
        (fun acc stmts -> SS.union acc (Live.reads_of stmts))
        SS.empty
        (prologue :: body :: epilogues)
    in
    let sweep = sweep ~read_anywhere ~idx0:0 ~note in
    let epilogues', live_epis = sweep_epilogues sweep epilogues in
    let body_out = Live.loop_out ~body live_epis in
    let body', body_in = sweep ~region:"body" body_out body in
    let prologue', _ =
      sweep ~region:"prologue" (SS.union body_in live_epis) prologue
    in
    (prologue', body', epilogues')

  (* --- the pass ------------------------------------------------------ *)

  (** [run ~v ~block ~prologue ~body ~epilogues] applies copy
      propagation, shift combining, invariant hoisting and DCE to a
      fixpoint (at most 8 rounds), returning the rewritten regions and
      the actions in application order. Every rewrite is value-exact;
      the driver re-validates the result with [Simd.Check] at the pass
      boundary. *)
  let run ~v ~block ~prologue ~body ~epilogues =
    let all = ref [] in
    let rec rounds n (p, b, es) =
      if n = 0 then (p, b, es)
      else begin
        let before = List.length !all in
        let note a = all := a :: !all in
        let prologue_defined = SS.of_list (Expr.temps_written p) in
        let p =
          combine_region ~v ~block ~region:"prologue" ~prologue_defined:None
            ~note p
        in
        let b =
          combine_region ~v ~block ~region:"body"
            ~prologue_defined:(Some prologue_defined) ~note b
        in
        let es =
          List.mapi
            (fun k seg ->
              combine_region ~v ~block
                ~region:(Printf.sprintf "epilogue[%d]" k)
                ~prologue_defined:None ~note seg)
            es
        in
        let p, b = hoist_invariants ~prologue:p ~body:b ~prologue_defined ~note in
        let p, b, es = dce_program ~note p b es in
        if List.length !all = before then (p, b, es)
        else rounds (n - 1) (p, b, es)
      end
    in
    let result = rounds 8 (prologue, body, epilogues) in
    (result, List.rev !all)

  (** A dry run: the actions cleanup {e would} take, leaving the program
      untouched — the linter's evidence stream. *)
  let dry_run ~v ~block ~prologue ~body ~epilogues =
    snd (run ~v ~block ~prologue ~body ~epilogues)
end
