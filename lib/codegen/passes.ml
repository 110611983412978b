(** Post-generation optimization passes (paper §5.5's code-generation
    optimizations).

    - {b Splat hoisting}: loop-invariant [vsplat]s move to the prologue
      (standard LICM; real back ends always do this).
    - {b MemNorm}: vector-load addresses are normalized to their
      [V]-aligned truncations, so loads that touch the same chunk become
      syntactically identical and ordinary redundancy elimination catches
      them.
    - {b CSE}: local value numbering over a statement region, lowering the
      region to three-address form. Values are keyed with per-temporary and
      per-array-memory versions, so software-pipelining's mutated carries and
      stores are handled soundly without pessimistic kills.
    - {b PC (Predictive Commoning)}: cross-iteration reuse — a load at
      element offset [c] equals the load at offset [c + B] from the previous
      iteration (their addresses are identical), so it becomes a carried
      temporary initialized in the prologue and refreshed by a
      bottom-of-loop copy. This is the "more general TPO optimization" the
      paper leans on as the alternative to software-pipelined generation.
    - {b Epilogue specialization}: for compile-time trip counts the guarded
      epilogue template folds to straight-line stores (and dead guard arms,
      loads and copies disappear). *)

open Simd_loopir
open Simd_vir

(* ------------------------------------------------------------------ *)
(* Splat hoisting                                                      *)
(* ------------------------------------------------------------------ *)

(** [hoist_splats ~names ~prologue ~body] — replace every [Splat e] in
    [body] (and in [prologue], which may share the expressions) by a
    temporary assigned once at the head of the prologue. *)
let hoist_splats ~(names : Names.t) ~prologue ~body =
  let table : (Ast.expr * string) list ref = ref [] in
  let temp_for e =
    match List.find_opt (fun (e', _) -> Ast.equal_expr e e') !table with
    | Some (_, t) -> t
    | None ->
      let t = Names.fresh names ~prefix:"splat" in
      table := (e, t) :: !table;
      t
  in
  let rec rewrite (x : Expr.vexpr) : Expr.vexpr =
    match x with
    | Expr.Splat e -> Expr.Temp (temp_for e)
    | Expr.Load _ | Expr.Temp _ -> x
    | Expr.Op (op, a, b) -> Expr.Op (op, rewrite a, rewrite b)
    | Expr.Shiftpair (a, b, s) -> Expr.Shiftpair (rewrite a, rewrite b, s)
    | Expr.Splice (a, b, p) -> Expr.Splice (rewrite a, rewrite b, p)
    | Expr.Pack (a, b) -> Expr.Pack (rewrite a, rewrite b)
    | Expr.Cmp (c, a, b) -> Expr.Cmp (c, rewrite a, rewrite b)
    | Expr.Sel (m, a, b) -> Expr.Sel (rewrite m, rewrite a, rewrite b)
  in
  let body = Expr.map_stmts_exprs rewrite body in
  let prologue = Expr.map_stmts_exprs rewrite prologue in
  let inits =
    List.rev_map (fun (e, t) -> Expr.Assign (t, Expr.Splat e)) !table
  in
  (inits @ prologue, body)

(* ------------------------------------------------------------------ *)
(* Memory normalization                                                *)
(* ------------------------------------------------------------------ *)

(** [memnorm ~analysis stmts] — rewrite each load address [&a\[i+c\]] whose
    stream offset [o] is compile-time to [&a\[i + c - o/D\]], the address of
    the [V]-aligned chunk the truncating load actually reads. Sound because
    the generated code only evaluates addresses at counter values ≡ 0
    (mod B), where the truncation drop is exactly [o]. Store addresses are
    left alone (normalizing them enables no reuse). *)
let memnorm ~(analysis : Analysis.t) stmts =
  let elem = analysis.Analysis.elem in
  let norm (a : Addr.t) : Addr.t =
    let r = { Ast.ref_array = a.Addr.array; ref_offset = a.Addr.offset; ref_stride = 1 } in
    match Align.of_ref ~machine:analysis.Analysis.machine
            ~program:analysis.Analysis.program r
    with
    | Align.Known o -> { a with Addr.offset = a.Addr.offset - (o / elem) }
    | Align.Runtime -> a
  in
  let rec rewrite (x : Expr.vexpr) : Expr.vexpr =
    match x with
    | Expr.Load a -> Expr.Load (norm a)
    | Expr.Splat _ | Expr.Temp _ -> x
    | Expr.Op (op, a, b) -> Expr.Op (op, rewrite a, rewrite b)
    | Expr.Shiftpair (a, b, s) -> Expr.Shiftpair (rewrite a, rewrite b, s)
    | Expr.Splice (a, b, p) -> Expr.Splice (rewrite a, rewrite b, p)
    | Expr.Pack (a, b) -> Expr.Pack (rewrite a, rewrite b)
    | Expr.Cmp (c, a, b) -> Expr.Cmp (c, rewrite a, rewrite b)
    | Expr.Sel (m, a, b) -> Expr.Sel (rewrite m, rewrite a, rewrite b)
  in
  Expr.map_stmts_exprs rewrite stmts

(* ------------------------------------------------------------------ *)
(* Common subexpression elimination (local value numbering)            *)
(* ------------------------------------------------------------------ *)

module Lvn = struct
  type t = {
    names : Names.t;
    values : (string, string) Hashtbl.t;  (** canonical key → temp holding it *)
    temp_version : (string, int) Hashtbl.t;
    mem_version : (string, int) Hashtbl.t;  (** array → store count *)
    mutable out : Expr.stmt list;  (** reversed *)
  }

  let create names =
    {
      names;
      values = Hashtbl.create 64;
      temp_version = Hashtbl.create 16;
      mem_version = Hashtbl.create 16;
      out = [];
    }

  let emit t s = t.out <- s :: t.out

  let tver t name =
    match Hashtbl.find_opt t.temp_version name with Some v -> v | None -> 0

  let mver t arr =
    match Hashtbl.find_opt t.mem_version arr with Some v -> v | None -> 0

  let bump_temp t name = Hashtbl.replace t.temp_version name (tver t name + 1)
  let bump_mem t arr = Hashtbl.replace t.mem_version arr (mver t arr + 1)

  (* Canonical value keys embed temp and memory versions, so assignments to
     a carried temporary or stores to an array automatically retire stale
     equivalences — no explicit invalidation scans. *)
  let addr_key (a : Addr.t) =
    Printf.sprintf "%s[%s%d]" a.Addr.array
      (match a.Addr.scale with 0 -> "" | 1 -> "i+" | s -> Printf.sprintf "%d*i+" s)
      a.Addr.offset

  let rexpr_key (r : Rexpr.t) = Rexpr.show r

  (* [value t e] returns (key, value-id). The value-id of a temp includes
     its version; the value-id of a computed node is the temp that holds it
     after lowering. *)
  let rec lower t (e : Expr.vexpr) : string * Expr.vexpr =
    (* returns (value-id, atom) where atom is [Temp _] or a leaf usable as
       an operand *)
    match e with
    | Expr.Temp x -> (Printf.sprintf "%s@%d" x (tver t x), e)
    | _ ->
      let key, rebuilt = key_and_rebuild t e in
      (match Hashtbl.find_opt t.values key with
      | Some temp -> (Printf.sprintf "%s@%d" temp (tver t temp), Expr.Temp temp)
      | None ->
        let temp = Names.fresh t.names ~prefix:"t" in
        emit t (Expr.Assign (temp, rebuilt));
        Hashtbl.replace t.values key temp;
        (Printf.sprintf "%s@%d" temp (tver t temp), Expr.Temp temp))

  and key_and_rebuild t (e : Expr.vexpr) : string * Expr.vexpr =
    match e with
    | Expr.Temp _ -> assert false
    | Expr.Load a ->
      ( Printf.sprintf "load(%s)#m%d" (addr_key a) (mver t a.Addr.array),
        Expr.Load a )
    | Expr.Splat s -> (Printf.sprintf "splat(%s)" (Pp.expr_to_string s), Expr.Splat s)
    | Expr.Op (op, a, b) ->
      let ka, va = lower t a in
      let kb, vb = lower t b in
      ( Printf.sprintf "%s(%s,%s)" (Simd_machine.Lane.binop_name op) ka kb,
        Expr.Op (op, va, vb) )
    | Expr.Shiftpair (a, b, s) ->
      let ka, va = lower t a in
      let kb, vb = lower t b in
      ( Printf.sprintf "shiftpair(%s,%s,%s)" ka kb (rexpr_key s),
        Expr.Shiftpair (va, vb, s) )
    | Expr.Splice (a, b, p) ->
      let ka, va = lower t a in
      let kb, vb = lower t b in
      ( Printf.sprintf "splice(%s,%s,%s)" ka kb (rexpr_key p),
        Expr.Splice (va, vb, p) )
    | Expr.Pack (a, b) ->
      let ka, va = lower t a in
      let kb, vb = lower t b in
      (Printf.sprintf "pack(%s,%s)" ka kb, Expr.Pack (va, vb))
    | Expr.Cmp (c, a, b) ->
      let ka, va = lower t a in
      let kb, vb = lower t b in
      ( Printf.sprintf "cmp_%s(%s,%s)" (Simd_machine.Lane.cmp_name c) ka kb,
        Expr.Cmp (c, va, vb) )
    | Expr.Sel (m, a, b) ->
      let km, vm = lower t m in
      let ka, va = lower t a in
      let kb, vb = lower t b in
      (Printf.sprintf "sel(%s,%s,%s)" km ka kb, Expr.Sel (vm, va, vb))

  let rec stmt t (s : Expr.stmt) =
    match s with
    | Expr.Assign (x, Expr.Temp y) ->
      (* explicit copy (software-pipelining carry): keep as-is *)
      emit t (Expr.Assign (x, Expr.Temp y));
      bump_temp t x
    | Expr.Assign (x, e) ->
      let key, rebuilt = key_and_rebuild t e in
      (match Hashtbl.find_opt t.values key with
      | Some temp when temp <> x ->
        emit t (Expr.Assign (x, Expr.Temp temp));
        bump_temp t x
      | _ ->
        emit t (Expr.Assign (x, rebuilt));
        bump_temp t x;
        Hashtbl.replace t.values key x)
    | Expr.Store (addr, e) ->
      let _, atom = lower t e in
      emit t (Expr.Store (addr, atom));
      bump_mem t addr.Addr.array
    | Expr.Storem (addr, e, m) ->
      let _, atom = lower t e in
      let _, matom = lower t m in
      emit t (Expr.Storem (addr, atom, matom));
      bump_mem t addr.Addr.array
    | Expr.If (c, th, el) ->
      (* Conditionals only occur in epilogue templates; value-number the
         branches independently and retire everything afterwards. *)
      let saved = Hashtbl.copy t.values in
      let run branch =
        let sub = { t with values = Hashtbl.copy saved; out = [] } in
        List.iter (stmt sub) branch;
        List.rev sub.out
      in
      let th' = run th in
      let el' = run el in
      Hashtbl.reset t.values;
      emit t (Expr.If (c, th', el'))

  let run ~names stmts =
    let t = create names in
    List.iter (stmt t) stmts;
    List.rev t.out
end

(** [cse ~names stmts] — lower a region to three-address form with local
    value numbering; repeated loads/operations collapse to one temporary. *)
let cse ~names stmts = Lvn.run ~names stmts

(* ------------------------------------------------------------------ *)
(* Predictive commoning                                                *)
(* ------------------------------------------------------------------ *)

let used_temps_expr acc (e : Expr.vexpr) =
  Expr.fold_vexpr
    (fun acc n -> match n with Expr.Temp t -> t :: acc | _ -> acc)
    acc e

(** [predictive_commoning ~block ~lb ~prologue body] — cross-iteration value
    reuse on a three-address body (run {!cse} first).

    Every top-level temporary is expanded to its temporary-free value tree
    (splat temporaries defined in the prologue expand back to their [Splat]
    payloads). When [expand t_a] advanced one simdized iteration equals
    [expand t_b] — i.e. [t_a]'s value this iteration is exactly [t_b]'s
    value of the previous iteration — [t_a]'s computation is deleted and
    replaced by a loop-carried copy: the prologue initializes
    [t_a := expand t_a] advanced to the first steady iteration [LB], and a
    bottom-of-loop copy [t_a := t_b] refreshes it. Computations orphaned by
    the deletions are swept by a liveness pass. This covers both reused
    loads and reused shifted/combined values, which is what lets the
    zero-shift policy recover (the paper's ZERO-pc configuration).

    Returns [(prologue_inits, body')]. *)
let predictive_commoning ~(block : int) ~(lb : int)
    ~(prologue : Expr.stmt list) (body : Expr.stmt list) :
    Expr.stmt list * Expr.stmt list =
  (* Splat temporaries live in the prologue; expansion needs their payloads. *)
  let splat_defs =
    List.filter_map
      (function Expr.Assign (t, (Expr.Splat _ as e)) -> Some (t, e) | _ -> None)
      prologue
  in
  (* Only single-assignment temporaries have a stable per-iteration value
     tree. A multiply-assigned temp (a pipelining carry: prologue init plus
     bottom-of-loop copy) denotes the *previous* iteration's value, so
     expanding through its copy would be unsound. *)
  let assign_count t =
    List.length
      (List.filter
         (function Expr.Assign (t', _) -> t' = t | _ -> false)
         (prologue @ body))
  in
  let defs =
    List.filter_map
      (function
        | Expr.Assign (t, e) when assign_count t = 1 -> Some (t, e)
        | _ -> None)
      body
  in
  (* Expand a temp to a temp-free tree; [None] when it depends on a temp
     with no visible pure definition (e.g. a pipelining carry), or when the
     expanded tree exceeds a size budget — value numbering shares subtrees,
     so expansion can blow up exponentially on doubling expressions like
     ((x+x)+(x+x))+…; such temporaries simply stay uncarried. *)
  let budget = 4096 in
  let rec size (e : Expr.vexpr) =
    match e with
    | Expr.Temp _ | Expr.Load _ | Expr.Splat _ -> 1
    | Expr.Op (_, a, b)
    | Expr.Shiftpair (a, b, _)
    | Expr.Splice (a, b, _)
    | Expr.Pack (a, b)
    | Expr.Cmp (_, a, b) ->
      let sa = size a in
      if sa > budget then sa else sa + size b + 1
    | Expr.Sel (m, a, b) ->
      let sm = size m in
      if sm > budget then sm
      else
        let sa = size a in
        if sa > budget then sa else sm + sa + size b + 1
  in
  let cache : (string, Expr.vexpr option) Hashtbl.t = Hashtbl.create 16 in
  let rec expand_temp t : Expr.vexpr option =
    match Hashtbl.find_opt cache t with
    | Some r -> r
    | None ->
      Hashtbl.add cache t None (* cycle guard: carried temps expand to None *);
      let r =
        match List.assoc_opt t splat_defs with
        | Some e -> Some e
        | None -> (
          match List.assoc_opt t defs with
          | Some e -> expand e
          | None -> None)
      in
      let r =
        match r with
        | Some tree when size tree > budget -> None
        | r -> r
      in
      Hashtbl.replace cache t r;
      r
  and expand (e : Expr.vexpr) : Expr.vexpr option =
    match e with
    | Expr.Temp t -> expand_temp t
    | Expr.Load _ | Expr.Splat _ -> Some e
    | Expr.Op (op, a, b) -> (
      match (expand a, expand b) with
      | Some a', Some b' -> Some (Expr.Op (op, a', b'))
      | _ -> None)
    | Expr.Shiftpair (a, b, s) -> (
      match (expand a, expand b) with
      | Some a', Some b' -> Some (Expr.Shiftpair (a', b', s))
      | _ -> None)
    | Expr.Splice (a, b, p) -> (
      match (expand a, expand b) with
      | Some a', Some b' -> Some (Expr.Splice (a', b', p))
      | _ -> None)
    | Expr.Pack (a, b) -> (
      match (expand a, expand b) with
      | Some a', Some b' -> Some (Expr.Pack (a', b'))
      | _ -> None)
    | Expr.Cmp (c, a, b) -> (
      match (expand a, expand b) with
      | Some a', Some b' -> Some (Expr.Cmp (c, a', b'))
      | _ -> None)
    | Expr.Sel (m, a, b) -> (
      match (expand m, expand a, expand b) with
      | Some m', Some a', Some b' -> Some (Expr.Sel (m', a', b'))
      | _ -> None)
  in
  let expanded =
    List.filter_map
      (fun (t, _) ->
        match expand_temp t with Some tree -> Some (t, tree) | None -> None)
      defs
  in
  (* Invariant values (no loads) never change across iterations; carrying
     them is pointless (splats are already hoisted). *)
  let has_load tree =
    Expr.fold_vexpr (fun acc n -> acc || Expr.is_load n) false tree
  in
  (* t_a is carried from t_b when expand(t_a)@(i+B) = expand(t_b)@i. *)
  let carried =
    List.filter_map
      (fun (t_a, tree_a) ->
        if not (has_load tree_a) then None
        else
          let advanced = Expr.shift_iter tree_a ~by:block in
          List.find_map
            (fun (t_b, tree_b) ->
              if t_b <> t_a && Expr.equal_vexpr advanced tree_b then
                Some (t_a, tree_a, t_b)
              else None)
            expanded)
      expanded
  in
  if carried = [] then ([], body)
  else begin
    let carried_names = List.map (fun (t, _, _) -> t) carried in
    let body' =
      List.filter
        (function
          | Expr.Assign (t, _) when List.mem t carried_names -> false
          | _ -> true)
        body
    in
    (* Orphan sweep: drop assigns whose temps are no longer read by any
       surviving statement or carried copy. *)
    let carry_sources = List.map (fun (_, _, t_b) -> t_b) carried in
    let rec sweep body' =
      let read =
        Expr.fold_stmts (fun acc e -> used_temps_expr acc e) carry_sources body'
      in
      let body'' =
        List.filter
          (function
            | Expr.Assign (t, _) -> List.mem t read || List.mem t carried_names
            | _ -> true)
          body'
      in
      if List.length body'' = List.length body' then body' else sweep body''
    in
    let body' = sweep body' in
    (* Bottom copies in dependency order: if t_a carries from t_b and t_b
       itself carries from t_c, copy t_a := t_b before t_b := t_c. *)
    let rank t =
      (* chain depth: number of carry steps reachable from t *)
      let rec go t seen =
        match List.find_opt (fun (a, _, _) -> a = t) carried with
        | Some (_, _, b) when not (List.mem t seen) -> 1 + go b (t :: seen)
        | _ -> 0
      in
      go t []
    in
    let copies =
      carried
      |> List.sort (fun (a1, _, _) (a2, _, _) -> compare (rank a2) (rank a1))
      |> List.map (fun (t_a, _, t_b) -> Expr.Assign (t_a, Expr.Temp t_b))
    in
    let inits =
      List.map
        (fun (t_a, tree_a, _) ->
          Expr.Assign (t_a, Expr.shift_iter tree_a ~by:lb))
        carried
    in
    (inits, body' @ copies)
  end

(* ------------------------------------------------------------------ *)
(* Loop unrolling with copy propagation                                *)
(* ------------------------------------------------------------------ *)

(** [unroll ~block ~factor body] — replicate the steady body [factor] times
    (instance [j] advanced [j*B] iterations) while forward-propagating the
    loop-carried copies, the transformation the paper invokes to remove
    pipelining copies ("the copy operation can be easily removed by
    unrolling the loop twice and forward propagating the copy operation",
    §4.5).

    Within the unrolled body, a copy [x := y] merely renames: subsequent
    reads of [x] resolve to [y]'s current value. At the seam, carried
    temporaries must again hold their protocol values, so restores are
    emitted — and then coalesced away by renaming the defining assignment
    when the carried name is free past that point, which eliminates every
    copy of a depth-1 carry chain (the software-pipelining case). Deeper
    chains (multi-step predictive-commoning carries) retain one restore per
    chain link per unrolled body, i.e. their copy frequency divides by
    [factor]. *)

(** Test-only fault injection: when set, the seam-restore coalescer skips
    its [read_at_seam] safety guard, reintroducing the PR-1 carry-chain
    miscompilation the differential fuzzer originally found. The fuzz
    bisector's regression tests flip this to prove that pipeline bisection
    names [unroll] as the first diverging pass. Never set outside tests. *)
let unsafe_unroll_seam_coalesce_bug = ref false

let unroll ~(block : int) ~(factor : int) (body : Expr.stmt list) :
    Expr.stmt list =
  if factor < 1 then invalid_arg "Passes.unroll: factor must be >= 1";
  if factor = 1 then body
  else begin
    let sigma : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let resolve x = Option.value ~default:x (Hashtbl.find_opt sigma x) in
    let copy_targets = ref [] in
    let out = ref [] in
    (* Combined transform: advance addresses by [disp] iterations and
       resolve temporary reads through the current sigma. *)
    let rec xform ~disp (e : Expr.vexpr) : Expr.vexpr =
      match e with
      | Expr.Temp x -> Expr.Temp (resolve x)
      | Expr.Load a -> Expr.Load (Addr.shift_iter a ~by:disp)
      | Expr.Splat s -> Expr.Splat s
      | Expr.Op (op, a, b) -> Expr.Op (op, xform ~disp a, xform ~disp b)
      | Expr.Shiftpair (a, b, s) ->
        Expr.Shiftpair (xform ~disp a, xform ~disp b, shift_iter_rexpr' ~disp s)
      | Expr.Splice (a, b, p) ->
        Expr.Splice (xform ~disp a, xform ~disp b, shift_iter_rexpr' ~disp p)
      | Expr.Pack (a, b) -> Expr.Pack (xform ~disp a, xform ~disp b)
      | Expr.Cmp (c, a, b) -> Expr.Cmp (c, xform ~disp a, xform ~disp b)
      | Expr.Sel (m, a, b) ->
        Expr.Sel (xform ~disp m, xform ~disp a, xform ~disp b)
    and shift_iter_rexpr' ~disp (r : Rexpr.t) : Rexpr.t =
      Expr.shift_iter_rexpr r ~by:disp
    in
    for j = 0 to factor - 1 do
      let disp = j * block in
      List.iter
        (fun (s : Expr.stmt) ->
          match s with
          | Expr.Assign (x, Expr.Temp y) ->
            (* carried copy: propagate instead of emitting *)
            if not (List.mem x !copy_targets) then
              copy_targets := x :: !copy_targets;
            Hashtbl.replace sigma x (resolve y)
          | Expr.Assign (x, e) ->
            let x' = if factor = 1 then x else Printf.sprintf "%s_u%d" x j in
            let e' = xform ~disp e in
            out := Expr.Assign (x', e') :: !out;
            Hashtbl.replace sigma x x'
          | Expr.Store (addr, e) ->
            out := Expr.Store (Addr.shift_iter addr ~by:disp, xform ~disp e) :: !out
          | Expr.Storem (addr, e, m) ->
            out :=
              Expr.Storem
                (Addr.shift_iter addr ~by:disp, xform ~disp e, xform ~disp m)
              :: !out
          | Expr.If _ -> invalid_arg "Passes.unroll: conditional in steady body")
        body
    done;
    let emitted = List.rev !out in
    (* Seam restores — only for copy targets that are live into the next
       iteration, i.e. read before being (re)defined in the original body.
       CSE-introduced value copies (x := y with x defined before any read)
       are iteration-local and need no restore. *)
    let live_in =
      let assigned = Hashtbl.create 8 in
      let live = ref [] in
      let note_reads e =
        ignore
          (Expr.fold_vexpr
             (fun () n ->
               match n with
               | Expr.Temp t when not (Hashtbl.mem assigned t) ->
                 if not (List.mem t !live) then live := t :: !live
               | _ -> ())
             () e)
      in
      List.iter
        (fun (s : Expr.stmt) ->
          match s with
          | Expr.Assign (x, e) ->
            note_reads e;
            Hashtbl.replace assigned x ()
          | Expr.Store (_, e) -> note_reads e
          | Expr.Storem (_, e, m) ->
            note_reads e;
            note_reads m
          | Expr.If _ -> assert false)
        body;
      !live
    in
    (* Restore every live-in temporary whose name moved: copy targets, and
       also directly re-assigned carried temporaries such as reduction
       accumulators (x := op(x, …)). *)
    let moved =
      Simd_support.Util.dedup
        (List.filter
           (fun x -> resolve x <> x && List.mem x live_in)
           (List.rev !copy_targets
           @ List.filter_map
               (function Expr.Assign (x, _) -> Some x | _ -> None)
               body))
    in
    let restores = List.map (fun x -> (x, resolve x)) moved in
    (* Coalesce: rename a restore's source definition to the carried name
       when that name is textually dead past the definition.

       A carried name some other restore reads is NOT dead past any point:
       all restores execute at the seam, so renaming a mid-body definition
       to it would clobber the old value that restore still has to copy.
       This is exactly the depth-2+ carry chain produced by predictive
       commoning over loads two or more blocks apart — the seam needs
       [t0 := t3] to read the t3 carried in, not a reload coalesced onto
       t3 earlier in the body. Such names keep their explicit restore. *)
    let read_at_seam x =
      List.exists (fun (x', src) -> x' <> x && src = x) restores
    in
    let occurs_in_expr x e =
      Expr.fold_vexpr
        (fun acc n -> acc || match n with Expr.Temp t -> t = x | _ -> false)
        false e
    in
    let occurs_in_stmt x (s : Expr.stmt) =
      match s with
      | Expr.Assign (t, e) -> t = x || occurs_in_expr x e
      | Expr.Store (_, e) -> occurs_in_expr x e
      | Expr.Storem (_, e, m) -> occurs_in_expr x e || occurs_in_expr x m
      | Expr.If _ -> assert false
    in
    let emitted = Array.of_list emitted in
    let kept_restores = ref [] in
    (* Sources already renamed by a coalesce (several carried temporaries
       can share one source; only the first gets the definition). *)
    let src_subst = Hashtbl.create 4 in
    let renamed_defs = Hashtbl.create 4 in
    List.iter
      (fun (x, src) ->
        let src = Option.value ~default:src (Hashtbl.find_opt src_subst src) in
        let def_idx = ref (-1) in
        Array.iteri
          (fun k s ->
            match s with
            | Expr.Assign (t, _) when t = src -> def_idx := k
            | _ -> ())
          emitted;
        let last_x = ref (-1) in
        Array.iteri (fun k s -> if occurs_in_stmt x s then last_x := k) emitted;
        if
          !def_idx >= 0
          && !last_x < !def_idx
          && (not (Hashtbl.mem renamed_defs !def_idx))
          && (!unsafe_unroll_seam_coalesce_bug || not (read_at_seam x))
        then begin
          Hashtbl.replace renamed_defs !def_idx ();
          Hashtbl.replace src_subst src x;
          (* rename src -> x from its definition onward *)
          let rename_expr e =
            let rec go (e : Expr.vexpr) =
              match e with
              | Expr.Temp t when t = src -> Expr.Temp x
              | Expr.Temp _ | Expr.Load _ | Expr.Splat _ -> e
              | Expr.Op (op, a, b) -> Expr.Op (op, go a, go b)
              | Expr.Shiftpair (a, b, s) -> Expr.Shiftpair (go a, go b, s)
              | Expr.Splice (a, b, p) -> Expr.Splice (go a, go b, p)
              | Expr.Pack (a, b) -> Expr.Pack (go a, go b)
              | Expr.Cmp (c, a, b) -> Expr.Cmp (c, go a, go b)
              | Expr.Sel (m, a, b) -> Expr.Sel (go m, go a, go b)
            in
            go e
          in
          for k = !def_idx to Array.length emitted - 1 do
            emitted.(k) <-
              (match emitted.(k) with
              | Expr.Assign (t, e) ->
                Expr.Assign ((if t = src then x else t), rename_expr e)
              | Expr.Store (a, e) -> Expr.Store (a, rename_expr e)
              | Expr.Storem (a, e, m) ->
                Expr.Storem (a, rename_expr e, rename_expr m)
              | Expr.If _ -> assert false)
          done
        end
        else kept_restores := Expr.Assign (x, Expr.Temp src) :: !kept_restores)
      restores;
    Array.to_list emitted @ List.rev !kept_restores
  end

(* ------------------------------------------------------------------ *)
(* Epilogue specialization and cleanup                                 *)
(* ------------------------------------------------------------------ *)

(** Partial evaluation of runtime expressions given what is known. *)
let rec fold_rexpr ~(analysis : Analysis.t) ~trip ~i (r : Rexpr.t) : Rexpr.t =
  match r with
  | Rexpr.Const _ -> r
  | Rexpr.Trip -> (
    match trip with Some n -> Rexpr.Const n | None -> r)
  | Rexpr.Counter -> (
    match i with Some n -> Rexpr.Const n | None -> r)
  | Rexpr.Offset_of a -> (
    (* Counter-carrying addresses are only evaluated at counter values ≡ 0
       (mod B), where the offset equals the i = 0 stream offset; counter-free
       addresses are literal element addresses. Both reduce to
       (base + offset*D) mod V when the base alignment is declared. *)
    let r' = { Ast.ref_array = a.Addr.array; ref_offset = a.Addr.offset; ref_stride = 1 } in
    match
      Align.of_ref ~machine:analysis.Analysis.machine
        ~program:analysis.Analysis.program r'
    with
    | Align.Known k -> Rexpr.Const k
    | Align.Runtime -> r)
  | Rexpr.Add (a, b) ->
    Rexpr.add (fold_rexpr ~analysis ~trip ~i a) (fold_rexpr ~analysis ~trip ~i b)
  | Rexpr.Sub (a, b) ->
    Rexpr.sub (fold_rexpr ~analysis ~trip ~i a) (fold_rexpr ~analysis ~trip ~i b)
  | Rexpr.Mul_const (a, k) -> Rexpr.mul_const (fold_rexpr ~analysis ~trip ~i a) k
  | Rexpr.Mod_const (a, m) -> Rexpr.mod_const (fold_rexpr ~analysis ~trip ~i a) m

let fold_cond ~analysis ~trip ~i (c : Rexpr.cond) :
    [ `Known of bool | `Cond of Rexpr.cond ] =
  let f = fold_rexpr ~analysis ~trip ~i in
  let eval op recons a b =
    match (f a, f b) with
    | Rexpr.Const x, Rexpr.Const y -> `Known (op x y)
    | a', b' -> `Cond (recons a' b')
  in
  match c with
  | Rexpr.Ge (a, b) -> eval ( >= ) (fun a b -> Rexpr.Ge (a, b)) a b
  | Rexpr.Gt (a, b) -> eval ( > ) (fun a b -> Rexpr.Gt (a, b)) a b
  | Rexpr.Le (a, b) -> eval ( <= ) (fun a b -> Rexpr.Le (a, b)) a b
  | Rexpr.Lt (a, b) -> eval ( < ) (fun a b -> Rexpr.Lt (a, b)) a b

(** [specialize ~analysis ~trip ~i stmts] — resolve the loop counter and
    trip count in a statement region (when known), folding guard
    conditionals down to their live branch. *)
let rec specialize ~analysis ~trip ~i (stmts : Expr.stmt list) : Expr.stmt list =
  List.concat_map
    (fun s ->
      match (s : Expr.stmt) with
      | Expr.Store (a, e) ->
        [ Expr.Store (freeze_addr ~i a, spec_expr ~analysis ~trip ~i e) ]
      | Expr.Storem (a, e, m) ->
        [
          Expr.Storem
            ( freeze_addr ~i a,
              spec_expr ~analysis ~trip ~i e,
              spec_expr ~analysis ~trip ~i m );
        ]
      | Expr.Assign (x, e) -> [ Expr.Assign (x, spec_expr ~analysis ~trip ~i e) ]
      | Expr.If (c, th, el) -> (
        match fold_cond ~analysis ~trip ~i c with
        | `Known true -> specialize ~analysis ~trip ~i th
        | `Known false -> specialize ~analysis ~trip ~i el
        | `Cond c' ->
          [
            Expr.If
              (c', specialize ~analysis ~trip ~i th, specialize ~analysis ~trip ~i el);
          ]))
    stmts

and freeze_addr ~i (a : Addr.t) =
  match i with Some n -> Addr.freeze a ~i:n | None -> a

and spec_expr ~analysis ~trip ~i (e : Expr.vexpr) : Expr.vexpr =
  match e with
  | Expr.Load a -> Expr.Load (freeze_addr ~i a)
  | Expr.Splat _ | Expr.Temp _ -> e
  | Expr.Op (op, a, b) ->
    Expr.Op (op, spec_expr ~analysis ~trip ~i a, spec_expr ~analysis ~trip ~i b)
  | Expr.Shiftpair (a, b, s) ->
    Expr.Shiftpair
      ( spec_expr ~analysis ~trip ~i a,
        spec_expr ~analysis ~trip ~i b,
        fold_rexpr ~analysis ~trip ~i s )
  | Expr.Splice (a, b, p) ->
    Expr.Splice
      ( spec_expr ~analysis ~trip ~i a,
        spec_expr ~analysis ~trip ~i b,
        fold_rexpr ~analysis ~trip ~i p )
  | Expr.Pack (a, b) ->
    Expr.Pack (spec_expr ~analysis ~trip ~i a, spec_expr ~analysis ~trip ~i b)
  | Expr.Cmp (c, a, b) ->
    Expr.Cmp (c, spec_expr ~analysis ~trip ~i a, spec_expr ~analysis ~trip ~i b)
  | Expr.Sel (m, a, b) ->
    Expr.Sel
      ( spec_expr ~analysis ~trip ~i m,
        spec_expr ~analysis ~trip ~i a,
        spec_expr ~analysis ~trip ~i b )

(* ------------------------------------------------------------------ *)
(* Whole-program VIR cleanup (dataflow-backed)                         *)
(* ------------------------------------------------------------------ *)

(** [vir_cleanup ~v ~block ~prologue ~body ~epilogues] — the
    dataflow-backed cleanup pass: copy propagation through single-def
    temp copies, folding of no-op shifts, combining of adjacent (and
    carried, software-pipelined) [vshiftpair] chains, loop-invariant
    hoisting into the prologue, and whole-program liveness DCE that
    closes over the steady loop's back edge. Every rewrite is
    value-exact; the driver re-validates the result with [Simd.Check]
    at the pass boundary. Implemented by
    {!Simd_dataflow.Dataflow.Cleanup}. *)
let vir_cleanup ~v ~block ~prologue ~body ~epilogues =
  fst
    (Simd_dataflow.Dataflow.Cleanup.run ~v ~block ~prologue ~body ~epilogues)
