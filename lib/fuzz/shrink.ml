(** Greedy test-case shrinking.

    Starting from a failing case, repeatedly try "one step smaller"
    variants — of the program (drop statements, replace expressions by
    subexpressions, demote loads/params to constants, shrink offsets,
    strides, alignments, trip counts, and array lengths) and of the
    configuration (disable passes, lower the policy/reuse/unroll/vector
    length) — keeping any variant that still fails with the same outcome
    class. Every proposed variant is strictly smaller under a well-founded
    measure, so the greedy loop terminates; a step budget additionally
    bounds the number of oracle runs.

    The result is the smallest reproducer this rewrite system can reach:
    what gets committed to [corpus/fuzz/] and replayed as a regression. *)

open Simd_loopir
module Driver = Simd_codegen.Driver
module Policy = Simd_dreorg.Policy
module Util = Simd_support.Util

(* ------------------------------------------------------------------ *)
(* Normalization: drop arrays and params nothing references            *)
(* ------------------------------------------------------------------ *)

let used_arrays (p : Ast.program) =
  List.map (fun (r : Ast.mem_ref) -> r.Ast.ref_array) (Ast.program_refs p)
  @ List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Reduce _ -> Some s.Ast.lhs.Ast.ref_array
        | Ast.Assign -> None)
      p.Ast.loop.Ast.body

let stmt_params (s : Ast.stmt) =
  Ast.expr_params s.Ast.rhs
  @
  match s.Ast.guard with
  | None -> []
  | Some g -> Ast.expr_params g.Ast.cl @ Ast.expr_params g.Ast.cr

let used_params (p : Ast.program) =
  (match p.Ast.loop.Ast.trip with
  | Ast.Trip_param x -> [ x ]
  | Ast.Trip_const _ -> [])
  @ List.concat_map stmt_params p.Ast.loop.Ast.body

let normalize (c : Case.t) : Case.t =
  let p = c.Case.program in
  let arrays_used = used_arrays p in
  let params_used = used_params p in
  let program =
    {
      p with
      Ast.arrays =
        List.filter (fun (d : Ast.array_decl) -> List.mem d.Ast.arr_name arrays_used)
          p.Ast.arrays;
      params = List.filter (fun x -> List.mem x params_used) p.Ast.params;
    }
  in
  { c with Case.program }

(* ------------------------------------------------------------------ *)
(* One-step-smaller variants                                           *)
(* ------------------------------------------------------------------ *)

let ref_variants (r : Ast.mem_ref) : Ast.mem_ref list =
  (if r.Ast.ref_stride > 1 then [ { r with Ast.ref_stride = 1 } ] else [])
  @
  if r.Ast.ref_offset > 0 then
    List.map
      (fun o -> { r with Ast.ref_offset = o })
      (Util.dedup [ 0; r.Ast.ref_offset / 2; r.Ast.ref_offset - 1 ])
  else []

let rec expr_variants (e : Ast.expr) : Ast.expr list =
  match e with
  | Ast.Binop (op, a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Ast.Binop (op, a', b)) (expr_variants a)
    @ List.map (fun b' -> Ast.Binop (op, a, b')) (expr_variants b)
  | Ast.Select (c, a, b) ->
    (* Either arm alone, or a one-step-smaller condition or arm. *)
    [ a; b ]
    @ List.map (fun c' -> Ast.Select (c', a, b)) (cond_variants c)
    @ List.map (fun a' -> Ast.Select (c, a', b)) (expr_variants a)
    @ List.map (fun b' -> Ast.Select (c, a, b')) (expr_variants b)
  | Ast.Load r ->
    List.map (fun r' -> Ast.Load r') (ref_variants r) @ [ Ast.Const 1L ]
  | Ast.Param _ -> [ Ast.Const 1L ]
  | Ast.Const c -> if c = 0L then [] else [ Ast.Const 0L ]

and cond_variants (c : Ast.cond) : Ast.cond list =
  List.map (fun cl -> { c with Ast.cl }) (expr_variants c.Ast.cl)
  @ List.map (fun cr -> { c with Ast.cr }) (expr_variants c.Ast.cr)

let stmt_variants (s : Ast.stmt) : Ast.stmt list =
  (* Dropping the guard is the biggest predication shrink; it survives only
     when the failure class persists unguarded (the greedy loop re-checks
     every candidate against the oracle). *)
  (match s.Ast.guard with
  | Some g ->
    { s with Ast.guard = None }
    :: List.map (fun g' -> { s with Ast.guard = Some g' }) (cond_variants g)
  | None -> [])
  @ List.map (fun rhs -> { s with Ast.rhs }) (expr_variants s.Ast.rhs)
  @
  match s.Ast.kind with
  | Ast.Assign ->
    List.map (fun lhs -> { s with Ast.lhs }) (ref_variants s.Ast.lhs)
  | Ast.Reduce _ -> []

(* Replace element [i] of [xs] by each of [f (List.nth xs i)]. *)
let at_each xs f =
  List.concat
    (List.mapi
       (fun i x ->
         List.map
           (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
           (f x))
       xs)

let with_program (c : Case.t) program = { c with Case.program }

let body_variants (c : Case.t) : Case.t list =
  let p = c.Case.program in
  let body = p.Ast.loop.Ast.body in
  let drops =
    if List.length body > 1 then
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) body) body
    else []
  in
  List.map
    (fun body' ->
      with_program c { p with Ast.loop = { p.Ast.loop with Ast.body = body' } })
    (drops @ at_each body stmt_variants)

let trip_variants (c : Case.t) : Case.t list =
  let p = c.Case.program in
  match p.Ast.loop.Ast.trip with
  | Ast.Trip_param _ ->
    (* Pin the runtime bound to its concrete value. *)
    let t = Case.effective_trip c in
    [
      {
        (with_program c
           { p with Ast.loop = { p.Ast.loop with Ast.trip = Ast.Trip_const t } })
        with
        Case.trip = None;
      };
    ]
    @ (match c.Case.trip with
      | Some t when t > 1 ->
        List.filter_map
          (fun t' ->
            if t' >= 1 && t' < t then Some { c with Case.trip = Some t' } else None)
          (Util.dedup [ t / 2; t - 1 ])
      | _ -> [])
  | Ast.Trip_const n ->
    List.filter_map
      (fun n' ->
        if n' >= 1 && n' < n then
          Some
            (with_program c
               { p with Ast.loop = { p.Ast.loop with Ast.trip = Ast.Trip_const n' } })
        else None)
      (Util.dedup [ n / 2; n - 1 ])

let array_variants (c : Case.t) : Case.t list =
  let p = c.Case.program in
  let trip = try Some (Case.effective_trip c) with Invalid_argument _ -> None in
  let needed (d : Ast.array_decl) =
    match trip with
    | None -> d.Ast.arr_len
    | Some t ->
      List.fold_left
        (fun acc (r : Ast.mem_ref) ->
          if r.Ast.ref_array = d.Ast.arr_name then
            max acc ((r.Ast.ref_stride * (t - 1)) + r.Ast.ref_offset + 1)
          else acc)
        1
        (Ast.program_refs p)
  in
  let decl_variants (d : Ast.array_decl) =
    let elem = Ast.elem_width d.Ast.arr_ty in
    let aligns =
      match d.Ast.arr_align with
      | Ast.Unknown -> [ Ast.Known 0 ]
      | Ast.Known k when k > 0 ->
        List.map (fun k' -> Ast.Known k')
          (Util.dedup [ 0; (k / 2 / elem) * elem; k - elem ])
      | Ast.Known _ -> []
    in
    List.map (fun a -> { d with Ast.arr_align = a }) aligns
    @
    let n = needed d in
    if n < d.Ast.arr_len then [ { d with Ast.arr_len = n } ] else []
  in
  List.map
    (fun arrays -> with_program c { p with Ast.arrays })
    (at_each p.Ast.arrays decl_variants)

(* Lower-is-simpler ranks: only strictly descending moves are proposed, so
   the shrink loop cannot cycle. Policies rank in declaration order. *)
let reuse_rank = function
  | Driver.No_reuse -> 0
  | Driver.Predictive_commoning -> 1
  | Driver.Software_pipelining -> 2

let config_variants (c : Case.t) : Case.t list =
  let cfg = c.Case.config in
  let open Driver in
  let with_cfg config = { c with Case.config } in
  (* [dedup]: disabling predictive commoning is also a reuse-ladder step *)
  List.map with_cfg @@ Util.dedup
    (List.filter_map
       (fun p ->
         if Policy.compare p cfg.policy < 0 then Some { cfg with policy = p }
         else None)
       Policy.all
    @ List.filter_map
        (fun r ->
          if reuse_rank r < reuse_rank cfg.reuse then Some { cfg with reuse = r }
          else None)
        [ No_reuse; Predictive_commoning ]
    @ List.filter_map
        (fun p -> if p.enabled cfg then Some (p.disable cfg) else None)
        passes
    @ (if cfg.unroll > 2 then [ { cfg with unroll = cfg.unroll - 1 } ] else [])
    @ (if cfg.peel_baseline then [ { cfg with peel_baseline = false } ] else [])
    @
    let vl = Simd_machine.Config.vector_len cfg.machine in
    List.filter_map
      (fun vl' ->
        if vl' < vl then
          Some { cfg with machine = Simd_machine.Config.create ~vector_len:vl' }
        else None)
      [ 16; 8; 4 ])

let seed_variants (c : Case.t) : Case.t list =
  if c.Case.setup_seed > 1 then
    [ { c with Case.setup_seed = 0 }; { c with Case.setup_seed = 1 } ]
  else if c.Case.setup_seed = 1 then [ { c with Case.setup_seed = 0 } ]
  else []

let candidates (c : Case.t) : Case.t list =
  body_variants c @ trip_variants c @ config_variants c @ array_variants c
  @ seed_variants c

(* ------------------------------------------------------------------ *)
(* The greedy loop                                                     *)
(* ------------------------------------------------------------------ *)

(** [minimize ?max_steps ?oracle case] — greedily shrink a failing case,
    preserving the outcome class reported by [oracle] (default
    {!Oracle.run}). Returns the input unchanged when it does not fail.
    [max_steps] bounds the number of oracle invocations (default 1500). *)
let minimize ?(max_steps = 1500) ?(oracle = Oracle.run) (c0 : Case.t) : Case.t =
  let target = oracle c0 in
  if not (Oracle.is_failure target) then c0
  else begin
    let steps = ref 0 in
    let still_fails cand =
      if !steps >= max_steps then false
      else begin
        incr steps;
        Oracle.same_class (oracle cand) target
      end
    in
    let rec loop current =
      if !steps >= max_steps then current
      else
        match
          List.find_opt still_fails (List.map normalize (candidates current))
        with
        | Some smaller -> loop smaller
        | None -> current
    in
    loop (normalize c0)
  end
