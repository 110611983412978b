(* The dataflow engine (Simd.Dataflow): qcheck laws for the Absoff
   lattice (join commutativity / associativity / idempotence, upper
   bounds, transfer monotonicity on the non-Bot sublattice), and unit
   tests for the shipped analyses — liveness with back-edge closure,
   definition summaries with If-poisoning, carried-temp discovery, the
   bounded fixpoint, and stream-offset evaluation. *)

open Simd
module Expr = Vir_expr
module Rexpr = Vir_rexpr
module Addr = Vir_addr
module SS = Util.String_set
module SM = Util.String_map

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = 16

(* ------------------------------------------------------------------ *)
(* Absoff lattice laws                                                 *)
(* ------------------------------------------------------------------ *)

(* The engine's invariant (see the interface) is that every value is
   kept normalized, so the laws are stated on normalized representatives
   — raw k's still range over [-2V, 2V] to exercise the wraparound. *)
let gen_absoff : Absoff.t QCheck.Gen.t =
  QCheck.Gen.(
    map
      (Absoff.normalize ~v)
      (frequency
         [
           (1, return Absoff.Bot);
           (3, map (fun k -> Absoff.Byte k) (int_range (-2 * v) (2 * v)));
           ( 3,
             map3
               (fun arr sign k ->
                 Absoff.Sym { arr; sign = (if sign then 1 else -1); k })
               (oneofl [ "a"; "b"; "c" ])
               bool
               (int_range (-2 * v) (2 * v)) );
           (1, return Absoff.Top);
         ]))

let arb_absoff = QCheck.make ~print:Absoff.to_string gen_absoff

let arb_absoff_pair = QCheck.pair arb_absoff arb_absoff
let arb_absoff_triple = QCheck.triple arb_absoff arb_absoff arb_absoff

(* x is below y in the join order (stated modulo normalization). *)
let leq x y =
  Absoff.equal
    (Absoff.normalize ~v (Absoff.merge ~v x y))
    (Absoff.normalize ~v y)

let prop_join_commutative =
  QCheck.Test.make ~count:1000 ~name:"merge commutative" arb_absoff_pair
    (fun (a, b) -> Absoff.equal (Absoff.merge ~v a b) (Absoff.merge ~v b a))

let prop_join_associative =
  QCheck.Test.make ~count:1000 ~name:"merge associative" arb_absoff_triple
    (fun (a, b, c) ->
      Absoff.equal
        (Absoff.merge ~v (Absoff.merge ~v a b) c)
        (Absoff.merge ~v a (Absoff.merge ~v b c)))

let prop_join_idempotent =
  QCheck.Test.make ~count:1000 ~name:"merge idempotent" arb_absoff (fun a ->
      Absoff.equal (Absoff.merge ~v a a) (Absoff.normalize ~v a))

let prop_join_upper_bound =
  QCheck.Test.make ~count:1000 ~name:"merge is an upper bound"
    arb_absoff_pair (fun (a, b) ->
      let j = Absoff.merge ~v a b in
      leq a j && leq b j)

(* Transfer monotonicity is stated on the Byte/Sym/Top sublattice: [Bot]
   is not a set-containment bottom but "lane-uniform, compatible with
   any offset", and [add] deliberately absorbs it (Bot + o = o), which
   is sound for the checker but not monotone in the join order. Above
   Bot the order is flat-plus-Top, so comparable pairs are x <= x and
   x <= Top. *)
let gen_mono_pair =
  QCheck.Gen.(
    let non_bot =
      gen_absoff
      |> map (fun x -> if x = Absoff.Bot then Absoff.Top else x)
    in
    pair non_bot bool
    |> map (fun (x, up) -> (x, if up then Absoff.Top else x)))

let arb_mono_pair =
  QCheck.make
    ~print:(fun (x, y) ->
      Printf.sprintf "(%s, %s)" (Absoff.to_string x) (Absoff.to_string y))
    gen_mono_pair

let prop_transfer_monotone =
  QCheck.Test.make ~count:1000 ~name:"transfers monotone above Bot"
    (QCheck.pair arb_mono_pair arb_absoff)
    (fun ((x, y), z) ->
      QCheck.assume (leq x y);
      let z = if z = Absoff.Bot then Absoff.Byte 4 else z in
      leq (Absoff.add ~v x z) (Absoff.add ~v y z)
      && leq (Absoff.sub ~v x z) (Absoff.sub ~v y z)
      && leq (Absoff.neg ~v x) (Absoff.neg ~v y)
      && leq (Absoff.mul_const ~v x 3) (Absoff.mul_const ~v y 3)
      && leq (Absoff.mod_const ~v x 8) (Absoff.mod_const ~v y 8)
      && leq (Absoff.merge ~v x z) (Absoff.merge ~v y z))

let prop_normalize_idempotent =
  QCheck.Test.make ~count:1000 ~name:"normalize idempotent" arb_absoff
    (fun a ->
      Absoff.equal
        (Absoff.normalize ~v (Absoff.normalize ~v a))
        (Absoff.normalize ~v a))

(* ------------------------------------------------------------------ *)
(* IR builders                                                         *)
(* ------------------------------------------------------------------ *)

let addr ?(scale = 1) array offset = { Addr.array; offset; scale }
let load ?scale arr off = Expr.Load (addr ?scale arr off)
let temp x = Expr.Temp x
let shiftp a b s = Expr.Shiftpair (a, b, Rexpr.Const s)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness () =
  let body =
    [
      Expr.Assign ("x", load "a" 0);
      Expr.Assign ("y", Expr.Op (Ast.Add, temp "x", temp "x"));
      Expr.Store (addr "b" 0, temp "y");
    ]
  in
  let live = Dataflow.Live.live_in SS.empty body in
  check_bool "straight-line entry live set empty" true (SS.is_empty live);
  let live = Dataflow.Live.live_in (SS.singleton "x") body in
  check_bool "x redefined before exit" true (SS.is_empty live);
  let live = Dataflow.Live.live_in (SS.singleton "q") body in
  check_bool "unrelated live-out survives" true (SS.mem "q" live);
  check_bool "reads_of sees all reads" true
    (SS.equal (Dataflow.Live.reads_of body) (SS.of_list [ "x"; "y" ]))

let test_loop_out_closes_back_edge () =
  (* [old] is read at the top and refreshed at the bottom: it must be
     live around the back edge even with an empty tail set. *)
  let body =
    [
      Expr.Assign ("t", shiftp (temp "old") (load "a" 0) 4);
      Expr.Store (addr "b" 0, temp "t");
      Expr.Assign ("old", load "a" 4);
    ]
  in
  let out = Dataflow.Live.loop_out ~body SS.empty in
  check_bool "carried temp live across the back edge" true (SS.mem "old" out);
  check_bool "local temp not live out" false (SS.mem "t" out)

(* ------------------------------------------------------------------ *)
(* Definition summaries                                                *)
(* ------------------------------------------------------------------ *)

let test_defs_scan_and_resolve () =
  let stmts =
    [
      Expr.Assign ("x", load "a" 0);
      Expr.Assign ("y", temp "x");
      Expr.Assign ("z", temp "y");
    ]
  in
  let defs = Dataflow.Defs.scan stmts in
  (match Dataflow.Defs.single_def defs "y" with
  | Some (1, Expr.Temp "x") -> ()
  | _ -> Alcotest.fail "single_def y");
  (match Dataflow.Defs.resolve defs (temp "z") with
  | Expr.Load a -> check_bool "resolve chases to the load" true (a.Addr.array = "a")
  | _ -> Alcotest.fail "resolve z should reach the load")

let test_defs_if_poisons () =
  let guard = Rexpr.Ge (Rexpr.Trip, Rexpr.Const 4) in
  let stmts =
    [
      Expr.Assign ("x", load "a" 0);
      Expr.If (guard, [ Expr.Assign ("x", load "b" 0) ], []);
      Expr.Assign ("w", load "b" 4);
    ]
  in
  let defs = Dataflow.Defs.scan stmts in
  check_bool "If-redefined temp is never single-def" true
    (Dataflow.Defs.single_def defs "x" = None);
  check_bool "untouched temp still single-def" true
    (Dataflow.Defs.single_def defs "w" <> None)

(* ------------------------------------------------------------------ *)
(* Carried temps                                                       *)
(* ------------------------------------------------------------------ *)

let test_carried_temps () =
  let body =
    [
      Expr.Assign ("new0", load "a" 4);
      Expr.Assign ("t", shiftp (temp "old0") (temp "new0") 4);
      Expr.Store (addr "b" 0, temp "t");
      Expr.Assign ("old0", temp "new0");
    ]
  in
  match Dataflow.Reach.carried_temps body with
  | [ c ] ->
    Alcotest.(check string) "carried temp name" "old0" c.Dataflow.Reach.ca_name;
    check_int "first read" 1 c.Dataflow.Reach.ca_first_read
  | cs ->
    Alcotest.failf "expected exactly one carried temp, got %d" (List.length cs)

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let test_fixpoint () =
  let r =
    Dataflow.fixpoint ~rounds:10 ~equal:Int.equal
      ~widen:(fun _ y -> y)
      ~f:(fun n -> min (n + 1) 3)
      0
  in
  check_int "converges to the fixed point" 3 r;
  let widened =
    Dataflow.fixpoint ~rounds:1 ~equal:Int.equal
      ~widen:(fun _ _ -> 99)
      ~f:(fun n -> n + 1)
      0
  in
  check_int "non-convergence forces the widen step" 99 widened

(* ------------------------------------------------------------------ *)
(* Stream offsets                                                      *)
(* ------------------------------------------------------------------ *)

let test_offsets_eval () =
  let ctx =
    {
      Dataflow.Offsets.v;
      elem = 4;
      lookup = (function "a" -> Some 0 | "b" -> Some 8 | _ -> None);
      opaque_loads = false;
    }
  in
  let eval = Dataflow.Offsets.eval ctx SM.empty in
  check_bool "aligned load" true (Absoff.equal (eval (load "a" 0)) (Absoff.Byte 0));
  check_bool "offset load" true (Absoff.equal (eval (load "a" 1)) (Absoff.Byte 4));
  check_bool "base + offset" true (Absoff.equal (eval (load "b" 1)) (Absoff.Byte 12));
  check_bool "splat is lane-uniform" true
    (Absoff.equal (eval (Expr.Splat (Ast.Const 1L))) Absoff.Bot);
  check_bool "equal-halves shiftpair is a rotation (Top)" true
    (Absoff.equal (eval (shiftp (load "a" 0) (load "a" 0) 4)) Absoff.Top);
  check_bool "unknown temp is Top" true
    (Absoff.equal (eval (temp "ghost")) Absoff.Top);
  let env = SM.add "x" (Absoff.Byte 4) SM.empty in
  check_bool "bound temp reads the environment" true
    (Absoff.equal (Dataflow.Offsets.eval ctx env (temp "x")) (Absoff.Byte 4))

let suite =
  [
    ( "dataflow",
      [
        QCheck_alcotest.to_alcotest prop_join_commutative;
        QCheck_alcotest.to_alcotest prop_join_associative;
        QCheck_alcotest.to_alcotest prop_join_idempotent;
        QCheck_alcotest.to_alcotest prop_join_upper_bound;
        QCheck_alcotest.to_alcotest prop_transfer_monotone;
        QCheck_alcotest.to_alcotest prop_normalize_idempotent;
        Alcotest.test_case "liveness transfer" `Quick test_liveness;
        Alcotest.test_case "loop_out closes the back edge" `Quick
          test_loop_out_closes_back_edge;
        Alcotest.test_case "defs scan and resolve" `Quick
          test_defs_scan_and_resolve;
        Alcotest.test_case "If definitions poison single-def" `Quick
          test_defs_if_poisons;
        Alcotest.test_case "carried temps" `Quick test_carried_temps;
        Alcotest.test_case "bounded fixpoint" `Quick test_fixpoint;
        Alcotest.test_case "stream-offset evaluation" `Quick test_offsets_eval;
      ] );
  ]
