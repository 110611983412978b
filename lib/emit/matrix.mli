(** The backend matrix: one placed compilation ({!Simd_codegen.Driver}
    outcome) joined against the whole backend registry ({!Backend}).

    For each backend, the placement is retargeted to the backend's native
    vector length ({!Simd_codegen.Retarget} — [Portable] keeps the source
    V), the build machine's capability is probed, and the retargeted
    compilation is priced under its V′ cost model. This is the table
    [bench --json] publishes, [bin/backends.exe] prints, and
    [docs/BACKENDS.md] renders. *)

module Driver = Simd_codegen.Driver
module Retarget = Simd_codegen.Retarget

type row = {
  backend : Backend.id;
  support : Backend.support;  (** what this machine can do with it *)
  vl : int;  (** the vector length the row targets *)
  retarget : (Retarget.t, Driver.reason) result;
      (** the placement re-instantiated at [vl] ([Error] when the program
          is illegal or the trip too small at that width) *)
}

val rows : ?cc:Cc.t -> Driver.outcome -> row list
(** One row per registry backend, in {!Backend.all} order; each
    retargeted compilation is verified ({!Retarget.retarget}). *)

val unit_of_row : row -> string option
(** The backend's translation unit for the row's retargeted program
    ([None] when the retarget failed). *)

val row_to_json : row -> Simd_support.Json.t
val to_json : row list -> Simd_support.Json.t
(** Rows for [BENCH_backends.json]: backend, support, V, retarget
    statuses, verifier error count, weighted costs. *)
