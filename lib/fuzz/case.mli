(** A fuzz case: one loop program plus everything needed to replay its
    differential check — driver configuration, concrete trip count for
    runtime bounds, and the simulation seed. Serializes to a [.simd] file
    whose comment header carries the replay data, so reproducers double as
    ordinary corpus programs. *)

open Simd_loopir

type t = {
  program : Ast.program;
  config : Simd_codegen.Driver.config;
  trip : int option;  (** concrete trip count when the bound is a param *)
  setup_seed : int;  (** seed for array placement and memory noise *)
}

val effective_trip : t -> int
(** The trip count the simulation runs with. Raises [Invalid_argument] on a
    runtime-bound case with no trip value. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val to_file : string -> t -> unit
val of_file : string -> (t, string) result

val pp : Format.formatter -> t -> unit
