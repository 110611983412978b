(** Fuzzing campaigns: generate a budget of cases from one seed, classify
    each through the oracle, and minimize every failure. Everything is
    driven by the seed — two campaigns with the same seed and budget
    produce identical cases, outcomes, and minimized reproducers.

    A campaign is a deterministic chunk plan ({!plan} / {!run_chunk} /
    {!merge}), the unit of work of the parallel pool ({!Simd_par}). The
    campaign seed derives one independent PRNG stream per fixed-size
    chunk (SplitMix64 stream splitting), so a chunk's cases, outcomes,
    and minimized reproducers depend only on [(seed, chunk index)] —
    never on which worker ran it or how many workers there were. Merging
    the chunk results in index order therefore yields byte-identical
    aggregate output for any [--jobs N], and {!run} (the plan run
    in-process) checks the same cases. *)

module Prng = Simd_support.Prng
module Json = Simd_support.Json

type stats = {
  total : int;
  passed : int;
  skipped : int;
  static_violations : int;
  divergences : int;
  crashes : int;
}

let zero_stats =
  {
    total = 0;
    passed = 0;
    skipped = 0;
    static_violations = 0;
    divergences = 0;
    crashes = 0;
  }

let count (s : stats) (o : Oracle.outcome) =
  let s = { s with total = s.total + 1 } in
  match o with
  | Oracle.Pass -> { s with passed = s.passed + 1 }
  | Oracle.Skipped _ -> { s with skipped = s.skipped + 1 }
  | Oracle.Static_violation _ ->
    { s with static_violations = s.static_violations + 1 }
  | Oracle.Divergence _ -> { s with divergences = s.divergences + 1 }
  | Oracle.Crash _ -> { s with crashes = s.crashes + 1 }

let add_stats a b =
  {
    total = a.total + b.total;
    passed = a.passed + b.passed;
    skipped = a.skipped + b.skipped;
    static_violations = a.static_violations + b.static_violations;
    divergences = a.divergences + b.divergences;
    crashes = a.crashes + b.crashes;
  }

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d cases: %d passed, %d skipped, %d static violations, %d divergences, \
     %d crashes"
    s.total s.passed s.skipped s.static_violations s.divergences s.crashes

let stats_to_json (s : stats) : Json.t =
  Json.Obj
    [
      ("total", Json.Int s.total);
      ("passed", Json.Int s.passed);
      ("skipped", Json.Int s.skipped);
      ("static_violations", Json.Int s.static_violations);
      ("divergences", Json.Int s.divergences);
      ("crashes", Json.Int s.crashes);
    ]

type failure = {
  index : int;  (** 0-based case number within the campaign *)
  case : Case.t;
  minimized : Case.t;
  outcome : Oracle.outcome;
  culprit : Bisect.verdict option;
      (** pipeline bisection of the minimized case — the first pass whose
          output diverges; [None] when bisection was not requested *)
}

(* ------------------------------------------------------------------ *)
(* Deterministic chunked sharding                                      *)
(* ------------------------------------------------------------------ *)

let default_chunk_size = 50

type chunk = {
  chunk_index : int;  (** position in the plan, 0-based *)
  chunk_seed : int;  (** split PRNG stream for this chunk alone *)
  first : int;  (** campaign index of the chunk's first case *)
  size : int;  (** number of cases in this chunk *)
}

(** [plan ~seed ~budget ()] — the campaign's chunk list. Chunk seeds are
    drawn sequentially from a root stream seeded by [seed], so chunk [k]'s
    seed is a function of [(seed, k)] only: the plan is identical no
    matter how the chunks are later scheduled. *)
let plan ?(chunk_size = default_chunk_size) ~seed ~budget () : chunk list =
  if chunk_size <= 0 then invalid_arg "Campaign.plan: chunk_size must be positive";
  if budget < 0 then invalid_arg "Campaign.plan: negative budget";
  let root = Prng.create ~seed in
  let nchunks = (budget + chunk_size - 1) / chunk_size in
  let chunks = ref [] in
  for k = 0 to nchunks - 1 do
    (* [land max_int] clears the sign bit: chunk seeds are non-negative
       ints, printable and replayable on their own. *)
    let chunk_seed = Int64.to_int (Prng.next_int64 root) land max_int in
    chunks :=
      {
        chunk_index = k;
        chunk_seed;
        first = k * chunk_size;
        size = min chunk_size (budget - (k * chunk_size));
      }
      :: !chunks
  done;
  List.rev !chunks

(** [run_chunk chunk] — check one chunk's cases: a pure function of the
    chunk (given the oracle), independent of every other chunk. Failure
    indices are campaign-global. *)
let run_chunk ?(shrink = true) ?(shrink_steps = 1500) ?(bisect = true)
    ?(oracle = Oracle.run) ?(on_case = fun _ _ _ -> ()) (c : chunk) :
    stats * failure list =
  let prng = Prng.create ~seed:c.chunk_seed in
  let stats = ref zero_stats in
  let failures = ref [] in
  for local = 0 to c.size - 1 do
    let index = c.first + local in
    let case = Genloop.gen_case prng in
    let outcome = oracle case in
    on_case index case outcome;
    stats := count !stats outcome;
    if Oracle.is_failure outcome then begin
      let minimized =
        if shrink then Shrink.minimize ~max_steps:shrink_steps ~oracle case
        else case
      in
      let culprit = if bisect then Some (Bisect.run minimized) else None in
      failures := { index; case; minimized; outcome; culprit } :: !failures
    end
  done;
  (!stats, List.rev !failures)

(** [merge results] — aggregate per-chunk results (given in plan order)
    into campaign totals; failures come back sorted by campaign index. *)
let merge (results : (stats * failure list) list) : stats * failure list =
  let stats = List.fold_left (fun acc (s, _) -> add_stats acc s) zero_stats results in
  let failures =
    List.concat_map snd results
    |> List.sort (fun a b -> compare a.index b.index)
  in
  (stats, failures)

(** [run ~seed ~budget ()] — the campaign's chunk plan run in-process, in
    plan order. [shrink] (default true) minimizes each failure;
    [shrink_steps] bounds each minimization; [bisect] (default true) names
    the first diverging pass of each minimized failure; [oracle] (default
    {!Oracle.run}) classifies each case and drives shrinking. [on_case]
    observes every (index, case, outcome) as it happens — tests use it
    for determinism checks. *)
let run ?shrink ?shrink_steps ?bisect ?oracle ?on_case ~seed ~budget () =
  merge
    (List.map
       (run_chunk ?shrink ?shrink_steps ?bisect ?oracle ?on_case)
       (plan ~seed ~budget ()))
