(* Host speed, measured alongside the timed phases.

   On a shared 2-vCPU VM the compiler runs up to ~1.6x slower for seconds
   to minutes at a time; that is not steal time, so CPU time slows as
   much as wall time. Two fixed reference kernels, written in this file
   and independent of the library under test, are timed every [interval]
   seconds: a pointer chase through a shuffled 256 KiB array, and an
   allocating one that builds a hash table, a sorted list and a map. The
   compile and serve timings are scaled by [reference_ms] over the
   geometric mean of their recent times, so they read as on that host at
   a fast moment. In two traces alternating a fixed compile batch with
   the kernels, the range of the batch time's 3-5 s medians was 51 % and
   45 % of their median raw, and 11 % and 20 % scaled by the geometric
   mean; either kernel alone did worse in one of the traces. The
   allocating kernel keeps little alive, but its minor collections can
   run slices of the major collector's work, so a much larger compiler
   heap would slow it a little and hide a little of that cost.

   The two vCPUs slow down independently, so the kernels only track the
   CPU they run on: the timed phases pin the benchmark and the server
   child to one CPU ([share_cpu]), and the serve client's samples then
   track the server as well. *)

external current_cpu : unit -> int = "perfbench_current_cpu"
external pin : int -> int -> bool = "perfbench_pin"

(* Pin this process and [pids] to the CPU it runs on now; that CPU, or
   [None] if the kernel refused. Children started later inherit it. *)
let share_cpu pids =
  let cpu = max 0 (current_cpu ()) in
  if List.for_all (fun pid -> pin pid cpu) (0 :: pids) then Some cpu else None

(* A sample's time on a 2-vCPU Xeon VM at a fast moment (about the 5th
   percentile of samples taken there). *)
let reference_ms = 0.43

let interval = 0.1

let chain =
  let n = 1 lsl 15 in
  let a = Array.init n Fun.id in
  let s = ref 12345 in
  for i = n - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let chase () =
  let idx = ref 0 and acc = ref 0 in
  for _ = 1 to 60000 do
    idx := chain.(!idx);
    acc := ((!acc * 31) + !idx) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc)

module IntMap = Map.Make (Int)

let churn () =
  let h = Hashtbl.create 256 in
  for i = 0 to 999 do
    Hashtbl.replace h (string_of_int ((i * 7919) land 0xfff)) i
  done;
  let l = List.sort compare (List.init 1000 (fun i -> (i * 7919) land 1023)) in
  let m = List.fold_left (fun m x -> IntMap.add x x m) IntMap.empty l in
  ignore (Sys.opaque_identity (Hashtbl.length h + IntMap.cardinal m))

type t = {
  mutable last : float;  (** when the latest sample was taken *)
  mutable recent : float list;  (** the latest samples, newest first *)
  mutable all : float list;
}

let create () = { last = neg_infinity; recent = []; all = [] }

(* The fastest of three back-to-back runs, so an interrupt does not read
   as a slow host. *)
let best3 f = List.fold_left (fun m _ -> Float.min m (snd (Stats.time f))) infinity [ 1; 2; 3 ]

(* One sample: the geometric mean of the two kernels' times. *)
let sample t =
  let ms = sqrt (best3 chase *. best3 churn) in
  t.recent <- List.filteri (fun i _ -> i < 3) (ms :: t.recent);
  t.all <- ms :: t.all;
  t.last <- Stats.now ()

(* Take a sample if the latest is older than [interval]. *)
let tick t = if Stats.now () -. t.last >= interval then sample t

(* Multiply a time by this (divide a rate) to read it at reference speed:
   [reference_ms] over the median of the latest three samples. *)
let factor t =
  if t.recent = [] then sample t;
  reference_ms /. Stats.median t.recent

(* The median sample over the run, for the report. *)
let median_ms t = Stats.median t.all
