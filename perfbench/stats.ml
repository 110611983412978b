(* Timing and summary helpers shared by the three phases. *)

let now = Unix.gettimeofday

(* [time f] — [f ()] and its wall time in milliseconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array; [nan] when empty. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> Float.nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Reads to end of file rather than trusting the file length, which
   /proc files report as 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The value of a "Key:   123 kB" line of a /proc status file. *)
let proc_field ~file ~key =
  match
    List.find_opt
      (fun l -> String.length l > String.length key
                && String.sub l 0 (String.length key + 1) = key ^ ":")
      (String.split_on_char '\n' (read_file file))
  with
  | None -> None
  | Some l ->
    let v = String.sub l (String.length key + 1)
        (String.length l - String.length key - 1) in
    Scanf.sscanf_opt (String.trim v) "%d" Fun.id

(* Peak resident set ([VmHWM]) of a live process, in MB; [nan] when it
   cannot be read. *)
let peak_rss_mb pid =
  match proc_field ~file:(Printf.sprintf "/proc/%d/status" pid) ~key:"VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> Float.nan
  | exception Sys_error _ -> Float.nan

let digest_strings parts = Digest.to_hex (Digest.string (String.concat "\000" parts))

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Run [argv] with stdout/stderr sent to [log]; the child's pid. *)
let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd fd)

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

let exit_ok = function Unix.WEXITED 0 -> true | _ -> false

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
