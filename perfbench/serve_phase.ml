(* The serve phase: the compile service over pipes. A [simd_served] child
   ([Serve.Server], jobs = 1, artifact cache in a fresh directory)
   answers one client connection that keeps a fixed window of requests in
   flight (closed loop). The cold phase sends every request of a
   duplicate-free stream once, so each one misses and is compiled and
   written to the cache; the hot phase replays the identical stream, so
   each one hits and the server only reads the cache, parses the
   protocol and serializes JSON. *)

module Driver = Simd.Driver
module Protocol = Simd.Serve.Protocol
module Compile = Simd.Serve.Compile
module Server = Simd.Serve.Server
module Json = Simd.Json
module Prng = Simd.Prng
module Cas = Simd.Cas

(* In-flight requests: at most nproc (2), so the client and the server
   child never want more CPUs than the machine has. *)
let window = 2

type req = { rname : string; request : Protocol.request; line : string }

(* [count] distinct Genloop requests (distinct cache keys), each at V = 16
   or 32 with its own sampled configuration, stratified by program size
   and interleaved like the compile stream. The requests come from a
   fixed pool and the run's seed orders them, as with the compile
   stream's programs: cold-phase cost is set by which programs are
   drawn, and with a seeded draw serve_cold_rps spread 0.29 (quartile
   distance over median) across ten seeds, against 0.17 for compile_rps,
   whose population was already fixed, in the same runs. *)
let stream ~seed ~count =
  let prng = Prng.create ~seed:(Compile_phase.pool_seed lxor 0x5E4E) in
  let seen = Hashtbl.create count in
  let classes =
    Compile_phase.stratified ~count (fun () ->
        let machine = Simd.Machine.create ~vector_len:(Prng.pick prng [ 16; 32 ]) in
        let program, _ = Simd.Fuzz.Genloop.gen_program prng ~machine in
        let config = Simd.Fuzz.Genloop.gen_config prng ~machine in
        let config = { config with Driver.cleanup = Prng.bool prng } in
        let rname = Printf.sprintf "s%04d" (Hashtbl.length seen) in
        let request =
          {
            Protocol.id = rname;
            source = Simd.Pp.program_to_string program;
            config;
            emits = Protocol.default_emits;
          }
        in
        let key = Compile.cache_key request in
        let legal = Result.is_ok (Simd.Analysis.check ~machine (Simd.Mask.apply program)) in
        if Hashtbl.mem seen key || not legal then None
        else begin
          Hashtbl.replace seen key ();
          Some (program, { rname; request; line = Protocol.request_to_line request })
        end)
  in
  let order = Prng.create ~seed:(seed lxor 0x5E4E) in
  Compile_phase.interleave (List.map (Compile_phase.shuffled order) classes)

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  send_fd : Unix.file_descr;
  recv : in_channel;
  mutable closed : bool;
}

(* The repository's own [simd_served], built beside this executable, in
   pipe mode. The child is a fresh exec rather than a fork of the
   benchmark, so its peak RSS is the server's own and not the benchmark's
   inherited heap. *)
let server_exe () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") "simd_served.exe"

let start_server ~cache_dir =
  let exe = server_exe () in
  if not (Sys.file_exists exe) then failwith (exe ^ " is missing: build ./bin/simd_served.exe");
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--jobs"; "1"; "--cache"; cache_dir |] req_r resp_w
      Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  { pid; send_fd = req_w; recv = Unix.in_channel_of_descr resp_r; closed = false }

(* Close the connection (EOF ends the server loop) and reap the child. *)
let stop srv =
  if not srv.closed then begin
    srv.closed <- true;
    (try Unix.close srv.send_fd with Unix.Unix_error _ -> ());
    (try close_in srv.recv with Sys_error _ -> ());
    ignore (Stats.wait_pid srv.pid)
  end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Send [lines] with [window] requests in flight; responses come back in
   request order. Latency is send → receive as the client saw it. *)
let pass srv (lines : string array) =
  let n = Array.length lines in
  let sent_at = Array.make n 0. and lat = Array.make n 0. and done_at = Array.make n 0. in
  let responses = Array.make n "" in
  let send i =
    sent_at.(i) <- Stats.now ();
    write_all srv.send_fd (lines.(i) ^ "\n")
  in
  for i = 0 to min window n - 1 do
    send i
  done;
  for i = 0 to n - 1 do
    responses.(i) <- input_line srv.recv;
    done_at.(i) <- Stats.now ();
    lat.(i) <- (done_at.(i) -. sent_at.(i)) *. 1000.;
    if i + window < n then send (i + window)
  done;
  (lat, responses, done_at)

(* Cache hits and misses so far, from the server's own telemetry. *)
let cache_counters srv =
  write_all srv.send_fd "{\"op\":\"stats\"}\n";
  let line = input_line srv.recv in
  let get k =
    match Json.of_string line with
    | Ok doc ->
      Option.value ~default:0
        (Option.bind
           (Option.bind (Json.member "cache" doc) (Json.member k))
           Json.to_int_opt)
    | Error _ -> 0
  in
  (get "hits", get "misses")

(* ------------------------------------------------------------------ *)
(* The measured phases                                                 *)
(* ------------------------------------------------------------------ *)

(* The phase runs in rounds interleaved with the other phases. Round [k]
   sends the [k]-th slice of the stream cold, then replays that slice hot
   until its share of the hot budget is spent (at least once). Host speed
   is sampled around every pass, and each pass's latencies and rate are
   scaled to reference speed ([Host_speed]). A hot request's latency is
   its fastest replay: a hot request takes a fraction of a millisecond, so
   one descheduling of the client or the server multiplies it, and such
   hiccups came in bursts that moved a single-replay p99 threefold
   between runs. *)
type state = {
  srv : server;
  speed : Host_speed.t;
  stream : req array;
  cold : string array;  (** cold responses, by stream index *)
  cold_lat : float array;
  mismatched : (int, unit) Hashtbl.t;
  hot_best : float array;  (** each request's fastest hot replay, by stream index *)
  mutable hot_requests : int;
  mutable cold_rates : float list;
  mutable hot_rates : float list;
  mutable cold_hm : int * int;  (** cache hits, misses during cold slices *)
  mutable hot_hm : int * int;
}

let start ~speed srv stream =
  let n = Array.length stream in
  {
    srv;
    speed;
    stream;
    cold = Array.make n "";
    cold_lat = Array.make n 0.;
    mismatched = Hashtbl.create 8;
    hot_best = Array.make n infinity;
    hot_requests = 0;
    cold_rates = [];
    hot_rates = [];
    cold_hm = (0, 0);
    hot_hm = (0, 0);
  }

let rate lines t0 done_at =
  float_of_int (Array.length lines) /. (done_at.(Array.length done_at - 1) -. t0)

(* [pass] with the host speed sampled before and after; latencies and
   rate at reference speed, and the raw time the pass took. *)
let scaled_pass st lines =
  Host_speed.tick st.speed;
  let t0 = Stats.now () in
  let lat, responses, done_at = pass st.srv lines in
  Host_speed.sample st.speed;
  let f = Host_speed.factor st.speed in
  ( Array.map (fun ms -> ms *. f) lat,
    responses,
    rate lines t0 done_at /. f,
    done_at.(Array.length done_at - 1) -. t0 )

let round st ~k ~rounds ~hot_budget_s =
  let n = Array.length st.stream in
  let a = n * k / rounds and b = n * (k + 1) / rounds in
  if b > a then begin
    let lines = Array.init (b - a) (fun i -> st.stream.(a + i).line) in
    let counted (hm : int * int) f =
      let h0, m0 = cache_counters st.srv in
      f ();
      let h1, m1 = cache_counters st.srv in
      (fst hm + h1 - h0, snd hm + m1 - m0)
    in
    st.cold_hm <-
      counted st.cold_hm (fun () ->
          let lat, responses, r, _ = scaled_pass st lines in
          st.cold_rates <- r :: st.cold_rates;
          Array.blit responses 0 st.cold a (b - a);
          Array.blit lat 0 st.cold_lat a (b - a));
    st.hot_hm <-
      counted st.hot_hm (fun () ->
          let spent = ref 0. and replays = ref 0 in
          while !replays = 0 || !spent < hot_budget_s do
            let lat, responses, r, took = scaled_pass st lines in
            spent := !spent +. took;
            st.hot_rates <- r :: st.hot_rates;
            Array.iteri
              (fun i r -> if r <> st.cold.(a + i) then Hashtbl.replace st.mismatched (a + i) ())
              responses;
            Array.iteri
              (fun i ms -> st.hot_best.(a + i) <- Float.min st.hot_best.(a + i) ms)
              lat;
            st.hot_requests <- st.hot_requests + (b - a);
            incr replays
          done)
  end

type result = {
  cold_ms : float list;  (** at reference speed, as are the rates *)
  cold_rate : float;  (** requests/s, median over cold slices *)
  hot_ms : float list;  (** each request's fastest replay *)
  hot_rate : float;  (** requests/s, median over hot replays *)
  hot_requests : int;
  hit_ratio_cold : float;
  hit_ratio_hot : float;
  server_rss_mb : float;
  attempted : int;
  failed : int;
  failures : (string * string) list;
}

let status_of line =
  match Json.of_string line with
  | Error _ -> None
  | Ok doc -> Option.bind (Json.member "status" doc) Json.to_string_opt

(* After the last round, outside the timed phases: every response against
   the in-process answer to the same request. *)
let finish st : result =
  let server_rss_mb = Stats.peak_rss_mb st.srv.pid in
  let failures = ref [] in
  Array.iteri
    (fun i r ->
      let fail m = failures := (r.rname, m) :: !failures in
      let expected =
        Protocol.response_line ~id:r.request.Protocol.id
          (Compile.outcome_to_json (Compile.run r.request))
      in
      match status_of st.cold.(i) with
      | None -> fail "response does not parse"
      | Some "error" -> fail "status error"
      | Some _ ->
        if Hashtbl.mem st.mismatched i then fail "hot response differs from cold"
        else if st.cold.(i) <> expected then
          fail "differs from in-process Compile.outcome_to_json")
    st.stream;
  let ratio (h, m) = if h + m = 0 then Float.nan else float_of_int h /. float_of_int (h + m) in
  let n = Array.length st.stream in
  let failed = List.length !failures in
  {
    cold_ms = Array.to_list st.cold_lat;
    cold_rate = Stats.median st.cold_rates;
    hot_ms = List.filter Float.is_finite (Array.to_list st.hot_best);
    hot_rate = Stats.median st.hot_rates;
    hot_requests = st.hot_requests;
    hit_ratio_cold = ratio st.cold_hm;
    hit_ratio_hot = ratio st.hot_hm;
    server_rss_mb;
    attempted = n + st.hot_requests;
    failed;
    failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)
(* ------------------------------------------------------------------ *)

type traced = {
  parse_ms : float list;
  key_ms : float list;
  response_ms : float list;
  compile_ms : float list;
  find_ms : float list;
  store_ms : float list;
  batch_ms : float list;  (** hot [handle_batch] calls *)
  batch_size : float;
  per_request_ms : float;  (** median hot handling time per request *)
}

(* The server's steps, replayed in-process with a span around each call:
   protocol parse, cache key, cache find, compile (misses only), cache
   store, response line; then [Server.handle_batch] itself over
   window-sized batches of hits. *)
let traced ~dir (stream : req array) : traced =
  let acc = ref [] in
  let span k f =
    let v, ms = Stats.time f in
    acc := (k, ms) :: !acc;
    v
  in
  let cas_dir = Filename.concat dir "traced-cas" in
  let cas = Cas.create ~dir:cas_dir () in
  let step ~hot line =
    (* protocol, key, find and response spans are taken on the hot pass;
       compile and store only happen on the cold one *)
    let span_hot k f = if hot then span k f else f () in
    match span_hot "parse" (fun () -> Protocol.parse_line line) with
    | Protocol.Compile r ->
      let key = span_hot "key" (fun () -> Compile.cache_key r) in
      let doc =
        match span_hot "find" (fun () -> Cas.find cas ~key) with
        | Some payload -> (
          match Json.of_string payload with Ok d -> d | Error m -> Json.String m)
        | None ->
          let doc = Compile.outcome_to_json (span "compile" (fun () -> Compile.run r)) in
          span "store" (fun () -> Cas.store cas ~key (Json.to_line doc));
          doc
      in
      ignore (span_hot "response" (fun () -> Protocol.response_line ~id:r.Protocol.id doc))
    | _ -> ()
  in
  Array.iter (fun r -> step ~hot:false r.line) stream;
  Array.iter (fun r -> step ~hot:true r.line) stream;
  (* A server over the cache the replay just filled: every batch hits. *)
  let server = Server.create ~jobs:1 ~cache:(Cas.create ~dir:cas_dir ()) () in
  let batches =
    let lines = Array.to_list (Array.map (fun r -> r.line) stream) in
    let rec chunk acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if k = window then chunk (List.rev cur :: acc) [ x ] 1 rest
        else chunk acc (x :: cur) (k + 1) rest
    in
    chunk [] [] 0 lines
  in
  let hot =
    List.map
      (fun b ->
        let _, ms = Stats.time (fun () -> Server.handle_batch server b) in
        (ms, List.length b))
      batches
  in
  let get k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) !acc in
  {
    parse_ms = get "parse";
    key_ms = get "key";
    response_ms = get "response";
    compile_ms = get "compile";
    find_ms = get "find";
    store_ms = get "store";
    batch_ms = List.map fst hot;
    batch_size =
      float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 hot)
      /. float_of_int (max 1 (List.length hot));
    per_request_ms = Stats.median (List.map (fun (ms, n) -> ms /. float_of_int n) hot);
  }
