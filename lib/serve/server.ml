(** The serve-many loop (see the interface). *)

module Json = Simd_support.Json
module Cas = Simd_support.Cas
module Pool = Simd_par.Pool
module Trace = Simd_trace.Trace

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

type telemetry = {
  mutable requests : int;
  mutable ok : int;
  mutable scalar : int;
  mutable errors : int;
  mutable control : int;
  mutable batches : int;
  mutable max_depth : int;
  mutable depth_sum : int;
  mutable pool_dispatched : int;
  mutable pool_errors : int;
  mutable pool_timeouts : int;
  mutable pool_crashes : int;
  mutable latencies_ms : float list;  (** newest first *)
  mutable latency_count : int;
  started : float;
}

let fresh_telemetry () =
  {
    requests = 0;
    ok = 0;
    scalar = 0;
    errors = 0;
    control = 0;
    batches = 0;
    max_depth = 0;
    depth_sum = 0;
    pool_dispatched = 0;
    pool_errors = 0;
    pool_timeouts = 0;
    pool_crashes = 0;
    latencies_ms = [];
    latency_count = 0;
    started = Unix.gettimeofday ();
  }

(* Bound the latency log: keep the newest window, plenty for stable
   percentiles without unbounded growth in a long-lived daemon. *)
let latency_window = 65536

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

type t = {
  jobs : int;
  timeout : float option;
  max_batch : int;
  cache_store : Cas.t option;
  trace : Trace.t;
  tel : telemetry;
}

let create ?(jobs = 1) ?(timeout = 30.) ?(max_batch = 64) ?cache ?trace () =
  {
    jobs = max 1 jobs;
    timeout = (if timeout <= 0. then None else Some timeout);
    max_batch = max 1 max_batch;
    cache_store = cache;
    trace = Option.value ~default:Trace.none trace;
    tel = fresh_telemetry ();
  }

let cache t = t.cache_store

let telemetry t =
  let tel = t.tel in
  let sorted = Array.of_list tel.latencies_ms in
  Array.sort compare sorted;
  Json.Obj
    [
      ("schema", Json.String Protocol.schema);
      ("type", Json.String "telemetry");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. tel.started));
      ( "requests",
        Json.Obj
          [
            ("total", Json.Int tel.requests);
            ("ok", Json.Int tel.ok);
            ("scalar", Json.Int tel.scalar);
            ("errors", Json.Int tel.errors);
            ("control", Json.Int tel.control);
          ] );
      ( "batches",
        Json.Obj
          [
            ("count", Json.Int tel.batches);
            ("max_depth", Json.Int tel.max_depth);
            ( "mean_depth",
              Json.Float
                (if tel.batches = 0 then 0.
                 else float_of_int tel.depth_sum /. float_of_int tel.batches)
            );
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("samples", Json.Int tel.latency_count);
            ("p50", Json.Float (percentile sorted 0.50));
            ("p90", Json.Float (percentile sorted 0.90));
            ("p99", Json.Float (percentile sorted 0.99));
            ( "max",
              Json.Float
                (match Array.length sorted with
                | 0 -> 0.
                | n -> sorted.(n - 1)) );
          ] );
      ( "cache",
        match t.cache_store with
        | None -> Json.Null
        | Some cas -> Cas.stats_to_json (Cas.stats cas) );
      ( "pool",
        Json.Obj
          [
            ("jobs", Json.Int t.jobs);
            ("dispatched", Json.Int tel.pool_dispatched);
            ("errors", Json.Int tel.pool_errors);
            ("timeouts", Json.Int tel.pool_timeouts);
            ("crashes", Json.Int tel.pool_crashes);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Outcome documents travel as their compact rendering ([Json.to_line]),
   so cache hits splice straight into response lines with no re-parse.
   [outcome_to_json] emits [status] first in every shape, which makes the
   telemetry classification a prefix test. *)
let count_status t payload =
  if String.starts_with ~prefix:{|{"status":"ok"|} payload then
    t.tel.ok <- t.tel.ok + 1
  else if String.starts_with ~prefix:{|{"status":"scalar"|} payload then
    t.tel.scalar <- t.tel.scalar + 1
  else t.tel.errors <- t.tel.errors + 1

(* Prepend the id field textually — byte-identical to rendering
   [Protocol.response_line ~id] over the parsed document, because the
   payload is our own compact rendering. *)
let response_of_payload ~id payload =
  if String.length payload > 2 && payload.[0] = '{' then
    Printf.sprintf "{\"id\":%s,%s"
      (Json.to_line (Json.String id))
      (String.sub payload 1 (String.length payload - 1))
  else
    match Json.of_string payload with
    | Ok doc -> Protocol.response_line ~id doc
    | Error _ -> Protocol.error_response ~id "internal: bad outcome payload"

(* One compile, no store involved: what a pooled worker runs. The result
   crosses the pipe as the serialized document. *)
let compile_to_line (r : Protocol.request) =
  Json.to_line (Compile.outcome_to_json (Compile.run r))

let pool_failure_doc t (res : string Pool.result) =
  (match res.Pool.outcome with
  | Pool.Job_error _ -> t.tel.pool_errors <- t.tel.pool_errors + 1
  | Pool.Timed_out _ -> t.tel.pool_timeouts <- t.tel.pool_timeouts + 1
  | Pool.Crashed _ -> t.tel.pool_crashes <- t.tel.pool_crashes + 1
  | Pool.Done _ -> ());
  let message =
    match res.Pool.outcome with
    | Pool.Done _ -> assert false
    | Pool.Job_error m -> "compile failed: " ^ m
    | Pool.Timed_out s -> Printf.sprintf "timed out after %.0f s" s
    | Pool.Crashed m -> "compile worker crashed: " ^ m
  in
  Json.to_line
    (Json.Obj
       [ ("status", Json.String "error"); ("message", Json.String message) ])

(* Compile a batch's unique requests: cache first, then the pool (or
   inline when [jobs <= 1]). Returns the compact outcome payload per
   key. *)
let execute_group t (unique : (string * Protocol.request) list) :
    (string * string) list =
  let hits, misses =
    match t.cache_store with
    | None -> ([], unique)
    | Some cas ->
      List.partition_map
        (fun (key, req) ->
          match Cas.find cas ~key with
          | Some payload -> Left (key, payload)
          | None -> Right (key, req))
        unique
  in
  let store_built key line =
    match t.cache_store with
    | None -> ()
    | Some cas -> Cas.store cas ~key line
  in
  let built =
    if misses = [] then []
    else if t.jobs <= 1 then
      List.map
        (fun (key, req) ->
          let line = compile_to_line req in
          store_built key line;
          (key, line))
        misses
    else begin
      let arr = Array.of_list misses in
      t.tel.pool_dispatched <- t.tel.pool_dispatched + Array.length arr;
      let results, _report =
        Pool.map ~workers:t.jobs ?timeout:t.timeout ~trace:t.trace
          (fun i -> compile_to_line (snd arr.(i)))
          (Array.length arr)
      in
      Array.to_list
        (Array.mapi
           (fun i (res : string Pool.result) ->
             let key = fst arr.(i) in
             match res.Pool.outcome with
             | Pool.Done line -> (
               (* validate before caching: cheap next to the compile *)
               match Json.of_string line with
               | Ok _ ->
                 store_built key line;
                 (key, line)
               | Error m ->
                 ( key,
                   Json.to_line
                     (Json.Obj
                        [
                          ("status", Json.String "error");
                          ( "message",
                            Json.String ("garbled worker reply: " ^ m) );
                        ]) ))
             | _ -> (key, pool_failure_doc t res))
           results)
    end
  in
  hits @ built

type slot =
  | Request of { id : string; key : string }
  | Immediate of string  (** a ready response line (control op, error) *)
  | Stats_slot  (** rendered at assembly time, after outcomes are counted *)
  | Shutdown_ack of string

let handle_batch t (lines : string list) : string list * bool =
  let t0 = Unix.gettimeofday () in
  let depth = List.length lines in
  t.tel.batches <- t.tel.batches + 1;
  t.tel.depth_sum <- t.tel.depth_sum + depth;
  if depth > t.tel.max_depth then t.tel.max_depth <- depth;
  (* Parse every line; collect the unique compile work. *)
  let seen : (string, Protocol.request) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let slots =
    List.map
      (fun line ->
        t.tel.requests <- t.tel.requests + 1;
        (* No parse-time exception may kill the serve loop: anything the
           parser lets escape becomes a malformed-request response. *)
        let parsed =
          try Protocol.parse_line line
          with e ->
            Protocol.Malformed
              { id = None; message = "internal: " ^ Printexc.to_string e }
        in
        match parsed with
        | Protocol.Compile req ->
          let key = Compile.cache_key req in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key req;
            order := (key, req) :: !order
          end;
          Request { id = req.Protocol.id; key }
        | Protocol.Ping ->
          t.tel.control <- t.tel.control + 1;
          Immediate (Json.to_line (Json.Obj [ ("op", Json.String "pong") ]))
        | Protocol.Stats ->
          t.tel.control <- t.tel.control + 1;
          Stats_slot
        | Protocol.Shutdown ->
          t.tel.control <- t.tel.control + 1;
          Shutdown_ack
            (Json.to_line
               (Json.Obj
                  [ ("op", Json.String "shutdown"); ("ok", Json.Bool true) ]))
        | Protocol.Malformed { id; message } ->
          t.tel.errors <- t.tel.errors + 1;
          Immediate
            (Protocol.error_response
               ~id:(Option.value ~default:"" id)
               message))
      lines
  in
  let docs = execute_group t (List.rev !order) in
  let shutdown = ref false in
  let responses =
    List.map
      (fun slot ->
        match slot with
        | Immediate line -> line
        | Stats_slot ->
          (* Requests earlier in the batch are already counted — a stats
             probe sees the batch it rode in on. *)
          Json.to_line (telemetry t)
        | Shutdown_ack line ->
          shutdown := true;
          line
        | Request { id; key } -> (
          match List.assoc_opt key docs with
          | Some payload ->
            count_status t payload;
            response_of_payload ~id payload
          | None ->
            (* unreachable: every Request key is in the group *)
            t.tel.errors <- t.tel.errors + 1;
            Protocol.error_response ~id "internal: missing outcome"))
      slots
  in
  (* One latency sample per request: what a client in this batch saw. *)
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let compiles = List.length !order in
  if depth > 0 then begin
    let rec add n acc = if n = 0 then acc else add (n - 1) (elapsed_ms :: acc) in
    t.tel.latencies_ms <- add depth t.tel.latencies_ms;
    t.tel.latency_count <- t.tel.latency_count + depth;
    if t.tel.latency_count > latency_window then begin
      (* trim to the newest window *)
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      t.tel.latencies_ms <- take latency_window t.tel.latencies_ms;
      t.tel.latency_count <- min t.tel.latency_count latency_window
    end
  end;
  if Trace.active t.trace then
    Trace.note t.trace ~timed:true ~label:"serve.batch"
      (Printf.sprintf "depth=%d unique_compiles=%d elapsed_ms=%.3f" depth
         compiles elapsed_ms);
  (responses, !shutdown)

(* ------------------------------------------------------------------ *)
(* Buffered line reader with pending-data detection                    *)
(* ------------------------------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  chunk : bytes;
  mutable partial : string;  (** bytes after the last newline *)
  queue : string Queue.t;  (** complete lines, oldest first *)
  mutable eof : bool;
}

let make_reader fd =
  { fd; chunk = Bytes.create 65536; partial = ""; queue = Queue.create (); eof = false }

(* No legitimate request line approaches this; a stream that exceeds it
   without a newline would otherwise grow [partial] without bound. The
   oversized prefix is flushed as a line of its own — it (and the rest of
   that actual line) parse as malformed and get error responses. *)
let max_partial = 8 * 1024 * 1024

let enqueue_line r l = if String.trim l <> "" then Queue.add l r.queue

let rec read_restart fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_restart fd buf off len

(* Pull one chunk off the descriptor. [block = false] reads only when
   select reports data ready right now — the batching probe. *)
let refill r ~block =
  if r.eof then false
  else
    let ready =
      block
      ||
      match Unix.select [ r.fd ] [] [] 0.0 with
      | readable, _, _ -> readable <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not ready then false
    else begin
      let n = read_restart r.fd r.chunk 0 (Bytes.length r.chunk) in
      if n = 0 then begin
        r.eof <- true;
        (* A final line without a trailing newline is still a request. *)
        if r.partial = "" then false
        else begin
          enqueue_line r r.partial;
          r.partial <- "";
          not (Queue.is_empty r.queue)
        end
      end
      else begin
        let data = r.partial ^ Bytes.sub_string r.chunk 0 n in
        let parts = String.split_on_char '\n' data in
        let rec split_last acc = function
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split_last (x :: acc) rest
          | [] -> ([], "")
        in
        let complete, partial = split_last [] parts in
        List.iter (enqueue_line r) complete;
        if String.length partial > max_partial then begin
          Queue.add partial r.queue;
          r.partial <- ""
        end
        else r.partial <- partial;
        true
      end
    end

let rec next_line r ~block =
  match Queue.take_opt r.queue with
  | Some line -> Some line
  | None ->
    if refill r ~block then next_line r ~block
    else if block && not r.eof then next_line r ~block
    else None

(* ------------------------------------------------------------------ *)
(* I/O loops                                                           *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Serve batches from [r] until it runs dry, writing each batch's
   responses to [out_fd]. A batch is the next line, waited for when
   [block], plus whatever is already pending, up to [max_batch] lines.
   [`Continue] means no complete line is buffered (only without [block]). *)
let rec serve_batches t r out_fd ~block =
  match next_line r ~block with
  | None -> if r.eof && Queue.is_empty r.queue then `Eof else `Continue
  | Some first ->
    let rec drain n acc =
      if n >= t.max_batch then List.rev acc
      else
        match next_line r ~block:false with
        | Some line -> drain (n + 1) (line :: acc)
        | None -> List.rev acc
    in
    let responses, shutdown = handle_batch t (drain 1 [ first ]) in
    write_all out_fd (String.concat "" (List.map (fun l -> l ^ "\n") responses));
    if shutdown then `Shutdown else serve_batches t r out_fd ~block

let serve_fd t in_fd out_fd =
  match serve_batches t (make_reader in_fd) out_fd ~block:true with
  | `Shutdown -> `Shutdown
  | `Eof | `Continue -> `Eof

(* One readiness event on an accepted connection: pull the bytes that
   arrived, then serve every complete batch already buffered (select only
   reports kernel-side data, so user-space queued lines must be drained
   here, not left for a wakeup that never comes). *)
let service_ready t r =
  ignore (refill r ~block:true);
  serve_batches t r r.fd ~block:false

let listen_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Per-connection reader state, keyed by descriptor. Connections are
     multiplexed with select in one process: batching stays per-client,
     and one client's malformed stream, mid-batch disconnect, or provoked
     exception closes only its own connection. *)
  let conns : (Unix.file_descr, reader) Hashtbl.t = Hashtbl.create 8 in
  let close_conn fd =
    Hashtbl.remove conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let shutdown = ref false in
      while not !shutdown do
        let fds = sock :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        match Unix.select fds [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = sock then begin
                match Unix.accept sock with
                | client, _ -> Hashtbl.replace conns client (make_reader client)
                | exception Unix.Unix_error _ -> ()
              end
              else
                match Hashtbl.find_opt conns fd with
                | None -> () (* closed earlier in this readiness sweep *)
                | Some r -> (
                  match service_ready t r with
                  | `Continue -> ()
                  | `Eof -> close_conn fd
                  | `Shutdown ->
                    shutdown := true;
                    close_conn fd
                  | exception
                      Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                    ->
                    (* the client went away; its connection dies, not the
                       server *)
                    close_conn fd
                  | exception e ->
                    (* last resort: whatever one connection provoked, the
                       daemon stays up for the others *)
                    if Trace.active t.trace then
                      Trace.note t.trace ~label:"serve.connection-error"
                        (Printexc.to_string e);
                    close_conn fd))
            readable
      done)
