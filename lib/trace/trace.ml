(** Pass-pipeline tracing: an observability layer the driver threads
    through one compilation, recording an ordered sequence of events —
    shift-placement provenance (which policy or solver rule placed each
    [vshiftstream] at which offset and what it cost under {!Simd_opt.Cost}),
    the generated IR, and one event per optimization pass with pre/post
    snapshots, structural diffs ({!Diff}) and operation-count deltas.

    Design constraints, in order:

    - {b Zero cost when off.} The default sink {!none} is inert: the driver
      guards every snapshot construction behind {!active}, so an untraced
      compilation performs no pretty-printing, no diffing, and no
      allocation beyond the [if].
    - {b Deterministic.} Everything in the comparable output ({!pp},
      {!to_json} with [~timings:false], the default) is a pure function of
      the compilation: no timestamps, no hash ordering. Wall-clock pass
      durations are recorded in the events but only rendered when
      explicitly requested, so traces can be embedded in documentation and
      diffed by CI.
    - {b Machine readable.} {!to_json} follows the schema documented in
      [docs/TRACE.md]; {!summary_to_json} is the compact per-scheme form
      the benchmark harness attaches to its JSON documents. *)

module Json = Simd_support.Json
module Prog = Simd_vir.Prog
module Expr = Simd_vir.Expr
module Offset = Simd_dreorg.Offset
module Policy = Simd_dreorg.Policy
module Cost = Simd_opt.Cost
module Diff = Diff

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type section = {
  text : string;  (** pretty-printed statements *)
  counts : Prog.static_counts;
}

type snapshot = { prologue : section; body : section; epilogues : section }

let section_of_stmts (stmts : Expr.stmt list) : section =
  {
    text =
      Format.asprintf "@[<v>%a@]"
        (fun fmt -> List.iter (Prog.pp_stmt ~indent:0 fmt))
        stmts;
    counts = Prog.static_counts_of_stmts stmts;
  }

(** [snapshot ~prologue ~body ~epilogues] — capture the three IR regions of
    a compilation in flight ([epilogues] is empty until derived). *)
let snapshot ~prologue ~body ~epilogues : snapshot =
  {
    prologue = section_of_stmts prologue;
    body = section_of_stmts body;
    epilogues = section_of_stmts (List.concat epilogues);
  }

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

(** Provenance of one placed [vshiftstream]. *)
type shift_prov = {
  sp_from : Offset.t;
  sp_to : Offset.t;
  sp_dir : Cost.direction option;  (** lowering direction, None for no-op *)
  sp_cost : float;  (** price of this shift under the machine cost model *)
}

(** One statement's shift placement: which policy (or the exact solver, or
    the zero-shift fallback) produced the graph, where it put each shift,
    and what the statement costs under {!Simd_opt.Cost}. *)
type placement = {
  pl_index : int;
  pl_source : string;  (** the statement, pretty-printed *)
  pl_requested : Policy.t;
  pl_used : Policy.t;
      (** differs from [pl_requested] under [Auto] selection or the §4.4
          zero-shift fallback — this is the provenance rule *)
  pl_target : Offset.t;  (** offset the value stream must reach (C.2) *)
  pl_graph : string;  (** the placed reorganization graph, pretty-printed *)
  pl_shifts : shift_prov list;  (** in evaluation order *)
  pl_shift_cost : float;  (** placement-variant term *)
  pl_cost : float;  (** full statement cost *)
}

type event =
  | Reassoc of { applied : bool; before : string; after : string }
      (** scalar-AST reassociation; [applied = false] records the pass was
          configured off *)
  | Placement of placement
  | Generated of { mode : string; snap : snapshot }
      (** initial vector IR out of [Gen.generate] *)
  | Pass of {
      name : string;  (** a [Driver.passes] name or a structural stage *)
      enabled : bool;  (** configured to run? (skips are recorded) *)
      before : snapshot;
      after : snapshot;
      elapsed_ms : float;  (** wall clock; excluded from comparable output *)
    }
  | Note of { label : string; body : string; timed : bool }
      (** free-form event from a subsystem outside the compilation pipeline
          (the {!Simd_par} pool emits its job log and stats this way);
          [timed] marks bodies carrying wall-clock data, which — like pass
          durations — are excluded from the comparable output *)
  | Check of { name : string; violations : string list }
      (** static-verifier findings at the pass boundary [name]
          ([Simd_check.Check] via the driver's [~check] mode); only fresh
          violations — first seen at this boundary — are recorded, so the
          event names the offending pass. Rendered violation strings keep
          this module independent of the checker. *)

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

type t = { mutable events : event list (* reversed *); enabled : bool }

(** The inert sink: {!active} is false, {!add} is a no-op. Drivers guard
    snapshot construction behind {!active}, so compiling with [none]
    records nothing and costs nothing. *)
let none = { events = []; enabled = false }

let create () = { events = []; enabled = true }
let active t = t.enabled
let add t e = if t.enabled then t.events <- e :: t.events
let events t = List.rev t.events

(** [note t ?timed ~label body] — record a {!Note} event (no-op on an
    inactive sink). Set [timed] when [body] carries wall-clock data. *)
let note t ?(timed = false) ~label body = add t (Note { label; body; timed })

(** [record_pass t ~name ~enabled state snap apply] — run [apply] on
    [state] (when [enabled]), recording a {!Pass} event with pre/post
    snapshots via [snap] if [t] is active. The inactive path performs no
    snapshotting. *)
let record_pass t ~name ~enabled state ~snap apply =
  if not t.enabled then if enabled then apply state else state
  else begin
    let before = snap state in
    let t0 = Sys.time () in
    let state' = if enabled then apply state else state in
    let elapsed_ms = (Sys.time () -. t0) *. 1000. in
    add t (Pass { name; enabled; before; after = snap state'; elapsed_ms });
    state'
  end

(* ------------------------------------------------------------------ *)
(* Deltas and summaries                                                *)
(* ------------------------------------------------------------------ *)

let delta_counts (a : Prog.static_counts) (b : Prog.static_counts) :
    (string * int) list =
  let fields (c : Prog.static_counts) =
    [
      ("loads", c.Prog.loads);
      ("stores", c.Prog.stores);
      ("ops", c.Prog.ops);
      ("splats", c.Prog.splats);
      ("shifts", c.Prog.shifts);
      ("splices", c.Prog.splices);
      ("packs", c.Prog.packs);
      ("copies", c.Prog.copies);
    ]
  in
  List.map2 (fun (k, x) (_, y) -> (k, y - x)) (fields a) (fields b)

let nonzero_deltas d = List.filter (fun (_, v) -> v <> 0) d

let pass_changed ~before ~after =
  before.prologue.text <> after.prologue.text
  || before.body.text <> after.body.text
  || before.epilogues.text <> after.epilogues.text

(** One row of the compact per-scheme summary: a pass, whether it ran,
    whether it changed anything, and its body operation-count delta. *)
type summary_row = {
  row_pass : string;
  row_enabled : bool;
  row_changed : bool;
  row_delta : (string * int) list;  (** nonzero body-count deltas *)
}

(* A pass may legitimately fire more than once (the driver value-numbers
   the body before predictive commoning and the prologue after it, both
   under "cse"); the summary merges repeats into one row per pass. *)
let merge_rows rows =
  let merge_deltas a b =
    let all =
      List.map fst a
      @ List.filter (fun k -> not (List.mem_assoc k a)) (List.map fst b)
    in
    List.filter_map
      (fun k ->
        let v =
          (try List.assoc k a with Not_found -> 0)
          + (try List.assoc k b with Not_found -> 0)
        in
        if v = 0 then None else Some (k, v))
      all
  in
  List.fold_left
    (fun acc r ->
      let rec go = function
        | [] -> [ r ]
        | r' :: rest when r'.row_pass = r.row_pass ->
          {
            r' with
            row_enabled = r'.row_enabled || r.row_enabled;
            row_changed = r'.row_changed || r.row_changed;
            row_delta = merge_deltas r'.row_delta r.row_delta;
          }
          :: rest
        | r' :: rest -> r' :: go rest
      in
      go acc)
    [] rows

let summary t : summary_row list =
  merge_rows
  @@ List.filter_map
    (function
      | Pass { name; enabled; before; after; _ } ->
        Some
          {
            row_pass = name;
            row_enabled = enabled;
            row_changed = pass_changed ~before ~after;
            row_delta =
              nonzero_deltas (delta_counts before.body.counts after.body.counts);
          }
      | Reassoc { applied; before; after } ->
        Some
          {
            row_pass = "reassoc";
            row_enabled = applied;
            row_changed = applied && before <> after;
            row_delta = [];
          }
      | Placement _ | Generated _ | Note _ | Check _ -> None)
    (events t)

(* ------------------------------------------------------------------ *)
(* Human transcript                                                    *)
(* ------------------------------------------------------------------ *)

let policy_name = Policy.name

let pp_offset fmt (o : Offset.t) = Offset.pp fmt o

let dir_name = function
  | Some Cost.Left -> "left"
  | Some Cost.Right -> "right"
  | None -> "none"

let pp_section_diff fmt ~label ~(before : section) ~(after : section) =
  if before.text <> after.text then begin
    Format.fprintf fmt "  %s:@\n" label;
    List.iter
      (fun l -> Format.fprintf fmt "    %s@\n" (Diff.line_to_string l))
      (Diff.lines before.text after.text)
  end

(** [pp ?timings fmt t] — the human transcript. Deterministic unless
    [timings] is set (the default [false] is what documentation embeds). *)
let pp ?(timings = false) fmt t =
  List.iter
    (fun e ->
      match e with
      | Note { label; body; timed } ->
        if (not timed) || timings then
          Format.fprintf fmt "== note %s: %s@\n" label body
      | Check { name; violations } ->
        Format.fprintf fmt "== check at %s: %d violation%s@\n" name
          (List.length violations)
          (if List.length violations = 1 then "" else "s");
        List.iter (fun v -> Format.fprintf fmt "    %s@\n" v) violations
      | Reassoc { applied; before; after } ->
        if not applied then
          Format.fprintf fmt "== reassoc: skipped (flag off)@\n"
        else if before = after then
          Format.fprintf fmt "== reassoc: applied, no change@\n"
        else begin
          Format.fprintf fmt "== reassoc: applied@\n";
          List.iter
            (fun l -> Format.fprintf fmt "    %s@\n" (Diff.line_to_string l))
            (Diff.lines before after)
        end
      | Placement p ->
        Format.fprintf fmt "== placement: stmt %d: %s@\n" p.pl_index p.pl_source;
        Format.fprintf fmt "   requested %s, used %s, target offset %a@\n"
          (policy_name p.pl_requested) (policy_name p.pl_used) pp_offset
          p.pl_target;
        List.iter
          (fun s ->
            Format.fprintf fmt "   vshiftstream %a -> %a (%s, cost %.2f)@\n"
              pp_offset s.sp_from pp_offset s.sp_to (dir_name s.sp_dir)
              s.sp_cost)
          p.pl_shifts;
        Format.fprintf fmt "   shift cost %.2f, statement cost %.2f@\n"
          p.pl_shift_cost p.pl_cost;
        Format.fprintf fmt "   graph:@\n";
        List.iter
          (fun line ->
            if line <> "" then Format.fprintf fmt "     %s@\n" line)
          (String.split_on_char '\n' p.pl_graph)
      | Generated { mode; snap } ->
        Format.fprintf fmt "== generate (%s):@\n" mode;
        List.iter
          (fun line ->
            if line <> "" then Format.fprintf fmt "    %s@\n" line)
          (String.split_on_char '\n' snap.body.text)
      | Pass { name; enabled; before; after; elapsed_ms } ->
        let status =
          if not enabled then "skipped (flag off)"
          else if pass_changed ~before ~after then "applied"
          else "applied, no change"
        in
        Format.fprintf fmt "== pass %s: %s" name status;
        if timings && enabled then Format.fprintf fmt " (%.3f ms)" elapsed_ms;
        Format.fprintf fmt "@\n";
        if enabled && pass_changed ~before ~after then begin
          (match nonzero_deltas (delta_counts before.body.counts after.body.counts) with
          | [] -> ()
          | ds ->
            Format.fprintf fmt "  body counts: %s@\n"
              (String.concat ", "
                 (List.map (fun (k, v) -> Printf.sprintf "%s %+d" k v) ds)));
          pp_section_diff fmt ~label:"prologue" ~before:before.prologue
            ~after:after.prologue;
          pp_section_diff fmt ~label:"body" ~before:before.body ~after:after.body;
          pp_section_diff fmt ~label:"epilogues" ~before:before.epilogues
            ~after:after.epilogues
        end)
    (events t)

let to_string ?timings t = Format.asprintf "%a" (fun fmt -> pp ?timings fmt) t

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let offset_to_json (o : Offset.t) : Json.t =
  match o with
  | Offset.Known k -> Json.Int k
  | Offset.Runtime _ | Offset.Any -> Json.String (Format.asprintf "%a" Offset.pp o)

let counts_to_json (c : Prog.static_counts) : Json.t =
  Json.Obj
    [
      ("loads", Json.Int c.Prog.loads);
      ("stores", Json.Int c.Prog.stores);
      ("ops", Json.Int c.Prog.ops);
      ("splats", Json.Int c.Prog.splats);
      ("shifts", Json.Int c.Prog.shifts);
      ("splices", Json.Int c.Prog.splices);
      ("packs", Json.Int c.Prog.packs);
      ("copies", Json.Int c.Prog.copies);
    ]

let section_to_json (s : section) : Json.t =
  Json.Obj [ ("text", Json.String s.text); ("counts", counts_to_json s.counts) ]

let snapshot_to_json (s : snapshot) : Json.t =
  Json.Obj
    [
      ("prologue", section_to_json s.prologue);
      ("body", section_to_json s.body);
      ("epilogues", section_to_json s.epilogues);
    ]

let shift_to_json (s : shift_prov) : Json.t =
  Json.Obj
    [
      ("from", offset_to_json s.sp_from);
      ("to", offset_to_json s.sp_to);
      ("direction", Json.String (dir_name s.sp_dir));
      ("cost", Json.Float s.sp_cost);
    ]

let event_to_json ~timings (e : event) : Json.t =
  match e with
  | Note { label; body; timed } ->
    Json.Obj
      [
        ("kind", Json.String "note");
        ("label", Json.String label);
        ("body", Json.String body);
        ("timed", Json.Bool timed);
      ]
  | Check { name; violations } ->
    Json.Obj
      [
        ("kind", Json.String "check");
        ("name", Json.String name);
        ( "violations",
          Json.List (List.map (fun v -> Json.String v) violations) );
      ]
  | Reassoc { applied; before; after } ->
    Json.Obj
      [
        ("kind", Json.String "reassoc");
        ("applied", Json.Bool applied);
        ("changed", Json.Bool (applied && before <> after));
        ("diff", Diff.to_json (Diff.lines before after));
      ]
  | Placement p ->
    Json.Obj
      [
        ("kind", Json.String "placement");
        ("stmt", Json.Int p.pl_index);
        ("source", Json.String p.pl_source);
        ("requested_policy", Json.String (policy_name p.pl_requested));
        ("used_policy", Json.String (policy_name p.pl_used));
        ("target_offset", offset_to_json p.pl_target);
        ("graph", Json.String p.pl_graph);
        ("shifts", Json.List (List.map shift_to_json p.pl_shifts));
        ("shift_cost", Json.Float p.pl_shift_cost);
        ("cost", Json.Float p.pl_cost);
      ]
  | Generated { mode; snap } ->
    Json.Obj
      [
        ("kind", Json.String "generate");
        ("mode", Json.String mode);
        ("snapshot", snapshot_to_json snap);
      ]
  | Pass { name; enabled; before; after; elapsed_ms } ->
    Json.Obj
      ([
         ("kind", Json.String "pass");
         ("name", Json.String name);
         ("enabled", Json.Bool enabled);
         ("changed", Json.Bool (pass_changed ~before ~after));
         ( "delta",
           Json.Obj
             (List.map
                (fun (k, v) -> (k, Json.Int v))
                (nonzero_deltas
                   (delta_counts before.body.counts after.body.counts))) );
         ("before", snapshot_to_json before);
         ("after", snapshot_to_json after);
         ("diff", Diff.to_json (Diff.lines before.body.text after.body.text));
       ]
      @ if timings then [ ("elapsed_ms", Json.Float elapsed_ms) ] else [])

(** [to_json ?timings t] — the full machine-readable trace (schema
    [simd-trace/1], documented in [docs/TRACE.md]). Deterministic with
    [timings] off (the default). *)
let to_json ?(timings = false) t : Json.t =
  let comparable = function
    | Note { timed = true; _ } -> timings
    | _ -> true
  in
  Json.Obj
    [
      ("schema", Json.String "simd-trace/1");
      ( "events",
        Json.List
          (List.map (event_to_json ~timings)
             (List.filter comparable (events t))) );
    ]

let summary_row_to_json (r : summary_row) : Json.t =
  Json.Obj
    [
      ("pass", Json.String r.row_pass);
      ("enabled", Json.Bool r.row_enabled);
      ("changed", Json.Bool r.row_changed);
      ( "delta",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.row_delta) );
    ]

(** [summary_to_json t] — the compact pass summary (no snapshots), what
    [bench/main.exe --json] attaches per scheme. *)
let summary_to_json t : Json.t = Json.List (List.map summary_row_to_json (summary t))
