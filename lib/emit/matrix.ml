(** The backend matrix (see the interface): one placed compilation joined
    against the backend registry — each row retargets the placement to the
    backend's native vector length ({!Simd_codegen.Retarget}), probes what
    the build machine can do with the result, and prices it under the
    retargeted cost model. *)

module Driver = Simd_codegen.Driver
module Retarget = Simd_codegen.Retarget
module Machine = Simd_machine.Config
module Report = Simd_opt.Report
module Json = Simd_support.Json

type row = {
  backend : Backend.id;
  support : Backend.support;
  vl : int;
  retarget : (Retarget.t, Driver.reason) result;
}

let row_vl (o : Driver.outcome) b =
  match Backend.native_vl b with
  | Some v -> v
  | None -> Machine.vector_len o.Driver.config.Driver.machine

let rows ?cc (o : Driver.outcome) : row list =
  List.map
    (fun backend ->
      let vl = row_vl o backend in
      {
        backend;
        support = Backend.probe ?cc backend;
        vl;
        retarget = Retarget.retarget ~vector_len:vl o;
      })
    Backend.all

let unit_of_row (r : row) : string option =
  match r.retarget with
  | Ok t -> Some (Backend.unit_for r.backend t.Retarget.outcome.Driver.prog)
  | Error _ -> None

let row_to_json (r : row) =
  let base =
    match Backend.to_json r.backend r.support with
    | Json.Obj fields -> fields
    | _ -> []
  in
  let retarget_fields =
    match r.retarget with
    | Ok t ->
      let report = Driver.report t.Retarget.outcome in
      [
        ("retarget", Retarget.to_json t);
        ("cost", Json.Float report.Report.total_cost);
        ("body_cost", Json.Float report.Report.body_cost);
      ]
    | Error reason ->
      [
        ( "retarget_error",
          Json.String (Format.asprintf "%a" Driver.pp_reason reason) );
      ]
  in
  Json.Obj ((("row_vl", Json.Int r.vl) :: base) @ retarget_fields)

let to_json (rows : row list) = Json.List (List.map row_to_json rows)
