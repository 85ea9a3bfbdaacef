module Diag = Minflo_robust.Diag
module Netlist = Minflo_netlist.Netlist
module Bench_format = Minflo_netlist.Bench_format
module Verilog_format = Minflo_netlist.Verilog_format
module Generators = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85

type solver = [ `Auto | `Simplex | `Ssp | `Bellman_ford ]

type t = { circuit : string; factor : float; solver : solver }

let solver_name = function
  | `Auto -> "auto"
  | `Simplex -> "simplex"
  | `Ssp -> "ssp"
  | `Bellman_ford -> "bellman-ford"

let solver_of_string = function
  | "auto" -> Some `Auto
  | "simplex" -> Some `Simplex
  | "ssp" -> Some `Ssp
  | "bf" | "bellman-ford" -> Some `Bellman_ford
  | _ -> None

let id j = Printf.sprintf "%s@%.3f/%s" j.circuit j.factor (solver_name j.solver)

let file_slug j =
  String.map
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    (id j)

let cross ~circuits ~factors ~solvers =
  List.concat_map
    (fun circuit ->
      List.concat_map
        (fun factor ->
          List.map (fun solver -> { circuit; factor; solver }) solvers)
        factors)
    circuits

let unknown_circuit spec =
  Error
    (Diag.Unknown_circuit
       { name = spec;
         known =
           "c17" :: List.map (fun (i : Iscas85.info) -> i.name) Iscas85.suite })

let load_raw spec : (Minflo_netlist.Raw.t, Diag.error) result =
  if Sys.file_exists spec then
    if Filename.check_suffix spec ".v" then Verilog_format.parse_raw_file spec
    else Bench_format.parse_raw_file spec
  else if spec = "c17" then Ok (Minflo_netlist.Raw.of_netlist (Generators.c17 ()))
  else
    match Iscas85.find_info spec with
    | Some _ -> Ok (Minflo_netlist.Raw.of_netlist (Iscas85.circuit spec))
    | None -> unknown_circuit spec

let load_circuit spec : (Netlist.t, Diag.error) result =
  if Sys.file_exists spec then
    if Filename.check_suffix spec ".v" then Verilog_format.parse_file spec
    else Bench_format.parse_file spec
  else if spec = "c17" then Ok (Generators.c17 ())
  else
    match Iscas85.find_info spec with
    | Some _ -> Ok (Iscas85.circuit spec)
    | None -> unknown_circuit spec

let lint_error spec =
  match load_raw spec with
  | Error e -> Some e
  | Ok raw ->
    Minflo_lint.Lint.check raw
    |> List.find_opt (fun (f : Minflo_lint.Finding.t) ->
           f.rule.severity = Minflo_lint.Rule.Error)
    |> Option.map Minflo_lint.Finding.to_diag

type outcome = {
  job : t;
  area : float;
  area_ratio : float;
  cp : float;
  target : float;
  met : bool;
  iterations : int;
  saving_pct : float;
  stop : string;
  resumed : bool;
  perf : Minflo_robust.Perf.counters;
}
