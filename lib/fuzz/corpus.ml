module Diag = Minflo_robust.Diag
module Io = Minflo_robust.Io
module Netlist = Minflo_netlist.Netlist
module Bench_format = Minflo_netlist.Bench_format
module Job = Minflo_runner.Job
module Checkpoint = Minflo_runner.Checkpoint

type repro = {
  fingerprint : Fingerprint.t;
  seed : int;
  config : Oracle.config;
  netlist : Minflo_netlist.Netlist.t;
}

let magic = "minflo-repro"

let version = 1

let file_name r =
  Printf.sprintf "%s-%d.repro" (Fingerprint.slug r.fingerprint) r.seed

(* ---------- render ---------- *)

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let c = r.config in
  line "%s %d" magic version;
  line "fingerprint %s" (Fingerprint.to_string r.fingerprint);
  line "seed %d" r.seed;
  line "target-factor %s" (Checkpoint.hex_float c.Oracle.target_factor);
  line "dw-iterations %d" c.dw_iterations;
  line "budget-iterations %d" c.budget_iterations;
  line "budget-pivots %d" c.budget_pivots;
  line "solvers %s"
    (String.concat " " (List.map Job.solver_name c.solvers));
  line "differential %b" c.differential;
  line "tolerance %s" (Checkpoint.hex_float c.tolerance);
  line "fault-site %s" (Option.value c.fault_site ~default:"-");
  line "fault-seed %d" c.fault_seed;
  let bench = Bench_format.to_string r.netlist in
  let bench_lines = String.split_on_char '\n' bench in
  (* to_string ends with a newline; don't count the empty tail *)
  let bench_lines =
    match List.rev bench_lines with
    | "" :: rest -> List.rev rest
    | _ -> bench_lines
  in
  line "netlist %d" (List.length bench_lines);
  List.iter (fun l -> line "%s" l) bench_lines;
  line "end";
  Buffer.contents b

let save ~dir r =
  let path = Filename.concat dir (file_name r) in
  Result.bind (Io.mkdirs dir) (fun () ->
      Result.map (fun () -> path) (Io.atomic_replace path (render r)))

(* ---------- load ---------- *)

let invalid file reason = Error (Diag.Checkpoint_invalid { file; reason })

let load path =
  match
    Result.map
      (fun content ->
        match List.rev (String.split_on_char '\n' content) with
        | "" :: rest -> List.rev rest
        | lines -> List.rev lines)
      (Io.read_file path)
  with
  | Error e -> Error e
  | Ok [] -> invalid path "empty file"
  | Ok (header :: rest) -> (
    match String.split_on_char ' ' header with
    | [ m; v ] when m = magic -> (
      match int_of_string_opt v with
      | Some v when v = version -> (
        let fields = Hashtbl.create 16 in
        let netlist_lines = ref None in
        let saw_end = ref false in
        let rec scan = function
          | [] -> Ok ()
          | l :: ls -> (
            match String.index_opt l ' ' with
            | Some i when String.sub l 0 i = "netlist" -> (
              let count_s =
                String.sub l (i + 1) (String.length l - i - 1)
              in
              match int_of_string_opt count_s with
              | None -> invalid path "malformed netlist line count"
              | Some n ->
                if List.length ls < n + 1 then
                  invalid path "truncated netlist block"
                else begin
                  netlist_lines := Some (List.filteri (fun j _ -> j < n) ls);
                  let tail = List.filteri (fun j _ -> j >= n) ls in
                  (match tail with
                  | "end" :: _ -> saw_end := true
                  | _ -> ());
                  Ok ()
                end)
            | Some i ->
              Hashtbl.replace fields (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1));
              scan ls
            | None ->
              if l = "end" then saw_end := true;
              scan ls)
        in
        let ( let* ) = Result.bind in
        let* () = scan rest in
        if not !saw_end then invalid path "truncated (no end marker)"
        else
          let field k =
            match Hashtbl.find_opt fields k with
            | Some v -> Ok v
            | None -> invalid path (Printf.sprintf "missing field %S" k)
          in
          let num kind conv k =
            let* v = field k in
            match conv v with
            | Some x -> Ok x
            | None ->
              invalid path (Printf.sprintf "field %S is not %s: %S" k kind v)
          in
          let int_field = num "an integer" int_of_string_opt in
          let float_field = num "a float" Checkpoint.parse_hex_float in
          let bool_field = num "a boolean" bool_of_string_opt in
          let* fp_s = field "fingerprint" in
          let* fingerprint =
            match Fingerprint.of_string fp_s with
            | Some fp -> Ok fp
            | None -> invalid path "malformed fingerprint"
          in
          let* seed = int_field "seed" in
          let* target_factor = float_field "target-factor" in
          let* dw_iterations = int_field "dw-iterations" in
          let* budget_iterations = int_field "budget-iterations" in
          let* budget_pivots = int_field "budget-pivots" in
          let* solvers_s = field "solvers" in
          let* solvers =
            let names =
              String.split_on_char ' ' solvers_s
              |> List.filter (fun s -> s <> "")
            in
            let rec conv acc = function
              | [] -> Ok (List.rev acc)
              | n :: ns -> (
                match Job.solver_of_string n with
                | Some s -> conv (s :: acc) ns
                | None ->
                  invalid path (Printf.sprintf "unknown solver %S" n))
            in
            if names = [] then invalid path "empty solver list"
            else conv [] names
          in
          let* differential = bool_field "differential" in
          let* tolerance = float_field "tolerance" in
          let* fault_site_s = field "fault-site" in
          let fault_site =
            if fault_site_s = "-" then None else Some fault_site_s
          in
          let* fault_seed = int_field "fault-seed" in
          let* bench =
            match !netlist_lines with
            | Some ls -> Ok (String.concat "\n" ls ^ "\n")
            | None -> invalid path "missing netlist block"
          in
          let* netlist =
            match Bench_format.parse_string bench with
            | Ok nl -> Ok nl
            | Error e -> Error e
          in
          Ok
            { fingerprint;
              seed;
              config =
                { Oracle.target_factor;
                  dw_iterations;
                  budget_iterations;
                  budget_pivots;
                  solvers;
                  differential;
                  tolerance;
                  fault_site;
                  fault_seed };
              netlist })
      | _ -> invalid path "unsupported version")
    | _ -> invalid path "bad magic")

let list dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
