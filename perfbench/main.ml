(* The repository benchmark: time to a sized circuit on the paper's Table 1
   set and on a ripple-carry ladder; traced runs add the layer split and a
   closed-loop session against a real serve daemon. See BENCHMARK.md
   beside this file.

   main.exe --cli PATH --workload (table1|ripple) --seed N
            --seconds S --trace (0|1)
   main.exe --cli PATH --self-test
   main.exe --setup-once --workload W --seed N [--quick]

   PATH is the built minflo CLI. The last line of stdout is the result
   JSON; everything else goes to stderr. *)

module M = Metrics
module Json = Minflo_util.Json
module S = Sizing_bench

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* working files inside the current directory, gone when the run ends *)
let with_work f =
  let work = Filename.concat ".perfbench_work" (string_of_int (Unix.getpid ())) in
  Serve_bench.mkdirs work;
  Fun.protect
    ~finally:(fun () ->
      List.iter Serve_bench.kill !Serve_bench.live;
      remove_tree work;
      try Unix.rmdir ".perfbench_work" with Unix.Unix_error _ -> ())
    (fun () -> f work)

(* A sizing workload. Untraced: passes for [seconds], at least one round
   of draws, end-to-end metrics. Traced: untraced passes for half the
   time, then per circuit an untraced and a traced sizing at draw 0 (the
   tracing overhead is their difference) with the layer replay, and a
   serve session for the serving layer. *)
let sizing ~cli ~work ~seed ~jobs ~setup_argv ~seconds ~trace =
  let options = Minflo_sizing.Minflotransit.default_options in
  let insts, setups = S.setup ~argv:setup_argv jobs in
  let seconds = if trace then seconds /. 2.0 else seconds in
  let p =
    S.run_passes ~options ~seconds
      ~min_passes:(if trace then 1 else S.draws insts)
      ~between:(fun () -> S.setup_rep setups)
      insts
  in
  let setup_s, split = S.setup_medians setups in
  M.note "%d jobs x %d timed passes (%d sizings in all)" (List.length insts) p.passes
    p.attempted;
  List.iteri
    (fun k (i : S.inst) ->
      let f = S.first p k 0 in
      M.note "  %-9s gates %5d factor %.4f (draw 0): tilos %.3fs, %d bumps; refine %.3fs, %d iterations; op times by draw: %s"
        i.job.name i.gates i.job.factors.(0) f.tilos_s f.bumps f.refine_s f.iterations
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun l -> String.concat "/" (List.rev_map (Printf.sprintf "%.3f") l))
                 p.samples.(k)))))
    insts;
  if not trace then begin
    M.note "area_ratio over all %d draws: %.4f; TILOS seeds alone: %.4f" (S.draws insts)
      (S.area_ratio insts p (fun s -> s.area))
      (S.area_ratio insts p (fun s -> s.tilos_area));
    { M.attempted = p.attempted; failed = p.failed; values = S.end_to_end insts ~setup_s p }
  end
  else begin
    let l = S.new_layers () in
    List.iteri
      (fun k i ->
        S.traced_job ~options l i ~reference:(S.first p k 0))
      insts;
    let serve_values, requests, serve_failed =
      Serve_bench.session ~cli ~dir:(Filename.concat work "daemon") ~seed
    in
    { M.attempted = p.attempted + (2 * List.length insts) + requests;
      failed = p.failed + l.failed + serve_failed;
      values = S.layer_values ~split ~perf:p.perf l @ serve_values }
  end

let jobs ~quick ~workload ~seed =
  match workload with
  | "table1" -> S.table1_jobs ~quick seed
  | "ripple" -> S.ripple_jobs ~quick seed
  | w -> failwith ("unknown workload: " ^ w)

let run ~cli ~quick ~workload ~seed ~seconds ~trace =
  let jobs = jobs ~quick ~workload ~seed in
  (* this executable again, making one set-up of the same jobs *)
  let setup_argv =
    Array.append
      [| Sys.executable_name; "--setup-once"; "--workload"; workload;
         "--seed"; string_of_int seed |]
      (if quick then [| "--quick" |] else [||])
  in
  with_work (fun work -> sizing ~cli ~work ~seed ~jobs ~setup_argv ~seconds ~trace)

let result_line ~trace o =
  Json.to_string
    (M.result_json ~catalogue:(if trace then M.per_layer else M.end_to_end) o)

(* ---------- self-test ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (name, unit) pairs of one metric list of BENCHMARK.json *)
let declared doc key =
  match Json.member key doc with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.str_field "name" m, Json.str_field "unit" m) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("malformed entry in " ^ key))
      l
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

(* A shortened pass of every workload, untraced and traced: every metric
   of the catalogue printed with its unit, the output checks passing, and
   the result line stable under print -> parse -> print. *)
let self_test ~cli =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.parse (read_file "BENCHMARK.json") with
  | Error e -> fail "BENCHMARK.json: %s" e
  | Ok doc ->
    if declared doc "end_to_end" <> M.end_to_end then
      fail "end_to_end metrics differ from BENCHMARK.json";
    if declared doc "per_layer" <> M.per_layer then
      fail "per_layer metrics differ from BENCHMARK.json");
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let where = Printf.sprintf "%s/trace=%b" workload trace in
          let o = run ~cli ~quick:true ~workload ~seed:7 ~seconds:0.0 ~trace in
          let line = result_line ~trace o in
          (match Json.parse line with
          | Error e -> fail "%s: result does not parse: %s" where e
          | Ok j ->
            if Json.to_string j <> line then fail "%s: print/parse/print differs" where;
            if Json.bool_field "correct" j <> Some true then fail "%s: not correct" where;
            if Json.int_field "failed" j <> Some 0 then fail "%s: failed ops" where;
            List.iter
              (fun (name, unit) ->
                match Option.bind (Json.member "metrics" j) (Json.member name) with
                | Some m when Json.str_field "unit" m = Some unit
                              && Json.num_field "value" m <> None -> ()
                | _ -> fail "%s: %s missing or without unit %s" where name unit)
              (if trace then M.per_layer else M.end_to_end));
          (* The outside-in TILOS split accounts for the per-bump time:
             score is the remainder of the chunk time, so the three parts
             sum to us_per_bump x bumps by construction. What can fail is
             the extrapolation: probe means x bumps exceeding the time TILOS
             actually spent, which leaves a negative remainder. *)
          if trace && workload = "ripple" then begin
            let v n = List.assoc n o.values in
            let crit = v "tilos.critical_set_s" and prop = v "tilos.propagate_s" in
            if crit < 0.0 || prop < 0.0 || v "tilos.score_s" < 0.0 then
              fail "%s: a TILOS split part is negative" where;
            if crit +. prop > v "tilos.s" then
              fail "%s: critical_set_s + propagate_s exceed tilos.s" where
          end;
          M.note "self-test %s: %s" where line)
        [ false; true ])
    [ "table1"; "ripple" ];
  match !problems with
  | [] ->
    print_endline "perfbench self-test: OK";
    0
  | l ->
    List.iter (fun p -> M.note "self-test: %s" p) (List.rev l);
    1

(* ---------- command line ---------- *)

let () =
  (* unwind, so [with_work] stops the daemons and removes its files *)
  let on_signal = Sys.Signal_handle (fun _ -> failwith "terminated by a signal") in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  let cli = ref "" and workload = ref "" and seed = ref 0 in
  let seconds = ref 10.0 and trace = ref 0 and selftest = ref false in
  let setup_once = ref false and quick = ref false in
  Arg.parse
    [ ("--cli", Arg.Set_string cli, "PATH the built minflo CLI");
      ("--workload", Arg.Set_string workload, "NAME table1 or ripple");
      ("--seed", Arg.Set_int seed, "N input seed (0 = the paper's specs)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--self-test", Arg.Set selftest, " shortened pass of every workload");
      ("--setup-once", Arg.Set setup_once, " one timed set-up; prints its split");
      ("--quick", Arg.Set quick, " with --setup-once: the self-test's jobs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --cli PATH (--workload W --seed N --seconds S --trace T | --self-test)";
  if !setup_once then begin
    let jobs = jobs ~quick:!quick ~workload:!workload ~seed:!seed in
    S.print_split (snd (S.setup_once jobs));
    exit 0
  end;
  if !cli = "" then (prerr_endline "--cli is required"; exit 2);
  if !selftest then exit (self_test ~cli:!cli);
  let trace = !trace = 1 in
  let o =
    run ~cli:!cli ~quick:false ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
  in
  print_endline (result_line ~trace o)
