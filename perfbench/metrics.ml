(* The benchmark's metric catalogue, its result line, and the small
   statistics it reports with. The two tables below are the single source
   of truth for metric names and units: the result printer emits exactly
   these, and the self-test checks them against BENCHMARK.json. *)

module Json = Minflo_util.Json
module Stats = Minflo_util.Stats

(* (name, unit) of every end-to-end metric, printed by untraced runs *)
let end_to_end =
  [ ("setup_s", "s");
    ("size_s", "s");
    ("scale_exponent", "1");
    ("area_ratio", "1");
    ("jobs_per_s", "1/s");
    ("latency_p50_s", "s");
    ("latency_p95_s", "s");
    ("peak_rss_mb", "MiB") ]

(* (name, unit) of every per-layer metric, printed by traced runs *)
let per_layer =
  [ ("netlist.gen_s", "s");
    ("tech.model_s", "s");
    ("sizing.dmin_s", "s");
    ("tilos.s", "s");
    ("tilos.share", "1");
    ("tilos.bumps", "count");
    ("tilos.us_per_bump", "us");
    ("tilos.incr_updates", "count");
    ("tilos.critical_set_s", "s");
    ("tilos.score_s", "s");
    ("tilos.propagate_s", "s");
    ("refine.s", "s");
    ("refine.share", "1");
    ("refine.iterations", "count");
    ("refine.dphase_calls", "count");
    ("refine.accept_ratio", "1");
    ("refine.coverage", "1");
    ("dphase.build_s", "s");
    ("flow.simplex_s", "s");
    ("flow.pivots", "count");
    ("flow.pivots_per_ms", "1/ms");
    ("flow.canonical_s", "s");
    ("timing.sta_s", "s");
    ("timing.balance_s", "s");
    ("sizing.weights_s", "s");
    ("wphase.s", "s");
    ("wphase.sweeps", "count");
    ("perf.sweeps", "count");
    ("perf.full_sweeps_avoided", "count");
    ("perf.warm_starts", "count");
    ("perf.cold_starts", "count");
    ("serve.spawn_s", "s");
    ("serve.jobs_per_s", "1/s");
    ("serve.submit_s", "s");
    ("serve.miss_p50_s", "s");
    ("serve.miss_p95_s", "s");
    ("serve.hit_p50_s", "s");
    ("serve.cache_hit_ratio", "1");
    ("serve.queue_peak", "count");
    ("serve.rejections", "count");
    ("serve.journal_bytes_per_job", "B");
    ("serve.daemon_rss_mb", "MiB");
    ("trace.overhead_s", "s") ]

type outcome = {
  attempted : int;
  failed : int;
  values : (string * float) list;  (** metric name -> measured value *)
}

(* The result line. Metrics are emitted in catalogue order; a catalogue
   metric the run did not produce is a bug in the benchmark, not a value
   to invent, so it fails loudly. *)
let result_json ~catalogue (o : outcome) =
  let metric (name, unit) =
    match List.assoc_opt name o.values with
    | Some v when Float.is_finite v ->
      (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
    | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
    | None -> failwith ("metric not measured: " ^ name)
  in
  Json.Obj
    [ ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics", Json.Obj (List.map metric catalogue)) ]

(* ---------- statistics ---------- *)

let now = Minflo_robust.Mono.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median l = Stats.median (Array.of_list l)
let percentile l p = Stats.percentile (Array.of_list l) p
let sum l = List.fold_left ( +. ) 0.0 l
let geomean l = Stats.geomean (Array.of_list l)

(* least-squares slope of log y against log x: the scaling exponent *)
let loglog_slope points =
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let mx = sum (List.map fst pts) /. n and my = sum (List.map snd pts) /. n in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) pts) in
  let sxx = sum (List.map (fun (x, _) -> (x -. mx) *. (x -. mx)) pts) in
  sxy /. sxx

(* VmHWM (peak resident set) of a live process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* progress and notes go to stderr: stdout carries only the result line *)
let note fmt = Printf.eprintf (fmt ^^ "\n%!")
