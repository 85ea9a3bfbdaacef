(* The in-process sizing workloads (table1, ripple) and the outside-in
   layer trace. Every layer number is taken by timing a call into that
   layer's public functions from here; the program itself carries no
   spans. *)

module M = Metrics
module Netlist = Minflo_netlist.Netlist
module Iscas85 = Minflo_netlist.Iscas85
module Generators = Minflo_netlist.Generators
module Delay_model = Minflo_tech.Delay_model
module Model_cache = Minflo_tech.Model_cache
module Sta = Minflo_timing.Sta
module Balance = Minflo_timing.Balance
module Inc = Minflo_timing.Incremental
module Tilos = Minflo_sizing.Tilos
module Mft = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Dphase = Minflo_sizing.Dphase
module Wphase = Minflo_sizing.Wphase
module Sensitivity = Minflo_sizing.Sensitivity
module Mcf = Minflo_flow.Mcf
module Network_simplex = Minflo_flow.Network_simplex
module Perf = Minflo_robust.Perf
module Rng = Minflo_util.Rng

(* ---------- seeded inputs ---------- *)

type job = {
  name : string;
  gen : unit -> Netlist.t;
  factors : float array;
      (** delay target as a fraction of Dmin, one per draw: pass [k] sizes
          at draw [k mod draws] *)
}

(* Seed 0 is the paper's exact specs; any other seed jitters each
   circuit's delay factor within +-2%, so a claim can be re-checked on
   inputs nobody tuned against. A seed draws [draws] factors per circuit,
   one in each of [draws] equal slices of the +-2% band, in a seeded
   order, and pass [k] takes draw [k mod draws]. How much refinement a
   target costs is erratic in the target; one factor per slice keeps two
   seeds from piling their draws into different ends of the band, and
   weighing every draw alike (see [run_passes]) keeps a run's mix of
   targets the same whatever the host's speed. *)
let factors rng seed ~draws spec =
  if seed = 0 then Array.make draws spec
  else begin
    let f =
      Array.init draws (fun k ->
          spec
          *. (0.98 +. (0.04 *. (float_of_int k +. Rng.float rng 1.0) /. float_of_int draws)))
    in
    Rng.shuffle rng f;
    f
  end

(* a table1 pass takes 5.5-7.5 s and a ripple pass 9.5-12 s on a 2-core
   Xeon VM, so one round of draws fits a run on either *)
let table1_draws = 6
let ripple_draws = 4

let table1_jobs ~quick seed =
  let rng = Rng.create seed in
  List.filter_map
    (fun (info : Iscas85.info) ->
      let factors = factors rng seed ~draws:table1_draws info.delay_spec in
      if quick && not (List.mem info.name [ "adder32"; "c432" ]) then None
      else
        Some
          { name = info.name;
            gen = (fun () -> Iscas85.circuit info.name);
            factors })
    Iscas85.suite

let ripple_jobs ~quick seed =
  let rng = Rng.create seed in
  List.map
    (fun bits ->
      { name = Printf.sprintf "rca%d" bits;
        gen = (fun () -> Generators.ripple_carry_adder ~bits ());
        factors = factors rng seed ~draws:ripple_draws 0.6 })
    (if quick then [ 32; 64; 128 ] else [ 256; 512; 1024 ])

(* ---------- set-up ---------- *)

type inst = {
  job : job;
  model : Delay_model.t;
  dmin : float;
  target : float;  (** at the draw of the pass in hand *)
  min_area : float;
  gates : int;
}

type setup_split = { gen_s : float; model_s : float; dmin_s : float }

(* one set-up from nothing: generate each netlist, build its delay model
   with the model cache cleared, take Dmin *)
let setup_once jobs =
  Model_cache.clear ();
  let gen_s = ref 0.0 and model_s = ref 0.0 and dmin_s = ref 0.0 in
  let insts =
    List.map
      (fun job ->
        let nl, t1 = M.timed job.gen in
        let model, t2 = M.timed (fun () -> Model_cache.model nl) in
        let d0, t3 = M.timed (fun () -> Sweep.dmin model) in
        gen_s := !gen_s +. t1;
        model_s := !model_s +. t2;
        dmin_s := !dmin_s +. t3;
        { job;
          model;
          dmin = d0;
          target = job.factors.(0) *. d0;
          min_area = Sweep.min_area model;
          gates = Delay_model.num_vertices model })
      jobs
  in
  (insts, { gen_s = !gen_s; model_s = !model_s; dmin_s = !dmin_s })

let setup_total s = s.gen_s +. s.model_s +. s.dmin_s

(* the line a [--setup-once] process prints, and its reading *)
let print_split s = Printf.printf "%h %h %h\n%!" s.gen_s s.model_s s.dmin_s

(* One timed set-up in a fresh process: [argv] runs this benchmark with
   [--setup-once], which makes one [setup_once] and prints its split.
   Every repetition starts from an empty heap, and none of their garbage
   stays behind to inflate the measuring process's memory. *)
let setup_in_child argv =
  let ic = Unix.open_process_args_in argv.(0) argv in
  let line =
    Fun.protect
      ~finally:(fun () ->
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "a set-up process failed")
      (fun () -> input_line ic)
  in
  Scanf.sscanf line "%h %h %h" (fun gen_s model_s dmin_s -> { gen_s; model_s; dmin_s })

(* The timed set-ups of a run: [initial_setups] before the first pass and
   one after every pass (see [run_passes]). A set-up takes 0.05-0.15 s,
   and the host's speed drifts over seconds; spread over the run, their
   median is taken over the same stretch of time as the passes', not over
   one second at the start. *)
type setups = { argv : string array; mutable splits : setup_split list }

let initial_setups = 3

let setup_rep st = st.splits <- setup_in_child st.argv :: st.splits

(* the initial timed set-ups, then the set-up this process sizes with *)
let setup ~argv jobs =
  let st = { argv; splits = [] } in
  for _ = 1 to initial_setups do
    setup_rep st
  done;
  (fst (setup_once jobs), st)

(* the median total and the median split of every set-up so far *)
let setup_medians st =
  let med f = M.median (List.map f st.splits) in
  M.note "set-ups: %s"
    (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.4f" (setup_total s)) st.splits));
  ( med setup_total,
    { gen_s = med (fun s -> s.gen_s);
      model_s = med (fun s -> s.model_s);
      dmin_s = med (fun s -> s.dmin_s) } )

(* ---------- sizing and its output check ---------- *)

type sized = {
  sizes : float array;
  area : float;
  tilos_area : float;  (** area of the TILOS seed refinement started from *)
  cp : float;
  met : bool;
  iterations : int;
  bumps : int;
  tilos_s : float;
  refine_s : float;
}

let refine_or_seed ~options ?on_step (i : inst) (tilos : Tilos.result) =
  if tilos.met then
    M.timed (fun () ->
        let r =
          Mft.refine_from ~options ?on_step i.model ~target:i.target
            ~init:tilos.sizes ~tilos
        in
        (r.sizes, r.area, r.cp, r.met, r.iterations))
  else ((tilos.sizes, tilos.area, tilos.final_cp, false, 0), 0.0)

(* time to a sized circuit: TILOS seed plus D/W refinement, the user's
   default options *)
let size_job ~options (i : inst) =
  let tilos, tilos_s =
    M.timed (fun () -> Tilos.size ~bump:options.Mft.tilos_bump i.model ~target:i.target)
  in
  let (sizes, area, cp, met, iterations), refine_s =
    refine_or_seed ~options i tilos
  in
  { sizes; area; tilos_area = tilos.area; cp; met; iterations; bumps = tilos.bumps;
    tilos_s; refine_s }

(* Recomputes the claims of a returned sizing from the sizes alone: every
   size within the model's box, area and critical path bit-equal to the
   claimed ones, and the target met. *)
let check_sizing (model : Delay_model.t) ~target ~sizes ~area ~cp ~met =
  Array.length sizes = Delay_model.num_vertices model
  && Array.for_all
       (fun v -> v >= model.min_size && v <= model.max_size)
       sizes
  && M.same_bits (Delay_model.area model sizes) area
  && M.same_bits
       (Sta.critical_path_only model ~delays:(Delay_model.delays model sizes))
       cp
  && met
  && cp <= target *. (1.0 +. 1e-9)

(* ---------- untraced passes ---------- *)

type passes = {
  samples : float list array array;
      (** per job and draw, one sizing time per pass at that draw *)
  by_draw : sized option array array;
      (** per job and draw, the first result at that draw, if sized *)
  passes : int;
  attempted : int;
  failed : int;
  perf : Perf.counters;        (** counters spent by the first pass *)
  rss_mb : float;
      (** peak RSS after set-up and the first [min_passes] passes (one
          round of draws, untraced): a fixed amount of work, so a faster
          program's extra passes cannot raise it *)
}

let draws insts = Array.length (List.hd insts).job.factors

let at_draw (i : inst) d = { i with target = i.job.factors.(d) *. i.dmin }

(* the first result of job [k] at draw [d] *)
let first (p : passes) k d = Option.get p.by_draw.(k).(d)

(* Size every job once per pass, pass [k] at draw [k mod draws], for at
   least [min_passes] passes and then while another pass of the median
   length still ends within [seconds]: a run covers whole rounds of
   draws when [min_passes] asks it to and does not overrun its time by
   a pass. [between] runs after every pass, outside the timing. Outputs
   are checked between the timed calls; a pass that comes back to a draw
   must reproduce that draw's first result bit for bit. *)
let run_passes ~options ~seconds ~min_passes ~between insts =
  let arr = Array.of_list insts in
  let n = Array.length arr and nd = draws insts in
  let samples = Array.init n (fun _ -> Array.make nd []) in
  let seen = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref 0 in
  let perf = ref (Perf.zero ()) and rss_mb = ref 0.0 in
  let size_checked k (i : inst) d =
    let i = at_draw i d in
    let s = size_job ~options i in
    incr attempted;
    let ok =
      check_sizing i.model ~target:i.target ~sizes:s.sizes ~area:s.area
        ~cp:s.cp ~met:s.met
      &&
      match Hashtbl.find_opt seen (k, d) with
      | None -> true
      | Some (f : sized) ->
        M.same_bits f.area s.area && M.same_bits f.cp s.cp
        && f.bumps = s.bumps && f.iterations = s.iterations
    in
    if not (Hashtbl.mem seen (k, d)) then Hashtbl.replace seen (k, d) s;
    if not ok then begin
      incr failed;
      M.note "output check failed: %s" i.job.name
    end;
    s
  in
  let t0 = M.now () in
  let pass_times = ref [] in
  let more () =
    List.length !pass_times < min_passes
    || M.now () -. t0 +. M.median !pass_times <= seconds
  in
  while !pass_times = [] || more () do
    let pass = List.length !pass_times and p0 = Perf.snapshot () in
    let d = pass mod nd in
    let spent =
      Array.mapi
        (fun k i ->
          let s = size_checked k i d in
          let t = s.tilos_s +. s.refine_s in
          samples.(k).(d) <- t :: samples.(k).(d);
          t)
        arr
    in
    if pass = 0 then perf := Perf.diff p0 (Perf.snapshot ());
    if pass = min_passes - 1 then rss_mb := M.peak_rss_mb "self";
    pass_times := M.sum (Array.to_list spent) :: !pass_times;
    between ()
  done;
  M.note "pass times: %s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !pass_times));
  { samples;
    by_draw = Array.init n (fun k -> Array.init nd (fun d -> Hashtbl.find_opt seen (k, d)));
    passes = List.length !pass_times;
    attempted = !attempted;
    failed = !failed;
    perf = !perf;
    rss_mb = !rss_mb }

(* per job, per draw: the median of that draw's op times (every draw must
   have been sized) *)
let draw_medians (p : passes) = Array.map (Array.map M.median) p.samples

(* per job: its op time, the median over draws of each draw's median, so
   every draw weighs alike however often the run reached it *)
let job_times (p : passes) =
  Array.to_list (Array.map (fun a -> M.median (Array.to_list a)) (draw_medians p))

(* geometric mean of area / minimum area over every circuit and every
   draw; [area] picks which area *)
let area_ratio insts (p : passes) area =
  M.geomean
    (List.concat
       (List.mapi
          (fun k (i : inst) ->
            List.init (draws insts) (fun d -> area (first p k d) /. i.min_area))
          insts))

let end_to_end insts ~setup_s (p : passes) =
  let meds = job_times p in
  let per_draw = List.concat_map Array.to_list (Array.to_list (draw_medians p)) in
  [ ("setup_s", setup_s);
    ("size_s", M.sum meds);
    ( "scale_exponent",
      M.loglog_slope (List.map2 (fun (i : inst) t -> (float_of_int i.gates, t)) insts meds) );
    ("area_ratio", area_ratio insts p (fun s -> s.area));
    (* one round of draws, each draw's op time its median *)
    ("jobs_per_s", float_of_int (List.length per_draw) /. M.sum per_draw);
    (* over the circuits' op times: among the 72-96 raw ops of a table1
       run, p95 would rest on 4 or 5 samples of c6288 alone *)
    ("latency_p50_s", M.percentile meds 50.0);
    ("latency_p95_s", M.percentile meds 95.0);
    ("peak_rss_mb", p.rss_mb) ]

(* ---------- the traced pass ---------- *)

type layers = {
  mutable tilos_s : float;
  mutable critical_set_s : float;
  mutable propagate_s : float;
  mutable bumps : int;
  mutable incr_updates : int;
  mutable refine_s : float;
  mutable iterations : int;
  mutable dphase_calls : int;
  mutable build_s : float;
  mutable simplex_s : float;
  mutable pivots : int;
  mutable canonical_s : float;
  mutable sta_s : float;
  mutable balance_s : float;
  mutable weights_s : float;
  mutable wphase_s : float;
  mutable sweeps : int;
  mutable untraced_s : float;  (** the same jobs' untraced sizing time *)
  mutable failed : int;
}

let new_layers () =
  { tilos_s = 0.0; critical_set_s = 0.0; propagate_s = 0.0; bumps = 0;
    incr_updates = 0; refine_s = 0.0; iterations = 0; dphase_calls = 0;
    build_s = 0.0; simplex_s = 0.0; pivots = 0; canonical_s = 0.0;
    sta_s = 0.0; balance_s = 0.0; weights_s = 0.0; wphase_s = 0.0;
    sweeps = 0; untraced_s = 0.0; failed = 0 }

(* mean time of one call, repeated until the sample is long enough for the
   clock to resolve *)
let per_call f =
  let reps = ref 0 and total = ref 0.0 in
  while !total < 2e-3 do
    let (), dt = M.timed f in
    total := !total +. dt;
    incr reps
  done;
  !total /. float_of_int !reps

(* TILOS at one point of its trajectory, split outside-in: the
   critical-set backtrace on an engine built from [sizes], and the
   incremental propagation of the bump TILOS takes next (applied and
   rolled back, so one propagation is half a pair) *)
let tilos_probe ~options (i : inst) sizes =
  let eng = Inc.create i.model ~sizes in
  let crit = per_call (fun () -> ignore (Inc.critical_set ~eps_rel:1e-7 eng)) in
  let next =
    Tilos.size ~bump:options.Mft.tilos_bump ~max_bumps:1 ~init:sizes i.model
      ~target:i.target
  in
  let bumped = ref None in
  Array.iteri
    (fun v x -> if !bumped = None && not (M.same_bits x sizes.(v)) then bumped := Some v)
    next.sizes;
  let prop =
    Option.map
      (fun v ->
        per_call (fun () ->
            Inc.set_size eng v next.sizes.(v);
            Inc.set_size eng v sizes.(v))
        /. 2.0)
      !bumped
  in
  (crit, prop)

let probes_per_job = 8

(* TILOS in [probes_per_job] chunks of bumps (the greedy is memoryless in
   the sizes, so chunking keeps its trajectory), probing between chunks *)
let traced_tilos ~options (l : layers) (i : inst) ~expected_bumps =
  let chunk = max 1 ((expected_bumps + probes_per_job - 1) / probes_per_job) in
  let crits = ref [] and props = ref [] in
  let rec go sizes bumps =
    let crit, prop = tilos_probe ~options i sizes in
    crits := crit :: !crits;
    Option.iter (fun p -> props := p :: !props) prop;
    let p0 = Perf.snapshot () in
    let r, dt =
      M.timed (fun () ->
          Tilos.size ~bump:options.Mft.tilos_bump ~max_bumps:chunk ~init:sizes
            i.model ~target:i.target)
    in
    l.incr_updates <- l.incr_updates + (Perf.diff p0 (Perf.snapshot ())).incr_updates;
    l.tilos_s <- l.tilos_s +. dt;
    if r.met || r.bumps < chunk then { r with bumps = bumps + r.bumps }
    else go r.sizes (bumps + r.bumps)
  in
  let r = go (Delay_model.uniform_sizes i.model i.model.min_size) 0 in
  let mean = function [] -> 0.0 | l -> M.sum l /. float_of_int (List.length l) in
  l.bumps <- l.bumps + r.bumps;
  l.critical_set_s <- l.critical_set_s +. (mean !crits *. float_of_int r.bumps);
  l.propagate_s <- l.propagate_s +. (mean !props *. float_of_int r.bumps);
  r

(* Replays one accepted D/W step from the inputs [on_step] exposes (the
   sizes before the step, its trust region and its budgets), timing each
   layer's public call, with the D-phase options the default engine uses.
   The replay must time what the run did: the rebuilt LP and its cold
   simplex solution must equal the step's certificate (problem, potentials
   and objective), and the replayed W-phase must reproduce the step's sizes
   exactly. *)
let replay_step (l : layers) (i : inst) prev (s : Mft.step) =
  let m = i.model and deadline = i.target in
  let delays = Delay_model.delays m prev in
  let sta, dt = M.timed (fun () -> Sta.analyze m ~delays ~deadline) in
  l.sta_s <- l.sta_s +. dt;
  let _, dt = M.timed (fun () -> Balance.balance ~sta m ~delays ~deadline) in
  l.balance_s <- l.balance_s +. dt;
  let _, dt = M.timed (fun () -> Sensitivity.weights m ~sizes:prev ~delays) in
  l.weights_s <- l.weights_s +. dt;
  let options = { Dphase.default_options with eta = s.step_eta } in
  (match
     M.timed (fun () ->
         Dphase.displacement_problem ~options m ~sizes:prev ~delays ~deadline)
   with
  | Error _, _ -> l.failed <- l.failed + 1
  | Ok problem, dt ->
    l.build_s <- l.build_s +. dt;
    let p0 = Perf.snapshot () in
    let sol, dt = M.timed (fun () -> Network_simplex.solve problem) in
    l.simplex_s <- l.simplex_s +. dt;
    l.pivots <- l.pivots + (Perf.diff p0 (Perf.snapshot ())).pivots;
    (match s.step_certificate with
    | Some c
      when s.step_solver = "simplex" && c.problem = problem
           && c.solution.objective = sol.objective
           && c.solution.potential = sol.potential -> ()
    | _ ->
      l.failed <- l.failed + 1;
      M.note "D-phase replay differs from step %d of %s" s.step_iter i.job.name);
    let _, dt = M.timed (fun () -> Mcf.canonical_potentials problem sol) in
    l.canonical_s <- l.canonical_s +. dt);
  (match M.timed (fun () -> Wphase.solve m ~budgets:s.step_budgets) with
  | Ok w, dt ->
    l.wphase_s <- l.wphase_s +. dt;
    l.sweeps <- l.sweeps + w.sweeps;
    if not (Array.for_all2 M.same_bits w.sizes s.step_sizes) then begin
      l.failed <- l.failed + 1;
      M.note "W-phase replay differs from step %d of %s" s.step_iter i.job.name
    end
  | Error _, _ -> l.failed <- l.failed + 1);
  s.step_sizes

(* One untraced and then one traced sizing of [i] at draw 0; [reference]
   is its first untraced result, which both must reproduce. The untraced
   sizing just before is the baseline of [trace.overhead_s]: same target,
   same heap. *)
let traced_job ~options (l : layers) (i : inst) ~(reference : sized) =
  let base = size_job ~options i in
  let tilos = traced_tilos ~options l i ~expected_bumps:reference.bumps in
  let steps = ref [] in
  let p0 = Perf.snapshot () in
  let (sizes, area, cp, met, iterations), refine_s =
    refine_or_seed ~options ~on_step:(fun s -> steps := s :: !steps) i tilos
  in
  let spent = Perf.diff p0 (Perf.snapshot ()) in
  l.refine_s <- l.refine_s +. refine_s;
  l.iterations <- l.iterations + iterations;
  l.dphase_calls <- l.dphase_calls + spent.cold_starts + spent.warm_starts;
  l.untraced_s <- l.untraced_s +. base.tilos_s +. base.refine_s;
  ignore (List.fold_left (replay_step l i) tilos.sizes (List.rev !steps));
  if
    not
      (check_sizing i.model ~target:i.target ~sizes ~area ~cp ~met
      && M.same_bits area reference.area
      && tilos.bumps = reference.bumps
      && M.same_bits base.area reference.area)
  then begin
    l.failed <- l.failed + 1;
    M.note "traced run diverged from the untraced one: %s" i.job.name
  end

(* the per-layer values of the sizing layers, from the traced jobs *)
let layer_values ~(split : setup_split) ~(perf : Perf.counters) (l : layers) =
  let f = float_of_int in
  let traced = l.tilos_s +. l.refine_s in
  (* score is the remainder, so critical_set + score + propagate =
     tilos.s = us_per_bump x bumps by construction; what can go wrong is
     extrapolated probes exceeding the chunk time (the self-test checks) *)
  (* the default engine never canonicalises, so that replay is not part of
     what the refinement spent *)
  let covered = l.build_s +. l.simplex_s +. l.wphase_s in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [ ("netlist.gen_s", split.gen_s);
    ("tech.model_s", split.model_s);
    ("sizing.dmin_s", split.dmin_s);
    ("tilos.s", l.tilos_s);
    ("tilos.share", ratio l.tilos_s traced);
    ("tilos.bumps", f l.bumps);
    ("tilos.us_per_bump", ratio (l.tilos_s *. 1e6) (f l.bumps));
    ("tilos.incr_updates", f l.incr_updates);
    ("tilos.critical_set_s", l.critical_set_s);
    ("tilos.score_s", l.tilos_s -. l.critical_set_s -. l.propagate_s);
    ("tilos.propagate_s", l.propagate_s);
    ("refine.s", l.refine_s);
    ("refine.share", ratio l.refine_s traced);
    ("refine.iterations", f l.iterations);
    ("refine.dphase_calls", f l.dphase_calls);
    ("refine.accept_ratio", ratio (f l.iterations) (f l.dphase_calls));
    ("refine.coverage", ratio covered l.refine_s);
    ("dphase.build_s", l.build_s);
    ("flow.simplex_s", l.simplex_s);
    ("flow.pivots", f l.pivots);
    ("flow.pivots_per_ms", ratio (f l.pivots) (l.simplex_s *. 1e3));
    ("flow.canonical_s", l.canonical_s);
    ("timing.sta_s", l.sta_s);
    ("timing.balance_s", l.balance_s);
    ("sizing.weights_s", l.weights_s);
    ("wphase.s", l.wphase_s);
    ("wphase.sweeps", f l.sweeps);
    ("perf.sweeps", f perf.sweeps);
    ("perf.full_sweeps_avoided", f perf.full_sweeps_avoided);
    ("perf.warm_starts", f perf.warm_starts);
    ("perf.cold_starts", f perf.cold_starts);
    ("trace.overhead_s", traced -. l.untraced_s) ]
