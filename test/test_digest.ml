(* Bit-identity digests of the sizing pipeline.

   Each case folds every float an engine returns into a 64-bit FNV-1a hash
   over [Int64.bits_of_float] and compares it with a constant recorded
   before the delay model's storage was flattened into CSR arrays. One ulp
   of drift anywhere — a reordered float sum, a different tie-break, a
   different pivot — changes the digest. When a change moves results on
   purpose, rerun this suite, read the new digests off the failure
   messages, and say in the change why they moved. *)

module Gen = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Sta = Minflo_timing.Sta
module Balance = Minflo_timing.Balance
module Tilos = Minflo_sizing.Tilos
module Sensitivity = Minflo_sizing.Sensitivity
module Lagrangian = Minflo_sizing.Lagrangian
module Minflotransit = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module Bounds = Minflo_lint.Bounds

let tech = Tech.default_130nm

(* ---------- FNV-1a over 64-bit words ---------- *)

let fnv_prime = 0x100000001b3L

let mix_int64 h x =
  let h = ref h in
  for k = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * k)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let mix_int h i = mix_int64 h (Int64.of_int i)
let mix_float h f = mix_int64 h (Int64.bits_of_float f)
let mix_bool h b = mix_int h (if b then 1 else 0)
let mix_floats h a = Array.fold_left mix_float (mix_int h (Array.length a)) a
let mix_ints h l = List.fold_left mix_int (mix_int h (List.length l)) l

(* ---------- what gets hashed ---------- *)

let mix_tilos h (r : Tilos.result) =
  let h = mix_floats h r.sizes in
  let h = mix_bool h r.met in
  let h = mix_int h r.bumps in
  mix_float (mix_float h r.final_cp) r.area

let mix_optimize h (r : Minflotransit.result) =
  let h = mix_floats h r.sizes in
  let h = mix_float h r.area in
  let h = mix_float h r.cp in
  mix_int (mix_bool h r.met) r.iterations

(* timing, balance, sensitivity and interval bounds at one sizing *)
let mix_analyses h model sizes ~target =
  let delays = DM.delays model sizes in
  let h = mix_floats h delays in
  let sta = Sta.analyze model ~delays ~deadline:target in
  let h = mix_floats h sta.arrival in
  let h = mix_floats h sta.required in
  let h = mix_floats h sta.slack in
  let h = mix_float h sta.critical_path in
  let h = mix_ints h (Sta.worst_path model ~delays) in
  let h = mix_ints h (Sta.critical_vertices sta) in
  let h =
    if Sta.is_safe ~eps:1e-6 sta then begin
      let bal = Balance.balance model ~delays ~deadline:target in
      let h = mix_floats h bal.edge_fsdu in
      let h = mix_floats h bal.source_fsdu in
      mix_floats h bal.sink_fsdu
    end
    else mix_int h (-1)
  in
  let h =
    match Sensitivity.weights model ~sizes ~delays with
    | w -> mix_floats h w
    | exception Invalid_argument _ -> mix_int h (-2)
  in
  let b = Bounds.compute model in
  let h = mix_floats h b.d_lo in
  let h = mix_floats h b.d_hi in
  let h = mix_floats h b.at_lo in
  let h = mix_floats h b.at_hi in
  let h = mix_floats h b.tail_lo in
  let h = mix_floats h b.tail_hi in
  let h = mix_float (mix_float h b.cp_lo) b.cp_hi in
  mix_ints h (Bounds.witness_path model b)

let random_model seed =
  let gates = 25 + (seed mod 31) in
  Elmore.of_netlist tech
    (Gen.random_dag ~gates ~inputs:5 ~outputs:4 ~seed ())

let target_of model factor = factor *. Sweep.dmin model

let mix_pipeline h model ~factor =
  let target = target_of model factor in
  let t = Tilos.size model ~target in
  let h = mix_tilos h t in
  let o = Minflotransit.optimize model ~target in
  let h = mix_optimize h o in
  mix_analyses h model t.sizes ~target

let hex h = Printf.sprintf "0x%016LxL" h

let expect name want got =
  if want <> got then
    Alcotest.failf "%s digest moved: recorded %s, now %s" name (hex want)
      (hex got)

let fnv_offset = 0xcbf29ce484222325L

(* ---------- cases ---------- *)

let test_random_dags () =
  let h = ref fnv_offset in
  for seed = 0 to 199 do
    h := mix_pipeline !h (random_model seed) ~factor:0.6
  done;
  expect "random-dag" 0x354a42040ad07623L !h

let test_lagrangian () =
  let h = ref fnv_offset in
  List.iter
    (fun seed ->
      let model = random_model seed in
      let r = Lagrangian.size model ~target:(target_of model 0.6) in
      h := mix_floats !h r.sizes;
      h := mix_float !h r.area;
      h := mix_float !h r.cp;
      h := mix_int (mix_bool !h r.met) r.outer_iterations)
    [ 0; 7; 19; 42 ];
  expect "lagrangian" 0x02ef7d3d691d1785L !h

let circuits =
  [ Gen.c17 (); Iscas85.circuit "c432"; Iscas85.circuit "adder32" ]

let test_with_wires () =
  let h =
    List.fold_left
      (fun h nl -> mix_pipeline h (Elmore.with_wires tech nl) ~factor:0.6)
      fnv_offset circuits
  in
  expect "with-wires" 0x556caee518fbbef1L h

let test_transistor () =
  let h =
    List.fold_left
      (fun h nl ->
        let model = Transistor.of_netlist tech (Transform.to_nand_inv nl) in
        mix_pipeline h model ~factor:0.7)
      fnv_offset circuits
  in
  expect "transistor" 0xfe66e7bd2662b359L h

(* The SSP rung under warm start. Warm start forces canonical duals, and the
   canonical dual is the unique componentwise-maximal optimal one, so these
   bits do not depend on whether SSP itself starts warm or cold; they were
   recorded when it started warm. SSP is slow, so this runs on a subset. *)
let test_ssp_warm () =
  let options =
    { Minflotransit.default_options with solver = `Ssp; warm_start = true }
  in
  let run h model =
    mix_optimize h
      (Minflotransit.optimize ~options model ~target:(target_of model 0.6))
  in
  let h = ref fnv_offset in
  for seed = 0 to 19 do
    h := run !h (random_model (seed * 10))
  done;
  h := run !h (Elmore.of_netlist tech (Gen.c17 ()));
  h := run !h (Elmore.of_netlist tech (Iscas85.circuit "c432"));
  expect "ssp-warm" 0x12812cd2f8598fc0L !h

let suite =
  [ ("random-dag-200-seeds", `Quick, test_random_dags);
    ("ssp-warm-start", `Quick, test_ssp_warm);
    ("lagrangian", `Quick, test_lagrangian);
    ("with-wires", `Quick, test_with_wires);
    ("transistor", `Quick, test_transistor) ]

let () = Alcotest.run "digest" [ ("digest", suite) ]
