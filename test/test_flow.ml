(* Tests for the min-cost-flow substrate: two independent solvers checked
   against each other, against complementary slackness, and against brute
   force on tiny instances. *)

module Mcf = Minflo_flow.Mcf
module Simplex = Minflo_flow.Network_simplex
module Ssp = Minflo_flow.Ssp
module BF = Minflo_flow.Bellman_ford
module Diff_lp = Minflo_flow.Diff_lp
module Rng = Minflo_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let arc src dst cap cost = { Mcf.src; dst; cap; cost }

let status_str = function
  | Mcf.Optimal -> "Optimal"
  | Mcf.Infeasible -> "Infeasible"
  | Mcf.Unbounded -> "Unbounded"
  | Mcf.Aborted -> "Aborted"

let solve_both p = (Simplex.solve p, Ssp.solve p)

let expect_optimal name (sol : Mcf.solution) expected_cost =
  check Alcotest.string (name ^ " status") "Optimal" (status_str sol.status);
  check int (name ^ " objective") expected_cost sol.objective

(* ---------- hand-checked instances ---------- *)

(* 0 -> 1 cheap (cost 1, cap 4) and expensive (cost 3, cap 10); ship 7 *)
let test_two_parallel_arcs () =
  let p =
    { Mcf.num_nodes = 2;
      arcs = [| arc 0 1 4 1; arc 0 1 10 3 |];
      supply = [| 7; -7 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 ((4 * 1) + (3 * 3));
  expect_optimal "ssp" s2 13;
  check int "simplex cheap arc saturated" 4 s1.flow.(0);
  check int "ssp cheap arc saturated" 4 s2.flow.(0);
  (match Mcf.check_optimality p s1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("simplex slackness: " ^ Minflo_robust.Diag.to_string e));
  match Mcf.check_optimality p s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ssp slackness: " ^ Minflo_robust.Diag.to_string e)

(* classic 4-node transportation instance *)
let test_transportation () =
  (* sources 0 (supply 3), 1 (supply 2); sinks 2 (demand 4), 3 (demand 1) *)
  let p =
    { Mcf.num_nodes = 4;
      arcs =
        [| arc 0 2 5 2; arc 0 3 5 3; arc 1 2 5 1; arc 1 3 5 4 |];
      supply = [| 3; 2; -4; -1 |] }
  in
  (* optimum: 1->2 carries 2 (cost 2), 0->2 carries 2 (cost 4),
     0->3 carries 1 (cost 3); total 9 *)
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 9;
  expect_optimal "ssp" s2 9

let test_negative_costs () =
  (* a profitable detour: 0 -> 1 -> 2 with negative cost on 1 -> 2 *)
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 2 10 5; arc 0 1 10 2; arc 1 2 10 (-1) |];
      supply = [| 4; 0; -4 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 4;
  expect_optimal "ssp" s2 4

let test_negative_cycle_capacitated () =
  (* negative cycle 1 -> 2 -> 1 with finite caps: still a finite optimum;
     the cycle saturates and reduces cost *)
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 1 5 1; arc 1 2 5 (-3); arc 2 1 5 1; arc 1 0 5 10 |];
      supply = [| 0; 0; 0 |] }
  in
  (* best: circulate 5 units on 1->2->1: cost 5*(-3+1) = -10 *)
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 (-10);
  expect_optimal "ssp" s2 (-10)

let test_unbounded () =
  let p =
    { Mcf.num_nodes = 2;
      arcs =
        [| arc 0 1 Mcf.infinite_capacity (-1);
           arc 1 0 Mcf.infinite_capacity 0 |];
      supply = [| 0; 0 |] }
  in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Unbounded" (status_str s1.status);
  check Alcotest.string "ssp" "Unbounded" (status_str s2.status)

let test_infeasible_unbalanced () =
  let p = { Mcf.num_nodes = 2; arcs = [| arc 0 1 1 1 |]; supply = [| 2; -1 |] } in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Infeasible" (status_str s1.status);
  check Alcotest.string "ssp" "Infeasible" (status_str s2.status)

let test_infeasible_capacity () =
  let p = { Mcf.num_nodes = 2; arcs = [| arc 0 1 1 1 |]; supply = [| 3; -3 |] } in
  let s1, s2 = solve_both p in
  check Alcotest.string "simplex" "Infeasible" (status_str s1.status);
  check Alcotest.string "ssp" "Infeasible" (status_str s2.status)

let test_disconnected_balanced () =
  (* two independent components, each internally balanced *)
  let p =
    { Mcf.num_nodes = 4;
      arcs = [| arc 0 1 5 2; arc 2 3 5 7 |];
      supply = [| 3; -3; 1; -1 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 ((3 * 2) + 7);
  expect_optimal "ssp" s2 13

let test_zero_supply_optimal_zero () =
  let p =
    { Mcf.num_nodes = 3;
      arcs = [| arc 0 1 5 1; arc 1 2 5 1 |];
      supply = [| 0; 0; 0 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 0;
  expect_optimal "ssp" s2 0

(* ---------- randomized cross-check ---------- *)

let random_problem seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng (3 * n) in
  let arcs =
    Array.init m (fun _ ->
        let src = Rng.int rng n in
        let dst = Rng.int rng n in
        let cap = Rng.int rng 15 in
        let cost = Rng.int rng 21 - 6 in
        arc src dst cap cost)
  in
  let supply = Array.make n 0 in
  let pairs = 1 + Rng.int rng 3 in
  for _ = 1 to pairs do
    let s = Rng.int rng n and t = Rng.int rng n in
    let amount = 1 + Rng.int rng 5 in
    supply.(s) <- supply.(s) + amount;
    supply.(t) <- supply.(t) - amount
  done;
  { Mcf.num_nodes = n; arcs; supply }

let prop_solvers_agree =
  QCheck.Test.make ~name:"network simplex and SSP agree (status + objective)"
    ~count:300 QCheck.small_nat (fun seed ->
      let p = random_problem (seed * 7919) in
      let s1 = Simplex.solve p and s2 = Ssp.solve p in
      match (s1.status, s2.status) with
      | Optimal, Optimal ->
        s1.objective = s2.objective
        && Result.is_ok (Mcf.check_optimality p s1)
        && Result.is_ok (Mcf.check_optimality p s2)
      | a, b -> a = b)

(* fixed-seed differential sweep: 50 pinned instances on which both
   independent solvers must agree. Unlike the QCheck properties above (fresh
   instances every run), these seeds are frozen so a regression in either
   solver reproduces identically in CI; a failure prints the whole instance
   for replay. *)

let problem_to_string (p : Mcf.problem) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "num_nodes = %d\nsupply = [|%s|]\n" p.num_nodes
       (String.concat "; "
          (Array.to_list (Array.map string_of_int p.supply))));
  Array.iteri
    (fun i a ->
      Buffer.add_string b
        (Printf.sprintf "arc %d: %d -> %d cap %d cost %d\n" i a.Mcf.src
           a.Mcf.dst a.Mcf.cap a.Mcf.cost))
    p.arcs;
  Buffer.contents b

let test_differential_fixed_seeds () =
  let optimal = ref 0 and infeasible = ref 0 in
  for seed = 1 to 50 do
    let p = random_problem ((seed * 48271) + 7) in
    let s1 = Simplex.solve p and s2 = Ssp.solve p in
    if s1.status <> s2.status then
      Alcotest.failf "seed %d: statuses simplex=%s ssp=%s on instance:\n%s"
        seed (status_str s1.status) (status_str s2.status)
        (problem_to_string p);
    match s1.status with
    | Mcf.Optimal ->
      incr optimal;
      if s1.objective <> s2.objective then
        Alcotest.failf "seed %d: objectives simplex=%d ssp=%d on instance:\n%s"
          seed s1.objective s2.objective (problem_to_string p)
    | Mcf.Infeasible -> incr infeasible
    | _ -> ()
  done;
  (* both outcomes must stay well represented, or the pinned family could
     drift to one status and stop exercising the other *)
  if !optimal < 10 || !infeasible < 10 then
    Alcotest.failf "outcome mix drifted: %d optimal, %d infeasible of 50"
      !optimal !infeasible

let prop_simplex_certificate =
  QCheck.Test.make
    ~name:"simplex optimal solutions satisfy complementary slackness"
    ~count:300 QCheck.small_nat (fun seed ->
      let p = random_problem ((seed * 104729) + 1) in
      let s = Simplex.solve p in
      match s.status with
      | Optimal -> Result.is_ok (Mcf.check_optimality p s)
      | _ -> true)

let test_check_feasible_flow_diagnostics () =
  let p =
    { Mcf.num_nodes = 2; arcs = [| arc 0 1 5 1 |]; supply = [| 3; -3 |] }
  in
  check bool "correct flow accepted" true
    (Result.is_ok (Mcf.check_feasible_flow p [| 3 |]));
  check bool "over capacity rejected" true
    (Result.is_error (Mcf.check_feasible_flow p [| 6 |]));
  check bool "negative rejected" true
    (Result.is_error (Mcf.check_feasible_flow p [| -1 |]));
  check bool "conservation violated" true
    (Result.is_error (Mcf.check_feasible_flow p [| 2 |]));
  check bool "wrong length" true
    (Result.is_error (Mcf.check_feasible_flow p [| 1; 1 |]))

let test_self_loop_arc () =
  (* a self loop can carry flow only if profitable and never affects
     conservation; with positive cost it stays empty *)
  let p =
    { Mcf.num_nodes = 2;
      arcs = [| arc 0 0 5 3; arc 0 1 5 1 |];
      supply = [| 2; -2 |] }
  in
  let s1, s2 = solve_both p in
  expect_optimal "simplex" s1 2;
  expect_optimal "ssp" s2 2;
  check int "self loop empty" 0 s1.flow.(0)

(* ---------- Bellman-Ford ---------- *)

let test_bf_distances () =
  let g =
    { BF.num_nodes = 4;
      arc_src = [| 0; 0; 1; 2 |];
      arc_dst = [| 1; 2; 3; 3 |];
      arc_weight = [| 1; 4; 1; -2 |] }
  in
  match BF.run g ~sources:[ 0 ] with
  | Distances d ->
    check int "d1" 1 d.(1);
    check int "d2" 4 d.(2);
    check int "d3" 2 d.(3)
  | Negative_cycle _ -> Alcotest.fail "unexpected negative cycle"

let test_bf_unreachable () =
  let g =
    { BF.num_nodes = 3;
      arc_src = [| 0 |];
      arc_dst = [| 1 |];
      arc_weight = [| 5 |] }
  in
  match BF.run g ~sources:[ 0 ] with
  | Distances d -> check int "unreachable" BF.unreachable d.(2)
  | Negative_cycle _ -> Alcotest.fail "unexpected negative cycle"

let test_bf_negative_cycle () =
  let g =
    { BF.num_nodes = 3;
      arc_src = [| 0; 1; 2 |];
      arc_dst = [| 1; 2; 0 |];
      arc_weight = [| 1; -3; 1 |] }
  in
  match BF.run_all g with
  | Distances _ -> Alcotest.fail "missed negative cycle"
  | Negative_cycle arcs ->
    let w = List.fold_left (fun acc a -> acc + g.arc_weight.(a)) 0 arcs in
    check bool "cycle weight negative" true (w < 0)

(* ---------- Diff_lp ---------- *)

let test_diff_lp_basic () =
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  (* maximize x - y subject to x - y <= 3, y - x <= 1 *)
  Diff_lp.add_le lp x y 3;
  Diff_lp.add_le lp y x 1;
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Solution { values; objective } ->
    check int "objective" 3 objective;
    check int "difference" 3 (values.(x) - values.(y))
  | Infeasible_lp -> Alcotest.fail "infeasible"
  | Unbounded_lp -> Alcotest.fail "unbounded"
  | Aborted_lp -> Alcotest.fail "aborted"

let test_diff_lp_chain () =
  (* chain x0 <= x1 <= x2 (i.e. x_i - x_{i+1} <= 0) with x2 - x0 <= 5;
     maximize (x2 - x0) *)
  let lp = Diff_lp.create () in
  let v = Array.init 3 (fun _ -> Diff_lp.var lp) in
  Diff_lp.add_le lp v.(0) v.(1) 0;
  Diff_lp.add_le lp v.(1) v.(2) 0;
  Diff_lp.add_le lp v.(2) v.(0) 5;
  Diff_lp.add_objective lp v.(2) 1;
  Diff_lp.add_objective lp v.(0) (-1);
  match Diff_lp.solve lp with
  | Solution { objective; values } ->
    check int "objective" 5 objective;
    check int "spread" 5 (values.(2) - values.(0))
  | _ -> Alcotest.fail "expected solution"

let test_diff_lp_infeasible () =
  (* x - y <= -1 and y - x <= -1: negative cycle *)
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  Diff_lp.add_le lp x y (-1);
  Diff_lp.add_le lp y x (-1);
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Infeasible_lp -> ()
  | Solution _ -> Alcotest.fail "expected infeasible, got solution"
  | Unbounded_lp -> Alcotest.fail "expected infeasible, got unbounded"
  | Aborted_lp -> Alcotest.fail "expected infeasible, got aborted"

let test_diff_lp_unbounded () =
  (* maximize x - y with only x - y >= constraint missing: no upper bound *)
  let lp = Diff_lp.create () in
  let x = Diff_lp.var lp and y = Diff_lp.var lp in
  Diff_lp.add_le lp y x 0;
  Diff_lp.add_objective lp x 1;
  Diff_lp.add_objective lp y (-1);
  match Diff_lp.solve lp with
  | Unbounded_lp -> ()
  | Solution _ -> Alcotest.fail "expected unbounded, got solution"
  | Infeasible_lp -> Alcotest.fail "expected unbounded, got infeasible"
  | Aborted_lp -> Alcotest.fail "expected unbounded, got aborted"

(* brute force oracle for tiny LPs: enumerate assignments in [-bound, bound] *)
let brute_force_lp lp nvars bound =
  let best = ref None in
  let values = Array.make nvars 0 in
  let rec enumerate i =
    if i = nvars then begin
      match Diff_lp.check_assignment lp values with
      | Ok obj -> (
        match !best with
        | Some b when b >= obj -> ()
        | _ -> best := Some obj)
      | Error _ -> ()
    end
    else
      for v = -bound to bound do
        values.(i) <- v;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let prop_diff_lp_matches_brute_force =
  QCheck.Test.make ~name:"Diff_lp optimum matches brute force on tiny LPs"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Rng.create ((seed * 6151) + 3) in
      let nvars = 2 + Rng.int rng 3 in
      let lp = Diff_lp.create () in
      let vars = Array.init nvars (fun _ -> Diff_lp.var lp) in
      (* feasible by construction: weights from a random potential plus
         non-negative slack, all small so the optimum is within the box *)
      let phi = Array.init nvars (fun _ -> Rng.int rng 5) in
      let ncons = 2 + Rng.int rng 6 in
      for _ = 1 to ncons do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        if x <> y then
          Diff_lp.add_le lp vars.(x) vars.(y) (phi.(x) - phi.(y) + Rng.int rng 3)
      done;
      (* balanced objective pairs *)
      let x = Rng.int rng nvars and y = Rng.int rng nvars in
      let c = 1 + Rng.int rng 3 in
      Diff_lp.add_objective lp vars.(x) c;
      Diff_lp.add_objective lp vars.(y) (-c);
      match (Diff_lp.solve lp, brute_force_lp lp nvars 8) with
      | Solution { objective; values }, Some best ->
        (* brute force searches a box; the LP optimum can only exceed it if
           unconstrained spread allows, in which case skip *)
        Result.is_ok (Diff_lp.check_assignment lp values) && objective >= best
      | Unbounded_lp, _ -> true (* objective direction unconstrained *)
      | Solution _, None -> false (* solver found a solution, brute force none *)
      | Infeasible_lp, _ -> false (* our construction is always feasible *)
      | Aborted_lp, _ -> false (* no budget is installed here *))

let prop_diff_lp_solvers_agree =
  QCheck.Test.make ~name:"Diff_lp via simplex and via SSP agree" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create ((seed * 523) + 11) in
      let nvars = 2 + Rng.int rng 5 in
      let lp = Diff_lp.create () in
      let vars = Array.init nvars (fun _ -> Diff_lp.var lp) in
      let phi = Array.init nvars (fun _ -> Rng.int rng 7) in
      for _ = 1 to 2 + Rng.int rng 8 do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        if x <> y then
          Diff_lp.add_le lp vars.(x) vars.(y) (phi.(x) - phi.(y) + Rng.int rng 4)
      done;
      for _ = 1 to 1 + Rng.int rng 2 do
        let x = Rng.int rng nvars and y = Rng.int rng nvars in
        let c = 1 + Rng.int rng 3 in
        Diff_lp.add_objective lp vars.(x) c;
        Diff_lp.add_objective lp vars.(y) (-c)
      done;
      match (Diff_lp.solve ~solver:`Simplex lp, Diff_lp.solve ~solver:`Ssp lp) with
      | Solution a, Solution b -> a.objective = b.objective
      | Unbounded_lp, Unbounded_lp -> true
      | Infeasible_lp, Infeasible_lp -> true
      | _ -> false)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "flow"
    [ ( "mcf",
        [ tc "parallel arcs" `Quick test_two_parallel_arcs;
          tc "transportation" `Quick test_transportation;
          tc "negative costs" `Quick test_negative_costs;
          tc "negative cycle (finite)" `Quick test_negative_cycle_capacitated;
          tc "unbounded" `Quick test_unbounded;
          tc "infeasible unbalanced" `Quick test_infeasible_unbalanced;
          tc "infeasible capacity" `Quick test_infeasible_capacity;
          tc "disconnected" `Quick test_disconnected_balanced;
          tc "zero supply" `Quick test_zero_supply_optimal_zero;
          tc "feasibility diagnostics" `Quick test_check_feasible_flow_diagnostics;
          tc "self loop" `Quick test_self_loop_arc;
          QCheck_alcotest.to_alcotest prop_solvers_agree;
          tc "differential sweep, 50 fixed seeds" `Quick
            test_differential_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_simplex_certificate ] );
      ( "bellman-ford",
        [ tc "distances" `Quick test_bf_distances;
          tc "unreachable" `Quick test_bf_unreachable;
          tc "negative cycle" `Quick test_bf_negative_cycle ] );
      ( "diff_lp",
        [ tc "basic" `Quick test_diff_lp_basic;
          tc "chain" `Quick test_diff_lp_chain;
          tc "infeasible" `Quick test_diff_lp_infeasible;
          tc "unbounded" `Quick test_diff_lp_unbounded;
          QCheck_alcotest.to_alcotest prop_diff_lp_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_diff_lp_solvers_agree ] ) ]
