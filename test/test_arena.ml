(* The delay model's order contracts and the incremental engine's
   bit-identity.

   The model is the flat core every timing loop walks, and the order of
   its CSR rows decides float sums and strict-[>] tie-breaks. So [make]
   must lay every row out in the documented order — fanin/fanout rows as
   the builder graph's [pred]/[succ], coefficient rows as given, loader
   rows with [k] descending, [topo] as [Topo.sort] — and after any sequence
   of size mutations the incremental engine's delays/arrivals/critical
   path must be the floats a from-scratch batch STA would produce. These
   tests enforce both with exact [=] on floats, never a tolerance. *)

module Netlist = Minflo_netlist.Netlist
module Gen = Minflo_netlist.Generators
module Iscas85 = Minflo_netlist.Iscas85
module Transform = Minflo_netlist.Transform
module Tech = Minflo_tech.Tech
module DM = Minflo_tech.Delay_model
module Elmore = Minflo_tech.Elmore
module Transistor = Minflo_tech.Transistor
module Digraph = Minflo_graph.Digraph
module Topo = Minflo_graph.Topo
module Sta = Minflo_timing.Sta
module Inc = Minflo_timing.Incremental
module Rng = Minflo_util.Rng

let check = Alcotest.check
let tech = Tech.default_130nm
let ints = Alcotest.list Alcotest.int
let pairs = Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0))

let random_model seed =
  let gates = 25 + (seed mod 31) in
  let nl = Gen.random_dag ~gates ~inputs:5 ~outputs:4 ~seed () in
  Elmore.of_netlist tech nl

let random_sizes rng model =
  Array.init (DM.num_vertices model) (fun _ ->
      model.DM.min_size +. Rng.float rng 7.0)

(* ---------- order contracts of [make] ---------- *)

let row off tbl v = List.init (off.(v + 1) - off.(v)) (fun k -> tbl.(off.(v) + k))

let coeff_row (m : DM.t) v =
  List.combine (row m.coeff_off m.coeff_j v) (row m.coeff_off m.coeff_a v)

let loader_row (m : DM.t) v =
  List.combine (row m.loader_off m.loader_k v) (row m.loader_off m.loader_a v)

(* The contracts that need only the model itself plus the builder graph
   [g] (rebuilt from the edge list when the builder's is gone): adjacency
   rows, topological order, loader rows, sinks. *)
let check_orders name (m : DM.t) g =
  check Alcotest.int (name ^ " vertices") (Digraph.node_count g) m.n;
  check Alcotest.int (name ^ " edges") (Digraph.edge_count g) m.m;
  for e = 0 to m.m - 1 do
    check Alcotest.int (name ^ " edge src") (Digraph.src g e) m.edge_src.(e);
    check Alcotest.int (name ^ " edge dst") (Digraph.dst g e) m.edge_dst.(e)
  done;
  for v = 0 to m.n - 1 do
    check ints (Printf.sprintf "%s fanout of %d" name v) (Digraph.succ g v)
      (row m.fanout_off m.fanout v);
    check ints (Printf.sprintf "%s fanin of %d" name v) (Digraph.pred g v)
      (row m.fanin_off m.fanin v);
    (* the reverse index, built the historical way: cons over ascending
       rows, so [k] comes out descending and each row right to left *)
    let expect = ref [] in
    for k = 0 to m.n - 1 do
      List.iter
        (fun (j, a) -> if j = v then expect := (k, a) :: !expect)
        (coeff_row m k)
    done;
    check pairs (Printf.sprintf "%s loaders of %d" name v) !expect (loader_row m v)
  done;
  check ints (name ^ " topo") (Array.to_list (Topo.sort g)) (Array.to_list m.topo);
  Array.iteri (fun k v -> check Alcotest.int (name ^ " pos") k m.pos.(v)) m.topo;
  let sinks = List.filter (fun v -> m.is_sink.(v)) (List.init m.n Fun.id) in
  check ints (name ^ " sinks") sinks (Array.to_list m.sinks)

(* a builder graph whose edge ids are out of source order, with a parallel
   edge, and coefficient rows out of target order *)
let hand_graph () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 6);
  List.iter
    (fun (u, v) -> ignore (Digraph.add_edge g u v))
    [ (3, 5); (0, 2); (1, 2); (2, 4); (0, 3); (1, 4); (0, 4); (4, 5); (1, 2) ];
  g

let hand_coeffs =
  [| [| (4, 0.3); (2, 0.1); (3, 0.2) |];
     [| (2, 0.5); (4, 0.25) |];
     [| (4, 0.125) |];
     [| (5, 0.7) |];
     [| (5, 0.0625) |];
     [||] |]

let hand_model ?(coeffs = hand_coeffs) ?(is_sink = [| false; false; false; false; false; true |])
    ?(block = Array.init 6 Fun.id) ?(graph = hand_graph ()) () =
  DM.make ~graph ~a_self:[| 0.5; 0.25; 1.0; 0.75; 0.5; 2.0 |] ~coeffs
    ~b:[| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 |] ~area_weight:(Array.make 6 2.0) ~is_sink
    ~block ~labels:(Array.init 6 string_of_int) ~min_size:1.0 ~max_size:16.0

let test_hand_graph_orders () =
  let g = hand_graph () in
  let m = hand_model ~graph:g () in
  check_orders "hand" m g;
  Array.iteri
    (fun v r -> check pairs (Printf.sprintf "coeff row %d" v) (Array.to_list r) (coeff_row m v))
    hand_coeffs;
  (* explicit, so the expectation does not share code with the model *)
  check ints "fanout of 0" [ 2; 3; 4 ] (row m.fanout_off m.fanout 0);
  check ints "fanin of 2" [ 0; 1; 1 ] (row m.fanin_off m.fanin 2);
  check pairs "loaders of 4" [ (2, 0.125); (1, 0.25); (0, 0.3) ] (loader_row m 4);
  (* the delay kernel sums each row in its given order *)
  let x = [| 1.5; 2.0; 3.0; 1.25; 4.0; 2.5 |] in
  Array.iteri
    (fun i r ->
      let acc = Array.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) m.b.(i) r in
      check (Alcotest.float 0.0) (Printf.sprintf "delay %d" i)
        (m.a_self.(i) +. (acc /. x.(i))) (DM.delay m x i))
    hand_coeffs;
  let d = DM.delays m x in
  let at = Array.make m.n nan in
  Sta.arrivals_into m ~delays:d at;
  check (Alcotest.array (Alcotest.float 0.0)) "arrivals_into" (Sta.arrivals m ~delays:d) at

(* gate+wire and transistor models: edge ids are not sorted by source *)
let builder_models () =
  let nets =
    [ ("c17", Gen.c17 ()); ("c432", Iscas85.circuit "c432");
      ("dag", Gen.random_dag ~gates:40 ~inputs:5 ~outputs:4 ~seed:9 ()) ]
  in
  List.concat_map
    (fun (name, nl) ->
      [ (name ^ "/gate", Elmore.of_netlist tech nl);
        (name ^ "/wires", Elmore.with_wires tech nl);
        (name ^ "/transistor", Transistor.of_netlist tech (Transform.to_nand_inv nl)) ])
    nets

let test_builder_model_orders () =
  let unsorted = ref 0 in
  List.iter
    (fun (name, (m : DM.t)) ->
      (* the builder graph is scratch; its edge list is all that defines
         [succ]/[pred]/[Topo.sort], so replaying it rebuilds it exactly *)
      let g = Digraph.create () in
      ignore (Digraph.add_nodes g m.n);
      Array.iteri (fun e u -> ignore (Digraph.add_edge g u m.edge_dst.(e))) m.edge_src;
      check_orders name m g;
      for e = 1 to m.m - 1 do
        if m.edge_src.(e) < m.edge_src.(e - 1) then incr unsorted
      done)
    (builder_models ());
  check Alcotest.bool "some edge ids out of source order" true (!unsorted > 0)

(* the coefficient rows of builder-made models round-trip through [make]:
   handing a model's own rows (and its edge list as the builder graph) back
   to [make] lays out the identical record, so each row is stored exactly
   as it was given *)
let test_coeff_rows_match_model () =
  for seed = 0 to 19 do
    let m = random_model seed in
    let g = Digraph.create () in
    ignore (Digraph.add_nodes g m.n);
    Array.iteri (fun e u -> ignore (Digraph.add_edge g u m.edge_dst.(e))) m.edge_src;
    let coeffs = Array.init m.n (fun v -> Array.of_list (coeff_row m v)) in
    let m' =
      DM.make ~graph:g ~a_self:m.a_self ~coeffs ~b:m.b ~area_weight:m.area_weight
        ~is_sink:m.is_sink ~block:m.block ~labels:m.labels ~min_size:m.min_size
        ~max_size:m.max_size
    in
    Array.iteri
      (fun v r ->
        check pairs (Printf.sprintf "seed %d coeff row of %d" seed v) (Array.to_list r)
          (coeff_row m' v))
      coeffs;
    check Alcotest.bool (Printf.sprintf "seed %d same record" seed) true (m = m')
  done

(* the one delay kernel sums each coefficient row in row order, [delays]
   agrees with it vertex by vertex, and [Sta.arrivals_into] with
   [Sta.arrivals] — all exact *)
let test_arena_kernels_exact () =
  for seed = 0 to 19 do
    let m = random_model seed in
    let rng = Rng.create ((seed * 11) + 1) in
    let x = random_sizes rng m in
    let d = DM.delays m x in
    for v = 0 to m.n - 1 do
      let acc = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) m.b.(v) (coeff_row m v) in
      let expect = m.a_self.(v) +. (acc /. x.(v)) in
      if DM.delay m x v <> expect then
        Alcotest.failf "seed %d: delay %d = %h, row-order sum says %h" seed v
          (DM.delay m x v) expect;
      if d.(v) <> expect then
        Alcotest.failf "seed %d: delays.(%d) = %h, row-order sum says %h" seed v d.(v)
          expect
    done;
    let at = Array.make m.n nan in
    Sta.arrivals_into m ~delays:d at;
    check (Alcotest.array (Alcotest.float 0.0))
      (Printf.sprintf "seed %d arrivals" seed)
      (Sta.arrivals m ~delays:d) at
  done

let test_sinks_ascending () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let expect = ref [] in
    Array.iteri (fun i s -> if s then expect := i :: !expect) model.DM.is_sink;
    check ints (Printf.sprintf "seed %d sinks" seed) (List.rev !expect)
      (Array.to_list model.DM.sinks)
  done

let test_make_rejects_invalid () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  let with_row i r =
    let c = Array.copy hand_coeffs in
    c.(i) <- r;
    c
  in
  rejects "cycle" (fun () ->
      let g = hand_graph () in
      ignore (Digraph.add_edge g 5 0);
      hand_model ~graph:g ());
  rejects "negative coefficient" (fun () ->
      hand_model ~coeffs:(with_row 2 [| (4, -1.0) |]) ());
  rejects "self coefficient" (fun () -> hand_model ~coeffs:(with_row 2 [| (2, 1.0) |]) ());
  rejects "coefficient out of range" (fun () ->
      hand_model ~coeffs:(with_row 2 [| (6, 1.0) |]) ());
  rejects "upstream coefficient" (fun () ->
      hand_model ~coeffs:(with_row 4 [| (0, 1.0) |]) ());
  rejects "no sink" (fun () -> hand_model ~is_sink:(Array.make 6 false) ());
  rejects "length mismatch" (fun () -> hand_model ~block:[| 0 |] ());
  (* an upstream coefficient inside one block is legal: the block is
     solved as a unit *)
  let m =
    hand_model ~coeffs:(with_row 4 [| (2, 1.0) |]) ~block:[| 0; 1; 2; 3; 2; 5 |] ()
  in
  check Alcotest.bool "merged block" true
    (Array.exists (fun b -> Array.to_list b = [ 2; 4 ]) m.DM.blocks)

(* ---------- the 200-seed mutation differential ---------- *)

(* Drive the incremental engine through a random mutation schedule, then
   demand bit-identity against a from-scratch batch pass at the final
   sizes: delays, arrivals, critical path — and the critical set against
   a freshly created engine (whose state IS a batch pass). Exact float
   [=] throughout: one ulp of drift anywhere is a failure. *)
let differential_one_seed seed =
  let model = random_model seed in
  let n = DM.num_vertices model in
  let rng = Rng.create (seed * 7919 + 13) in
  let x0 = random_sizes rng model in
  let eng = Inc.create model ~sizes:x0 in
  let mutations = 8 + Rng.int rng 17 in
  for _ = 1 to mutations do
    let v = Rng.int rng n in
    let s =
      if Rng.bool rng then Inc.size eng v *. (1.0 +. Rng.float rng 0.5)
      else model.DM.min_size +. Rng.float rng 7.0
    in
    Inc.set_size eng v s
  done;
  let x = Inc.sizes eng in
  let d_ref = DM.delays model x in
  let d = Inc.all_delays eng in
  for v = 0 to n - 1 do
    if d.(v) <> d_ref.(v) then
      Alcotest.failf "seed %d: delay %d drifted: engine %h, batch %h" seed v
        d.(v) d_ref.(v)
  done;
  let at_ref = Sta.arrivals model ~delays:d_ref in
  for v = 0 to n - 1 do
    if Inc.arrival eng v <> at_ref.(v) then
      Alcotest.failf "seed %d: arrival %d drifted: engine %h, batch %h" seed v
        (Inc.arrival eng v) at_ref.(v)
  done;
  let cp_ref = Sta.critical_path_only model ~delays:d_ref in
  if Inc.critical_path eng <> cp_ref then
    Alcotest.failf "seed %d: critical path drifted: engine %h, batch %h" seed
      (Inc.critical_path eng) cp_ref;
  (* a fresh engine at the final sizes is a batch computation; the mutated
     engine must report the identical critical set (same members, same
     traversal order) *)
  let fresh = Inc.create model ~sizes:x in
  check (Alcotest.list Alcotest.int)
    (Printf.sprintf "seed %d critical set" seed)
    (Inc.critical_set fresh)
    (Inc.critical_set eng)

let test_mutation_differential () =
  for seed = 0 to 199 do
    differential_one_seed seed
  done

(* set_size must also be exact when sizes go *down* (TILOS's trial-bump
   rollback path) and when the write is a no-op *)
let test_rollback_exact () =
  for seed = 0 to 19 do
    let model = random_model seed in
    let n = DM.num_vertices model in
    let rng = Rng.create (seed + 400) in
    let x0 = random_sizes rng model in
    let eng = Inc.create model ~sizes:x0 in
    let at0 = Array.init n (Inc.arrival eng) in
    for _ = 1 to 10 do
      let v = Rng.int rng n in
      let old = Inc.size eng v in
      Inc.set_size eng v (old *. 1.3);
      Inc.set_size eng v old
    done;
    for v = 0 to n - 1 do
      if Inc.arrival eng v <> at0.(v) then
        Alcotest.failf "seed %d: bump+rollback moved arrival %d" seed v
    done
  done

let suite =
  [ ("make-orders-hand-graph", `Quick, test_hand_graph_orders);
    ("make-orders-builder-models", `Quick, test_builder_model_orders);
    ("coeff-rows-match-model", `Quick, test_coeff_rows_match_model);
    ("arena-kernels-exact", `Quick, test_arena_kernels_exact);
    ("sinks-ascending", `Quick, test_sinks_ascending);
    ("make-rejects-invalid", `Quick, test_make_rejects_invalid);
    ("mutation-differential-200-seeds", `Quick, test_mutation_differential);
    ("rollback-exact", `Quick, test_rollback_exact) ]

let () = Alcotest.run "arena" [ ("arena", suite) ]
