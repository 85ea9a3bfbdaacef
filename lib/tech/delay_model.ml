module Digraph = Minflo_graph.Digraph
module Topo = Minflo_graph.Topo

type t = {
  n : int;
  m : int;
  edge_src : int array;
  edge_dst : int array;
  fanout_off : int array;
  fanout : int array;
  fanin_off : int array;
  fanin : int array;
  coeff_off : int array;
  coeff_j : int array;
  coeff_a : float array;
  loader_off : int array;
  loader_k : int array;
  loader_a : float array;
  topo : int array;
  pos : int array;
  sinks : int array;
  blocks : int array array;
  a_self : float array;
  b : float array;
  area_weight : float array;
  is_sink : bool array;
  block : int array;
  labels : string array;
  min_size : float;
  max_size : float;
}

(* Prefix sums turning per-row counts (stored at [off.(i+1)]) into row
   offsets. *)
let prefix_sum off =
  for i = 1 to Array.length off - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done

(* The blocks in topological order of the block quotient of (graph union
   coefficient dependencies); [None] when that quotient has a cycle, i.e.
   the system is not block upper triangular. *)
let elimination_blocks ~n ~block ~edge_src ~edge_dst ~coeff_off ~coeff_j =
  (* compress block ids *)
  let block_id = Hashtbl.create 64 in
  let nblocks = ref 0 in
  let bid v =
    let b = block.(v) in
    match Hashtbl.find_opt block_id b with
    | Some id -> id
    | None ->
      let id = !nblocks in
      Hashtbl.add block_id b id;
      incr nblocks;
      id
  in
  let vb = Array.init n bid in
  let q = Digraph.create ~nodes_hint:!nblocks () in
  if !nblocks > 0 then ignore (Digraph.add_nodes q !nblocks);
  let edge_seen = Hashtbl.create 256 in
  let add_q u v =
    if u <> v && not (Hashtbl.mem edge_seen (u, v)) then begin
      Hashtbl.add edge_seen (u, v) ();
      ignore (Digraph.add_edge q u v)
    end
  in
  Array.iteri (fun e u -> add_q vb.(u) vb.(edge_dst.(e))) edge_src;
  for i = 0 to n - 1 do
    for c = coeff_off.(i) to coeff_off.(i + 1) - 1 do
      add_q vb.(i) vb.(coeff_j.(c))
    done
  done;
  Option.map
    (fun order ->
      let members = Array.make !nblocks [] in
      for v = n - 1 downto 0 do
        members.(vb.(v)) <- v :: members.(vb.(v))
      done;
      Array.map (fun blockv -> Array.of_list members.(blockv)) order)
    (Topo.sort_opt q)

let make ~graph ~a_self ~coeffs ~b ~area_weight ~is_sink ~block ~labels
    ~min_size ~max_size =
  let n = Digraph.node_count graph in
  let m = Digraph.edge_count graph in
  let check_len name len =
    if len <> n then
      invalid_arg (Printf.sprintf "Delay_model: %s length %d <> %d" name len n)
  in
  check_len "a_self" (Array.length a_self);
  check_len "coeffs" (Array.length coeffs);
  check_len "b" (Array.length b);
  check_len "area_weight" (Array.length area_weight);
  check_len "is_sink" (Array.length is_sink);
  check_len "block" (Array.length block);
  check_len "labels" (Array.length labels);
  let topo =
    match Topo.sort_opt graph with
    | Some order -> order
    | None -> invalid_arg "Delay_model: graph has a cycle"
  in
  if min_size <= 0.0 || max_size < min_size then
    invalid_arg "Delay_model: bad size bounds";
  if not (Array.exists Fun.id is_sink) then
    invalid_arg "Delay_model: no sink vertex";
  Array.iteri
    (fun i row ->
      if a_self.(i) < 0.0 || b.(i) < 0.0 then
        invalid_arg (Printf.sprintf "Delay_model: negative coefficient at vertex %d" i);
      Array.iter
        (fun (j, a) ->
          if j < 0 || j >= n then
            invalid_arg (Printf.sprintf "Delay_model: a[%d][%d] out of range" i j);
          if a < 0.0 then
            invalid_arg (Printf.sprintf "Delay_model: negative a[%d][%d]" i j);
          if j = i then
            invalid_arg (Printf.sprintf "Delay_model: self coefficient %d in coeffs" i))
        row)
    coeffs;
  let edge_src = Array.init m (Digraph.src graph) in
  let edge_dst = Array.init m (Digraph.dst graph) in
  (* adjacency: one ascending edge-id scan fills every row in the order
     [Digraph.succ]/[Digraph.pred] list it *)
  let fanout_off = Array.make (n + 1) 0 in
  let fanin_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    fanout_off.(edge_src.(e) + 1) <- fanout_off.(edge_src.(e) + 1) + 1;
    fanin_off.(edge_dst.(e) + 1) <- fanin_off.(edge_dst.(e) + 1) + 1
  done;
  prefix_sum fanout_off;
  prefix_sum fanin_off;
  let fanout = Array.make m 0 in
  let fanin = Array.make m 0 in
  let out_cur = Array.sub fanout_off 0 n in
  let in_cur = Array.sub fanin_off 0 n in
  for e = 0 to m - 1 do
    let u = edge_src.(e) and v = edge_dst.(e) in
    fanout.(out_cur.(u)) <- v;
    out_cur.(u) <- out_cur.(u) + 1;
    fanin.(in_cur.(v)) <- u;
    in_cur.(v) <- in_cur.(v) + 1
  done;
  (* coefficient rows flattened in their given order *)
  let coeff_off = Array.make (n + 1) 0 in
  Array.iteri (fun i row -> coeff_off.(i + 1) <- Array.length row) coeffs;
  prefix_sum coeff_off;
  let nc = coeff_off.(n) in
  let coeff_j = Array.make nc 0 in
  let coeff_a = Array.make nc 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun c (j, a) ->
          coeff_j.(coeff_off.(i) + c) <- j;
          coeff_a.(coeff_off.(i) + c) <- a)
        row)
    coeffs;
  (* loader rows, [k] descending (and right to left within a row): the
     sensitivity fixpoint and the Lagrangian subproblem sum floats over
     them in that order *)
  let loader_off = Array.make (n + 1) 0 in
  Array.iter (fun j -> loader_off.(j + 1) <- loader_off.(j + 1) + 1) coeff_j;
  prefix_sum loader_off;
  let loader_k = Array.make nc 0 in
  let loader_a = Array.make nc 0.0 in
  let cur = Array.sub loader_off 0 n in
  for k = n - 1 downto 0 do
    for c = coeff_off.(k + 1) - 1 downto coeff_off.(k) do
      let j = coeff_j.(c) in
      loader_k.(cur.(j)) <- k;
      loader_a.(cur.(j)) <- coeff_a.(c);
      cur.(j) <- cur.(j) + 1
    done
  done;
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) topo;
  let sinks =
    Array.of_seq
      (Seq.filter (fun v -> is_sink.(v)) (Seq.init n Fun.id))
  in
  let blocks =
    match
      elimination_blocks ~n ~block ~edge_src ~edge_dst ~coeff_off ~coeff_j
    with
    | Some blocks -> blocks
    | None ->
      invalid_arg
        "Delay_model: coefficient structure is not block upper triangular"
  in
  { n; m; edge_src; edge_dst; fanout_off; fanout; fanin_off; fanin;
    coeff_off; coeff_j; coeff_a; loader_off; loader_k; loader_a; topo; pos;
    sinks; blocks; a_self; b; area_weight; is_sink; block; labels; min_size;
    max_size }

let num_vertices t = t.n

let delay t x i =
  let acc = ref t.b.(i) in
  for c = t.coeff_off.(i) to t.coeff_off.(i + 1) - 1 do
    acc := !acc +. (t.coeff_a.(c) *. x.(t.coeff_j.(c)))
  done;
  t.a_self.(i) +. (!acc /. x.(i))

let delays t x = Array.init t.n (delay t x)

let area t x =
  let acc = ref 0.0 in
  Array.iteri (fun i w -> acc := !acc +. (w *. x.(i))) t.area_weight;
  !acc

let uniform_sizes t s = Array.make t.n s

let is_source t i = t.fanin_off.(i) = t.fanin_off.(i + 1)

let check_sizes t x =
  if Array.length x <> t.n then Error "wrong size-vector length"
  else begin
    let bad = ref None in
    Array.iteri
      (fun i xi ->
        if not (xi >= t.min_size && xi <= t.max_size) then
          bad := Some (Printf.sprintf "x[%d] = %g out of [%g, %g]" i xi t.min_size t.max_size))
      x;
    match !bad with Some e -> Error e | None -> Ok ()
  end
