module Diag = Minflo_robust.Diag

type arc = { src : int; dst : int; cap : int; cost : int }

type problem = { num_nodes : int; arcs : arc array; supply : int array }

let infinite_capacity = max_int / 8

type status = Optimal | Infeasible | Unbounded | Aborted

type solution = {
  status : status;
  flow : int array;
  potential : int array;
  objective : int;
}

let validate p =
  if p.num_nodes < 0 then invalid_arg "Mcf: negative node count";
  if Array.length p.supply <> p.num_nodes then
    invalid_arg "Mcf: supply length mismatch";
  Array.iteri
    (fun i a ->
      if a.src < 0 || a.src >= p.num_nodes || a.dst < 0 || a.dst >= p.num_nodes
      then invalid_arg (Printf.sprintf "Mcf: arc %d has bad endpoints" i);
      if a.cap < 0 then invalid_arg (Printf.sprintf "Mcf: arc %d has cap < 0" i))
    p.arcs

let is_balanced p = Array.fold_left ( + ) 0 p.supply = 0

(* internal string-detail version; the public API wraps the detail into a
   typed [Diag.Invariant] *)
let feasibility_detail p flow =
  if Array.length flow <> Array.length p.arcs then Error "flow length mismatch"
  else begin
    let excess = Array.copy p.supply in
    let err = ref None in
    Array.iteri
      (fun i a ->
        let f = flow.(i) in
        if f < 0 || f > a.cap then
          err := Some (Printf.sprintf "arc %d flow %d out of [0,%d]" i f a.cap);
        excess.(a.src) <- excess.(a.src) - f;
        excess.(a.dst) <- excess.(a.dst) + f)
      p.arcs;
    match !err with
    | Some e -> Error e
    | None -> (
      match Array.to_seq excess |> Seq.zip (Seq.ints 0)
            |> Seq.find (fun (_, e) -> e <> 0) with
      | Some (v, e) -> Error (Printf.sprintf "node %d has nonzero excess %d" v e)
      | None -> Ok ())
  end

let check_feasible_flow p flow =
  Result.map_error
    (fun detail -> Diag.Invariant { what = "flow-conservation"; detail })
    (feasibility_detail p flow)

let flow_cost p flow =
  let total = ref 0 in
  Array.iteri (fun i a -> total := !total + (a.cost * flow.(i))) p.arcs;
  !total

(* The optimal dual face of the LP is { pi : pi feasible, complementary
   slack with f } for ANY optimal flow f — complementary slackness with one
   optimal primal plus dual feasibility already forces optimality, and every
   optimal dual is slack-complementary with every optimal primal. Solutions
   of a difference-constraint system are closed under componentwise max, so
   capping every potential at 0 leaves a unique componentwise-maximal
   element of that face. Computing it is a shortest-path problem from a
   virtual source s with a 0-weight arc to every node:

     f(a) < cap(a):  pi(u) - pi(v) <= cost(a)   => edge v -> u, weight cost
     f(a) > 0:       pi(v) - pi(u) <= -cost(a)  => edge u -> v, weight -cost

   The input potentials are themselves a valid Johnson reweighting (reduced
   weights are exactly +-reduced-cost, non-negative at optimality), so one
   Dijkstra suffices. The point: the result does not depend on which optimal
   basis the solver happened to end on, so warm- and cold-started solves
   return bit-identical duals. *)
let canonical_potentials p (sol : solution) =
  let n = p.num_nodes in
  if n = 0 || sol.status <> Optimal then Array.copy sol.potential
  else begin
    let h = sol.potential in
    let hs = Array.fold_left max h.(0) h in
    (* adjacency in CSR form; up to 2 entries per arc *)
    let deg = Array.make n 0 in
    let live = ref true in
    Array.iteri
      (fun i (a : arc) ->
        let rc = a.cost - h.(a.src) + h.(a.dst) in
        if sol.flow.(i) < a.cap then begin
          deg.(a.dst) <- deg.(a.dst) + 1;
          if rc < 0 then live := false
        end;
        if sol.flow.(i) > 0 then begin
          deg.(a.src) <- deg.(a.src) + 1;
          if rc > 0 then live := false
        end)
      p.arcs;
    if not !live then
      (* the certificate is not actually optimal (possible only under fault
         injection / a solver bug): canonicalization would silently repair
         it, so hand the raw potentials to the downstream detectors *)
      Array.copy sol.potential
    else begin
      let start = Array.make (n + 1) 0 in
      for v = 1 to n do
        start.(v) <- start.(v - 1) + deg.(v - 1)
      done;
      let cursor = Array.copy start in
      let m2 = start.(n) in
      let eto = Array.make m2 0 and ew = Array.make m2 0 in
      Array.iteri
        (fun i (a : arc) ->
          if sol.flow.(i) < a.cap then begin
            eto.(cursor.(a.dst)) <- a.src;
            ew.(cursor.(a.dst)) <- a.cost;
            cursor.(a.dst) <- cursor.(a.dst) + 1
          end;
          if sol.flow.(i) > 0 then begin
            eto.(cursor.(a.src)) <- a.dst;
            ew.(cursor.(a.src)) <- -a.cost;
            cursor.(a.src) <- cursor.(a.src) + 1
          end)
        p.arcs;
      (* Dijkstra over reduced weights w'(x,y) = w + h(x) - h(y), every node
         seeded through the virtual source's 0-weight arc *)
      let dist = Array.make n max_int in
      let final = Array.make n false in
      let heap = Minflo_util.Heap.create () in
      for v = 0 to n - 1 do
        dist.(v) <- hs - h.(v);
        Minflo_util.Heap.push heap ~key:dist.(v) v
      done;
      let continue = ref true in
      while !continue do
        match Minflo_util.Heap.pop_min heap with
        | None -> continue := false
        | Some (d, u) ->
          if not final.(u) then begin
            final.(u) <- true;
            for k = start.(u) to start.(u + 1) - 1 do
              let v = eto.(k) in
              let nd = d + ew.(k) + h.(u) - h.(v) in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                Minflo_util.Heap.push heap ~key:nd v
              end
            done
          end
      done;
      Array.init n (fun v -> dist.(v) - hs + h.(v))
    end
  end

let check_optimality p sol =
  match feasibility_detail p sol.flow with
  | Error detail ->
    Error
      (Diag.Invariant
         { what = "flow-conservation"; detail })
  | Ok () ->
    let err = ref None in
    Array.iteri
      (fun i a ->
        let rc = a.cost - sol.potential.(a.src) + sol.potential.(a.dst) in
        if sol.flow.(i) < a.cap && rc < 0 then
          err := Some (Printf.sprintf "arc %d below cap with reduced cost %d" i rc);
        if sol.flow.(i) > 0 && rc > 0 then
          err := Some (Printf.sprintf "arc %d above 0 with reduced cost %d" i rc))
      p.arcs;
    match !err with
    | Some detail -> Error (Diag.Invariant { what = "reduced-cost-optimality"; detail })
    | None -> Ok ()
