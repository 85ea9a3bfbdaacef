module Vec = Minflo_util.Vec

type var = int

type t = {
  mutable nvars : int;
  con_x : int Vec.t;
  con_y : int Vec.t;
  con_w : int Vec.t;
  obj : (int, int) Hashtbl.t; (* var -> coefficient *)
}

let create ?(vars_hint = 16) ?(cons_hint = 64) () =
  { nvars = 0;
    con_x = Vec.create ~capacity:cons_hint ~dummy:0 ();
    con_y = Vec.create ~capacity:cons_hint ~dummy:0 ();
    con_w = Vec.create ~capacity:cons_hint ~dummy:0 ();
    obj = Hashtbl.create (max 64 vars_hint) }

let var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let num_vars t = t.nvars

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Diff_lp: unknown variable"

let add_le t x y w =
  check_var t x;
  check_var t y;
  ignore (Vec.push t.con_x x);
  ignore (Vec.push t.con_y y);
  ignore (Vec.push t.con_w w)

let add_objective t x c =
  check_var t x;
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.obj x) in
  Hashtbl.replace t.obj x (cur + c)

type outcome =
  | Solution of { values : int array; objective : int }
  | Infeasible_lp
  | Unbounded_lp
  | Aborted_lp

let objective_value t values =
  Hashtbl.fold (fun v c acc -> acc + (c * values.(v))) t.obj 0

let check_assignment t values =
  if Array.length values <> t.nvars then Error "wrong assignment length"
  else begin
    let bad = ref None in
    for i = 0 to Vec.length t.con_x - 1 do
      let x = Vec.get t.con_x i and y = Vec.get t.con_y i and w = Vec.get t.con_w i in
      if values.(x) - values.(y) > w then
        bad :=
          Some
            (Printf.sprintf "constraint %d violated: v%d - v%d = %d > %d" i x y
               (values.(x) - values.(y))
               w)
    done;
    match !bad with Some e -> Error e | None -> Ok (objective_value t values)
  end

let to_problem t : Mcf.problem =
  let m = Vec.length t.con_x in
  let arcs =
    Array.init m (fun i ->
        { Mcf.src = Vec.get t.con_x i;
          dst = Vec.get t.con_y i;
          cap = Mcf.infinite_capacity;
          cost = Vec.get t.con_w i })
  in
  let supply = Array.make t.nvars 0 in
  Hashtbl.iter (fun v c -> supply.(v) <- supply.(v) + c) t.obj;
  { num_nodes = t.nvars; arcs; supply }

(* Feasibility repair: [x - y <= w] is satisfied by shortest-path distances
   over the reversed arc [y -> x] with weight [w] (then dist(x) <= dist(y) + w
   by the relaxation invariant). Running from all sources keeps every value
   finite. The assignment is feasible but generally suboptimal — this is the
   last rung of the solver fallback chain, not a replacement for the flow
   solvers. *)
let solve_by_feasibility t =
  let m = Vec.length t.con_x in
  let g =
    { Bellman_ford.num_nodes = t.nvars;
      arc_src = Array.init m (fun i -> Vec.get t.con_y i);
      arc_dst = Array.init m (fun i -> Vec.get t.con_x i);
      arc_weight = Array.init m (fun i -> Vec.get t.con_w i) }
  in
  match Bellman_ford.run_all g with
  | Negative_cycle _ -> Infeasible_lp
  | Distances values -> Solution { values; objective = objective_value t values }

let solve ?(solver = `Simplex) ?budget ?warm ?(canonical = false) ?on_solution t =
  (* The dual LP [max b.pi : pi(u) - pi(v) <= w] is bounded iff the flow
     problem is feasible, and feasible iff the constraint graph has no
     negative cycle; MCF statuses map accordingly. *)
  if Hashtbl.fold (fun _ c acc -> acc + c) t.obj 0 <> 0 then
    (* supplies would not balance; the LP is unbounded along the all-ones
       direction unless the coefficients cancel *)
    Unbounded_lp
  else
    match solver with
    | `Bellman_ford -> solve_by_feasibility t
    | (`Simplex | `Ssp) as s ->
      let p = to_problem t in
      let sol =
        match (s, warm) with
        | `Simplex, Some st -> Network_simplex.solve_warm ?budget st p
        | `Simplex, None -> Network_simplex.solve ?budget p
        | `Ssp, _ -> Ssp.solve ?budget p
      in
      (* canonicalize BEFORE the observer so fault-injection perturbations
         land on the final values and divergence checks still bite *)
      let sol =
        if canonical && sol.status = Optimal then
          { sol with potential = Mcf.canonical_potentials p sol }
        else sol
      in
      (match on_solution with None -> () | Some f -> f p sol);
      (match sol.status with
      | Optimal ->
        let values = Array.sub sol.potential 0 t.nvars in
        Solution { values; objective = objective_value t values }
      | Infeasible -> Unbounded_lp
      | Unbounded -> Infeasible_lp
      | Aborted -> Aborted_lp)
