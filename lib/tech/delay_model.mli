(** The sizing problem in the paper's canonical coefficient form.

    Every vertex [i] of the timing DAG carries a size variable [x_i] and a
    delay that admits the simple monotonic decomposition of Definition 1/2:

    {v delay_i(x) * x_i = a_ii * x_i + sum_{j<>i} a_ij * x_j + b_i v}

    equivalently [delay_i = a_self_i + (sum a_ij x_j + b_i) / x_i], with all
    coefficients non-negative and every [j] with [a_ij <> 0] strictly
    downstream of [i] — the (block) upper-triangular structure of (D - A)
    from Section 2.3. Both the gate-sizing instance ({!Elmore}) and the
    transistor-sizing instance ({!Transistor}) produce this type; STA, the
    D-phase, the W-phase and TILOS all consume it, so the whole optimizer is
    agnostic to which sizing granularity is in effect.

    The record is the flat core those hot loops walk: adjacency and the
    sparse coefficient system live in int-indexed CSR arrays (a row of [r]
    is [r.(r_off.(i)) .. r.(r_off.(i+1)-1)]), built once by {!make} and
    never copied. Iteration orders are load-bearing: float sums and
    strict-[>] tie-breaks over these rows decide engine trajectories, so
    each field documents the order its rows are in. *)

type t = private {
  n : int;  (** vertex count. *)
  m : int;  (** edge count. *)
  edge_src : int array;  (** per edge id, in the builder graph's id order. *)
  edge_dst : int array;
  fanout_off : int array;  (** [n+1] offsets into [fanout]. *)
  fanout : int array;
      (** successors of each vertex, ascending edge id — the builder's
          [Digraph.succ] order. *)
  fanin_off : int array;
  fanin : int array;
      (** predecessors, ascending edge id — [Digraph.pred] order. *)
  coeff_off : int array;
  coeff_j : int array;
      (** the [j] with [a_ij <> 0, j <> i] of each row [i], in the order the
          builder's row listed them. *)
  coeff_a : float array;  (** the matching [a_ij]. *)
  loader_off : int array;
  loader_k : int array;
      (** reverse coefficient index: for each [j], the [k] with
          [a_kj <> 0], [k] descending. *)
  loader_a : float array;  (** the matching [a_kj]. *)
  topo : int array;
      (** {!Minflo_graph.Topo.sort} of the builder graph. *)
  pos : int array;  (** [pos.(topo.(k)) = k]. *)
  sinks : int array;  (** the vertices with [is_sink] set, ascending. *)
  blocks : int array array;
      (** the elimination blocks: vertex groups in topological order of
          the block quotient of the union of the timing graph and the
          coefficient dependencies — the order in which backward
          substitution on [(D - A) X = B] proceeds (Section 2.3). Members
          ascending. *)
  a_self : float array;  (** [a_ii]: size-independent intrinsic delay. *)
  b : float array;  (** fixed load term per vertex. *)
  area_weight : float array;  (** objective weight of [x_i] (device count). *)
  is_sink : bool array;  (** vertex constrained by the timing spec [T]. *)
  block : int array;
      (** block id per vertex ((D - A) is *block* upper triangular: gate
          sizing has one vertex per block; transistor sizing groups the
          transistors of a gate, whose parallel devices are mutually
          incomparable, into one block). *)
  labels : string array;
  min_size : float;
  max_size : float;
}

val make :
  graph:Minflo_graph.Digraph.t ->
  a_self:float array ->
  coeffs:(int * float) array array ->
  b:float array ->
  area_weight:float array ->
  is_sink:bool array ->
  block:int array ->
  labels:string array ->
  min_size:float ->
  max_size:float ->
  t
(** The model of a builder's signal-flow DAG [graph] and per-vertex
    coefficient rows [coeffs] (the [(j, a_ij)] pairs with [j <> i]).
    Neither input is retained. Checks array lengths, coefficient
    non-negativity and range, DAG-ness, size bounds, at least one sink and
    block upper-triangularity. @raise Invalid_argument on violation. *)

val num_vertices : t -> int

val delay : t -> float array -> int -> float
(** [delay m x i]: Elmore delay of vertex [i] under sizes [x]. *)

val delays : t -> float array -> float array

val area : t -> float array -> float
(** Weighted area [sum w_i * x_i]. *)

val uniform_sizes : t -> float -> float array

val is_source : t -> int -> bool
(** No fanin. *)

val check_sizes : t -> float array -> (unit, string) result
(** Bounds check for a candidate sizing vector. *)
