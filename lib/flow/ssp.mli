(** Successive-shortest-paths min-cost flow (cross-check solver).

    Bellman-Ford establishes initial potentials (handling negative arc
    costs); augmentations then run Dijkstra on reduced costs with Johnson
    potentials. Asymptotically [O(U * m log n)] with [U] the number of
    augmentations (at most one per supply node here, as arcs are mostly
    uncapacitated) — slower than {!Network_simplex} but completely
    independent of it, which makes it a strong oracle in property tests. *)

val solve : ?budget:Minflo_robust.Budget.t -> Mcf.problem -> Mcf.solution
(** Each augmentation (and each negative-cycle-cancellation round) ticks
    [budget]; on exhaustion the result has status [Aborted]. *)
