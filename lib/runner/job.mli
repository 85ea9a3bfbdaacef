(** Batch job descriptions.

    A job is one cell of the paper's evaluation grid: a circuit, a delay
    target expressed as a fraction of the minimum-size delay, and the
    D-phase solver to run it with. Jobs have stable string ids (used as
    checkpoint file names and journal keys) and a deterministic ordering,
    so a resumed batch enumerates exactly the same work as the original. *)

type solver = [ `Auto | `Simplex | `Ssp | `Bellman_ford ]

type t = {
  circuit : string;  (** suite name or path to a [.bench] / [.v] file. *)
  factor : float;    (** delay target as a fraction of Dmin. *)
  solver : solver;
}

val id : t -> string
(** Stable id, e.g. ["c432@0.500/simplex"]. Unique within a batch grid. *)

val file_slug : t -> string
(** {!id} with every character outside [[A-Za-z0-9._-]] replaced by ['-']:
    safe as a file name inside the checkpoint directory. *)

val solver_name : solver -> string

val solver_of_string : string -> solver option
(** Accepts the CLI spellings ["auto"], ["simplex"], ["ssp"], ["bf"] /
    ["bellman-ford"]. *)

val cross :
  circuits:string list -> factors:float list -> solvers:solver list -> t list
(** The full evaluation grid, circuits-major, in deterministic order. *)

val load_circuit : string -> (Minflo_netlist.Netlist.t, Minflo_robust.Diag.error) result
(** Resolve a circuit spec exactly like the CLI: an existing [.v] or
    [.bench] file path, the embedded [c17], or an {!Minflo_netlist.Iscas85}
    suite name. *)

val load_raw : string -> (Minflo_netlist.Raw.t, Minflo_robust.Diag.error) result
(** Same spec resolution, but stop before elaboration: files are parsed to
    their raw form (with source locations, no name resolution), built-in
    circuits go through {!Minflo_netlist.Raw.of_netlist}. This is what the
    batch pre-flight lint gate runs on. *)

val lint_error : string -> Minflo_robust.Diag.error option
(** The pre-flight gate shared by batch, serve and the CLI's model-building
    commands: the load error of the spec, or its first error-severity lint
    finding as a typed [Lint_error], or [None] for a circuit that is safe to
    build a timing model of. *)

(** Plain-data result of a completed sizing job — free of closures and
    abstract types so it can cross the child-process boundary via
    [Marshal]. *)
type outcome = {
  job : t;
  area : float;          (** final area (absolute units). *)
  area_ratio : float;    (** final area over the minimum-size area. *)
  cp : float;            (** final critical path. *)
  target : float;        (** absolute delay target ([factor *. dmin]). *)
  met : bool;
  iterations : int;
  saving_pct : float;    (** area saving over the TILOS seed. *)
  stop : string;         (** rendered {!Minflo_sizing.Minflotransit.stop_reason}. *)
  resumed : bool;        (** this outcome continued from a checkpoint. *)
  perf : Minflo_robust.Perf.counters;
      (** solver work this job spent (process-global counters diffed across
          the run) — lets a supervising parent accumulate worker effort. *)
}
