(** Deterministic fault injection.

    A fault plan is a set of armed sites; the engine asks {!fire} at each
    site it passes (["dphase.simplex"], ["wphase"], …) and reacts to the
    returned action — failing the phase with a typed error, or perturbing a
    solver result so the invariant checks have something to catch. Plans are
    seeded through {!Minflo_util.Rng}, so probabilistic faults replay
    identically from a seed, and tests can prove that every fallback rung and
    budget path is actually exercised.

    A site that was never armed never fires; production runs simply pass no
    plan. *)

type action =
  | Fail of Diag.error  (** the site reports this error instead of running. *)
  | Perturb of float    (** corrupt the site's numeric result by this much. *)

type t

val create : ?seed:int -> unit -> t
(** An empty plan (no armed sites). [seed] drives probabilistic firing;
    default 0. *)

val arm :
  t -> site:string -> ?count:int -> ?prob:float -> ?after:int -> action -> unit
(** Arm [site]. The fault fires at most [count] times (default: every
    visit), each visit independently with probability [prob] (default 1.0,
    drawn from the plan's seeded generator), skipping the first [after]
    visits entirely (default 0; [~after:(k-1) ~count:1] fires exactly at the
    k-th visit — how the torture harness pins a crash to one write
    boundary). Re-arming a site replaces its previous setting. *)

val fire : t -> site:string -> action option
(** Called by the engine at an instrumented site; [Some action] when the
    fault fires now (and consumes one of its [count]). *)

val fired : t -> site:string -> int
(** How many times the site has fired so far — test assertions key on it. *)

val sites : t -> string list
(** Armed sites, sorted. *)

val all_points : string list
(** The catalog of every instrumented injection site in the tree, sorted:
    the D-phase solver rungs (["dphase.simplex"], ["dphase.ssp"],
    ["dphase.bellman-ford"]), the W-phase (["wphase"]), the
    certificate-audit corruption points (["audit.simplex"], ["audit.ssp"]),
    the network sites the chaos proxy
    interposes between a client and a daemon (["net.accept-drop"],
    ["net.read-stall"], ["net.torn-write"], ["net.delayed-response"]), and
    the storage sites the instrumented {!Io} layer interposes under every
    durable-state writer (["io.enospc"], ["io.eio-read"],
    ["io.short-write"], ["io.fsync-lost"], ["io.torn-rename"], and
    ["io.crash-after-write"], the crash-point the torture harness sweeps).
    [minflo fuzz --list-faults] prints it, the CLI validates every
    [--inject-fault] argument against it, and the fuzz campaign sweeps the
    engine/audit entries. *)

val is_known_point : string -> bool
(** Membership in {!all_points}. *)
