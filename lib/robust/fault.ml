module Rng = Minflo_util.Rng

type action =
  | Fail of Diag.error
  | Perturb of float

type armed = {
  action : action;
  mutable skip : int;
  mutable remaining : int;
  prob : float;
  mutable fired : int;
}

type t = { rng : Rng.t; table : (string, armed) Hashtbl.t }

let create ?(seed = 0) () = { rng = Rng.create seed; table = Hashtbl.create 8 }

let arm t ~site ?(count = max_int) ?(prob = 1.0) ?(after = 0) action =
  Hashtbl.replace t.table site
    { action; skip = after; remaining = count; prob; fired = 0 }

let fire t ~site =
  match Hashtbl.find_opt t.table site with
  | None -> None
  | Some a ->
    if a.skip > 0 then begin
      a.skip <- a.skip - 1;
      None
    end
    else if a.remaining <= 0 then None
    else if a.prob < 1.0 && Rng.float t.rng 1.0 >= a.prob then None
    else begin
      a.remaining <- a.remaining - 1;
      a.fired <- a.fired + 1;
      Some a.action
    end

let fired t ~site =
  match Hashtbl.find_opt t.table site with None -> 0 | Some a -> a.fired

let sites t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

(* The catalog of every instrumented site in the tree. Each entry names a
   [fire] call somewhere in the engine or the audit pipeline; the fuzz
   campaign sweeps this list and the reachability of every entry is
   asserted by the test-suite, so a renamed or removed call site fails a
   test instead of silently orphaning the catalog. *)
let all_points =
  [ "audit.simplex";
    "audit.ssp";
    "dphase.bellman-ford";
    "dphase.simplex";
    "dphase.ssp";
    "io.crash-after-write";
    "io.eio-read";
    "io.enospc";
    "io.fsync-lost";
    "io.short-write";
    "io.torn-rename";
    "net.accept-drop";
    "net.delayed-response";
    "net.read-stall";
    "net.torn-write";
    "wphase" ]

let is_known_point site = List.mem site all_points
