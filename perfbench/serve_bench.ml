(* The serving layer: a real `minflo serve` daemon driven in a closed loop
   over one connection. *)

module M = Metrics
module Json = Minflo_util.Json
module Rng = Minflo_util.Rng
module Client = Minflo_serve.Client
module Protocol = Minflo_serve.Protocol
module Transport = Minflo_serve.Transport
module Job = Minflo_runner.Job
module Model_cache = Minflo_tech.Model_cache
module Mft = Minflo_sizing.Minflotransit
module Sweep = Minflo_sizing.Sweep
module S = Sizing_bench

(* ---------- the daemon ---------- *)

type daemon = { pid : int; endpoint : Transport.endpoint }

let live : daemon list ref = ref []

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let rpc_once endpoint req =
  Client.one_shot
    ~retry:{ Client.default_retry with attempts = 1; timeout = Some 10.0 }
    ~endpoint (Protocol.request_to_json req)

(* the daemon and its workers share a process group of their own, so
   stopping it can never leave a worker behind *)
let kill_group pid =
  try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()

let rec waitpid_retry pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | Unix.Unix_error (Unix.ECHILD, _, _) -> () (* already reaped *)

let forget d = live := List.filter (fun x -> x.pid <> d.pid) !live

let kill d =
  kill_group d.pid;
  waitpid_retry d.pid;
  forget d

(* spawn [cli serve] in [dir]; the time from spawn until [health] answers
   ok is the serve set-up time *)
let spawn ~cli ~dir =
  mkdirs dir;
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    [| cli; "serve"; "--socket"; sock; "--dir"; Filename.concat dir "run"; "-j"; "2" |]
  in
  let t0 = M.now () in
  let pid =
    match Unix.fork () with
    | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Unix.execv cli argv
      with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close log;
  let d = { pid; endpoint = Transport.Unix_sock sock } in
  live := d :: !live;
  let rec wait_healthy () =
    match rpc_once d.endpoint Protocol.Health with
    | Ok r when Json.str_field "status" r = Some "ok" -> ()
    | _ -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when M.now () -. t0 < 60.0 ->
        Unix.sleepf 0.002;
        wait_healthy ()
      | 0, _ ->
        kill d;
        failwith "serve daemon never became healthy"
      | _ ->
        forget d;
        failwith "serve daemon exited during start-up")
  in
  wait_healthy ();
  (d, M.now () -. t0)

(* drain (finish in-flight work, seal the journal, exit), then make sure
   nothing of the group is left *)
let stop d =
  (match rpc_once d.endpoint Protocol.Drain with
  | Ok _ ->
    let deadline = M.now () +. 30.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when M.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
      | 0, _ -> kill_group d.pid
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
  | Error _ -> ());
  kill d

(* ---------- the closed loop ---------- *)

type kind = Fresh | Repeat

type req = {
  seq : int;  (** position in the request stream *)
  circuit : string;
  factor : float;
  kind : kind;
}

type answer = {
  req : req;
  key : string;
  submit_s : float;  (** the submit round trip: admission + durable accept *)
  latency : float;   (** submit sent -> result received *)
  done_at : float;
  area : float;
  cp : float;
  met : bool;
  ok : bool;         (** the daemon answered [done] *)
}

let submit_json (r : req) =
  Protocol.Submit
    { Protocol.circuit = r.circuit;
      factor = r.factor;
      solver = `Simplex;
      max_seconds = None;
      max_iterations = None;
      max_pivots = None;
      sleep_seconds = 0.0 }

let key_of (r : req) =
  match submit_json r with Protocol.Submit s -> Protocol.job_key s | _ -> assert false

let answer_of req key ~submit_s ~t0 resp =
  let t = M.now () in
  let num k = Option.value (Json.num_field k resp) ~default:nan in
  { req; key; submit_s; latency = t -. t0; done_at = t;
    area = num "area"; cp = num "cp";
    met = Json.bool_field "met" resp = Some true;
    ok = Json.str_field "state" resp = Some "done" }

let request conn req =
  match Client.request conn (Protocol.request_to_json req) with
  | Ok r -> r
  | Error e -> failwith ("serve request failed: " ^ Minflo_robust.Diag.to_string e)

(* At most two fresh jobs outstanding on the one connection: a third
   submit first waits for the oldest result. A repeat of a served key is
   answered from the result cache in the submit response itself; its key
   is waited for first if still outstanding, so a repeat always takes the
   read path. [next] yields requests until the loop should stop. *)
let closed_loop conn next =
  let outstanding = Queue.create () in
  let answers = ref [] in
  let fetch () =
    let r, key, t0, submit_s = Queue.pop outstanding in
    let resp = request conn (Protocol.Result { id = key; wait = true }) in
    answers := answer_of r key ~submit_s ~t0 resp :: !answers
  in
  let rec go () =
    match next () with
    | None -> while not (Queue.is_empty outstanding) do fetch () done
    | Some r ->
      let key = key_of r in
      (match r.kind with
      | Fresh ->
        if Queue.length outstanding >= 2 then fetch ();
        let t0 = M.now () in
        let resp = request conn (submit_json r) in
        if Json.bool_field "ok" resp <> Some true then
          failwith ("submit refused: " ^ Json.to_string resp);
        Queue.push (r, key, t0, M.now () -. t0) outstanding
      | Repeat ->
        while Queue.fold (fun acc (_, k, _, _) -> acc || k = key) false outstanding do
          fetch ()
        done;
        let t0 = M.now () in
        let resp = request conn (submit_json r) in
        answers := answer_of r key ~submit_s:(M.now () -. t0) ~t0 resp :: !answers);
      go ()
  in
  go ();
  List.rev !answers

(* ---------- serving-layer numbers ---------- *)

let counter stats name =
  Option.bind (Json.member "counters" stats) (Json.num_field name)
  |> Option.value ~default:0.0

type serve_obs = {
  answers : answer list;
  before : Json.t;       (** daemon stats before the loop *)
  after : Json.t;        (** daemon stats after the loop *)
  rss_mb : float;        (** daemon parent VmHWM *)
  journal_bytes : int;
}

(* run [next] through a fresh connection to [d], with stats around it *)
let observe d ~dir next =
  let conn =
    match Client.connect ~timeout:120.0 d.endpoint with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ Minflo_robust.Diag.to_string e)
  in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let before = request conn Protocol.Stats in
      let answers = closed_loop conn next in
      let after = request conn Protocol.Stats in
      { answers; before; after;
        rss_mb = M.peak_rss_mb (string_of_int d.pid);
        journal_bytes =
          (Unix.stat (Filename.concat (Filename.concat dir "run") "journal.jsonl"))
            .st_size })

let layer_values (o : serve_obs) =
  let fresh = List.filter (fun a -> a.req.kind = Fresh) o.answers in
  let hits = List.filter (fun a -> a.req.kind = Repeat) o.answers in
  let lat l = List.map (fun a -> a.latency) l in
  let delta name = counter o.after name -. counter o.before name in
  let hits_d = delta "cache_hits" and misses_d = delta "cache_misses" in
  [ ("serve.submit_s", M.median (List.map (fun a -> a.submit_s) fresh));
    ("serve.miss_p50_s", M.percentile (lat fresh) 50.0);
    ("serve.miss_p95_s", M.percentile (lat fresh) 95.0);
    ("serve.hit_p50_s", M.percentile (lat hits) 50.0);
    ( "serve.cache_hit_ratio",
      if hits_d +. misses_d > 0.0 then hits_d /. (hits_d +. misses_d) else 0.0 );
    ( "serve.queue_peak",
      Option.bind (Json.member "queue" o.after) (Json.num_field "peak")
      |> Option.value ~default:0.0 );
    ("serve.rejections", delta "rejections");
    ( "serve.journal_bytes_per_job",
      float_of_int o.journal_bytes /. float_of_int (List.length fresh) );
    ("serve.daemon_rss_mb", o.rss_mb) ]

(* ---------- the serve mix ---------- *)

let circuits = [| "c17"; "c432"; "c499"; "c880"; "c1355" |]

(* A block is 4 fresh jobs of each circuit and 10 repeats, shuffled: two
   thirds fresh, so the median latency sits inside the miss mode instead
   of on the gap between a sub-millisecond hit and a 60 ms miss. *)
let fresh_per_circuit = 4
let repeats_per_block = 10

(* The request stream of a seed, one block per call. Fresh factors are
   distinct multiples of 0.001 in [0.5, 0.8] per circuit (the daemon's job
   key keeps three decimals; a session takes at most 20 of the 301 per
   circuit); a repeat names a fresh job at least two requests back. *)
let request_stream seed =
  let rng = Rng.create seed in
  let pools =
    Array.map
      (fun _ ->
        let a = Array.init 301 (fun k -> 500 + k) in
        Rng.shuffle rng a;
        ref (Array.to_list a))
      circuits
  in
  let fresh = ref [] and pos = ref 0 in
  fun () ->
    let kinds =
      Array.append
        (Array.make (fresh_per_circuit * Array.length circuits) Fresh)
        (Array.make repeats_per_block Repeat)
    in
    Rng.shuffle rng kinds;
    let order =
      Array.concat
        (List.init fresh_per_circuit (fun _ ->
             Array.init (Array.length circuits) Fun.id))
    in
    Rng.shuffle rng order;
    let next_fresh = ref 0 in
    let block =
      Array.map
        (fun kind ->
          let seq = !pos in
          incr pos;
          match (kind, List.filter (fun (r : req) -> r.seq <= seq - 2) !fresh) with
          | Repeat, (_ :: _ as older) ->
            { (Rng.pick rng (Array.of_list older)) with seq; kind = Repeat }
          | _ ->
            let c = order.(!next_fresh mod Array.length order) in
            incr next_fresh;
            let k = List.hd !(pools.(c)) in
            pools.(c) := List.tl !(pools.(c));
            let r =
              { seq; circuit = circuits.(c); factor = float_of_int k /. 1000.0; kind = Fresh }
            in
            fresh := r :: !fresh;
            r)
        kinds
    in
    Array.to_list block

let load circuit =
  match Job.load_circuit circuit with
  | Ok nl -> nl
  | Error e -> failwith (Minflo_robust.Diag.to_string e)

(* the options every serve worker sizes with *)
let serve_options =
  { Mft.default_options with warm_start = true; canonical_duals = true }


let session_blocks = 4

(* The serving layer, measured in every traced run: a fresh daemon with 2
   workers, [session_blocks] blocks of the serve mix (one connection,
   closed loop), the daemon's stats around them. Every answer must be
   [done] and bit-equal in area, critical path and [met] to an in-process
   [Minflotransit.optimize] of the same job key with the daemon's options;
   that in-process sizing must itself pass the sizing check. Returns the
   serve per-layer values, the requests made and the requests failed. *)
let session ~cli ~dir ~seed =
  let d, spawn_s = spawn ~cli ~dir in
  let stream = request_stream seed in
  let left = ref [] and blocks = ref 0 in
  let next () =
    match !left with
    | r :: rest ->
      left := rest;
      Some r
    | [] -> (
      if !blocks >= session_blocks then None
      else
        match stream () with
        | r :: rest ->
          incr blocks;
          left := rest;
          Some r
        | [] -> None)
  in
  let t0 = M.now () in
  let o = Fun.protect ~finally:(fun () -> stop d) (fun () -> observe d ~dir next) in
  let loop_s = List.fold_left (fun acc a -> Float.max acc a.done_at) t0 o.answers -. t0 in
  (* ---- output checks, after the daemon is gone ---- *)
  let models = Hashtbl.create 8 and refs = Hashtbl.create 128 in
  let reference a =
    match Hashtbl.find_opt refs a.key with
    | Some v -> v
    | None ->
      let model, d0 =
        match Hashtbl.find_opt models a.req.circuit with
        | Some v -> v
        | None ->
          let m = Model_cache.model (load a.req.circuit) in
          let v = (m, Sweep.dmin m) in
          Hashtbl.replace models a.req.circuit v;
          v
      in
      let target = a.req.factor *. d0 in
      let r = Mft.optimize ~options:serve_options model ~target in
      let v =
        ( r,
          S.check_sizing model ~target ~sizes:r.sizes ~area:r.area ~cp:r.cp ~met:r.met
        )
      in
      Hashtbl.replace refs a.key v;
      v
  in
  let failed =
    List.length
      (List.filter
         (fun a ->
           let (r : Mft.result), sound = reference a in
           let good =
             a.ok && sound && M.same_bits a.area r.area && M.same_bits a.cp r.cp
             && a.met = r.met
           in
           if not good then M.note "serve answer differs from the in-process run: %s" a.key;
           not good)
         o.answers)
  in
  M.note "serve session: %d requests, %d distinct jobs; the split of queue wait, \
          execution and fsync inside the daemon needs spans in the program and \
          is not measured here"
    (List.length o.answers) (Hashtbl.length refs);
  ( ("serve.spawn_s", spawn_s)
    :: ("serve.jobs_per_s", float_of_int (List.length o.answers) /. loop_s)
    :: layer_values o,
    List.length o.answers,
    failed )
