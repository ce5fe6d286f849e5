(* The campaign-trial benchmark.

   Runs whole fault-injection campaigns the way `btr campaign run`
   does — compile, plan through a fresh Campaign.Cache, run every trial
   at the Campaign.run_script boundary, shrink violations, write the
   orchestrated artifact — for --seconds, then checks the verdicts and
   prints one JSON result line. With --trace 1 it alternates untraced
   campaigns with traced ones that time the calls into each layer's
   public functions from outside and read every trial's Btr_obs
   registry, and reports the per-layer split instead.

   Host wall-clock time is the measurement here and never enters a
   verdict, an artifact or a fingerprint. See DESIGN.md for the
   workloads and the map from layer metrics to end-to-end metrics. *)

open Btr_util
module Campaign = Btr_campaign.Campaign
module Orchestrate = Btr_campaign.Orchestrate
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Obs = Btr_obs.Obs
module Runtime = Btr.Runtime
module Metrics = Btr.Metrics
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Net = Btr_net.Net

(* btr-lint: allow wall-clock — timing is what this program measures *)
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median values = quantile values 0.5

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* The shared host this runs on changes speed by up to 2x over seconds
   to minutes, from load outside the process. To take that out of the
   timings, a fixed reference pass runs between trials (outside every
   timed interval), and each campaign's timings are divided by its
   host factor: the median pass time over the campaign divided by
   [ref_nominal_s]. The pass is a binary min-heap of ints plus
   sequential stores into a 256 KB ring and loads of recent slots — the
   shape of an allocating event loop, but on preallocated arrays, so it
   allocates nothing and never runs the GC over the program's heap. Its
   code and its small working set are fixed here, so a change to the
   program can hardly make it faster or slower. *)
let ref_ring = Array.make (1 lsl 15) 0
let ref_heap = Array.make 1024 0
let ref_len = ref 0
let ref_steps = 40_000

(* The median pass time on a quiet 2.1 GHz Xeon VM; it only sets the
   scale, so that factored timings read close to wall-clock ones. *)
let ref_nominal_s = 3.8e-3

(* Inside a campaign, a pass follows a trial or a shrink only once this
   much time has passed since the previous pass ended, so that passes
   cost at most about a sixth of the run however short the trials are. *)
let probe_gap_s = 0.02

let ref_push x =
  let i = ref !ref_len in
  incr ref_len;
  while !i > 0 && ref_heap.((!i - 1) / 2) > x do
    ref_heap.(!i) <- ref_heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  ref_heap.(!i) <- x

let ref_pop () =
  let top = ref_heap.(0) in
  decr ref_len;
  let n = !ref_len in
  let x = ref_heap.(n) and i = ref 0 and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= n then go := false
    else begin
      let c = if l + 1 < n && ref_heap.(l + 1) < ref_heap.(l) then l + 1 else l in
      if ref_heap.(c) < x then begin
        ref_heap.(!i) <- ref_heap.(c);
        i := c
      end
      else go := false
    end
  done;
  if n > 0 then ref_heap.(!i) <- x;
  top

let reference_pass () =
  let mask = Array.length ref_ring - 1 in
  let h = ref 88172645 and w = ref 0 and acc = ref 0 in
  ref_len := 0;
  for _ = 1 to 512 do
    h := ((!h * 1103515245) + 12345) land 0x3fffffff;
    ref_push !h
  done;
  for _ = 1 to ref_steps do
    let t = ref_pop () in
    h := ((!h * 1103515245) + 12345) land 0x3fffffff;
    for j = 0 to 7 do
      ref_ring.((!w + j) land mask) <- t + j
    done;
    w := (!w + 8) land mask;
    acc := !acc lxor ref_ring.((!w - 1 - (!h land 0xfff)) land mask);
    ref_push (t + 1 + (!h land 0xffff))
  done;
  !acc

(* One timed pass. *)
let probe () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference_pass ()));
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  spec : int -> Campaign.spec;
  jobs_check : bool;  (** also run the spec through Campaign.run ~jobs:2 *)
}

let trial_sim seed = Campaign.spec ~trials:200 ~seed ()

(* Shrinking is off here: its cost depends on which schedules the seed
   draws, and shrink-hunt is the workload that measures it. *)
let plan_sweep seed =
  let grid =
    {
      Campaign.default_grid with
      Campaign.workloads = [ "avionics"; "scada" ];
      topologies = [ "clique"; "ring"; "dual-bus" ];
      node_counts = [ 8; 12; 16 ];
      fault_bounds = [ 2 ];
      recovery_bounds = [ Time.ms 150; Time.ms 300 ];
    }
  in
  Campaign.spec ~grid ~trials:36 ~seed ~shrink:false ()

let shrink_hunt seed =
  let grid = { Campaign.default_grid with Campaign.topologies = [ "ring" ] } in
  Campaign.spec ~grid ~trials:200 ~seed ()

let workloads =
  [
    { name = "trial-sim"; spec = trial_sim; jobs_check = true };
    { name = "plan-sweep"; spec = plan_sweep; jobs_check = false };
    { name = "shrink-hunt"; spec = shrink_hunt; jobs_check = false };
  ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* One recorder per traced campaign: span totals by name, every span
   kept in memory for the exit dump, and the summed registry counters of
   the campaign's trials. *)
type acc = { mutable ns : float; mutable calls : int; mutable words : float }

type recorder = {
  totals : (string, acc) Hashtbl.t;
  mutable log : (string * float * float * float) list;
      (** name, start (s), duration (ns), minor words; newest first *)
  counts : (string, int) Hashtbl.t;
  mutable events : int;  (** simulated events of the traced runs *)
}

let recorder () =
  { totals = Hashtbl.create 16; log = []; counts = Hashtbl.create 64; events = 0 }

let acc_of r name =
  match Hashtbl.find_opt r.totals name with
  | Some a -> a
  | None ->
    let a = { ns = 0.0; calls = 0; words = 0.0 } in
    Hashtbl.add r.totals name a;
    a

let record r name ~t0 ~w0 =
  let dt = (now () -. t0) *. 1e9 and dw = Gc.minor_words () -. w0 in
  let a = acc_of r name in
  a.ns <- a.ns +. dt;
  a.calls <- a.calls + 1;
  a.words <- a.words +. dw;
  r.log <- (name, t0, dt, dw) :: r.log

(* [span None] is the untraced path: the call and nothing else. *)
let span r name f =
  match r with
  | None -> f ()
  | Some r -> (
    let w0 = Gc.minor_words () in
    let t0 = now () in
    match f () with
    | v ->
      record r name ~t0 ~w0;
      v
    | exception e ->
      record r name ~t0 ~w0;
      raise e)

let add_count r name v =
  Hashtbl.replace r.counts name (v + Option.value ~default:0 (Hashtbl.find_opt r.counts name))

(* ------------------------------------------------------------------ *)
(* The traced trial                                                    *)

(* Campaign.run_script rebuilt from the public calls it makes, so each
   layer can be timed: plan lookup, deploy, simulate, judge. The verdict
   must be byte-identical to Campaign.run_script's — the traced
   campaign's fingerprint is checked against the untraced one. *)
let bp f = int_of_float ((f *. 10_000.0) +. 0.5)

let judge rt (p : Campaign.params) =
  let m = Runtime.metrics rt in
  let recoveries = Metrics.recovery_times m in
  let ns = Runtime.net_stats rt in
  let st =
    {
      Campaign.worst_recovery = List.fold_left Time.max Time.zero recoveries;
      recoveries;
      incorrect = Metrics.incorrect_time m;
      deadline_miss_bp = bp (Metrics.deadline_miss_fraction m);
      correct_bp = bp (Metrics.correct_fraction m);
      bytes_sent = ns.Net.bytes_sent;
      control_bytes = ns.Net.control_bytes_sent;
      sim_events = Btr_sim.Engine.events_processed (Runtime.engine rt);
      mode_changes = List.length (Runtime.mode_changes rt);
      periods = Metrics.periods_finalized m;
    }
  in
  if List.exists (fun rec_t -> Time.compare rec_t p.r > 0) st.recoveries then
    Campaign.Violation st
  else Campaign.Pass st

let traced_run_script r ~cache (t : Campaign.trial) =
  let tr = Some r in
  match span tr "cache.strategy" (fun () -> Campaign.Cache.strategy cache t.params) with
  | Error m -> Campaign.Rejected m
  | Ok strategy -> (
    try
      let config = { Runtime.default_config with Runtime.seed = t.runtime_seed } in
      let rt =
        span tr "runtime.create" (fun () ->
            Runtime.create ~config ~script:t.script ~strategy ())
      in
      span tr "runtime.run" (fun () -> Runtime.run rt ~horizon:t.horizon);
      let outcome = span tr "metrics.judge" (fun () -> judge rt t.params) in
      List.iter
        (fun (name, v) -> add_count r name v)
        (Obs.Registry.counters (Obs.registry (Runtime.obs rt)));
      add_count r "modeswitch.mode_changes" (List.length (Runtime.mode_changes rt));
      r.events <- r.events + Btr_sim.Engine.events_processed (Runtime.engine rt);
      outcome
    with e -> Campaign.Errored (Printexc.to_string e))

(* The planner/verifier split of the cache's misses, measured after the
   campaign (outside its wall time) by calling Planner.build and
   Check.verify directly on each missed configuration. It mirrors the
   cache: a config whose R-stripped base was already admitted is derived
   (verify only); anything else is built and verified. *)
let workload_graph (p : Campaign.params) =
  match p.workload with
  | "scada" -> Generators.scada ~n_nodes:p.nodes
  | _ -> Generators.avionics ~n_nodes:p.nodes

let topology (p : Campaign.params) =
  let latency = Time.us 50 and bandwidth_bps = p.bandwidth_bps in
  match p.topology with
  | "ring" -> Topology.ring ~n:p.nodes ~bandwidth_bps ~latency
  | "dual-bus" -> Topology.dual_bus ~n:p.nodes ~bandwidth_bps ~latency
  | _ -> Topology.fully_connected ~n:p.nodes ~bandwidth_bps ~latency

let planner_config (p : Campaign.params) =
  let c =
    { (Planner.default_config ~f:p.f ~recovery_bound:p.r) with Planner.protect_level = p.protect }
  in
  match p.control_share with
  | None -> c
  | Some control_frac -> { c with Planner.shares = Some { Net.data_frac = 0.35; control_frac } }

(* Returns the number of derived configurations, for the caller to
   compare with Campaign.Cache.derived. *)
let split_planning r ~seed (trials : Campaign.trial array) =
  let seen = Hashtbl.create 64 and admitted_bases = Hashtbl.create 64 in
  let derived = ref 0 in
  let strikes = Runtime.default_config.Runtime.omission_strikes in
  Array.iter
    (fun (t : Campaign.trial) ->
      let p = t.params in
      let key = Campaign.plan_key ~seed p in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let base = Campaign.plan_key ~seed { p with Campaign.r = Time.zero } in
        let is_derived = Hashtbl.mem admitted_bases base in
        let build () = Planner.build (planner_config p) (workload_graph p) (topology p) in
        let built =
          if is_derived then begin
            incr derived;
            build ()
          end
          else span (Some r) "planner.build" build
        in
        match built with
        | Error _ -> ()
        | Ok s ->
          let report = span (Some r) "check.verify" (fun () -> Check.verify ~strikes s) in
          if (not is_derived) && Check.to_planner_error report = None then
            Hashtbl.replace admitted_bases base ()
      end)
    trials;
  !derived

(* ------------------------------------------------------------------ *)
(* One campaign                                                        *)

type campaign = {
  wall : float;  (** s: compile through artifact written, reference passes excluded *)
  elapsed : float;  (** s: the same interval, reference passes included *)
  probe_s : float;  (** median reference pass time over the campaign *)
  host : float;  (** [probe_s /. ref_nominal_s]: every timing is divided by it *)
  trials : int;
  latencies : float array;  (** s per trial, at the run_script boundary *)
  words : float;  (** minor words allocated *)
  events : int;  (** simulated events summed over verdicts *)
  fingerprint : string;
  errored : int;
  problems : string list;  (** failed correctness checks *)
  gc_minor : int;
  gc_major : int;
  gc_promoted : float;
  artifact_bytes : int;
  cache_hits : int;
  cache_misses : int;
  cache_derived : int;
  shrink_runs : int;
  shrink_removed : int;
  recorder : recorder option;  (** traced campaigns only *)
  model_derived : int;  (** split_planning's derived count (traced) *)
}

(* Every trial at the Campaign.run_script boundary, in order, as
   Campaign.run_trials runs them at jobs = 1, each call timed, with
   [probe] after each. *)
let execute r (trials : Campaign.trial array) run_one ~probe =
  Array.map
    (fun t ->
      let t0 = now () in
      let o = span r "campaign.trial" (fun () -> run_one r t) in
      let dt = now () -. t0 in
      probe ();
      (o, dt))
    trials

let write_lines file lines =
  let oc = open_out file in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let stats_of = function
  | Campaign.Pass st | Campaign.Violation st -> Some st
  | Campaign.Rejected _ | Campaign.Errored _ -> None

(* The verdict and violation lines: the JSON codec's share of the
   artifact, timed apart from the assembly below. *)
let encode verdicts violations =
  ( List.map (fun (v : Campaign.verdict) -> (v.trial.index, Campaign.verdict_json v)) verdicts,
    List.map
      (fun (s : Campaign.shrunk_violation) -> (s.source.index, Campaign.violation_json s))
      violations )

(* The orchestrated (v2) artifact `btr campaign run` writes, assembled
   by Orchestrate.run from encoded lines handed to it as a complete
   resume artifact: it re-executes nothing and emits the same bytes. On
   the way it compiles the spec twice more and validates the resume
   record, work `btr campaign run` does not do. *)
let artifact_lines (spec : Campaign.spec) ~spec_fp (verdict_lines, violation_lines) =
  let resume =
    {
      Orchestrate.a_seed = spec.seed;
      a_trials = spec.trials;
      a_configs = List.length (Campaign.grid_params spec.grid);
      a_shrink = spec.shrink;
      a_grid = Campaign.grid_axes spec.grid;
      a_spec_fp = spec_fp;
      a_shard = Orchestrate.unsharded;
      a_complete = false;
      a_fingerprint = "";
      a_verdicts = verdict_lines;
      a_violations = violation_lines;
    }
  in
  match Orchestrate.run ~jobs:1 ~resume ~shard:Orchestrate.unsharded spec with
  | Ok r when r.Orchestrate.executed = 0 && r.Orchestrate.complete -> Ok r.Orchestrate.lines
  | Ok _ -> Error "artifact assembly re-executed trials"
  | Error m -> Error m

(* Correctness of one campaign's outputs, independent of timing.
   [parsed] and [report] are the written artifact read back through the
   orchestrator's parser and the report renderer. *)
let check_campaign (spec : Campaign.spec) ~fingerprint ~parsed ~report verdicts violations =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if List.length verdicts <> spec.trials then
    fail "%d verdicts for %d trials" (List.length verdicts) spec.trials;
  List.iter
    (fun (v : Campaign.verdict) ->
      let over st =
        List.exists (fun rt -> Time.compare rt v.trial.params.r > 0) st.Campaign.recoveries
      in
      match v.outcome with
      | Campaign.Errored m -> fail "trial %d errored: %s" v.trial.index m
      | Campaign.Pass st when over st -> fail "trial %d passed over R" v.trial.index
      | Campaign.Violation st when not (over st) ->
        fail "trial %d violated within R" v.trial.index
      | _ -> ())
    verdicts;
  List.iter
    (fun (s : Campaign.shrunk_violation) ->
      if Time.compare s.stats.worst_recovery s.source.params.r <= 0 then
        fail "shrunk trial %d no longer violates" s.source.index;
      if List.length s.script > List.length s.source.script then
        fail "shrunk trial %d grew" s.source.index)
    violations;
  (match parsed with
  | Error m -> fail "artifact does not parse: %s" m
  | Ok (a : Orchestrate.artifact) ->
    if not a.a_complete then fail "artifact marked incomplete";
    if a.a_fingerprint <> fingerprint then
      fail "artifact fingerprint %s, verdicts %s" a.a_fingerprint fingerprint;
    if List.length a.a_verdicts <> spec.trials then fail "artifact verdict count";
    if List.length a.a_violations <> List.length violations then
      fail "artifact violation count");
  (match report with Ok _ -> () | Error m -> fail "report does not render: %s" m);
  List.rev !problems

let run_campaign ~traced ~file (spec : Campaign.spec) =
  let spec_fp = Orchestrate.spec_fingerprint spec in
  Gc.full_major ();
  let main = if traced then Some (recorder ()) else None in
  (* Reference passes: one on each side of the timed interval, and
     inside it one after a trial or a shrink when [probe_gap_s] has
     passed since the last. Their time and bookkeeping allocation
     ([excluded]: s, words; then the end of the last pass) are taken out
     of the campaign's wall time and allocation. *)
  let probes = ref [ probe () ] and excluded = Float.Array.make 3 0.0 in
  Float.Array.set excluded 2 (now ());
  let sample () =
    let w = Gc.minor_words () in
    if now () -. Float.Array.get excluded 2 >= probe_gap_s then begin
      let d = probe () in
      probes := d :: !probes;
      Float.Array.set excluded 0 (Float.Array.get excluded 0 +. d);
      Float.Array.set excluded 2 (now ())
    end;
    Float.Array.set excluded 1 (Float.Array.get excluded 1 +. (Gc.minor_words () -. w))
  in
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let trials =
    span main "campaign.compile" (fun () -> Array.of_list (Campaign.compile spec))
  in
  let cache = Campaign.Cache.create ~seed:spec.seed in
  let run_one r (t : Campaign.trial) =
    match r with
    | Some r -> traced_run_script r ~cache t
    | None -> Campaign.run_script ~cache t.params ~runtime_seed:t.runtime_seed t.script
  in
  let executed = execute main trials run_one ~probe:sample in
  let verdicts =
    Array.to_list
      (Array.mapi (fun i (outcome, _) -> { Campaign.trial = trials.(i); outcome }) executed)
  in
  let budget = if spec.shrink then spec.shrink_budget else 0 in
  let violations =
    List.filter_map
      (fun (v : Campaign.verdict) ->
        if Campaign.violates v.outcome then begin
          let s =
            span main "shrink.minimize" (fun () ->
                Campaign.shrink_violation ~cache ~budget v.trial)
          in
          sample ();
          s
        end
        else None)
      verdicts
  in
  let lines =
    span main "orchestrate.artifact" (fun () ->
        let encoded = span main "orchestrate.encode" (fun () -> encode verdicts violations) in
        let lines = artifact_lines spec ~spec_fp encoded in
        Result.iter (write_lines file) lines;
        lines)
  in
  let t1 = now () in
  let words = Gc.minor_words () -. w0 -. Float.Array.get excluded 1 in
  let gc1 = Gc.quick_stat () in
  probes := probe () :: !probes;
  let probe_s = median !probes in
  let result =
    {
      Campaign.spec;
      configs = List.length (Campaign.grid_params spec.grid);
      jobs = 1;
      verdicts;
      violations;
      cache_hits = Campaign.Cache.hits cache;
      cache_misses = Campaign.Cache.misses cache;
    }
  in
  let fingerprint = Campaign.fingerprint result in
  let problems =
    match lines with
    | Error m -> [ "artifact: " ^ m ]
    | Ok _ ->
      let written = read_lines file in
      let parsed, report =
        span main "orchestrate.parse" (fun () ->
            (Orchestrate.parse_artifact written, Campaign.render_report written))
      in
      check_campaign spec ~fingerprint ~parsed ~report verdicts violations
  in
  let model_derived =
    match main with Some r -> split_planning r ~seed:spec.seed trials | None -> 0
  in
  let errored =
    List.length
      (List.filter
         (fun (v : Campaign.verdict) ->
           match v.outcome with Campaign.Errored _ -> true | _ -> false)
         verdicts)
  in
  {
    wall = t1 -. t0 -. Float.Array.get excluded 0;
    elapsed = t1 -. t0;
    probe_s;
    host = probe_s /. ref_nominal_s;
    trials = Array.length trials;
    latencies = Array.map snd executed;
    words;
    events =
      List.fold_left
        (fun a (v : Campaign.verdict) ->
          match stats_of v.outcome with Some st -> a + st.sim_events | None -> a)
        0 verdicts;
    fingerprint;
    errored;
    problems;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    gc_promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    artifact_bytes =
      (match lines with
      | Ok l -> List.fold_left (fun a s -> a + String.length s + 1) 0 l
      | Error _ -> 0);
    cache_hits = result.cache_hits;
    cache_misses = result.cache_misses;
    cache_derived = Campaign.Cache.derived cache;
    shrink_runs = List.fold_left (fun a (s : Campaign.shrunk_violation) -> a + s.shrink_runs) 0 violations;
    shrink_removed =
      List.fold_left
        (fun a (s : Campaign.shrunk_violation) ->
          a + List.length s.source.script - List.length s.script)
        0 violations;
    recorder = main;
    model_derived;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The process high-water mark (VmHWM, kB), or 0 off Linux. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* Setup: compile the spec, fingerprint it, and plan and admit its first
   configuration on a fresh cache — what a user waits for before the
   first trial runs. *)
let setup_once (spec : Campaign.spec) =
  let t0 = now () in
  let trials = Campaign.compile spec in
  ignore (Orchestrate.spec_fingerprint spec);
  let cache = Campaign.Cache.create ~seed:spec.seed in
  (match trials with
  | t :: _ -> ignore (Campaign.Cache.strategy cache t.params)
  | [] -> ());
  now () -. t0

(* A set-up takes a few milliseconds, so one sample says little about a
   host whose speed drifts over seconds. [setup_s] is therefore the
   median over bursts spread through the run — one before the warm-up
   and one before each round — of each burst's median of the set-ups
   it fits into [setup_burst_s] (at least three), divided by the burst's
   host factor from a reference pass after each set-up. *)
let setup_burst_s = 0.25

let setup_burst spec =
  let t_end = now () +. setup_burst_s in
  let rec go n setups probes =
    let setups = setup_once spec :: setups in
    let probes = probe () :: probes in
    if n >= 3 && now () > t_end then median setups /. (median probes /. ref_nominal_s)
    else go (n + 1) setups probes
  in
  go 1 [] []

(* Timings are divided by their round's host factor. Throughputs are
   totals over all rounds (work / factored wall time), so each averages
   the rounds' fault-schedule draws; latency percentiles are taken over
   the factored trial latencies of all rounds pooled. Allocation is exact
   for a seed and summed over the first [alloc_rounds] rounds, which
   every untraced run completes. *)
let alloc_rounds = 3

let end_to_end ~setup_s ~peak_rss campaigns =
  let total cs f = List.fold_left (fun a c -> a +. f c) 0.0 cs in
  let per f = total campaigns f /. total campaigns (fun c -> c.wall /. c.host) in
  let latencies =
    List.concat_map
      (fun c -> List.map (fun l -> 1e3 *. l /. c.host) (Array.to_list c.latencies))
      campaigns
  in
  let latency q = quantile latencies q in
  let counted = List.filteri (fun i _ -> i < alloc_rounds) campaigns in
  let sum = total counted in
  [
    ("setup_s", setup_s, "s");
    ("trials_per_s", per (fun c -> float_of_int c.trials), "1/s");
    ("sim_events_per_s", per (fun c -> float_of_int c.events), "1/s");
    ("trial_ms_p50", latency 0.5, "ms");
    ("trial_ms_p95", latency 0.95, "ms");
    ( "alloc_words_per_trial",
      sum (fun c -> c.words) /. sum (fun c -> float_of_int c.trials),
      "words" );
    ("peak_rss_mb", peak_rss, "MB");
  ]

(* Counts read from the trials' Btr_obs registries, in report order.
   sim.engine.cancelled, net.msgs-lost and detect.corroborations are
   left out: they read 0 on every workload. *)
let registry_counts =
  [
    "sim.engine.fired"; "sim.engine.scheduled"; "sim.engine.cells"; "sim.engine.pool-reuse";
    "net.msgs-sent"; "net.msgs-delivered"; "net.relay-dropped"; "net.bytes.data";
    "net.bytes.control"; "detect.watchdog-missing"; "detect.watchdog-late";
    "detect.strike-resets"; "evidence.records-admitted"; "evidence.dedup-hits";
    "evidence.validation-failures"; "modeswitch.mode_changes";
  ]

(* One traced campaign's per-layer figures. Spans are ms per campaign,
   summed over its calls and divided by the campaign's host factor;
   words are per call. host.ref_pass_ms is the reference pass itself,
   not factored: it shows how fast the host ran. *)
let layer_metrics c =
  let sum f = Option.fold ~none:0.0 ~some:f c.recorder in
  let field name f =
    sum (fun r -> match Hashtbl.find_opt r.totals name with Some a -> f a | None -> 0.0)
  in
  let ms name = field name (fun a -> a.ns) /. 1e6 /. c.host in
  let words_per_call name = ratio (field name (fun a -> a.words)) (field name (fun a -> float_of_int a.calls)) in
  let count name =
    sum (fun r -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt r.counts name)))
  in
  let n = float_of_int c.trials in
  let events = sum (fun r -> float_of_int r.events) in
  let wall_ms = c.wall *. 1e3 /. c.host in
  let self =
    let planner = ms "planner.build" and check = ms "check.verify" in
    let cache = Float.max 0.0 (ms "cache.strategy" -. planner -. check) in
    let runtime = ms "runtime.create" +. ms "runtime.run" in
    let others =
      [
        ("cache", cache); ("planner", planner); ("check", check); ("runtime", runtime);
        ("metrics", ms "metrics.judge"); ("shrink", ms "shrink.minimize");
        ("orchestrate", ms "orchestrate.artifact");
      ]
    in
    ("campaign", wall_ms -. List.fold_left (fun a (_, v) -> a +. v) 0.0 others) :: others
  in
  let admitted = count "evidence.records-admitted" and dedup = count "evidence.dedup-hits" in
  [
    ("runtime.run_ms", ms "runtime.run", "ms");
    ("runtime.run_words", words_per_call "runtime.run", "words");
    ("runtime.run_ns_per_event", ratio (ms "runtime.run" *. 1e6) events, "ns");
    ("runtime.run_words_per_event", ratio (field "runtime.run" (fun a -> a.words)) events, "words");
    ("runtime.create_ms", ms "runtime.create", "ms");
    ("runtime.create_words", words_per_call "runtime.create", "words");
  ]
  @ List.map (fun name -> (name, count name, "count")) registry_counts
  @ [
      ("evidence.dedup_ratio", ratio dedup (admitted +. dedup), "ratio");
      ("cache.strategy_ms", ms "cache.strategy", "ms");
      ("cache.hits", float_of_int c.cache_hits, "count");
      ("cache.misses", float_of_int c.cache_misses, "count");
      ("cache.derived", float_of_int c.cache_derived, "count");
      ( "cache.hit_ratio",
        ratio (float_of_int c.cache_hits) (float_of_int (c.cache_hits + c.cache_misses)),
        "ratio" );
      ("planner.build_ms", ms "planner.build", "ms");
      ("check.verify_ms", ms "check.verify", "ms");
      ("metrics.judge_ms", ms "metrics.judge", "ms");
      ("shrink.minimize_ms", ms "shrink.minimize", "ms");
      ("shrink.runs", float_of_int c.shrink_runs, "count");
      ( "shrink.removed_per_run",
        ratio (float_of_int c.shrink_removed) (float_of_int c.shrink_runs),
        "ratio" );
      ("orchestrate.artifact_ms", ms "orchestrate.artifact", "ms");
      ("orchestrate.encode_ms", ms "orchestrate.encode", "ms");
      ("orchestrate.artifact_bytes", float_of_int c.artifact_bytes, "bytes");
      ("orchestrate.parse_ms", ms "orchestrate.parse", "ms");
      ("campaign.compile_ms", ms "campaign.compile", "ms");
      ("campaign.trial_ms", ms "campaign.trial", "ms");
      ("campaign.wall_ms", wall_ms, "ms");
      ("host.ref_pass_ms", c.probe_s *. 1e3, "ms");
      ("gc.minor_collections", float_of_int c.gc_minor, "count");
      ("gc.major_collections_per_trial", float_of_int c.gc_major /. n, "ratio");
      ("gc.promoted_words_per_trial", c.gc_promoted /. n, "words");
    ]
  @ List.map (fun (l, v) -> ("self_share." ^ l, ratio v wall_ms, "ratio")) self

let value name ms = List.fold_left (fun a (k, v, _) -> if k = name then v else a) 0.0 ms

let is_timing (name, _, unit) =
  unit = "ms" || unit = "ns" || String.starts_with ~prefix:"self_share." name

(* Timings are medians over the traced rounds; counts, words and the
   ratios of counts are exact and come from the round on the run's own
   seed. *)
let round_metrics ~first rounds =
  List.map
    (fun ((name, v, unit) as m) ->
      if is_timing m then (name, median (List.map (value name) rounds), unit) else (name, v, unit))
    first

(* ------------------------------------------------------------------ *)
(* Expected fingerprints                                               *)

(* One flat JSON object per line: {"workload":..,"seed":..,"fingerprint":..}. *)
let load_fingerprints file =
  if not (Sys.file_exists file) then []
  else
    List.filter_map
      (fun line ->
        match Campaign.Flat_json.parse line with
        | Ok fields -> (
          match
            ( List.assoc_opt "workload" fields,
              List.assoc_opt "seed" fields,
              List.assoc_opt "fingerprint" fields )
          with
          | Some (Campaign.Flat_json.Str w), Some (Campaign.Flat_json.Int s),
            Some (Campaign.Flat_json.Str fp) ->
            Some ((w, s), fp)
          | _ -> None)
        | Error _ -> None)
      (List.filter (fun l -> String.trim l <> "") (read_lines file))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* Paths relative to the repository root, where run.py starts this. *)
let out_dir = ".trialbench_out"
let fingerprints_file = "trialbench/fingerprints.jsonl"

let usage_exit msg =
  prerr_endline ("trialbench: " ^ msg);
  exit 2

(* The library's own verdict fingerprint for a seed, independent of the
   harness's hand-built campaign. *)
let reference_fingerprint w seed = Campaign.fingerprint (Campaign.run ~jobs:1 (w.spec seed))

let record_fingerprint w seed =
  Printf.printf "{\"workload\":%S,\"seed\":%d,\"fingerprint\":%S}\n%!" w.name seed
    (reference_fingerprint w seed)

let write_spans file campaigns =
  let oc = open_out file in
  List.iteri
    (fun i c ->
      Option.iter
        (fun r ->
          List.iter
            (fun (name, t0, ns, words) ->
              Printf.fprintf oc
                "{\"campaign\":%d,\"span\":%S,\"start_s\":%.6f,\"ns\":%.0f,\"words\":%.0f}\n"
                i name t0 ns words)
            (List.rev r.log))
        c.recorder)
    campaigns;
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME trial-sim|plan-sweep|shrink-hunt");
      ("--seed", Arg.Set_int seed, "N campaign seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set record, " print this seed's fingerprint line and exit");
    ]
    (fun a -> usage_exit ("unexpected argument " ^ a))
    "trialbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage_exit (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then usage_exit "--trace must be 0 or 1";
  if !seconds <= 0.0 then usage_exit "--seconds must be positive";
  if !record then begin
    record_fingerprint w !seed;
    exit 0
  end;
  (* Everything below, checks included, is paced to end near --seconds
     after this point. *)
  let t_end = now () +. !seconds in
  let traced = !trace = 1 in
  let spec = w.spec !seed in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let stem =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d" w.name !seed !trace)
  in
  let file = stem ^ ".jsonl" in
  let setups = ref [] in
  let sample_setup () = if not traced then setups := setup_burst spec :: !setups in
  (* The verdicts the library gives for this seed: recorded for seeds
     0-24, computed here (untimed) for any other seed. *)
  let expected, source =
    match List.assoc_opt (w.name, !seed) (load_fingerprints fingerprints_file) with
    | Some fp -> (fp, "recorded")
    | None -> (reference_fingerprint w !seed, "computed by Campaign.run ~jobs:1")
  in
  (* Round k runs the campaign on seed [round_seed k], so the timings a
     run reports mix several fault-schedule draws, while
     round 0 is the run's own --seed. A warm-up campaign on that seed
     (traced under --trace 1, checked but not timed) comes first and is
     compared with round 0: fingerprints and exact counts must repeat.
     Rounds continue while the next, and the checks after the rounds,
     are expected to end within --seconds; under --trace 1 each round is
     an untraced then a traced campaign. *)
  let round_seed k = !seed + (k * 100_003) in
  let campaign ~traced k =
    run_campaign ~traced ~file (w.spec (round_seed k))
  in
  sample_setup ();
  let warm = campaign ~traced 0 in
  let jobs_check = w.jobs_check && not traced in
  let reserve = if jobs_check then warm.elapsed else 0.0 in
  let rec loop k rounds =
    sample_setup ();
    let plain = campaign ~traced:false k in
    let tr = if traced then Some (campaign ~traced:true k) else None in
    let rounds = (plain, tr) :: rounds in
    let last = plain.elapsed +. Option.fold ~none:0.0 ~some:(fun c -> c.elapsed) tr in
    let enough = traced || k + 1 >= alloc_rounds in
    if enough && now () +. last +. reserve > t_end then List.rev rounds
    else loop (k + 1) rounds
  in
  let rounds = loop 0 [] in
  let plain = List.map fst rounds and tr = List.filter_map snd rounds in
  let first = List.hd plain in
  let all = (warm :: plain) @ tr in
  (* Read before the checks below, which run campaigns of their own. *)
  let peak_rss = peak_rss_mb () in
  (* Process-level checks. *)
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let fp = first.fingerprint in
  if warm.fingerprint <> fp then fail "fingerprint drift: %s vs %s" warm.fingerprint fp;
  List.iter
    (fun (p, t) ->
      match t with
      | Some t when t.fingerprint <> p.fingerprint ->
        fail "traced fingerprint %s, untraced %s" t.fingerprint p.fingerprint
      | _ -> ())
    rounds;
  if expected <> fp then fail "fingerprint %s, %s %s" fp source expected
  else Printf.printf "fingerprint matches the value %s\n" source;
  if (not traced) && warm.words <> first.words then
    fail "alloc_words drift: %.0f vs %.0f" warm.words first.words;
  let traced_metrics = List.map layer_metrics tr in
  if traced then begin
    let warm_m = layer_metrics warm and first_m = List.hd traced_metrics in
    List.iter
      (fun ((name, _, _) as m) ->
        if (not (is_timing m))
           && (not (String.starts_with ~prefix:"gc." name))
           && value name warm_m <> value name first_m
        then fail "%s drift: %g vs %g" name (value name warm_m) (value name first_m))
      first_m
  end;
  List.iter
    (fun c ->
      if c.model_derived <> c.cache_derived then
        fail "planner split derived %d configs, cache %d" c.model_derived c.cache_derived)
    (if traced then warm :: tr else []);
  (* Jobs invariance: the library's own two-domain pool must reproduce
     the verdicts of the inline run (untimed, once per untraced run). *)
  if jobs_check then begin
    let r = Campaign.run ~jobs:2 spec in
    if Campaign.fingerprint r <> fp then
      fail "Campaign.run ~jobs:2 fingerprint %s, jobs 1 %s" (Campaign.fingerprint r) fp
  end;
  let attempted = List.fold_left (fun a c -> a + c.trials) 0 all in
  let failed =
    if !problems <> [] then attempted
    else
      List.fold_left (fun a c -> a + if c.problems <> [] then c.trials else c.errored) 0 all
  in
  List.iter (fun c -> List.iter (fun m -> prerr_endline ("check failed: " ^ m)) c.problems) all;
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) (List.rev !problems);
  let latency_samples = List.fold_left (fun a c -> a + Array.length c.latencies) 0 plain in
  Printf.printf "%s seed %d: %d rounds, fingerprint %s, %d trial-latency samples\n" w.name !seed
    (List.length rounds) fp latency_samples;
  Printf.printf "campaign walls (s):%s\n"
    (String.concat "" (List.map (fun c -> Printf.sprintf " %.3f" c.wall) plain));
  Printf.printf "campaign events:%s\n"
    (String.concat "" (List.map (fun c -> Printf.sprintf " %d" c.events) plain));
  Printf.printf "host factors:%s\n"
    (String.concat "" (List.map (fun c -> Printf.sprintf " %.3f" c.host) plain));
  let metrics =
    if not traced then end_to_end ~setup_s:(median !setups) ~peak_rss plain
    else begin
      write_spans (stem ^ ".spans.jsonl") tr;
      let tps cs = median (List.map (fun c -> float_of_int c.trials *. c.host /. c.wall) cs) in
      let layer = round_metrics ~first:(List.hd traced_metrics) traced_metrics in
      List.iter
        (fun (k, v, _) ->
          if String.starts_with ~prefix:"self_share." k then
            Printf.printf "  %-24s %6.2f%%\n" k (v *. 100.0))
        layer;
      (* A layer the workload does not exercise reads 0 here, and a
         ratio over an empty denominator reads 0 too (see DESIGN.md). *)
      Printf.printf "not exercised (0):%s\n"
        (String.concat ""
           (List.filter_map (fun (k, v, _) -> if v = 0.0 then Some (" " ^ k) else None) layer));
      layer
      @ [
          ("trace.trials_per_s", tps tr, "1/s");
          ("trace.overhead_frac", (tps plain /. tps tr) -. 1.0, "ratio");
        ]
    end
  in
  if Sys.file_exists file then Sys.remove file;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
