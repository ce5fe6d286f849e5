(* Distributed, resumable campaign orchestration: sharding, resume,
   combine, adaptive frontier search. See orchestrate.mli.

   The whole module trades on one property of the executor: a trial's
   verdict (and its serialized line) is a pure function of the campaign
   spec and the trial index. Sharding, resuming and combining therefore
   only ever *partition* or *reuse* work — they can cross-check every
   merge byte-for-byte, and the canonical artifact of a campaign is
   unique however its execution was sliced. *)

open Btr_util
module Obs = Btr_obs.Obs

(* ------------------------------------------------------------------ *)
(* Sharding                                                            *)

type shard = { index : int; count : int }

let unsharded = { index = 0; count = 1 }

let shard_to_string s = Printf.sprintf "%d/%d" s.index s.count

let valid_shard s = s.count >= 1 && s.index >= 0 && s.index < s.count

let shard_of_string str =
  let bad () = Error (Printf.sprintf "bad shard %S (want i/n with 0 <= i < n)" str) in
  match String.split_on_char '/' (String.trim str) with
  | [ i; n ] -> (
    match int_of_string_opt i, int_of_string_opt n with
    | Some index, Some count when valid_shard { index; count } -> Ok { index; count }
    | _ -> bad ())
  | _ -> bad ()

(* The stable rule. Hashing (seed, index) — never the schedule bytes —
   keeps the partition independent of generator changes within a seed
   and spreads neighbouring indices (which share a grid config) across
   shards, so every shard planning-caches roughly the same configs.
   One FNV-1a pass is not enough here: when inputs differ only in the
   trailing index digits, the hash is near-linear in that digit (the
   final multiplies only carry upward), so [mod 2] would alternate
   even/odd and glue every even grid config to shard 0. Hashing the
   hex rendering of the first pass runs every output bit back through
   sixteen mixing rounds and disperses the low bits properly. *)
let shard_of_trial ~seed ~count i =
  if count <= 1 then 0
  else
    Fnv.hash (Fnv.to_hex (Fnv.hash64 (Printf.sprintf "trial:%d:%d" seed i)))
    mod count

let shard_trials shard (spec : Campaign.spec) =
  List.filter
    (fun (t : Campaign.trial) ->
      shard_of_trial ~seed:spec.seed ~count:shard.count t.index = shard.index)
    (Campaign.compile spec)

(* ------------------------------------------------------------------ *)
(* Spec fingerprints                                                   *)

let spec_fingerprint (spec : Campaign.spec) =
  let trial_line (t : Campaign.trial) =
    Printf.sprintf "%d|%d|%s|%d|%s" t.index t.runtime_seed
      (Campaign.script_to_string t.script)
      t.horizon
      (Format.asprintf "%a" Campaign.pp_params t.params)
  in
  let header =
    Printf.sprintf "spec|seed=%d|trials=%d|shrink=%b|budget=%d|grid=%s" spec.seed
      spec.trials spec.shrink spec.shrink_budget
      (Campaign.grid_axes spec.grid)
  in
  Fnv.to_hex (Fnv.hash64_lines (header :: List.map trial_line (Campaign.compile spec)))

(* ------------------------------------------------------------------ *)
(* Artifact lines                                                      *)

let header_line ~seed ~trials ~configs ~shrink ~grid ~spec_fp shard =
  Json.to_string
    [
      ("campaign", Json.Int 2);
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
      ("configs", Json.Int configs);
      ("shrink", Json.Bool shrink);
      ("grid", Json.Str grid);
      ("spec_fp", Json.Str spec_fp);
      ("shard_index", Json.Int shard.index);
      ("shard_count", Json.Int shard.count);
    ]

let verdict_name_of_line line =
  match Json.parse line with Ok fields -> Json.get_str fields "verdict" | Error _ -> None

(* The summary's tallies are recomputed from the verdict lines so a
   resumed or combined artifact summarizes the merged whole, not just
   the freshly executed part. No cache_hits/cache_misses here: those
   depend on how execution was partitioned, and the summary must be
   byte-identical however the campaign was sliced. *)
let summary_line ~verdict_lines ~configs ~complete shard =
  let tally v =
    List.length (List.filter (fun l -> verdict_name_of_line l = Some v) verdict_lines)
  in
  Json.to_string
    [
      ("total", Json.Int (List.length verdict_lines));
      ("violations", Json.Int (tally "violation"));
      ("rejected", Json.Int (tally "rejected"));
      ("errors", Json.Int (tally "error"));
      ("configs", Json.Int configs);
      ("complete", Json.Bool complete);
      ("shard_index", Json.Int shard.index);
      ("shard_count", Json.Int shard.count);
      ("fingerprint", Json.Str (Fnv.to_hex (Fnv.hash64_lines verdict_lines)));
    ]

type artifact = {
  a_seed : int;
  a_trials : int;
  a_configs : int;
  a_shrink : bool;
  a_grid : string;
  a_spec_fp : string;
  a_shard : shard;
  a_complete : bool;
  a_fingerprint : string;
  a_verdicts : (int * string) list;
  a_violations : (int * string) list;
}

let parse_artifact lines =
  (* A torn final line (the writer was killed mid-write) is dropped;
     anything else malformed is an error. *)
  let lines =
    match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
    | last :: rest when Result.is_error (Json.parse last) -> List.rev rest
    | _ -> lines
  in
  let ( let* ) r k = match r with Error _ as e -> e | Ok v -> k v in
  let* objs = Json.parse_lines lines in
  let headers = List.filter (fun (_, f) -> Json.get_int f "campaign" <> None) objs in
  let summaries = List.filter (fun (_, f) -> Json.get_int f "total" <> None) objs in
  let* _, header =
    match headers with
    | [ h ] -> Ok h
    | [] -> Error "artifact has no header line"
    | _ -> Error "artifact has multiple header lines (concatenated shards? use combine)"
  in
  let* () =
    match Json.get_int header "campaign" with
    | Some 2 -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf
           "artifact version %d is not orchestrated (re-run campaign run to upgrade)" v)
    | None -> Error "artifact header has no version"
  in
  let* summary =
    match summaries with
    | [] -> Ok None
    | [ (_, s) ] -> Ok (Some s)
    | _ -> Error "artifact has multiple summary lines"
  in
  let req get name =
    match get header name with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "artifact header is missing %S" name)
  in
  let* a_seed = req Json.get_int "seed" in
  let* a_trials = req Json.get_int "trials" in
  let* a_configs = req Json.get_int "configs" in
  let* shard_index = req Json.get_int "shard_index" in
  let* shard_count = req Json.get_int "shard_count" in
  let a_shard = { index = shard_index; count = shard_count } in
  let* () =
    if valid_shard a_shard then Ok ()
    else Error (Printf.sprintf "artifact header has bad shard %s" (shard_to_string a_shard))
  in
  let* a_shrink = req Json.get_bool "shrink" in
  let* a_grid = req Json.get_str "grid" in
  let* a_spec_fp = req Json.get_str "spec_fp" in
  let keyed key =
    List.filter_map
      (fun (line, f) -> match Json.get_int f key with Some i -> Some (i, line) | None -> None)
      objs
  in
  let sort l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
  let a_verdicts = sort (keyed "trial") in
  let a_violations = sort (keyed "violation") in
  let* () =
    let rec dup = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then Some a else dup rest
      | _ -> None
    in
    match dup a_verdicts with
    | Some i -> Error (Printf.sprintf "artifact records trial %d twice" i)
    | None -> Ok ()
  in
  let a_complete =
    match summary with Some s -> Json.get_bool s "complete" = Some true | None -> false
  in
  let a_fingerprint =
    match summary with
    | Some s -> Option.value ~default:"" (Json.get_str s "fingerprint")
    | None -> ""
  in
  Ok
    {
      a_seed;
      a_trials;
      a_configs;
      a_shrink;
      a_grid;
      a_spec_fp;
      a_shard;
      a_complete;
      a_fingerprint;
      a_verdicts;
      a_violations;
    }

(* ------------------------------------------------------------------ *)
(* Orchestrated runs                                                   *)

type run_result = {
  lines : string list;
  total : int;
  executed : int;
  skipped : int;
  complete : bool;
  has_violations : bool;
  new_violations : Campaign.shrunk_violation list;
}

let rec take k = function
  | [] -> []
  | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

let count_to reg name v =
  Obs.Counter.add (Obs.Registry.counter reg Obs.Campaign name) v

let assemble ~(spec : Campaign.spec) ~configs ~spec_fp ~shard ~complete ~verdicts
    ~violations =
  let verdict_lines = List.map snd verdicts in
  let header =
    header_line ~seed:spec.seed ~trials:spec.trials ~configs ~shrink:spec.shrink
      ~grid:(Campaign.grid_axes spec.grid) ~spec_fp shard
  in
  let summary = summary_line ~verdict_lines ~configs ~complete shard in
  let has_violations =
    List.exists (fun l -> verdict_name_of_line l = Some "violation") verdict_lines
  in
  ((header :: verdict_lines) @ List.map snd violations @ [ summary ], has_violations)

let run ?obs ?jobs ?resume ?max_trials ~shard (spec : Campaign.spec) =
  let ( let* ) r k = match r with Error _ as e -> e | Ok v -> k v in
  let* () =
    if valid_shard shard then Ok ()
    else Error (Printf.sprintf "bad shard %s" (shard_to_string shard))
  in
  let* () = Campaign.validate_grid spec.grid in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let spec_fp = spec_fingerprint spec in
  let configs = List.length (Campaign.grid_params spec.grid) in
  let mine = shard_trials shard spec in
  let total = List.length mine in
  let reg = Obs.registry obs in
  Obs.Gauge.set (Obs.Registry.gauge reg Obs.Campaign "shard.index") shard.index;
  Obs.Gauge.set (Obs.Registry.gauge reg Obs.Campaign "shard.count") shard.count;
  count_to reg "shard.trials" total;
  if Obs.enabled obs then
    Obs.emit obs ~at:Time.zero Obs.Campaign
      (Obs.Campaign_sharded { shard = shard.index; shards = shard.count; trials = total });
  let* recorded_verdicts, recorded_violations =
    match resume with
    | None -> Ok ([], [])
    | Some (a : artifact) ->
      let* () =
        if a.a_shard <> shard then
          Error
            (Printf.sprintf "resume artifact is shard %s, this run is shard %s"
               (shard_to_string a.a_shard) (shard_to_string shard))
        else if a.a_seed <> spec.seed || a.a_trials <> spec.trials then
          Error
            (Printf.sprintf
               "resume artifact was seed %d / %d trials, this campaign is seed %d / %d \
                trials"
               a.a_seed a.a_trials spec.seed spec.trials)
        else if a.a_spec_fp <> spec_fp then
          Error
            (Printf.sprintf
               "resume artifact fingerprint %s does not match the compiled campaign %s \
                (different grid, shrink setting or generator?)"
               a.a_spec_fp spec_fp)
        else Ok ()
      in
      let* () =
        match
          List.find_opt
            (fun (i, _) ->
              not (List.exists (fun (t : Campaign.trial) -> t.index = i) mine))
            a.a_verdicts
        with
        | Some (i, _) ->
          Error
            (Printf.sprintf "resume artifact records trial %d, which is not in shard %s"
               i (shard_to_string shard))
        | None -> Ok ()
      in
      Ok (a.a_verdicts, a.a_violations)
  in
  let recorded i = List.mem_assoc i recorded_verdicts in
  let todo = List.filter (fun (t : Campaign.trial) -> not (recorded t.index)) mine in
  let skipped = total - List.length todo in
  count_to reg "resume.skipped" skipped;
  if Obs.enabled obs && resume <> None then
    Obs.emit obs ~at:Time.zero Obs.Campaign
      (Obs.Campaign_resumed { skipped; remaining = List.length todo });
  let todo = match max_trials with None -> todo | Some k -> take k todo in
  let executed = List.length todo in
  let result = Campaign.run_trials ~obs ?jobs spec todo in
  let new_verdicts =
    List.map
      (fun (v : Campaign.verdict) -> (v.trial.index, Campaign.verdict_json v))
      result.verdicts
  in
  let new_violation_lines =
    List.map
      (fun (s : Campaign.shrunk_violation) -> (s.source.index, Campaign.violation_json s))
      result.violations
  in
  let sort l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
  let verdicts = sort (recorded_verdicts @ new_verdicts) in
  let violations = sort (recorded_violations @ new_violation_lines) in
  let complete = skipped + executed = total in
  let lines, has_violations =
    assemble ~spec ~configs ~spec_fp ~shard ~complete ~verdicts ~violations
  in
  Ok
    {
      lines;
      total;
      executed;
      skipped;
      complete;
      has_violations;
      new_violations = result.violations;
    }

(* ------------------------------------------------------------------ *)
(* Combine                                                             *)

let combine inputs =
  let ( let* ) r k = match r with Error _ as e -> e | Ok v -> k v in
  let* () = if inputs = [] then Error "no artifacts to combine" else Ok () in
  let rec parse_each i = function
    | [] -> Ok []
    | lines :: rest -> (
      match parse_artifact lines with
      | Error m -> Error (Printf.sprintf "artifact %d: %s" i m)
      | Ok a ->
        let* others = parse_each (i + 1) rest in
        Ok (a :: others))
  in
  let* arts = parse_each 0 inputs in
  let first = List.hd arts in
  let* () =
    match
      List.find_opt
        (fun a ->
          a.a_seed <> first.a_seed || a.a_trials <> first.a_trials
          || a.a_configs <> first.a_configs || a.a_shrink <> first.a_shrink
          || a.a_grid <> first.a_grid || a.a_spec_fp <> first.a_spec_fp)
        arts
    with
    | Some a ->
      Error
        (Printf.sprintf
           "artifacts disagree: spec %s (seed %d, %d trials) vs spec %s (seed %d, %d \
            trials) — shards of different campaigns cannot be combined"
           first.a_spec_fp first.a_seed first.a_trials a.a_spec_fp a.a_seed a.a_trials)
    | None -> Ok ()
  in
  let n = List.length arts in
  let* () =
    match List.find_opt (fun a -> a.a_shard.count <> n) arts with
    | Some a ->
      Error
        (Printf.sprintf "shard %s combined with %d artifact(s): need all %d shards"
           (shard_to_string a.a_shard) n a.a_shard.count)
    | None -> Ok ()
  in
  let indices = List.sort Int.compare (List.map (fun a -> a.a_shard.index) arts) in
  let* () =
    if indices = List.init n Fun.id then Ok ()
    else Error "shard indices are not exactly 0..n-1 (duplicate or missing shard)"
  in
  let* () =
    match List.find_opt (fun a -> not a.a_complete) arts with
    | Some a ->
      Error
        (Printf.sprintf "shard %s is incomplete — resume it before combining"
           (shard_to_string a.a_shard))
    | None -> Ok ()
  in
  (* Every trial index: recorded exactly once, in range, on the shard
     the rule assigns it to. *)
  let* () =
    let rec check_art = function
      | [] -> Ok ()
      | a :: rest ->
        let rec check_verdicts = function
          | [] -> check_art rest
          | (i, _) :: more ->
            if i < 0 || i >= first.a_trials then
              Error (Printf.sprintf "trial %d is outside 0..%d" i (first.a_trials - 1))
            else if shard_of_trial ~seed:first.a_seed ~count:n i <> a.a_shard.index then
              Error
                (Printf.sprintf
                   "trial %d is recorded in shard %d but hashes to shard %d — artifact \
                    was not produced by the sharding rule"
                   i a.a_shard.index
                   (shard_of_trial ~seed:first.a_seed ~count:n i))
            else check_verdicts more
        in
        check_verdicts a.a_verdicts
    in
    check_art arts
  in
  let verdicts =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.concat_map (fun a -> a.a_verdicts) arts)
  in
  let* () =
    if List.length verdicts = first.a_trials then Ok ()
    else
      Error
        (Printf.sprintf "combined shards record %d verdicts for %d trials"
           (List.length verdicts) first.a_trials)
  in
  let violations =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (List.concat_map (fun a -> a.a_violations) arts)
  in
  let verdict_lines = List.map snd verdicts in
  let header =
    header_line ~seed:first.a_seed ~trials:first.a_trials ~configs:first.a_configs
      ~shrink:first.a_shrink ~grid:first.a_grid ~spec_fp:first.a_spec_fp unsharded
  in
  let summary =
    summary_line ~verdict_lines ~configs:first.a_configs ~complete:true unsharded
  in
  let has_violations =
    List.exists (fun l -> verdict_name_of_line l = Some "violation") verdict_lines
  in
  Ok ((header :: verdict_lines) @ List.map snd violations @ [ summary ], has_violations)

(* ------------------------------------------------------------------ *)
(* Adaptive frontier search                                            *)

type axis = Axis_r | Axis_f | Axis_bandwidth | Axis_strikes

let axis_name = function
  | Axis_r -> "r"
  | Axis_f -> "f"
  | Axis_bandwidth -> "bandwidth"
  | Axis_strikes -> "strikes"

let axis_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "r" | "r_us" -> Ok Axis_r
  | "f" -> Ok Axis_f
  | "bandwidth" | "bw" -> Ok Axis_bandwidth
  | "strikes" -> Ok Axis_strikes
  | _ -> Error (Printf.sprintf "unknown axis %S (want r, f, bandwidth or strikes)" s)

type frontier_spec = {
  slice_grid : Campaign.grid;
  axis : axis;
  lo : int;
  hi : int;
  tolerance : int;
  probes : int;
  fseed : int;
}

type boundary = { admit_at : int; violate_at : int }

type slice_result = {
  slice : int;
  base : Campaign.params;
  lo_admit : bool;
  hi_admit : bool;
  found : boundary option;
  evals : int;
  probes_run : int;
}

type frontier_result = {
  fspec : frontier_spec;
  points : int;
  slices : slice_result list;
  total_probes : int;
}

let params_at axis (p : Campaign.params) v =
  match axis with
  | Axis_r -> { p with Campaign.r = v }
  | Axis_f -> { p with Campaign.f = v }
  | Axis_bandwidth -> { p with Campaign.bandwidth_bps = v }
  | Axis_strikes -> p (* strikes is a runtime knob, not a params field *)

(* The slice grid with the bisected axis collapsed to [lo]: what
   [grid_params] enumerates is then exactly the config slices, each
   carrying a placeholder on the bisected axis that [params_at]
   overwrites per evaluation. *)
let slice_axes fs =
  let g = fs.slice_grid in
  match fs.axis with
  | Axis_r -> { g with Campaign.recovery_bounds = [ fs.lo ] }
  | Axis_f -> { g with Campaign.fault_bounds = [ fs.lo ] }
  | Axis_bandwidth -> { g with Campaign.bandwidths = [ fs.lo ] }
  | Axis_strikes -> g

let validate_frontier fs =
  let ( let* ) r k = match r with Error _ as e -> e | Ok () -> k () in
  let check ok msg = if ok then Ok () else Error msg in
  let* () = check (fs.tolerance >= 1) "tolerance must be >= 1" in
  let* () = check (fs.probes >= 1) "probes must be >= 1" in
  let* () = check (fs.lo < fs.hi) "lo must be < hi" in
  let* () =
    check (fs.hi - fs.lo >= fs.tolerance) "range narrower than the tolerance lattice"
  in
  let* () =
    match fs.axis with
    | Axis_r | Axis_bandwidth | Axis_strikes ->
      check (fs.lo >= 1) (Printf.sprintf "%s lo must be >= 1" (axis_name fs.axis))
    | Axis_f -> check (fs.lo >= 0) "f lo must be >= 0"
  in
  Campaign.validate_grid (slice_axes fs)

(* One lattice point of one slice: admit iff the configuration is
   statically admitted and every probe schedule passes. Short-circuits
   on the first non-pass, so the probe count is data-dependent (and
   reported). Pure in (fseed, slice params, axis value) — the property
   bisection relies on. *)
let eval_point ~cache fs (base : Campaign.params) v =
  let p = params_at fs.axis base v in
  let strikes = match fs.axis with Axis_strikes -> Some v | _ -> None in
  let pspec =
    Campaign.spec
      ~grid:{ (Campaign.point_grid p) with Campaign.classes = fs.slice_grid.Campaign.classes }
      ~trials:fs.probes ~seed:fs.fseed ~shrink:false ()
  in
  let rec probe j used =
    if j >= fs.probes then (true, used)
    else
      match Campaign.trial_of_index pspec j with
      | None -> (false, used)
      | Some t -> (
        let outcome =
          Campaign.run_script ?strikes ~cache t.Campaign.params
            ~runtime_seed:t.Campaign.runtime_seed t.Campaign.script
        in
        match outcome with
        | Campaign.Pass _ -> probe (j + 1) (used + 1)
        | Campaign.Violation _ | Campaign.Rejected _ | Campaign.Errored _ ->
          (false, used + 1))
  in
  probe 0 0

(* Shared driver: [search] maps an eval-at-lattice-index function and
   the lattice size to (lo_admit, hi_admit, boundary, evals, probes). *)
let run_frontier ?obs fs ~search =
  match validate_frontier fs with
  | Error _ as e -> e
  | Ok () ->
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let reg = Obs.registry obs in
    let points = ((fs.hi - fs.lo) / fs.tolerance) + 1 in
    let value_at k = fs.lo + (k * fs.tolerance) in
    let cache = Campaign.Cache.create ~seed:fs.fseed in
    let bases = Campaign.grid_params (slice_axes fs) in
    let slices =
      List.mapi
        (fun i base ->
          let eval_k k = eval_point ~cache fs base (value_at k) in
          let lo_admit, hi_admit, found, evals, probes_run = search eval_k points in
          let found =
            Option.map
              (fun (admit_k, violate_k) ->
                { admit_at = value_at admit_k; violate_at = value_at violate_k })
              found
          in
          count_to reg "frontier.probes" probes_run;
          count_to reg "frontier.evals" evals;
          count_to reg "frontier.slices" 1;
          if Obs.enabled obs then
            Obs.emit obs ~at:Time.zero Obs.Campaign
              (Obs.Frontier_located
                 {
                   slice = i;
                   axis = axis_name fs.axis;
                   boundary =
                     (match found with Some b -> b.admit_at | None -> -1);
                   probes = probes_run;
                 });
          { slice = i; base; lo_admit; hi_admit; found; evals; probes_run })
        bases
    in
    let total_probes = List.fold_left (fun a s -> a + s.probes_run) 0 slices in
    Ok { fspec = fs; points; slices; total_probes }

(* Lattice bisection: endpoints first; on disagreement, maintain the
   invariant verdict(lo_k) = verdict(0) and verdict(hi_k) = verdict(K)
   while halving, ending on the adjacent pair where the verdict flips —
   within one tolerance step, in 2 + ceil(log2 points) evaluations. *)
let bisect_search eval_k points =
  let a0, p0 = eval_k 0 in
  let aK, pK = eval_k (points - 1) in
  if a0 = aK then (a0, aK, None, 2, p0 + pK)
  else begin
    let lo_k = ref 0 and hi_k = ref (points - 1) in
    let evals = ref 2 and probes = ref (p0 + pK) in
    while !hi_k - !lo_k > 1 do
      let mid = (!lo_k + !hi_k) / 2 in
      let am, pm = eval_k mid in
      incr evals;
      probes := !probes + pm;
      if am = a0 then lo_k := mid else hi_k := mid
    done;
    let admit_k, violate_k = if a0 then (!lo_k, !hi_k) else (!hi_k, !lo_k) in
    (a0, aK, Some (admit_k, violate_k), !evals, !probes)
  end

(* The exhaustive reference: every lattice point, first flip wins. *)
let scan_search eval_k points =
  let verdicts = Array.init points (fun k -> eval_k k) in
  let evals = points in
  let probes = Array.fold_left (fun a (_, p) -> a + p) 0 verdicts in
  let a0 = fst verdicts.(0) in
  let aK = fst verdicts.(points - 1) in
  let rec first_flip k =
    if k >= points then None
    else if fst verdicts.(k) <> a0 then
      Some (if a0 then (k - 1, k) else (k, k - 1))
    else first_flip (k + 1)
  in
  (a0, aK, first_flip 1, evals, probes)

let frontier ?obs fs = run_frontier ?obs fs ~search:bisect_search
let grid_scan ?obs fs = run_frontier ?obs fs ~search:scan_search

(* ------------------------------------------------------------------ *)
(* Frontier artifacts                                                  *)

let frontier_lines fr =
  let fs = fr.fspec in
  let header =
    Json.to_string
      [
        ("frontier", Json.Int 1);
        ("seed", Json.Int fs.fseed);
        ("axis", Json.Str (axis_name fs.axis));
        ("lo", Json.Int fs.lo);
        ("hi", Json.Int (fs.lo + ((fr.points - 1) * fs.tolerance)));
        ("tolerance", Json.Int fs.tolerance);
        ("probes_per_point", Json.Int fs.probes);
        ("points", Json.Int fr.points);
        ("slices", Json.Int (List.length fr.slices));
        ("grid", Json.Str (Campaign.grid_axes (slice_axes fs)));
      ]
  in
  let slice_line s =
    Json.to_string
      ([ ("slice", Json.Int s.slice) ]
      @ Campaign.params_fields s.base
      @ [ ("lo_admit", Json.Bool s.lo_admit); ("hi_admit", Json.Bool s.hi_admit) ]
      @ (match s.found with
        | Some b -> [ ("admit_at", Json.Int b.admit_at); ("violate_at", Json.Int b.violate_at) ]
        | None -> [ ("no_boundary", Json.Bool true) ])
      @ [ ("evals", Json.Int s.evals); ("probes", Json.Int s.probes_run) ])
  in
  let slice_lines = List.map slice_line fr.slices in
  let summary =
    Json.to_string
      [
        ("slices", Json.Int (List.length fr.slices));
        ("boundaries", Json.Int (List.length (List.filter (fun s -> s.found <> None) fr.slices)));
        ("total_probes", Json.Int fr.total_probes);
        ("fingerprint", Json.Str (Fnv.to_hex (Fnv.hash64_lines slice_lines)));
      ]
  in
  (header :: slice_lines) @ [ summary ]

let is_frontier_artifact lines =
  match List.find_opt (fun l -> String.trim l <> "") lines with
  | None -> false
  | Some l -> (
    match Json.parse l with Ok f -> Json.get_int f "frontier" <> None | Error _ -> false)

let render_frontier lines =
  match Json.parse_lines lines with
  | Error _ as e -> e
  | Ok parsed -> (
    let objs = List.map snd parsed in
    match List.find_opt (fun f -> Json.get_int f "frontier" <> None) objs with
    | None -> Error "not a frontier artifact (no frontier header)"
    | Some header ->
      let axis = Option.value ~default:"?" (Json.get_str header "axis") in
      let slices = List.filter (fun f -> Json.get_int f "slice" <> None) objs in
      let summary = List.find_opt (fun f -> Json.get_int f "total_probes" <> None) objs in
      let show v = if axis = "r" then Time.to_string v else string_of_int v in
      let num f o k = match Json.get_int o k with Some v -> f v | None -> "?" in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf
           "frontier report: axis %s in [%s, %s] step %s, %s probes/point, %d slices%s\n"
           axis (num show header "lo") (num show header "hi") (num show header "tolerance")
           (num string_of_int header "probes_per_point")
           (List.length slices)
           (match summary with
           | Some s -> (
             match Json.get_int s "total_probes" with
             | Some p -> Printf.sprintf ", %d probes total" p
             | None -> "")
           | None -> ""));
      Buffer.add_char buf '\n';
      let table =
        Table.create ~title:"admit/violate boundary"
          ~header:[ "slice"; "configuration"; "boundary"; "evals"; "probes" ]
      in
      List.iter
        (fun o ->
          let istr k = num string_of_int o k in
          let sstr k = Option.value ~default:"?" (Json.get_str o k) in
          let axis_marked k name =
            if axis = name then "*" else istr k
          in
          let config =
            Printf.sprintf "%s/%s n=%s f=%s R=%s bw=%s %s share=%s" (sstr "workload")
              (sstr "topology") (istr "nodes") (axis_marked "f" "f")
              (if axis = "r" then "*" else num Time.to_string o "r_us")
              (axis_marked "bandwidth_bps" "bandwidth")
              (sstr "protect") (sstr "control_share")
          in
          let boundary =
            match Json.get_int o "admit_at", Json.get_int o "violate_at" with
            | Some a, Some v ->
              if a > v then Printf.sprintf "admit >= %s (violate <= %s)" (show a) (show v)
              else Printf.sprintf "admit <= %s (violate >= %s)" (show a) (show v)
            | _ -> (
              match Json.get_bool o "lo_admit" with
              | Some true -> "all admit"
              | Some false -> "all violate"
              | None -> "?")
          in
          Table.add_row table
            [ istr "slice"; config; boundary; istr "evals"; istr "probes" ])
        slices;
      Buffer.add_string buf (Table.render table);
      Ok (Buffer.contents buf))
