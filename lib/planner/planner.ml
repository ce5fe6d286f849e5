open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Schedule = Btr_sched.Schedule
module Topology = Btr_net.Topology
module Net = Btr_net.Net

type reassignment = Minimal | Naive

type config = {
  f : int;
  recovery_bound : Time.t;
  protect_level : Task.criticality;
  degree : int;
  checker_overhead : Time.t;
  guard_wcet : Time.t;
  digest_size : int;
  evidence_size : int;
  detection_margin : Time.t;
  reassignment : reassignment;
  shares : Net.shares option;
}

let default_config ~f ~recovery_bound =
  {
    f;
    recovery_bound;
    protect_level = Task.Medium;
    degree = f + 1;
    checker_overhead = Time.us 100;
    guard_wcet = Time.us 200;
    digest_size = 32;
    evidence_size = 160;
    detection_margin = Time.ms 1;
    reassignment = Minimal;
    shares = None;
  }

(* A total, deterministic serialization of a *resolved* config. Two
   configs with equal fields get equal keys even when they were produced
   by different [tune] closures, so caches of built strategies (the
   campaign plan cache) can key on this instead of physical equality. *)
let config_key c =
  let crit l = Format.asprintf "%a" Task.pp_criticality l in
  let shares =
    match c.shares with
    | None -> "default"
    | Some s -> Printf.sprintf "%.6f/%.6f" s.Net.data_frac s.Net.control_frac
  in
  Printf.sprintf
    "f=%d;R=%d;protect=%s;degree=%d;checker=%d;guard=%d;digest=%d;evidence=%d;margin=%d;reassign=%s;shares=%s"
    c.f c.recovery_bound (crit c.protect_level) c.degree c.checker_overhead
    c.guard_wcet c.digest_size c.evidence_size c.detection_margin
    (match c.reassignment with Minimal -> "minimal" | Naive -> "naive")
    shares

(* The requested R is the one config field planning never reads: it
   gates [admitted] and the verifier's budget checks, but plans,
   schedules and transitions are computed without it. Keying plan reuse
   on the R-stripped serialization is what lets an R-only edit (or a
   campaign R-grid neighbor) reuse every plan. *)
let config_build_key c = config_key { c with recovery_bound = Time.zero }

(* {2 Dependency fingerprints}

   FNV-1a over a total serialization of exactly what planning reads.
   Equal fingerprints mean equal inputs, and planning is deterministic,
   so equal fingerprints imply equal outputs — the soundness basis for
   [replan_delta]'s plan reuse and for [Btr_check.Incr]'s memo keys. *)

let fp_buf_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let fp_buf_str b s =
  Buffer.add_string b s;
  Buffer.add_char b ';'

let workload_fingerprint (g : Graph.t) =
  let b = Buffer.create 1024 in
  fp_buf_int b (Graph.period g);
  List.iter
    (fun (x : Task.t) ->
      fp_buf_int b x.id;
      fp_buf_str b x.name;
      fp_buf_str b
        (match x.kind with
        | Task.Source -> "src"
        | Task.Compute -> "comp"
        | Task.Sink -> "sink");
      fp_buf_int b x.wcet;
      fp_buf_int b (Task.criticality_rank x.criticality);
      fp_buf_int b x.state_size;
      fp_buf_int b (match x.pinned with None -> -1 | Some n -> n))
    (Graph.tasks g);
  Buffer.add_char b '|';
  List.iter
    (fun (fl : Graph.flow) ->
      fp_buf_int b fl.flow_id;
      fp_buf_int b fl.producer;
      fp_buf_int b fl.consumer;
      fp_buf_int b fl.msg_size;
      fp_buf_int b (match fl.deadline with None -> -1 | Some d -> d))
    (Graph.flows g);
  Fnv.hash64 (Buffer.contents b)

let topology_fingerprint topo =
  let b = Buffer.create 1024 in
  List.iter (fp_buf_int b) (Topology.nodes topo);
  Buffer.add_char b '|';
  List.iter
    (fun (l : Topology.link) ->
      fp_buf_int b l.link_id;
      List.iter (fp_buf_int b) l.members;
      Buffer.add_char b ':';
      fp_buf_int b l.bandwidth_bps;
      fp_buf_int b l.latency)
    (Topology.links topo);
  Fnv.hash64 (Buffer.contents b)

(* Per-mode fingerprint, chained through the parent mode: a mode's plan
   depends on the workload, topology, R-stripped config, its own fault
   pattern, and (under Minimal reassignment) the parent mode's plan —
   which the parent's fingerprint already covers inductively. *)
let mode_fp ~base ~parent_fp ~mode_key =
  Fnv.hash64_lines
    [
      Fnv.to_hex base;
      (match parent_fp with None -> "-" | Some h -> Fnv.to_hex h);
      mode_key;
    ]

type node_index = int option array (* by task id *)

type plan = {
  faulty : int list;
  aug : Augment.t;
  assignment : (Task.id * int) list;
  nodes : node_index;
  schedule : Schedule.t;
  shed_below : Task.criticality option;
  lost_tasks : Task.id list;
}

let make_plan ~faulty ~aug ~assignment ~schedule ~shed_below ~lost_tasks =
  let nodes =
    Array.make (1 + List.fold_left (fun m (tid, _) -> Stdlib.max m tid) (-1) assignment) None
  in
  (* One [Some node] per node, shared by the tasks placed there: plans
     stay cached for a campaign's lifetime. *)
  let boxes = Hashtbl.create 16 in
  let box node =
    match Hashtbl.find_opt boxes node with
    | Some b -> b
    | None ->
      let b = Some node in
      Hashtbl.replace boxes node b;
      b
  in
  List.iter
    (fun (tid, node) ->
      if tid < 0 then invalid_arg "Planner.make_plan: negative task id";
      (* First entry wins, as [List.assoc_opt] would read it. *)
      if nodes.(tid) = None then nodes.(tid) <- box node)
    assignment;
  { faulty; aug; assignment; nodes; schedule; shed_below; lost_tasks }

let assignment_of plan tid =
  if tid < 0 || tid >= Array.length plan.nodes then None else plan.nodes.(tid)

type transition = {
  from_faulty : int list;
  new_fault : int;
  to_faulty : int list;
  moved : (Task.id * int * int) list;
  started : Task.id list;
  stopped : Task.id list;
  state_bytes : int;
  migration_bound : Time.t;
  recovery_bound : Time.t;
}

type stats = {
  modes : int;
  transitions : int;
  planning_seconds : float;
  worst_recovery : Time.t;
  total_moved_state : int;
}

type t = {
  config : config;
  workload : Graph.t;
  topology : Topology.t;
  plans : (string, plan) Hashtbl.t;
  transitions : (string * int, transition) Hashtbl.t;
  mode_fps : (string, int64) Hashtbl.t;
      (* per-mode dependency fingerprint, keyed like [plans] *)
  stats : stats;
}

type delta = {
  reused_modes : int;
  replanned_modes : int;
  reused_transitions : int;
  rebuilt_transitions : int;
  churn_moved_tasks : int;
}

type error =
  | Unschedulable of { faulty : int list; reason : string }
  | Disconnected of { faulty : int list }
  | Bad_config of string
  | Rejected of { diagnostics : (string * string) list }

let pp_fault_set ppf fs =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int fs))

let pp_error ppf = function
  | Unschedulable { faulty; reason } ->
    Format.fprintf ppf "mode %a unschedulable: %s" pp_fault_set faulty reason
  | Disconnected { faulty } ->
    Format.fprintf ppf "mode %a disconnects the surviving nodes" pp_fault_set faulty
  | Bad_config msg -> Format.fprintf ppf "bad config: %s" msg
  | Rejected { diagnostics } ->
    Format.fprintf ppf "strategy rejected by static verification:";
    List.iter
      (fun (code, msg) -> Format.fprintf ppf "@\n  [%s] %s" code msg)
      diagnostics

let key faulty = String.concat "," (List.map string_of_int (List.sort_uniq Int.compare faulty))

let cmp_transition_key (k1, y1) (k2, y2) =
  match String.compare k1 k2 with 0 -> Int.compare y1 y2 | c -> c

let xfer_of cfg topo ~faulty ~cls ~src ~dst ~size_bytes =
  Net.plan_transfer_time topo ?shares:cfg.shares ~avoid:faulty ~cls ~src ~dst
    ~size_bytes ()

(* Every ≤ f sized subset of nodes, smallest first so parents precede
   children in Minimal mode. *)
let fault_patterns nodes f =
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.concat_map (fun k -> List.map (List.sort Int.compare) (subsets k nodes))
    (List.init (f + 1) Fun.id)

(* Greedy placement of the augmented graph onto the alive nodes. *)
let place_tasks cfg topo aug ~alive ~faulty ~parent =
  let g = aug.Augment.graph in
  (* Node per task id, filled in placement order. *)
  let placed =
    Array.make
      (1 + List.fold_left (fun m (x : Task.t) -> Stdlib.max m x.id) (-1) (Graph.tasks g))
      None
  in
  let busy : (int, Time.t) Hashtbl.t = Hashtbl.create 16 in
  let busy_of n = Option.value ~default:Time.zero (Hashtbl.find_opt busy n) in
  let lanes_on_node orig n =
    List.exists
      (fun l -> match placed.(l) with Some m -> m = n | None -> false)
      (Augment.replicas_of aug orig)
  in
  let parent_node tid =
    match parent with
    | Some p when cfg.reassignment = Minimal -> assignment_of p tid
    | _ -> None
  in
  (* Locality costs probe transfer time from every already-placed
     producer to every candidate node. One BFS sweep per producer host
     (cached for the whole placement) answers all those probes with the
     exact routes the pairwise [xfer_of] would have found. *)
  let shares =
    match cfg.shares with Some s -> s | None -> Net.default_shares_for topo
  in
  let usable n = not (List.mem n faulty) in
  let sweeps : (int, Topology.paths) Hashtbl.t = Hashtbl.create 16 in
  let xfer_data ~src ~dst ~size_bytes =
    let p =
      match Hashtbl.find_opt sweeps src with
      | Some p -> p
      | None ->
        let p = Topology.paths_from topo ~usable ~src in
        Hashtbl.replace sweeps src p;
        p
    in
    match Topology.path_to p ~dst with
    | None -> None
    | Some path ->
      Some (Net.path_transfer_time shares ~cls:Net.Data ~size_bytes path)
  in
  let locality_cost tid n =
    List.fold_left
      (fun acc (fl : Graph.flow) ->
        match placed.(fl.producer) with
        | None -> acc
        | Some pn ->
          if pn = n then acc
          else
            acc
            + Option.value ~default:1_000_000
                (xfer_data ~src:pn ~dst:n ~size_bytes:fl.msg_size))
      0 (Graph.producers_of g tid)
  in
  let cost tid n =
    let sep_penalty =
      match Augment.role_of aug tid with
      | Augment.Replica { orig; _ } ->
        (* Hard: two lanes of one task must not share a node. *)
        if lanes_on_node orig n then Some `Forbidden else None
      | Augment.Checker { orig } ->
        (* Soft but heavy: the checker should not sit with a lane it
           checks, or a faulty node could silence its own accuser. *)
        if lanes_on_node orig n then Some `Heavy else None
      | Augment.Original | Augment.Guard _ -> None
    in
    match sep_penalty with
    | Some `Forbidden -> None
    | pen ->
      Some
        (locality_cost tid n
        + (busy_of n / 2)
        + (if parent_node tid = Some n then -50_000 else 0)
        + (match pen with Some `Heavy -> 500_000 | _ -> 0))
  in
  let exception Stuck of Task.id in
  try
    List.iter
      (fun tid ->
        let task = Graph.task g tid in
        let node =
          match task.Task.pinned with
          | Some n -> if List.mem n alive then n else raise (Stuck tid)
          | None ->
            let best =
              List.fold_left
                (fun best n ->
                  match cost tid n with
                  | None -> best
                  | Some c -> (
                    match best with
                    | Some (_, bc) when bc <= c -> best
                    | _ -> Some (n, c)))
                None alive
            in
            (match best with Some (n, _) -> n | None -> raise (Stuck tid))
        in
        placed.(tid) <- Some node;
        Hashtbl.replace busy node (Time.add (busy_of node) task.Task.wcet))
      (Graph.topo_order g);
    let node tid = Option.get placed.(tid) in
    Ok (List.map (fun (x : Task.t) -> (x.id, node x.id)) (Graph.tasks g), node)
  with Stuck tid -> Error (Printf.sprintf "no feasible node for task %d" tid)

(* One mode: shed criticality levels from the bottom until schedulable. *)
let plan_mode cfg workload topo ~faulty ~parent =
  let alive =
    List.filter (fun n -> not (List.mem n faulty)) (Topology.nodes topo)
  in
  let lost_tasks =
    List.filter_map
      (fun (x : Task.t) ->
        match x.pinned with
        | Some n when List.mem n faulty -> Some x.id
        | _ -> None)
      (Graph.tasks workload)
  in
  let attempt floor =
    let keep (x : Task.t) =
      Task.compare_criticality x.criticality floor >= 0
      && not (List.mem x.id lost_tasks)
    in
    let kept = Graph.restrict workload ~keep in
    let aug =
      Augment.augment kept ~nodes:alive ~degree:cfg.degree
        ~protect_level:cfg.protect_level ~checker_overhead:cfg.checker_overhead
        ~guard_wcet:cfg.guard_wcet ~digest_size:cfg.digest_size
    in
    match place_tasks cfg topo aug ~alive ~faulty ~parent with
    | Error reason -> Error reason
    | Ok (assignment, place) ->
      let xfer ~src ~dst ~size_bytes =
        if src = dst then Some Time.zero
        else xfer_of cfg topo ~faulty ~cls:Net.Data ~src ~dst ~size_bytes
      in
      (match Schedule.list_schedule aug.Augment.graph ~place ~xfer with
      | Ok schedule ->
        Ok
          (make_plan ~faulty ~aug ~assignment ~schedule
             ~shed_below:(if floor = Task.Best_effort then None else Some floor)
             ~lost_tasks)
      | Error failure ->
        Error (Format.asprintf "%a" Schedule.pp_failure failure))
  in
  let rec try_floors last_err = function
    | [] ->
      Error
        (Unschedulable
           { faulty; reason = Option.value ~default:"no tasks left" last_err })
    | floor :: rest -> (
      match attempt floor with
      | Ok plan -> Ok plan
      | Error reason -> try_floors (Some reason) rest)
  in
  try_floors None Task.all_criticalities

(* Bounded evidence-distribution latency in the new mode: worst-case
   pairwise control-class transfer among surviving nodes. One
   cost-accumulating BFS per source replaces the per-pair route+fold —
   same routes, same per-pair sums, same max — taking the bound from
   O(n³) to O(n·memberships) per fault set. *)
let evidence_bound cfg topo ~faulty =
  let shares =
    match cfg.shares with Some s -> s | None -> Net.default_shares_for topo
  in
  let alive =
    List.filter (fun n -> not (List.mem n faulty)) (Topology.nodes topo)
  in
  let usable n = not (List.mem n faulty) in
  let link_cost =
    Net.link_transfer_time shares ~cls:Net.Control ~size_bytes:cfg.evidence_size
  in
  List.fold_left
    (fun acc a ->
      let costs = Topology.cost_from topo ~usable ~src:a ~link_cost in
      List.fold_left
        (fun acc b ->
          if a = b then acc
          else
            match Hashtbl.find_opt costs b with
            | Some d -> Time.max acc d
            | None -> acc)
        acc alive)
    Time.zero alive

let make_transition ?evb cfg topo ~from_plan ~to_plan ~new_fault =
  let faulty = to_plan.faulty in
  let moved =
    List.filter_map
      (fun (tid, to_node) ->
        match assignment_of from_plan tid with
        | Some from_node when from_node <> to_node -> Some (tid, from_node, to_node)
        | _ -> None)
      to_plan.assignment
  in
  let unassigned p (tid, _) = if assignment_of p tid = None then Some tid else None in
  let started = List.filter_map (unassigned from_plan) to_plan.assignment in
  let stopped = List.filter_map (unassigned to_plan) from_plan.assignment in
  let g = to_plan.aug.Augment.graph in
  let state_of tid =
    match Graph.task g tid with
    | x -> x.Task.state_size
    | exception Invalid_argument _ -> 0
  in
  (* State moves only from surviving nodes; a faulty node's state is
     lost and the task restarts fresh. Transfers from one sender
     serialize on its control reservation, so the bound is the largest
     per-sender total. *)
  let migrations =
    List.filter (fun (_, from_node, _) -> not (List.mem from_node faulty)) moved
  in
  let state_bytes = List.fold_left (fun acc (tid, _, _) -> acc + state_of tid) 0 migrations in
  let senders = List.sort_uniq Int.compare (List.map (fun (_, f, _) -> f) migrations) in
  let migration_bound =
    List.fold_left
      (fun acc sender ->
        let total =
          List.fold_left
            (fun acc (tid, from_node, to_node) ->
              if from_node <> sender then acc
              else
                match
                  xfer_of cfg topo ~faulty ~cls:Net.Control ~src:from_node
                    ~dst:to_node ~size_bytes:(Stdlib.max 1 (state_of tid))
                with
                | Some d -> Time.add acc d
                | None -> acc)
            Time.zero migrations
        in
        Time.max acc total)
      Time.zero senders
  in
  let period = Graph.period g in
  let evidence =
    match evb with
    | Some f -> f faulty
    | None -> evidence_bound cfg topo ~faulty
  in
  let recovery_bound =
    Time.add
      (Time.add (Time.add period cfg.detection_margin) evidence)
      (Time.add migration_bound period)
  in
  {
    from_faulty = from_plan.faulty;
    new_fault;
    to_faulty = faulty;
    moved;
    started;
    stopped;
    state_bytes;
    migration_bound;
    recovery_bound;
  }

(* Shared core of [build] and [replan_delta]. When [previous] is given,
   a mode whose dependency fingerprint is unchanged reuses the previous
   plan verbatim (skipping the connectivity check too: equal
   fingerprints mean the topology and fault pattern are the ones the
   previous — connected — build saw). A transition is reused when its
   destination mode is reused: the destination fingerprint chains
   through the source mode's, so both endpoint plans are unchanged and
   [make_transition] is deterministic in them. [evidence_cache]
   (keyed by [key faulty]) persists evidence bounds across calls; the
   caller must flush it whenever topology, shares or evidence size
   change — fingerprint reuse is unaffected either way, the cache only
   short-circuits recomputation for rebuilt transitions. *)
let build_with ?previous ?evidence_cache cfg workload topo =
  let n = Topology.node_count topo in
  if cfg.f < 0 then Error (Bad_config "f < 0")
  else if cfg.degree < 1 then Error (Bad_config "degree < 1")
  else if cfg.degree > n - cfg.f then
    Error
      (Bad_config
         (Printf.sprintf "degree %d > surviving nodes %d: lanes cannot be separated"
            cfg.degree (n - cfg.f)))
  else begin
    (* btr-lint: allow wall-clock — planning_seconds is wall-clock
       telemetry about the planner itself; it never enters a trace. *)
    let started_at = Sys.time () in
    let plans = Hashtbl.create 64 in
    let transitions = Hashtbl.create 64 in
    let mode_fps = Hashtbl.create 64 in
    let base =
      Fnv.hash64_lines
        [
          Fnv.to_hex (workload_fingerprint workload);
          Fnv.to_hex (topology_fingerprint topo);
          config_build_key cfg;
        ]
    in
    let evb_cache =
      match evidence_cache with Some h -> h | None -> Hashtbl.create 16
    in
    let evb faulty =
      let k = key faulty in
      match Hashtbl.find_opt evb_cache k with
      | Some v -> v
      | None ->
        let v = evidence_bound cfg topo ~faulty in
        Hashtbl.replace evb_cache k v;
        v
    in
    let prev_plan k = Option.bind previous (fun p -> Hashtbl.find_opt p.plans k) in
    let prev_fp k = Option.bind previous (fun p -> Hashtbl.find_opt p.mode_fps k) in
    let prev_transition tk =
      Option.bind previous (fun p -> Hashtbl.find_opt p.transitions tk)
    in
    let reused = ref 0 and replanned = ref 0 in
    let reused_tr = ref 0 and rebuilt_tr = ref 0 and churn = ref 0 in
    let exception Failed of error in
    try
      List.iter
        (fun faulty ->
          let k = key faulty in
          let parent_key =
            match List.rev faulty with
            | [] -> None
            | _ :: rest_rev -> Some (key (List.rev rest_rev))
          in
          let parent_fp =
            Option.bind parent_key (fun pk -> Hashtbl.find_opt mode_fps pk)
          in
          let fp = mode_fp ~base ~parent_fp ~mode_key:k in
          Hashtbl.replace mode_fps k fp;
          let mode_reused =
            match (prev_fp k, prev_plan k) with
            | Some old_fp, Some old_plan when Int64.equal old_fp fp ->
              incr reused;
              Hashtbl.replace plans k old_plan;
              true
            | _ -> false
          in
          let plan =
            if mode_reused then Hashtbl.find plans k
            else begin
              incr replanned;
              if not (Topology.connected_without topo faulty) then
                raise (Failed (Disconnected { faulty }));
              let parent =
                Option.bind parent_key (fun pk -> Hashtbl.find_opt plans pk)
              in
              match plan_mode cfg workload topo ~faulty ~parent with
              | Error e -> raise (Failed e)
              | Ok plan ->
                Hashtbl.replace plans k plan;
                (match prev_plan k with
                | Some old ->
                  churn :=
                    !churn
                    + List.length
                        (List.filter
                           (fun (tid, node) -> assignment_of old tid <> Some node)
                           plan.assignment)
                | None -> ());
                plan
            end
          in
          (* A transition into this mode exists from every parent. *)
          List.iter
            (fun y ->
              let from_faulty = List.filter (fun x -> x <> y) faulty in
              match Hashtbl.find_opt plans (key from_faulty) with
              | None -> ()
              | Some from_plan -> (
                let tk = (key from_faulty, y) in
                match (if mode_reused then prev_transition tk else None) with
                | Some tr ->
                  incr reused_tr;
                  Hashtbl.replace transitions tk tr
                | None ->
                  incr rebuilt_tr;
                  let tr =
                    make_transition ~evb cfg topo ~from_plan ~to_plan:plan
                      ~new_fault:y
                  in
                  Hashtbl.replace transitions tk tr))
            faulty)
        (fault_patterns (Topology.nodes topo) cfg.f);
      let worst_recovery =
        Table.sorted_fold ~cmp:cmp_transition_key
          (fun _ tr acc -> Time.max acc tr.recovery_bound)
          transitions Time.zero
      in
      let total_moved_state =
        Table.sorted_fold ~cmp:cmp_transition_key
          (fun _ tr acc -> acc + tr.state_bytes)
          transitions 0
      in
      Ok
        ( {
            config = cfg;
            workload;
            topology = topo;
            plans;
            transitions;
            mode_fps;
            stats =
              {
                modes = Hashtbl.length plans;
                transitions = Hashtbl.length transitions;
                (* btr-lint: allow wall-clock — planner self-telemetry *)
                planning_seconds = Sys.time () -. started_at;
                worst_recovery;
                total_moved_state;
              };
          },
          {
            reused_modes = !reused;
            replanned_modes = !replanned;
            reused_transitions = !reused_tr;
            rebuilt_transitions = !rebuilt_tr;
            churn_moved_tasks = !churn;
          } )
    with Failed e -> Error e
  end

let build ?evidence_cache cfg workload topo =
  Result.map fst (build_with ?evidence_cache cfg workload topo)

let replan_delta ?evidence_cache t cfg workload topo =
  build_with ~previous:t ?evidence_cache cfg workload topo

let with_recovery_bound t r =
  { t with config = { t.config with recovery_bound = r } }

let mode_fingerprint t ~faulty = Hashtbl.find_opt t.mode_fps (key faulty)

let config t = t.config
let workload t = t.workload
let topology t = t.topology
let stats t = t.stats
let plan_for t ~faulty = Hashtbl.find_opt t.plans (key faulty)

let initial_plan t =
  match plan_for t ~faulty:[] with
  | Some p -> p
  | None -> invalid_arg "Planner.initial_plan: strategy has no fault-free plan"

let transition_for t ~from_faulty ~new_fault =
  Hashtbl.find_opt t.transitions (key from_faulty, new_fault)

(* Sorted by mode key, so callers see plans and transitions in a
   stable order regardless of planning insertion history. *)
let all_plans t =
  List.rev (Table.sorted_fold ~cmp:String.compare (fun _ p acc -> p :: acc) t.plans [])

let all_transitions t =
  List.rev
    (Table.sorted_fold ~cmp:cmp_transition_key (fun _ tr acc -> tr :: acc)
       t.transitions [])

let admitted t =
  Time.compare t.stats.worst_recovery t.config.recovery_bound <= 0
