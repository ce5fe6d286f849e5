open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type role =
  | Original
  | Replica of { orig : Task.id; lane : int }
  | Checker of { orig : Task.id }
  | Guard of { node : int }

(* Dense tables keyed by id, filled once by [augment]. Graph ids are
   non-negative ([Graph.create]); an id past a table's end or on an
   empty slot is unknown to the augmentation. *)
type index = {
  roles : role option array;  (* by augmented task id *)
  lanes : Task.id list option array;  (* by original task id, lane order *)
  checker : Task.id option array;  (* by original task id *)
  digest : int option array;  (* by lane task id: its digest flow *)
  flow_origin : (int * int) option array;  (* aug flow -> (orig flow, lane) *)
}

type t = { graph : Graph.t; original : Graph.t; degree : int; index : index }

let slot a i = if i >= 0 && i < Array.length a then a.(i) else None

let table size pairs =
  let a = Array.make size None in
  List.iter (fun (i, v) -> a.(i) <- Some v) pairs;
  a

let role_of t id =
  match slot t.index.roles id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Augment.role_of: unknown task %d" id)

let orig_of t id =
  match role_of t id with
  | Original -> id
  | Replica { orig; _ } | Checker { orig } -> orig
  | Guard _ -> id

let lane_of t id =
  match role_of t id with Replica { lane; _ } -> lane | Original | Checker _ | Guard _ -> 0

let replicas_of t orig =
  match slot t.index.lanes orig with Some ids -> ids | None -> [ orig ]

let checker_of t orig = slot t.index.checker orig

(* Checkers and guards take fresh ids as they are created, so id order
   is creation order. *)
let scan_roles t pick =
  let acc = ref [] in
  for id = Array.length t.index.roles - 1 downto 0 do
    match t.index.roles.(id) with
    | Some r -> ( match pick id r with Some x -> acc := x :: !acc | None -> ())
    | None -> ()
  done;
  !acc

let checkers t =
  scan_roles t (fun id -> function
    | Checker _ -> Some id | Original | Replica _ | Guard _ -> None)

let guards t =
  scan_roles t (fun id -> function
    | Guard { node } -> Some (id, node) | Original | Replica _ | Checker _ -> None)

let is_protected t orig =
  match replicas_of t orig with [ single ] -> single <> orig | _ -> true

let orig_flow_of t fid = slot t.index.flow_origin fid
let digest_flow_of t lane = slot t.index.digest lane

let digest_flow_ids t =
  List.filter_map
    (fun (f : Graph.flow) ->
      match role_of t f.consumer with
      | Checker _ -> Some f.flow_id
      | Original | Replica _ | Guard _ -> None)
    (Graph.flows t.graph)

let augment g ~nodes ~degree ~protect_level ~checker_overhead ~guard_wcet
    ~digest_size =
  if degree < 1 then invalid_arg "Augment.augment: degree < 1";
  (* Original ids lie below [originals]; fresh ids start there. *)
  let originals =
    1 + List.fold_left (fun m (x : Task.t) -> Stdlib.max m x.id) 0 (Graph.tasks g)
  in
  let next_task = ref originals in
  let next_flow =
    ref (1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 (Graph.flows g))
  in
  let fresh_task () =
    let id = !next_task in
    incr next_task;
    id
  in
  let fresh_flow () =
    let id = !next_flow in
    incr next_flow;
    id
  in
  let protect (x : Task.t) =
    x.kind = Task.Compute
    && Task.compare_criticality x.criticality protect_level >= 0
  in
  let roles = ref [] in
  let tasks = ref [] in
  let add_task x role =
    tasks := x :: !tasks;
    roles := (x.Task.id, role) :: !roles
  in
  let lanes = ref [] in
  List.iter
    (fun (x : Task.t) ->
      if protect x then begin
        let ids = ref [] in
        for lane = 0 to degree - 1 do
          let id = if lane = 0 then x.id else fresh_task () in
          let name = Printf.sprintf "%s#%d" x.name lane in
          add_task { x with Task.id; name } (Replica { orig = x.id; lane });
          ids := id :: !ids
        done;
        lanes := (x.id, List.rev !ids) :: !lanes
      end
      else add_task x Original)
    (Graph.tasks g);
  let lane_bound = !next_task in
  let lanes = table originals !lanes in
  (* Unprotected tasks are their own instance on every lane. *)
  let lane_id orig lane =
    match lanes.(orig) with Some ids -> List.nth ids lane | None -> orig
  in
  (* Flows: lane-wise wiring. A flow between two tasks becomes one flow
     per lane between the corresponding lane instances; where an
     endpoint is unreplicated all lanes share it, and duplicate edges
     (unreplicated -> unreplicated) collapse back to one flow. Sinks
     thus receive every lane's copy and can fall back to a backup lane
     within the same period. Lane 0 keeps the original flow id. *)
  let flows = ref [] in
  let flow_origin = ref [] in
  let seen_pairs = Hashtbl.create 64 in
  List.iter
    (fun (f : Graph.flow) ->
      List.iter
        (fun lane ->
          let p = lane_id f.producer lane in
          (* Sinks are unreplicated, so every lane's copy converges on
             the one sink task; other consumers stay lane-local. *)
          let c = lane_id f.consumer lane in
          if not (Hashtbl.mem seen_pairs (p, c, f.flow_id)) then begin
            Hashtbl.replace seen_pairs (p, c, f.flow_id) ();
            let flow_id = if lane = 0 then f.flow_id else fresh_flow () in
            flows := { f with Graph.flow_id; producer = p; consumer = c } :: !flows;
            flow_origin := (flow_id, (f.flow_id, lane)) :: !flow_origin
          end)
        (List.init degree Fun.id))
    (Graph.flows g);
  (* Checkers: one per protected task, fed a digest from every lane. *)
  let checker = ref [] and digest = ref [] in
  List.iter
    (fun (x : Task.t) ->
      if protect x then begin
        let cid = fresh_task () in
        add_task
          (Task.make ~id:cid
             ~name:(Printf.sprintf "check:%s" x.name)
             ~wcet:(Time.add x.wcet checker_overhead) ~criticality:x.criticality
             ())
          (Checker { orig = x.id });
        checker := (x.id, cid) :: !checker;
        for lane = 0 to degree - 1 do
          let p = lane_id x.id lane in
          let flow_id = fresh_flow () in
          digest := (p, flow_id) :: !digest;
          flows :=
            {
              Graph.flow_id;
              producer = p;
              consumer = cid;
              msg_size = digest_size;
              deadline = None;
            }
            :: !flows
        done
      end)
    (Graph.tasks g);
  (* Guards: per-node evidence-verification CPU reserve, pinned. *)
  List.iter
    (fun node ->
      let gid = fresh_task () in
      add_task
        (Task.make ~id:gid
           ~name:(Printf.sprintf "guard:n%d" node)
           ~wcet:guard_wcet ~criticality:Task.Safety_critical ~pinned:node ())
        (Guard { node }))
    nodes;
  let graph =
    Graph.create_relaxed ~period:(Graph.period g) ~tasks:(List.rev !tasks)
      ~flows:(List.rev !flows)
  in
  let index =
    {
      roles = table !next_task !roles;
      lanes;
      checker = table originals !checker;
      digest = table lane_bound !digest;
      flow_origin = table !next_flow !flow_origin;
    }
  in
  { graph; original = g; degree; index }
