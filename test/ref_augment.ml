(* Reference augmentation: the association-list formulation that
   Btr_planner.Augment's dense per-id tables replaced. It rebuilds the
   role and flow-origin lists from the original graph with the same id
   allocation, and answers every accessor by scanning them, as the
   list-based module did; [assignment_of] scans a plan's assignment
   list likewise. test_planner.ml requires the indexed accessors to
   agree with these on every id, known or not. *)

module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Augment = Btr_planner.Augment
module Planner = Btr_planner.Planner

type t = {
  roles : (Task.id * Augment.role) list;
  flow_origin : (int * (int * int)) list;  (* aug flow -> (orig flow, lane) *)
  flows : Graph.flow list;  (* the augmented flows, in graph order *)
}

let role_of t id =
  match List.assoc_opt id t.roles with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Augment.role_of: unknown task %d" id)

let orig_of t id =
  match role_of t id with
  | Augment.Original -> id
  | Augment.Replica { orig; _ } | Augment.Checker { orig } -> orig
  | Augment.Guard _ -> id

let lane_of t id =
  match role_of t id with
  | Augment.Replica { lane; _ } -> lane
  | Augment.Original | Augment.Checker _ | Augment.Guard _ -> 0

let replicas_of t orig =
  let lanes =
    List.filter_map
      (fun (id, role) ->
        match role with
        | Augment.Replica { orig = o; lane } when o = orig -> Some (lane, id)
        | Augment.Replica _ | Augment.Original | Augment.Checker _ | Augment.Guard _ ->
          None)
      t.roles
  in
  match lanes with
  | [] -> [ orig ]
  | _ -> List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) lanes)

let checker_of t orig =
  List.find_map
    (fun (id, role) ->
      match role with
      | Augment.Checker { orig = o } when o = orig -> Some id
      | Augment.Checker _ | Augment.Original | Augment.Replica _ | Augment.Guard _ ->
        None)
    t.roles

let checkers t =
  List.filter_map
    (fun (id, role) ->
      match role with
      | Augment.Checker _ -> Some id
      | Augment.Original | Augment.Replica _ | Augment.Guard _ -> None)
    t.roles

let guards t =
  List.filter_map
    (fun (id, role) ->
      match role with
      | Augment.Guard { node } -> Some (id, node)
      | Augment.Original | Augment.Replica _ | Augment.Checker _ -> None)
    t.roles

let is_protected t orig =
  match replicas_of t orig with [ single ] -> single <> orig | _ -> true

let orig_flow_of t fid = List.assoc_opt fid t.flow_origin

let is_checker t id =
  match List.assoc_opt id t.roles with Some (Augment.Checker _) -> true | _ -> false

let digest_flow_ids t =
  List.filter_map
    (fun (f : Graph.flow) -> if is_checker t f.consumer then Some f.flow_id else None)
    t.flows

let digest_flow_of t lane =
  List.find_map
    (fun (f : Graph.flow) ->
      if f.producer = lane && is_checker t f.consumer then Some f.flow_id else None)
    t.flows

let assignment_of (plan : Planner.plan) tid = List.assoc_opt tid plan.assignment

(* The list-building construction, id allocation included. *)
let augment g ~nodes ~degree ~protect_level =
  let next_task =
    ref (1 + List.fold_left (fun m (x : Task.t) -> Stdlib.max m x.id) 0 (Graph.tasks g))
  in
  let next_flow =
    ref
      (1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 (Graph.flows g))
  in
  let fresh r =
    let id = !r in
    incr r;
    id
  in
  let protect (x : Task.t) =
    x.kind = Task.Compute && Task.compare_criticality x.criticality protect_level >= 0
  in
  let lane_id : (Task.id * int, Task.id) Hashtbl.t = Hashtbl.create 64 in
  let roles = ref [] in
  List.iter
    (fun (x : Task.t) ->
      if protect x then
        for lane = 0 to degree - 1 do
          let id = if lane = 0 then x.id else fresh next_task in
          roles := (id, Augment.Replica { orig = x.id; lane }) :: !roles;
          Hashtbl.replace lane_id (x.id, lane) id
        done
      else begin
        roles := (x.id, Augment.Original) :: !roles;
        for lane = 0 to degree - 1 do
          Hashtbl.replace lane_id (x.id, lane) x.id
        done
      end)
    (Graph.tasks g);
  let flows = ref [] in
  let flow_origin = ref [] in
  let seen_pairs = Hashtbl.create 64 in
  List.iter
    (fun (f : Graph.flow) ->
      for lane = 0 to degree - 1 do
        let p = Hashtbl.find lane_id (f.producer, lane) in
        let c = Hashtbl.find lane_id (f.consumer, lane) in
        if not (Hashtbl.mem seen_pairs (p, c, f.flow_id)) then begin
          Hashtbl.replace seen_pairs (p, c, f.flow_id) ();
          let flow_id = if lane = 0 then f.flow_id else fresh next_flow in
          flows := { f with Graph.flow_id; producer = p; consumer = c } :: !flows;
          flow_origin := (flow_id, (f.flow_id, lane)) :: !flow_origin
        end
      done)
    (Graph.flows g);
  List.iter
    (fun (x : Task.t) ->
      if protect x then begin
        let cid = fresh next_task in
        roles := (cid, Augment.Checker { orig = x.id }) :: !roles;
        for lane = 0 to degree - 1 do
          let p = Hashtbl.find lane_id (x.id, lane) in
          (* Only endpoints and ids are compared; size is immaterial. *)
          flows :=
            { Graph.flow_id = fresh next_flow; producer = p; consumer = cid; msg_size = 1;
              deadline = None }
            :: !flows
        done
      end)
    (Graph.tasks g);
  List.iter
    (fun node -> roles := (fresh next_task, Augment.Guard { node }) :: !roles)
    nodes;
  { roles = List.rev !roles; flow_origin = List.rev !flow_origin; flows = List.rev !flows }

(* Largest task and flow id the reference knows, for probing ranges. *)
let max_task_id t = List.fold_left (fun m (id, _) -> Stdlib.max m id) 0 t.roles
let max_flow_id t = List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 t.flows
