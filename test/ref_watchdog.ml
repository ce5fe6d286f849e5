(* Reference watchdog: the full-table formulation Detect.Watchdog
   replaced, which sorts every expectation ever registered on each
   sweep. test_detect.ml runs random scripts against both and requires
   identical misses, late reports, accounts and counters. *)

open Btr_util
module Obs = Btr_obs.Obs
module Watchdog = Btr_detect.Detect.Watchdog

type expectation = { from_node : int; deadline : Time.t; mutable met : bool }

type t = {
  margin : Time.t;
  strikes : int;
  late_count : Obs.Counter.t;
  missing_count : Obs.Counter.t;
  reset_count : Obs.Counter.t;
  table : (int * int, expectation) Hashtbl.t;
  accounts : (int, int) Hashtbl.t;
}

let create ~margin ~strikes ~obs =
  let reg = Obs.registry obs in
  {
    margin;
    strikes;
    late_count = Obs.Registry.counter reg Obs.Detect "watchdog-late";
    missing_count = Obs.Registry.counter reg Obs.Detect "watchdog-missing";
    reset_count = Obs.Registry.counter reg Obs.Detect "strike-resets";
    table = Hashtbl.create 64;
    accounts = Hashtbl.create 16;
  }

let account t ~from_node = Option.value ~default:0 (Hashtbl.find_opt t.accounts from_node)

let expect t ~flow ~period ~from_node ~deadline =
  if not (Hashtbl.mem t.table (flow, period)) then
    Hashtbl.replace t.table (flow, period) { from_node; deadline; met = false }

let note_arrival t ~flow ~period ~at =
  match Hashtbl.find_opt t.table (flow, period) with
  | None -> None
  | Some e ->
    e.met <- true;
    let limit = Time.add e.deadline t.margin in
    if Time.compare at limit > 0 then begin
      let lateness = Time.sub at limit in
      Obs.Counter.incr t.late_count;
      Some { Watchdog.flow; period; from_node = e.from_node; lateness }
    end
    else begin
      if account t ~from_node:e.from_node > 0 then begin
        Hashtbl.replace t.accounts e.from_node 0;
        Obs.Counter.incr t.reset_count
      end;
      None
    end

let cmp_flow_period (f1, p1) (f2, p2) =
  match Int.compare f1 f2 with 0 -> Int.compare p1 p2 | c -> c

let sweep t ~now =
  let due =
    List.filter
      (fun ((_ : int * int), (e : expectation)) ->
        (not e.met) && Time.compare now (Time.add e.deadline t.margin) > 0)
      (Table.sorted_bindings ~cmp:cmp_flow_period t.table)
  in
  let bumped = Hashtbl.create 4 in
  List.iter
    (fun (_, (e : expectation)) ->
      if not (Hashtbl.mem bumped e.from_node) then begin
        Hashtbl.replace bumped e.from_node ();
        Hashtbl.replace t.accounts e.from_node (1 + account t ~from_node:e.from_node)
      end)
    due;
  List.map
    (fun ((flow, period), e) ->
      e.met <- true;
      let n = account t ~from_node:e.from_node in
      let declared = n >= t.strikes in
      if declared then Obs.Counter.incr t.missing_count;
      {
        Watchdog.miss_flow = flow;
        miss_period = period;
        miss_from = e.from_node;
        account = n;
        declared;
      })
    due

let pending t =
  Table.sorted_fold ~cmp:cmp_flow_period (fun _ e acc -> if e.met then acc else acc + 1) t.table 0
