(* End-to-end integration tests: a full BTR deployment on the simulator,
   one per Byzantine behaviour class, plus the headline properties —
   recovery within R, the k·R sequential-attack bound, convergence of
   all correct nodes, and determinism. *)

open Btr_util
module Fault = Btr_fault.Fault
module Planner = Btr_planner.Planner
module Topology = Btr_net.Topology

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let recovery_bound = Time.ms 200

let scenario ?(n = 6) ?(f = 1) ?(horizon = Time.sec 1) ?(seed = 1) script =
  Btr.Scenario.spec
    ~workload:(Btr_workload.Generators.avionics ~n_nodes:n)
    ~topology:
      (Topology.fully_connected ~n ~bandwidth_bps:10_000_000 ~latency:(Time.us 50))
    ~f ~recovery_bound ~script ~horizon ~seed ()

let run_ok s =
  match Btr.Scenario.run s with
  | Ok rt -> rt
  | Error e -> Alcotest.failf "scenario failed to plan: %a" Planner.pp_error e

let correct_nodes rt =
  let faulty =
    List.map (fun (_, n, _) -> n) (Btr.Metrics.injections (Btr.Runtime.metrics rt))
  in
  List.filter
    (fun n -> not (List.mem n faulty))
    (Topology.nodes (Planner.topology (Btr.Runtime.strategy rt)))

let test_fault_free () =
  let rt = run_ok (scenario []) in
  let m = Btr.Runtime.metrics rt in
  Alcotest.(check (float 1e-9)) "all outputs correct" 1.0 (Btr.Metrics.correct_fraction m);
  check_int "no incorrect time" 0 (Btr.Metrics.incorrect_time m);
  Alcotest.(check (float 1e-9)) "no deadline misses" 0.0 (Btr.Metrics.deadline_miss_fraction m);
  check_int "no mode changes" 0 (List.length (Btr.Runtime.mode_changes rt))

(* A behaviour that depends on the order of its inputs. Lanes, their
   checker's replay and the golden executor must all present inputs
   lowest original flow first, or correct lanes compute a different
   value than the reference and are accused of it. *)
let test_order_sensitive_behaviour () =
  let sum (i : Btr.Behavior.input) = Array.fold_left ( +. ) 0.0 i.value in
  (* Task 2 is the state estimator, fed by the pitot and IMU sensors. *)
  let a_minus_2b ~period:_ ~inputs =
    match inputs with [ a; b ] -> Some [| sum a -. (2.0 *. sum b) |] | _ -> None
  in
  let rt =
    run_ok
      (Btr.Scenario.spec
         ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
         ~topology:
           (Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
              ~latency:(Time.us 50))
         ~f:1 ~recovery_bound ~horizon:(Time.sec 1)
         ~behaviors:[ (2, a_minus_2b) ]
         ())
  in
  Alcotest.(check (float 1e-9))
    "all outputs correct" 1.0
    (Btr.Metrics.correct_fraction (Btr.Runtime.metrics rt));
  check_int "no mode changes" 0 (List.length (Btr.Runtime.mode_changes rt));
  check_int "no evidence" 0 (List.length (Btr.Runtime.evidence_seen rt 0))

(* One test per behaviour class: the fault is detected, all correct
   nodes converge on a mode excluding the faulty node, and protected
   outputs recover within R. *)
let behaviour_case name behavior ~expect_mode_change =
  let test () =
    let node = 3 in
    let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node behavior)) in
    let m = Btr.Runtime.metrics rt in
    if expect_mode_change then begin
      List.iter
        (fun c ->
          Alcotest.(check (list int))
            (Printf.sprintf "node %d converged on {%d}" c node)
            [ node ] (Btr.Runtime.node_mode rt c))
        (correct_nodes rt)
    end;
    List.iter
      (fun r ->
        check_bool
          (Printf.sprintf "%s: recovery %s within R" name (Time.to_string r))
          true
          (Time.compare r recovery_bound <= 0))
      (Btr.Metrics.recovery_times m)
  in
  (Printf.sprintf "%s fault: detected, recovered within R" name, `Quick, test)

let test_corruption_caught_by_replay () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)) in
  let records = Btr.Runtime.evidence_seen rt 0 in
  check_bool "some wrong-value evidence exists" true
    (List.exists
       (fun (r : Btr_evidence.Evidence.record) ->
         r.Btr_evidence.Evidence.statement.Btr_evidence.Evidence.fault_class
         = Btr_evidence.Evidence.Wrong_value)
       records)

let test_crash_attributed_via_paths () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Crash)) in
  let records = Btr.Runtime.evidence_seen rt 0 in
  check_bool "omission path declarations exist" true
    (List.exists
       (fun (r : Btr_evidence.Evidence.record) ->
         match r.Btr_evidence.Evidence.statement.Btr_evidence.Evidence.accused with
         | Btr_evidence.Evidence.Path (a, b) -> a = 3 || b = 3
         | Btr_evidence.Evidence.Node _ -> false)
       records)

let test_equivocation_caught () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Equivocate)) in
  let records = Btr.Runtime.evidence_seen rt 0 in
  check_bool "equivocation evidence exists" true
    (List.exists
       (fun (r : Btr_evidence.Evidence.record) ->
         r.Btr_evidence.Evidence.statement.Btr_evidence.Evidence.fault_class
         = Btr_evidence.Evidence.Equivocation)
       records)

let test_babbler_accused_of_forgery () =
  let rt =
    run_ok
      (scenario (Fault.single ~at:(Time.ms 250) ~node:3 (Fault.Babble { bogus_per_period = 4 })))
  in
  let records = Btr.Runtime.evidence_seen rt 0 in
  check_bool "forged-evidence accusation against the babbler" true
    (List.exists
       (fun (r : Btr_evidence.Evidence.record) ->
         let s = r.Btr_evidence.Evidence.statement in
         s.Btr_evidence.Evidence.fault_class = Btr_evidence.Evidence.Forged_evidence
         && s.Btr_evidence.Evidence.accused = Btr_evidence.Evidence.Node 3)
       records);
  (* The flood never delayed valid operation: outputs stayed correct. *)
  check_int "no incorrect output from babbling" 0
    (Btr.Metrics.incorrect_time (Btr.Runtime.metrics rt))

let test_no_false_attribution () =
  (* Under every behaviour, no CORRECT node ever lands in any correct
     node's fault set (threshold f+1 plus NACKs prevent framing). *)
  List.iter
    (fun behavior ->
      let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 behavior)) in
      List.iter
        (fun c ->
          List.iter
            (fun accused ->
              check_bool
                (Printf.sprintf "behaviour %s: node %d only attributes node 3"
                   (Fault.behavior_name behavior) c)
                true (accused = 3))
            (Btr.Runtime.node_fault_nodes rt c))
        (correct_nodes rt))
    [
      Fault.Crash;
      Fault.Omit_outputs;
      Fault.Corrupt_outputs;
      Fault.Equivocate;
      Fault.Delay_outputs (Time.ms 8);
      Fault.Babble { bogus_per_period = 4 };
    ]

let test_sequential_attack_kr_bound () =
  (* §3: an adversary controlling k nodes, triggering one fault every R,
     forces at most k·R of incorrect output. *)
  let f = 2 in
  let script =
    Fault.sequential_attack ~nodes:[ 3; 1 ] ~start:(Time.ms 200) ~gap:recovery_bound
      Fault.Corrupt_outputs
  in
  let rt = run_ok (scenario ~f ~horizon:(Time.sec 2) script) in
  let m = Btr.Runtime.metrics rt in
  let k = 2 in
  check_bool
    (Printf.sprintf "incorrect time %s <= k*R = %s"
       (Time.to_string (Btr.Metrics.incorrect_time m))
       (Time.to_string (Time.mul recovery_bound k)))
    true
    (Time.compare (Btr.Metrics.incorrect_time m) (Time.mul recovery_bound k) <= 0);
  List.iter
    (fun c ->
      Alcotest.(check (list int))
        "converged on both faults" [ 1; 3 ] (Btr.Runtime.node_mode rt c))
    (correct_nodes rt)

let test_two_simultaneous_faults () =
  let f = 2 in
  let script =
    Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs
    @ Fault.single ~at:(Time.ms 250) ~node:4 Fault.Crash
  in
  let rt = run_ok (scenario ~f ~horizon:(Time.sec 2) script) in
  List.iter
    (fun c ->
      Alcotest.(check (list int)) "mode covers both" [ 3; 4 ] (Btr.Runtime.node_mode rt c))
    (correct_nodes rt)

let test_determinism () =
  let run () =
    let rt = run_ok (scenario ~seed:7 (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Crash)) in
    let m = Btr.Runtime.metrics rt in
    ( Btr.Metrics.correct_fraction m,
      Btr.Metrics.incorrect_time m,
      Btr.Runtime.mode_changes rt,
      Btr.Metrics.recovery_times m )
  in
  check_bool "identical runs for identical seeds" true (run () = run ())

let test_evidence_flood_reaches_everyone () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)) in
  let keys node =
    List.sort_uniq String.compare
      (List.map Btr_evidence.Evidence.dedup_key (Btr.Runtime.evidence_seen rt node))
  in
  let reference = keys (List.hd (correct_nodes rt)) in
  check_bool "someone saw evidence" true (reference <> []);
  List.iter
    (fun c ->
      check_bool
        (Printf.sprintf "node %d saw the same evidence" c)
        true
        (keys c = reference))
    (correct_nodes rt)

let test_state_migration_happens () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node:3 Fault.Crash)) in
  check_bool "control class carried evidence and state" true
    (Btr.Runtime.control_bytes rt > 0)

let test_sink_lane_fallback () =
  (* Omission on a node hosting a primary lane: the sink should act on a
     backup lane's value in the same period — visible as lane > 0 use. *)
  let used_backup = ref false in
  List.iter
    (fun node ->
      let rt = run_ok (scenario (Fault.single ~at:(Time.ms 250) ~node Fault.Omit_outputs)) in
      let m = Btr.Runtime.metrics rt in
      List.iter
        (fun fl ->
          List.iter
            (fun (lane, _) -> if lane > 0 then used_backup := true)
            (Btr.Metrics.lanes_used m ~orig_flow:fl))
        (Btr.Metrics.protected_flows m))
    [ 0; 1; 2; 3; 4; 5 ];
  check_bool "some sink fell back to a backup lane" true !used_backup

let test_late_injection_has_no_effect_before () =
  let rt = run_ok (scenario (Fault.single ~at:(Time.ms 600) ~node:3 Fault.Corrupt_outputs)) in
  let m = Btr.Runtime.metrics rt in
  (* All periods before the injection are fully correct. *)
  let before = Time.ms 600 / Time.ms 20 in
  List.iter
    (fun fl ->
      List.iteri
        (fun p s ->
          if p < before then
            check_bool
              (Printf.sprintf "flow %d period %d clean before injection" fl p)
              true
              (s = Btr.Metrics.Correct || s = Btr.Metrics.Shed))
        (Btr.Metrics.timeline m ~orig_flow:fl))
    (Btr.Metrics.protected_flows m)

let test_lossy_links_with_strike_tolerance () =
  (* Residual loss breaks the paper's FEC assumption; with a 3-strike
     omission threshold, random losses never frame a correct node and a
     real crash is still caught. Since strike accounts are shared per
     sender and suspect-carrying paths drive eviction directly, the
     crash may be acted on (evicted into the mode) before any node
     crosses the attribution threshold — so "caught" is asserted on the
     mode, and "never framed" on both attribution and eviction. *)
  let config =
    { Btr.Runtime.default_config with residual_loss = 0.003; omission_strikes = 3 }
  in
  let s = scenario ~horizon:(Time.sec 2) (Fault.single ~at:(Time.ms 500) ~node:3 Fault.Crash) in
  (match Btr.Scenario.plan s with
  | Error e -> Alcotest.failf "plan: %a" Planner.pp_error e
  | Ok strategy ->
    let rt =
      Btr.Runtime.create ~config ~script:s.Btr.Scenario.script ~strategy ()
    in
    Btr.Runtime.run rt ~horizon:s.Btr.Scenario.horizon;
    List.iter
      (fun c ->
        List.iter
          (fun accused ->
            check_bool
              (Printf.sprintf "node %d attributes only the crashed node" c)
              true (accused = 3))
          (Btr.Runtime.node_fault_nodes rt c);
        List.iter
          (fun evicted ->
            check_bool
              (Printf.sprintf "node %d evicts only the crashed node" c)
              true (evicted = 3))
          (Btr.Runtime.node_mode rt c))
      (correct_nodes rt);
    check_bool "crash still caught under loss" true
      (List.exists
         (fun c -> List.mem 3 (Btr.Runtime.node_mode rt c))
         (correct_nodes rt)))

let test_scada_unprotected_consumers () =
  (* Regression: the SCADA trend/HMI chains are unprotected consumers of
     the replicated PLC; they receive one copy per lane and must treat
     those as ONE logical input (duplicates once diverged from golden). *)
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.scada ~n_nodes:6)
      ~topology:
        (Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 300) ~horizon:(Time.ms 1500)
      ~script:(Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)
      ()
  in
  let rt = run_ok s in
  let m = Btr.Runtime.metrics rt in
  check_bool "all outputs correct around a bounded blip" true
    (Btr.Metrics.correct_fraction m > 0.95);
  List.iter
    (fun r -> check_bool "bounded recovery" true (Time.compare r (Time.ms 300) <= 0))
    (Btr.Metrics.recovery_times m)

let test_dual_bus_topology () =
  (* The avionics-style shared-bus layout: every node on two redundant
     buses; reservations are per member, so bandwidth is scarcer. *)
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
      ~topology:
        (Topology.dual_bus ~n:6 ~bandwidth_bps:40_000_000 ~latency:(Time.us 20))
      ~f:1 ~recovery_bound ~horizon:(Time.sec 1)
      ~script:(Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)
      ()
  in
  let rt = run_ok s in
  let m = Btr.Runtime.metrics rt in
  check_bool "recovers on a shared bus" true
    (List.for_all
       (fun r -> Time.compare r recovery_bound <= 0)
       (Btr.Metrics.recovery_times m));
  List.iter
    (fun c ->
      Alcotest.(check (list int)) "converged" [ 3 ] (Btr.Runtime.node_mode rt c))
    (correct_nodes rt)

let test_ring_topology_with_byzantine_relay () =
  (* On a ring, traffic is relayed through intermediate nodes; a crashed
     node also stops relaying, so the system must both reroute and
     reconfigure. *)
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
      ~topology:(Topology.ring ~n:6 ~bandwidth_bps:40_000_000 ~latency:(Time.us 20))
      ~f:1 ~recovery_bound:(Time.ms 300) ~horizon:(Time.sec 1)
      ~script:(Fault.single ~at:(Time.ms 250) ~node:4 Fault.Crash)
      ()
  in
  match Btr.Scenario.run s with
  | Error _ ->
    (* A ring may legitimately be unschedulable for this workload; the
       planner saying so loudly is the correct behaviour. *)
    ()
  | Ok rt ->
    let m = Btr.Runtime.metrics rt in
    check_bool "bounded incorrectness on a ring" true
      (Time.compare (Btr.Metrics.incorrect_time m) (Time.ms 300) <= 0);
    check_bool "no correct node framed" true
      (List.for_all
         (fun c ->
           List.for_all (fun x -> x = 4) (Btr.Runtime.node_fault_nodes rt c))
         (correct_nodes rt))

let prop_recovery_within_r_random_faults =
  QCheck.Test.make
    ~name:"recovery <= R for a random single fault (node, class, time)" ~count:20
    QCheck.(triple (int_bound 5) (int_bound 3) (int_range 5 25))
    (fun (node, cls, inject_period) ->
      let behavior =
        List.nth
          [ Fault.Crash; Fault.Omit_outputs; Fault.Corrupt_outputs; Fault.Equivocate ]
          cls
      in
      let at = Time.mul (Time.ms 20) inject_period in
      let rt = run_ok (scenario (Fault.single ~at ~node behavior)) in
      List.for_all
        (fun r -> Time.compare r recovery_bound <= 0)
        (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt)))

let suite =
  [
    ("fault-free run is perfect", `Quick, test_fault_free);
    ("order-sensitive behaviour: lanes match golden and replay", `Quick,
      test_order_sensitive_behaviour);
    behaviour_case "crash" Fault.Crash ~expect_mode_change:true;
    behaviour_case "omission" Fault.Omit_outputs ~expect_mode_change:true;
    behaviour_case "corruption" Fault.Corrupt_outputs ~expect_mode_change:true;
    behaviour_case "equivocation" Fault.Equivocate ~expect_mode_change:true;
    behaviour_case "delay" (Fault.Delay_outputs (Time.ms 8)) ~expect_mode_change:false;
    ("replay produces wrong-value evidence", `Quick, test_corruption_caught_by_replay);
    ("crash attributed via path counting", `Quick, test_crash_attributed_via_paths);
    ("equivocation caught via consumer acks", `Quick, test_equivocation_caught);
    ("babbler accused of forgery, no damage", `Quick, test_babbler_accused_of_forgery);
    ("no correct node is ever falsely attributed", `Slow, test_no_false_attribution);
    ("sequential attack bounded by k*R", `Quick, test_sequential_attack_kr_bound);
    ("two simultaneous faults handled with f=2", `Quick, test_two_simultaneous_faults);
    ("runs are deterministic", `Quick, test_determinism);
    ("evidence reaches all correct nodes", `Quick, test_evidence_flood_reaches_everyone);
    ("control plane carries state and evidence", `Quick, test_state_migration_happens);
    ("sinks fall back to backup lanes", `Quick, test_sink_lane_fallback);
    ("clean before a late injection", `Quick, test_late_injection_has_no_effect_before);
    ("lossy links tolerated with strike threshold", `Quick, test_lossy_links_with_strike_tolerance);
    ("scada: unprotected consumers of replicated producers", `Quick, test_scada_unprotected_consumers);
    ("dual-bus topology", `Quick, test_dual_bus_topology);
    ("ring topology with a Byzantine relay", `Quick, test_ring_topology_with_byzantine_relay);
    QCheck_alcotest.to_alcotest prop_recovery_within_r_random_faults;
  ]
