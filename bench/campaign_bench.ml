(* Campaign throughput: trials/sec for increasing worker-domain counts,
   with the fingerprint cross-checked so the speedup claim never hides a
   determinism regression. Writes BENCH_campaign.json with --json. *)

open Btr_util
module Campaign = Btr_campaign.Campaign
module Orchestrate = Btr_campaign.Orchestrate

let grid =
  {
    Campaign.default_grid with
    Campaign.fault_bounds = [ 1; 2 ];
    control_shares = [ None; Some 0.02 ];
  }

let jobs_axis () =
  let recommended = Campaign.default_jobs () in
  List.sort_uniq Int.compare [ 1; 2; 4; recommended ]

(* btr-lint: allow wall-clock — benchmark timing is inherently
   wall-clock; simulated results stay deterministic. *)
let now () = Unix.gettimeofday ()

let run ?json_file () =
  let trials = 40 in
  let spec = Campaign.spec ~grid ~trials ~seed:42 ~shrink:false () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "CB  Campaign throughput (%d trials, %d configs, recommended domains = %d)"
           trials
           (List.length (Campaign.grid_params grid))
           (Domain.recommended_domain_count ()))
      ~header:[ "jobs"; "seconds"; "trials/sec"; "speedup"; "fingerprint" ]
  in
  (* Minor words are counted per domain, so only the jobs = 1 run, which
     executes every trial on this domain, yields words per trial. Unlike
     wall-clock, the count is deterministic for a given build: CI gates
     it against a committed ceiling. *)
  let words_per_trial = ref 0 in
  let rows =
    List.map
      (fun jobs ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let result = Campaign.run ~jobs spec in
        let dt = now () -. t0 in
        if jobs = 1 then
          words_per_trial :=
            int_of_float (((Gc.minor_words () -. w0) /. float_of_int trials) +. 0.5);
        (jobs, dt, Campaign.fingerprint result))
      (jobs_axis ())
  in
  let base =
    match rows with
    | (_, dt, _) :: _ -> dt
    | [] -> 1.0
  in
  let fingerprints = List.sort_uniq String.compare (List.map (fun (_, _, fp) -> fp) rows) in
  List.iter
    (fun (jobs, dt, fp) ->
      Table.add_row table
        [
          string_of_int jobs;
          Printf.sprintf "%.3f" dt;
          Printf.sprintf "%.1f" (float_of_int trials /. dt);
          Printf.sprintf "%.2fx" (base /. dt);
          fp;
        ])
    rows;
  Table.print table;
  Printf.printf "jobs=1 allocation: %d minor words/trial\n" !words_per_trial;
  (match fingerprints with
  | [ _ ] -> print_endline "fingerprints identical across worker counts: OK"
  | _ -> print_endline "FINGERPRINT MISMATCH ACROSS WORKER COUNTS");
  (* On a single-core host the speedup column cannot exceed 1x: the
     domains timeshare one CPU. The determinism cross-check is the part
     that must hold everywhere. *)
  (* Adaptive frontier vs exhaustive grid scan on a fixed R slice: both
     must locate the same boundary; the frontier's value is doing it in
     far fewer probe trials. *)
  let fspec =
    {
      Orchestrate.slice_grid = Campaign.default_grid;
      axis = Orchestrate.Axis_r;
      lo = Time.ms 50;
      hi = Time.ms 400;
      tolerance = Time.ms 10;
      probes = 2;
      fseed = 42;
    }
  in
  let timed search =
    let t0 = now () in
    match search fspec with
    | Error m -> failwith ("frontier bench: " ^ m)
    | Ok r -> (r, now () -. t0)
  in
  let fr, fr_dt = timed (fun fs -> Orchestrate.frontier fs) in
  let gr, gr_dt = timed (fun fs -> Orchestrate.grid_scan fs) in
  let boundary_match =
    List.length fr.Orchestrate.slices = List.length gr.Orchestrate.slices
    && List.for_all2
         (fun (a : Orchestrate.slice_result) (b : Orchestrate.slice_result) ->
           a.Orchestrate.found = b.Orchestrate.found)
         fr.Orchestrate.slices gr.Orchestrate.slices
  in
  let boundary_str (r : Orchestrate.frontier_result) =
    match r.Orchestrate.slices with
    | [ { Orchestrate.found = Some b; _ } ] ->
      Printf.sprintf "admit >= %s" (Time.to_string b.Orchestrate.admit_at)
    | _ -> "-"
  in
  let ftable =
    Table.create
      ~title:
        (Printf.sprintf "CB  Frontier vs grid (axis r, %s..%s, tol %s, %d probes/point)"
           (Time.to_string fspec.Orchestrate.lo)
           (Time.to_string fspec.Orchestrate.hi)
           (Time.to_string fspec.Orchestrate.tolerance)
           fspec.Orchestrate.probes)
      ~header:[ "method"; "trials"; "seconds"; "boundary" ]
  in
  Table.add_row ftable
    [
      "grid scan";
      string_of_int gr.Orchestrate.total_probes;
      Printf.sprintf "%.3f" gr_dt;
      boundary_str gr;
    ];
  Table.add_row ftable
    [
      "frontier";
      string_of_int fr.Orchestrate.total_probes;
      Printf.sprintf "%.3f" fr_dt;
      boundary_str fr;
    ];
  Table.print ftable;
  print_endline
    (if boundary_match then "frontier matches exhaustive boundary: OK"
     else "FRONTIER BOUNDARY MISMATCH");
  match json_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Printf.fprintf oc
      "{\"bench\":\"campaign\",\"trials\":%d,\"configs\":%d,\"cores\":%d,\"fingerprints_identical\":%b}\n"
      trials
      (List.length (Campaign.grid_params grid))
      (Domain.recommended_domain_count ())
      (match fingerprints with [ _ ] -> true | _ -> false);
    List.iter
      (fun (jobs, dt, fp) ->
        Printf.fprintf oc
          "{\"jobs\":%d,\"millis\":%d,\"trials_per_sec_x10\":%d,\"speedup_x100\":%d,\"fingerprint\":\"%s\"%s}\n"
          jobs
          (int_of_float ((dt *. 1000.0) +. 0.5))
          (int_of_float ((float_of_int trials /. dt *. 10.0) +. 0.5))
          (int_of_float ((base /. dt *. 100.0) +. 0.5))
          fp
          (if jobs = 1 then Printf.sprintf ",\"words_per_trial\":%d" !words_per_trial
           else ""))
      rows;
    Printf.fprintf oc
      "{\"bench\":\"frontier_vs_grid\",\"grid_trials\":%d,\"frontier_trials\":%d,\"boundary_match\":%b}\n"
      gr.Orchestrate.total_probes fr.Orchestrate.total_probes boundary_match;
    close_out oc;
    Printf.printf "wrote %s\n" file
