(* Benchmark regression gate.

   Two gated series:

   - Simulator micro-benchmarks: the latest BENCH_simulator.json snapshot
     (written by `bench/main.exe time` or `bench/main.exe service`) against
     bench/BASELINE_simulator.json, tolerance +30% (the noise floor of
     shared CI runners).

   - Loadgen latency percentiles: the latest BENCH_service.json snapshot
     carrying loadgen rows (written by `lowerbound loadgen`) against
     bench/BASELINE_service.json, tolerance +300% by default — socket
     round-trip percentiles vary far more across runner generations than
     in-process ns/op, and the gate is for catching order-of-magnitude
     regressions (a lost TCP_NODELAY, an accidental extra round trip per
     request), not 2x runner jitter.

   The comparison policy lives in Bench_gate (lib/observe), where the test
   suite pins it: only regressions fail; benchmarks missing from the
   current run, and newly added benchmarks with no baseline entry yet,
   warn — adding a benchmark must never break the gate before its baseline
   is committed.

   Usage:
     bench/check.exe [--baseline FILE] [--dir DIR] [--tolerance PCT]
                     [--service-baseline FILE] [--service-tolerance PCT]
                     [--service-only]

   Exit codes: 0 ok (or no baseline committed yet — the gate must not block
   the first run), 1 regression, 2 usage/missing-snapshot error. *)

open Lowerbound

type config = {
  baseline : string;
  dir : string;
  tolerance : float;
  service_baseline : string;
  service_tolerance : float;
  service_only : bool;
}

let default =
  {
    baseline = Filename.concat "bench" "BASELINE_simulator.json";
    dir = ".";
    tolerance = 0.30;
    service_baseline = Filename.concat "bench" "BASELINE_service.json";
    service_tolerance = 3.00;
    service_only = false;
  }

let parse_pct flag v =
  match float_of_string_opt v with
  | Some pct when pct > 0.0 -> pct /. 100.0
  | Some _ | None ->
    Format.printf "bad %s %S (positive percent expected)@." flag v;
    exit 2

let rec parse_args c = function
  | [] -> c
  | "--baseline" :: v :: rest -> parse_args { c with baseline = v } rest
  | "--dir" :: v :: rest -> parse_args { c with dir = v } rest
  | "--tolerance" :: v :: rest -> parse_args { c with tolerance = parse_pct "tolerance" v } rest
  | "--service-baseline" :: v :: rest -> parse_args { c with service_baseline = v } rest
  | "--service-tolerance" :: v :: rest ->
    parse_args { c with service_tolerance = parse_pct "service tolerance" v } rest
  | "--service-only" :: rest -> parse_args { c with service_only = true } rest
  | arg :: _ ->
    Format.printf "unknown argument %S@." arg;
    exit 2

let read_baseline path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match Json.parse raw with
  | Ok json -> Bench_gate.benchmarks_of_payload json
  | Error msg ->
    Format.printf "cannot parse %s: %s@." path msg;
    exit 2

(* Gate one series; [None] current means "nothing to compare" (the caller
   already printed why).  Returns true when the gate passed. *)
let gate ~label ~baseline_path ~tolerance ~current =
  match current with
  | None -> true
  | Some current ->
    let baseline = read_baseline baseline_path in
    Format.printf "== %s: ns_per_run vs %s (tolerance +%.0f%%)@." label baseline_path
      (tolerance *. 100.0);
    let verdict = Bench_gate.compare ~tolerance ~baseline ~current in
    Format.printf "%a" Bench_gate.pp verdict;
    if Bench_gate.ok verdict then begin
      Format.printf "%s gate OK (%d benchmarks within tolerance)@." label
        (List.length verdict.Bench_gate.compared);
      true
    end
    else begin
      let regressions =
        List.filter (fun c -> c.Bench_gate.regressed) verdict.Bench_gate.compared
      in
      Format.printf "%s gate FAILED: %d regression(s) beyond +%.0f%%@." label
        (List.length regressions) (tolerance *. 100.0);
      false
    end

let latest_payload snapshots =
  match snapshots with
  | [] -> None
  | _ ->
    let latest = List.nth snapshots (List.length snapshots - 1) in
    Json.member "data" latest

let simulator_current c =
  match Bench_out.read ~dir:c.dir ~suite:"simulator" () with
  | Ok (_ :: _ as snapshots) -> (
    match latest_payload snapshots with
    | Some payload -> Some (Bench_gate.benchmarks_of_payload payload)
    | None ->
      Format.printf "latest simulator snapshot has no data field@.";
      exit 2)
  | Ok [] ->
    Format.printf "no BENCH_simulator.json in %s — run `bench/main.exe time` first@." c.dir;
    exit 2
  | Error msg ->
    Format.printf "cannot read BENCH_simulator.json: %s@." msg;
    exit 2

(* The service suite interleaves loadgen snapshots with cold/warm-cache and
   chaos snapshots; the gated series is the newest snapshot that actually
   carries loadgen rows. *)
let is_loadgen_snapshot snap =
  match Json.member "data" snap with
  | None -> None
  | Some payload ->
    let rows = Bench_gate.benchmarks_of_payload payload in
    if
      List.exists
        (fun (name, _) -> String.length name >= 8 && String.sub name 0 8 = "loadgen/")
        rows
    then Some rows
    else None

let service_current c =
  match Bench_out.read ~dir:c.dir ~suite:"service" () with
  | Ok snapshots -> (
    match List.rev snapshots |> List.find_map is_loadgen_snapshot with
    | Some rows -> Some rows
    | None ->
      if c.service_only then begin
        Format.printf
          "no loadgen snapshot in BENCH_service.json — run `lowerbound loadgen` first@.";
        exit 2
      end
      else begin
        Format.printf "no loadgen snapshot in %s; skipping the loadgen gate@." c.dir;
        None
      end)
  | Error msg ->
    Format.printf "cannot read BENCH_service.json: %s@." msg;
    exit 2

let () =
  let c = parse_args default (List.tl (Array.to_list Sys.argv)) in
  let sim_ok =
    if c.service_only then true
    else if not (Sys.file_exists c.baseline) then begin
      Format.printf "no committed baseline at %s; skipping the regression gate@." c.baseline;
      true
    end
    else
      gate ~label:"simulator" ~baseline_path:c.baseline ~tolerance:c.tolerance
        ~current:(simulator_current c)
  in
  let service_ok =
    if not (Sys.file_exists c.service_baseline) then begin
      Format.printf "no committed baseline at %s; skipping the loadgen gate@."
        c.service_baseline;
      true
    end
    else
      gate ~label:"loadgen" ~baseline_path:c.service_baseline ~tolerance:c.service_tolerance
        ~current:(service_current c)
  in
  exit (if sim_ok && service_ok then 0 else 1)
