(* Workload exhaustive: Exhaustive.certify_cell on fixed fetch&increment
   cells (ops = 1 per process, no faults, pre-emption bound 1) plus
   Litmus.check_all under SC, TSO and PSO.  The Sched_tree race pass does
   most of the work; histories of n operations keep Codec and Linearize
   small.  The cells' schedule counts are pinned: fetch&increment
   workloads do not depend on the seed, so every seed walks the same
   trees. *)

open Lb_universal
open Lb_conformance
open Common
module ST = Lb_check.Sched_tree
module Metrics = Lb_observe.Metrics
module MM = Lb_memory.Memory_model

let max_states = 200_000
let bounds = { ST.no_bounds with ST.preempt = Some 1 }
let fetch_inc = Option.get (Fuzz.find_type "fetch-inc")
let plan = Lb_faults.Fault_plan.none

type cell = {
  name : string;
  c : Iface.t;
  n : int;
  model : MM.t;
  pinned : int * int * int;  (** schedules, elided, max depth. *)
}

let cell name c n model pinned = { name; c; n; model; pinned }

(* The TSO cell must walk exactly the SC cell's tree. *)
let cells =
  [
    cell "herlihy-n4" Herlihy.construction 4 MM.SC (1896, 4186, 56);
    cell "herlihy-n4-tso" Herlihy.construction 4 MM.TSO (1896, 4186, 56);
    cell "adt-tree-n3" Adt_tree.construction 3 MM.SC (390, 565, 75);
    cell "herlihy-n3" Herlihy.construction 3 MM.SC (204, 316, 36);
  ]

(* The two n = 3 cells give [growth]: trace depth 75 against 36.  The
   smallest one is also the set-up walk. *)
let deep = List.nth cells 2
let small = List.nth cells 3

(* Walks of [deep] per round, each between two walks of [small]. *)
let pairs = 8

(* Outcome counts under SC, TSO and PSO for every catalog test. *)
let litmus_pinned =
  [
    ("SB", [ 3; 4; 4 ]);
    ("SB+fence", [ 3; 3; 3 ]);
    ("SB+rmw", [ 3; 3; 3 ]);
    ("MP", [ 3; 3; 4 ]);
    ("MP+fence", [ 3; 3; 3 ]);
    ("MP+rmw", [ 3; 3; 3 ]);
    ("LB", [ 3; 3; 3 ]);
    ("IRIW", [ 15; 15; 15 ]);
  ]

let check_stats r name (s : ST.stats) (schedules, elided, depth) =
  check r
    (Printf.sprintf "%s: %d schedules, %d elided, depth %d (pinned %d, %d, %d)" name
       s.ST.schedules s.ST.elided s.ST.max_depth schedules elided depth)
    (s.ST.schedules = schedules && s.ST.elided = elided && s.ST.max_depth = depth
   && s.ST.sleep_blocked = 0 && s.ST.deduped = 0)

let certify ~seed cell =
  Exhaustive.certify_cell ~construction:cell.c ~ot:fetch_inc ~plan_name:"none" ~plan
    ~model:cell.model ~n:cell.n ~ops:1 ~seed ~bounds ~max_states ()

(* Litmus.check_all runs per round, timed by their median. *)
let litmus_repeat = 9

let check_litmus r verdicts =
  r.attempted <- r.attempted + List.length verdicts;
  check r "litmus: every test ok" (Lb_check.Litmus.all_ok verdicts);
  check r "litmus: models pairwise distinguished"
    (Lb_check.Litmus.distinguishes_all_models verdicts);
  List.iter
    (fun (v : Lb_check.Litmus.verdict) ->
      let got = List.map (fun c -> c.Lb_check.Litmus.outcome_count) v.Lb_check.Litmus.cells in
      let name = v.Lb_check.Litmus.test.Lb_check.Litmus.name in
      check r
        (Printf.sprintf "litmus %s: outcome counts [%s] pinned" name
           (String.concat "; " (List.map string_of_int got)))
        (List.assoc_opt name litmus_pinned = Some got))
    verdicts

(* ---- the traced runner ----

   The same schedule runner Exhaustive.certify_cell drives (execute under
   the DPOR oracle, footprints from the tapped pending-operation filter,
   blocking steps from the harness boundary counters, commits deferred one
   decision), rebuilt from public functions so that time and allocation
   can be split at the explore / run / execute / assess boundaries.  Its
   stats must equal certify_cell's exactly. *)

type split = {
  mutable explore_s : float;
  mutable run_s : float;  (** inside the run callback. *)
  mutable oracle_s : float;  (** choose/commit calls made from inside run. *)
  mutable execute_s : float;
  mutable assess_s : float;
  mutable steps : int;
  mutable outside_words : float;  (** minor words allocated outside run. *)
  mutable check_ms : float list;  (** Linearize.check probe, per schedule. *)
  mutable probe_s : float;
  mutable states : int;
  mutable memo_hits : int;
  mutable shared_ops : int;
  mutable obj_ops : int;
  mutable largest : int;
  mutable stats : ST.stats list;
}

let split () =
  {
    explore_s = 0.0;
    run_s = 0.0;
    oracle_s = 0.0;
    execute_s = 0.0;
    assess_s = 0.0;
    steps = 0;
    outside_words = 0.0;
    check_ms = [];
    probe_s = 0.0;
    states = 0;
    memo_hits = 0;
    shared_ops = 0;
    obj_ops = 0;
    largest = 0;
    stats = [];
  }

let traced_cell sp ~seed cell =
  let n = cell.n in
  let reg = Metrics.current () in
  let boundary () =
    Metrics.counter_value reg "harness.ops_completed"
    + Metrics.counter_value reg "harness.ops_failed"
    + Metrics.counter_value reg "harness.restarts"
  in
  let spec = fetch_inc.Fuzz.spec_of ~n in
  let oracle f =
    let t0 = now () in
    let x = f () in
    sp.oracle_s <- sp.oracle_s +. (now () -. t0);
    x
  in
  let run sched =
    let t0 = now () and w0 = Gc.minor_words () in
    let pending_of = ref (fun (_ : int) -> None) in
    let wrap_hooks (h : Harness.fault_hooks) =
      {
        h with
        Harness.filter =
          (fun ~step ~pending ~runnable ->
            pending_of := pending;
            h.Harness.filter ~step ~pending ~runnable);
      }
    in
    let parked = ref None in
    let commit_parked () =
      match !parked with
      | None -> ()
      | Some (regs, before) ->
        parked := None;
        let blocking = boundary () <> before in
        ignore (oracle (fun () -> ST.commit sched ~fp:{ ST.regs; blocking } ~branches:1))
    in
    let scheduler ~step ~runnable =
      commit_parked ();
      match oracle (fun () -> ST.choose sched ~step ~enabled:runnable) with
      | None -> None
      | Some pid ->
        sp.steps <- sp.steps + 1;
        let regs =
          if pid >= n then [ (pid / n) - 1 ]
          else match !pending_of pid with Some inv -> ST.footprint inv | None -> []
        in
        parked := Some (regs, boundary ());
        Some pid
    in
    let (result, schedule), execute_s =
      time (fun () ->
          Fuzz.execute ~construction:cell.c ~ot:fetch_inc ~plan ~n ~ops:1 ~seed ~model:cell.model
            ~wrap_hooks ~scheduler ())
    in
    sp.execute_s <- sp.execute_s +. execute_s;
    commit_parked ();
    let out =
      if ST.interrupted sched then None
      else begin
        let judged, assess_s =
          time (fun () ->
              Fuzz.assess ~construction:cell.c ~ot:fetch_inc ~plan ~n ~ops:1 ~max_states ~schedule
                result)
        in
        sp.assess_s <- sp.assess_s +. assess_s;
        Some (judged, result)
      end
    in
    sp.run_s <- sp.run_s +. (now () -. t0);
    sp.outside_words <- sp.outside_words -. (Gc.minor_words () -. w0);
    out
  in
  (* Probe, from [f]: counts, and the judge's own Linearize call timed on
     its own.  Its time and allocation are taken out of the walk's. *)
  let probe_words = ref 0.0 in
  let probe (result : Harness.result) =
    let t0 = now () and w0 = Gc.minor_words () in
    sp.shared_ops <- sp.shared_ops + result.Harness.total_shared_ops;
    sp.obj_ops <- sp.obj_ops + List.length result.Harness.stats;
    sp.largest <- max sp.largest result.Harness.largest_register;
    (match Linearize.check ~max_states spec (History.of_result result) with
    | Linearize.Linearizable { stats; _ }
    | Linearize.Not_linearizable { stats; _ }
    | Linearize.Budget_exhausted { stats; _ } ->
      sp.states <- sp.states + stats.Linearize.states;
      sp.memo_hits <- sp.memo_hits + stats.Linearize.memo_hits);
    let dt = now () -. t0 in
    sp.check_ms <- (1000.0 *. dt) :: sp.check_ms;
    sp.probe_s <- sp.probe_s +. dt;
    probe_words := !probe_words +. (Gc.minor_words () -. w0)
  in
  let passed = ref true in
  let probe_s0 = sp.probe_s in
  let t0 = now () and w0 = Gc.minor_words () in
  let stats =
    ST.explore ~bounds ~max_schedules:200_000 ~run
      ~f:(fun ((judged : Fuzz.run), result) ->
        probe result;
        match judged.Fuzz.verdict with
        | Fuzz.Fail _ ->
          passed := false;
          false
        | Fuzz.Pass | Fuzz.Degraded _ -> true)
      ()
  in
  sp.explore_s <- sp.explore_s +. (now () -. t0) -. (sp.probe_s -. probe_s0);
  sp.outside_words <- sp.outside_words +. (Gc.minor_words () -. w0) -. !probe_words;
  sp.stats <- stats :: sp.stats;
  (stats, !passed)

let litmus_runs () =
  List.fold_left
    (fun acc (t : Lb_check.Litmus.t) ->
      List.fold_left
        (fun acc model ->
          let s =
            Lb_check.Explore.iter_dpor ~n:t.Lb_check.Litmus.n
              ~program_of:t.Lb_check.Litmus.program_of ~inits:t.Lb_check.Litmus.inits ~model
              ~f:(fun _ -> ())
              ()
          in
          acc + s.ST.schedules)
        acc MM.all)
    0 Lb_check.Litmus.catalog

(* ---- rounds ---- *)

(* Timings are medians over a round's walks, in seconds and in units of
   the reference time measured around each walk. *)
type round = {
  cell_s : (string * (float * float)) list;
  litmus_s : float * float;
  growth : float list;  (** per walk of [deep], see [round]. *)
  total_s : float;
  traced : split option;
}

let schedules_of cell =
  let schedules, _, _ = cell.pinned in
  schedules

let per_schedule cell dt = dt /. float_of_int (schedules_of cell)

(* One round: each n = 4 cell walked once by [walk]; then [small], and
   [pairs] times [deep] followed by [small]; then the litmus catalog checked
   [litmus_repeat] times.  A growth sample is a [deep] walk's time per
   schedule over that of the [small] walks on either side: a ratio of walks
   made within half a second, so the host's speed drifts little between
   them.  The n = 4 walks take seconds each, too long to bracket that way. *)
let round r ~walk ~traced =
  let t0 = now () in
  let timed f =
    let (), dt, rel = time_ref f in
    (dt, rel)
  in
  let one cell = timed (fun () -> walk cell) in
  let summary ts = (median (List.map fst ts), median (List.map snd ts)) in
  let big =
    List.filter_map (fun cell -> if cell.n = 4 then Some (cell.name, one cell) else None) cells
  in
  let first = one small in
  let walks = List.init pairs (fun _ -> (one deep, one small)) in
  let smalls = first :: List.map snd walks in
  let growth =
    List.mapi
      (fun i (d, after) ->
        let before = fst (List.nth smalls i) in
        per_schedule deep (fst d) /. per_schedule small ((before +. fst after) /. 2.0))
      walks
  in
  let cell_s = big @ [ (deep.name, summary (List.map fst walks)); (small.name, summary smalls) ] in
  let litmus_s =
    summary
      (List.init litmus_repeat (fun _ ->
           timed (fun () -> check_litmus r (Lb_check.Litmus.check_all ()))))
  in
  { cell_s; litmus_s; growth; total_s = now () -. t0; traced }

let untraced_round r ~seed =
  round r ~traced:None ~walk:(fun cell ->
      let cert = certify ~seed cell in
      r.attempted <- r.attempted + cert.Exhaustive.xc_stats.ST.schedules;
      check r (cell.name ^ ": CERTIFIED") (Exhaustive.cert_ok cert);
      check_stats r cell.name cert.Exhaustive.xc_stats cell.pinned)

let traced_round r ~seed =
  let sp = split () in
  round r ~traced:(Some sp) ~walk:(fun cell ->
      let stats, ok = traced_cell sp ~seed cell in
      r.attempted <- r.attempted + stats.ST.schedules;
      check r (cell.name ^ " (traced runner): every schedule passes") ok;
      check_stats r (cell.name ^ " (traced runner)") stats cell.pinned)

let run ~seed ~seconds ~trace r =
  let (), setup_s =
    setup r (fun () ->
        (* Warm-up: the smallest cell, walked and checked once. *)
        check_stats r "herlihy-n3 (set-up)" (certify ~seed small).Exhaustive.xc_stats small.pinned)
  in
  let all =
    rounds ~min:(if trace then 2 else 1) ~seconds (fun i ->
        if trace && i mod 2 = 1 then traced_round r ~seed else untraced_round r ~seed)
  in
  let untraced = List.filter (fun rd -> rd.traced = None) all in
  let cell_time name rd = fst (List.assoc name rd.cell_s) in
  (* One walk of every cell plus one litmus check. *)
  let certify_s =
    median
      (List.map
         (fun rd -> sum (List.map (fun (_, (s, _)) -> s) rd.cell_s) +. fst rd.litmus_s)
         untraced)
  in
  let schedules = sumi (List.map schedules_of cells) in
  detail r "certify_s" certify_s "s";
  detail r "schedules_per_s" (float_of_int schedules /. certify_s) "1/s";
  List.iter
    (fun cell ->
      detail r ("certify_s." ^ cell.name) (median (List.map (cell_time cell.name) untraced)) "s")
    cells;
  detail r "litmus_s" (median (List.map (fun rd -> fst rd.litmus_s) untraced)) "s";
  detail r "rounds" (float_of_int (List.length all)) "count";
  detail r "peak_heap_mb" (peak_heap_mb ()) "MB";
  if not trace then
    (* Per cell: the median over rounds of the walk time per schedule; the
       litmus catalog counts as one more cell, per (test, model) pair. *)
    let per_item pick =
      geomean
        (List.map
           (fun cell ->
             median (List.map (fun rd -> per_schedule cell (pick (List.assoc cell.name rd.cell_s))) untraced))
           cells
        @ [ median (List.map (fun rd -> pick rd.litmus_s /. 24.0) untraced) ])
    in
    detail r "item_p50_ms" (1000.0 *. per_item fst) "ms";
    detail r "reference_ms" (reference_ms ()) "ms";
    [
      ("setup_s", setup_s, "s");
      ("item_p50_ref", per_item snd, "ref");
      ("growth", median (List.concat_map (fun rd -> rd.growth) untraced), "ratio");
    ]
  else begin
    let traced = List.filter_map (fun rd -> Option.map (fun sp -> (rd, sp)) rd.traced) all in
    let med f = median (List.map f traced) in
    let sp0 = snd (List.hd traced) in
    let runs = litmus_runs () in
    let codec = Codec_probe.probe ~spec:(fetch_inc.Fuzz.spec_of ~n:4) ~n:4 ~k:1 in
    let sched_self sp = sp.explore_s -. sp.run_s +. sp.oracle_s in
    let harness_self sp = sp.execute_s -. sp.oracle_s in
    let walked f = float_of_int (sumi (List.map f sp0.stats)) in
    Layers.(
      empty
      |> set "memory.apply_count" (float_of_int sp0.shared_ops)
      |> set "memory.largest_value" (float_of_int sp0.largest)
      |> set "memory.ops_per_obj_op" (float_of_int sp0.shared_ops /. float_of_int sp0.obj_ops)
      |> Codec_probe.set codec
      |> set "harness.execute_s" (med (fun (_, sp) -> harness_self sp))
      |> set "harness.steps" (float_of_int sp0.steps)
      |> set "harness.ns_per_step"
           (med (fun (_, sp) -> 1e9 *. harness_self sp /. float_of_int sp.steps))
      |> set "conformance.assess_s" (med (fun (_, sp) -> sp.assess_s))
      |> set "sched_tree.self_s" (med (fun (_, sp) -> sched_self sp))
      |> set "sched_tree.minor_words_per_schedule"
           (sp0.outside_words /. walked (fun s -> s.ST.schedules))
      |> set "sched_tree.schedules" (walked (fun s -> s.ST.schedules))
      |> set "sched_tree.elided" (walked (fun s -> s.ST.elided))
      |> set "sched_tree.max_depth"
           (float_of_int (List.fold_left (fun m s -> max m s.ST.max_depth) 0 sp0.stats))
      |> set "linearize.check_s" (sum sp0.check_ms /. 1000.0)
      |> set "linearize.check_ms_p50" (median sp0.check_ms)
      |> set "linearize.check_ms_p99" (quantile 0.99 sp0.check_ms)
      |> set "linearize.states" (float_of_int sp0.states)
      |> set "linearize.memo_hits" (float_of_int sp0.memo_hits)
      |> set "pure_memory.litmus_s" (med (fun (rd, _) -> fst rd.litmus_s))
      |> set "litmus.runs" (float_of_int runs)
      |> set "trace.overhead_pct"
           (overhead_pct
              ~untraced:(List.map (fun rd -> rd.total_s) untraced)
              ~traced:(List.map (fun (rd, _) -> rd.total_s) traced)
              ~probes:(List.map (fun (_, sp) -> sp.probe_s) traced)
              ())
      |> to_list)
  end
