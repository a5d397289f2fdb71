(* Workload long-history: fetch&increment histories on adt-tree and herlihy
   at n = 2, at a short and a long per-process op count K, run through the
   simulator (Harness, one seeded random schedule per history) and the
   hardware backend (Hw_harness, one domain per process).  Every history is
   judged by Linearize.  Per-op host time growing with K is the Codec
   defect this workload exists to show. *)

open Lb_memory
open Lb_universal
open Lb_conformance
open Common
module H = Lb_hardware.Hw_harness

let n = 2
let k_short = 40
let k_long = 160
let max_states = 200_000
let fetch_inc = Option.get (Fuzz.find_type "fetch-inc")
let spec = fetch_inc.Fuzz.spec_of ~n
let constructions = [ Adt_tree.construction; Herlihy.construction ]

(* The paper's solo cost of one fetch&increment, pinned per construction. *)
let solo_cost (c : Iface.t) = if c.Iface.name = "adt-tree" then 17 else 8

type config = { c : Iface.t; k : int; ops : int -> Value.t list; sim_seed : int; hw_seed : int }

let configs ~seed =
  List.concat_map
    (fun (c : Iface.t) ->
      List.map
        (fun k ->
          let tag = Printf.sprintf "%s/%d" c.Iface.name k in
          {
            c;
            k;
            ops = (fun pid -> List.init k (fun idx -> fetch_inc.Fuzz.op_of ~n ~seed ~pid ~idx));
            sim_seed = derive seed ("sim/" ^ tag);
            hw_seed = derive seed ("hw/" ^ tag);
          })
        [ k_short; k_long ])
    constructions

(* What one history gave: host times, counts, and the judge's verdict. *)
type history = {
  cfg : config;
  hw : bool;
  exec_s : float;
  reference_s : float;  (** the reference time measured around [exec_s]. *)
  judge_s : float;
  verdict : Linearize.verdict;
  shared_ops : int;
  largest : int;
  steps : int;
  op_latencies_us : float list;  (** hardware only. *)
}

(* Judge a history and check its costs; returns the verdict and the time
   the judge took. *)
let judge r cfg ~hw ~completed ~max_cost check_history =
  let verdict, judge_s = time check_history in
  r.attempted <- r.attempted + 1;
  let name = Printf.sprintf "%s %s K=%d" (if hw then "hw" else "sim") cfg.c.Iface.name cfg.k in
  let bound = cfg.c.Iface.worst_case ~n in
  check r (name ^ ": every operation completed") completed;
  check r (Printf.sprintf "%s: max cost %d <= bound %d" name max_cost bound) (max_cost <= bound);
  (match verdict with
  | Linearize.Linearizable _ -> ()
  | Linearize.Budget_exhausted _ -> r.undecided <- r.undecided + 1
  | Linearize.Not_linearizable _ -> check r (name ^ ": linearizable") false);
  (verdict, judge_s)

let sim r cfg =
  let steps = ref 0 in
  let random = Lb_runtime.Scheduler.random ~seed:cfg.sim_seed in
  let scheduler ~step ~runnable =
    incr steps;
    random ~step ~runnable
  in
  let res, exec_s, rel =
    time_ref (fun () -> Harness.run ~construction:cfg.c ~spec ~n ~ops:cfg.ops ~scheduler ())
  in
  let verdict, judge_s =
    judge r cfg ~hw:false
      ~completed:(res.Harness.completed && res.Harness.failures = [])
      ~max_cost:res.Harness.max_cost
      (fun () -> Linearize.check ~max_states spec (History.of_result res))
  in
  {
    cfg;
    hw = false;
    exec_s;
    reference_s = exec_s /. rel;
    judge_s;
    verdict;
    shared_ops = res.Harness.total_shared_ops;
    largest = res.Harness.largest_register;
    steps = !steps;
    op_latencies_us = [];
  }

let hw r cfg =
  let res, exec_s, rel =
    time_ref (fun () -> H.run ~construction:cfg.c ~spec ~n ~ops:cfg.ops ~seed:cfg.hw_seed ())
  in
  let verdict, judge_s =
    judge r cfg ~hw:true
      ~completed:(res.H.failures = [] && List.length res.H.stats = n * cfg.k)
      ~max_cost:res.H.max_cost
      (fun () -> H.check ~max_states ~spec res)
  in
  {
    cfg;
    hw = true;
    exec_s;
    reference_s = exec_s /. rel;
    judge_s;
    verdict;
    shared_ops = res.H.total_shared_ops;
    largest = 0;
    steps = 0;
    op_latencies_us =
      List.map (fun (s : H.op_stat) -> 1e6 *. (s.H.responded_s -. s.H.invoked_s)) res.H.stats;
  }

let round r cfgs = List.concat_map (fun cfg -> [ sim r cfg; hw r cfg ]) cfgs

(* Solo runs (n = 1) on both backends: every operation costs exactly the
   pinned solo cost. *)
let check_solo r =
  let ops _ = List.init 4 (fun _ -> Value.Unit) in
  let spec = fetch_inc.Fuzz.spec_of ~n:1 in
  List.iter
    (fun (c : Iface.t) ->
      let sim = Harness.run ~construction:c ~spec ~n:1 ~ops () in
      let hw = H.run ~construction:c ~spec ~n:1 ~ops () in
      let costs =
        List.map (fun (s : Harness.op_stat) -> s.Harness.cost) sim.Harness.stats
        @ List.map (fun (s : H.op_stat) -> s.H.cost) hw.H.stats
      in
      r.attempted <- r.attempted + 1;
      check r
        (Printf.sprintf "%s: solo costs [%s] all = %d" c.Iface.name
           (String.concat "; " (List.map string_of_int costs))
           (solo_cost c))
        (List.length costs = 8 && List.for_all (( = ) (solo_cost c)) costs))
    constructions

let ops h = float_of_int (n * h.cfg.k)
let per_op_ms h = 1000.0 *. (h.exec_s +. h.judge_s) /. ops h

(* Executed and judged, in units of the reference time. *)
let per_op_ref h = (h.exec_s +. h.judge_s) /. h.reference_s /. ops h
let exec_per_op_ref h = h.exec_s /. h.reference_s /. ops h
let find hs ~hw (cfg : config) = List.find (fun h -> h.hw = hw && h.cfg == cfg) hs

let stats = function
  | Linearize.Linearizable { stats; _ }
  | Linearize.Not_linearizable { stats; _ }
  | Linearize.Budget_exhausted { stats; _ } ->
    stats

let run ~seed ~seconds ~trace r =
  let cfgs, setup_s =
    setup r (fun () ->
        let cfgs = configs ~seed in
        (* Warm-up: one short history of each construction. *)
        let scratch = report () in
        List.iter (fun cfg -> if cfg.k = k_short then ignore (sim scratch cfg)) cfgs;
        cfgs)
  in
  (* The hardware backend warms up once, outside the timed set-up: the
     start-up of its domains moves by about 30 % from run to run on a shared
     host, and timed, it made set-up time spread by a quarter between runs. *)
  List.iter (fun cfg -> if cfg.k = k_short then ignore (hw (report ()) cfg)) cfgs;
  let all =
    List.mapi
      (fun i x -> (trace && i mod 2 = 1, x))
      (rounds ~min:(if trace then 2 else 1) ~seconds (fun _ -> time (fun () -> round r cfgs)))
  in
  check_solo r;
  let untraced = List.filter_map (fun (t, x) -> if t then None else Some x) all in
  let traced = List.filter_map (fun (t, x) -> if t then Some x else None) all in
  let med f = median (List.map (fun (hs, _) -> f hs) untraced) in
  (* Per configuration and backend: the median over rounds of the host time
     per operation, executed and judged. *)
  List.iter
    (fun cfg ->
      List.iter
        (fun hw ->
          detail r
            (Printf.sprintf "item_ms.%s.%s.K%d" (if hw then "hw" else "sim") cfg.c.Iface.name cfg.k)
            (med (fun hs -> per_op_ms (find hs ~hw cfg)))
            "ms")
        [ false; true ])
    cfgs;
  (* The hardware backend's per-op times move by a third between runs of
     the same code (two domains on a shared host), so only the simulator's
     enter the gated metrics; the hardware ones are reported beside them. *)
  let sim_item f = geomean (List.map (fun cfg -> med (fun hs -> f (find hs ~hw:false cfg))) cfgs) in
  let growth_of (c : Iface.t) =
    let at k = List.find (fun cfg -> cfg.c == c && cfg.k = k) cfgs in
    med (fun hs ->
        exec_per_op_ref (find hs ~hw:false (at k_long))
        /. exec_per_op_ref (find hs ~hw:false (at k_short)))
  in
  let ops_of hw hs = sumi (List.map (fun h -> if h.hw = hw then n * h.cfg.k else 0) hs) in
  let exec_of hw hs = sum (List.map (fun h -> if h.hw = hw then h.exec_s else 0.0) hs) in
  let rate hw hs = float_of_int (ops_of hw hs) /. exec_of hw hs in
  detail r "certify_s" (median (List.map snd untraced)) "s";
  detail r "item_p50_ms" (sim_item per_op_ms) "ms";
  detail r "reference_ms" (reference_ms ()) "ms";
  detail r "sim_ops_per_s" (med (rate false)) "1/s";
  List.iter
    (fun c -> detail r ("sim_op_growth." ^ c.Iface.name) (growth_of c) "ratio")
    constructions;
  detail r "hw_ops_per_s" (med (rate true)) "1/s";
  detail r "hw_op_p50_us"
    (median (List.concat_map (fun (hs, _) -> List.concat_map (fun h -> h.op_latencies_us) hs) untraced))
    "us";
  detail r "peak_heap_mb" (peak_heap_mb ()) "MB";
  detail r "rounds" (float_of_int (List.length all)) "count";
  if not trace then
    [
      ("setup_s", setup_s, "s");
      ("item_p50_ref", sim_item per_op_ref, "ref");
      ("growth", geomean (List.map growth_of constructions), "ratio");
    ]
  else begin
    let tmed f = median (List.map (fun (hs, _) -> f hs) traced) in
    let hs0 = fst (List.hd traced) in
    let sims = List.filter (fun h -> not h.hw) hs0 in
    let checks =
      List.concat_map (fun (hs, _) -> List.map (fun h -> 1000.0 *. h.judge_s) hs) traced
    in
    let total f = float_of_int (sumi (List.map f hs0)) in
    let sim_total f = float_of_int (sumi (List.map f sims)) in
    let codec = Codec_probe.probe ~spec ~n ~k:k_long in
    Layers.(
      empty
      |> set "memory.apply_count" (sim_total (fun h -> h.shared_ops))
      |> set "memory.largest_value"
           (float_of_int (List.fold_left (fun m h -> max m h.largest) 0 sims))
      |> set "memory.ops_per_obj_op"
           (sim_total (fun h -> h.shared_ops) /. sim_total (fun h -> n * h.cfg.k))
      |> Codec_probe.set codec
      |> set "harness.execute_s" (tmed (exec_of false))
      |> set "harness.steps" (sim_total (fun h -> h.steps))
      |> set "harness.ns_per_step" (1e9 *. tmed (exec_of false) /. sim_total (fun h -> h.steps))
      |> set "hw_harness.run_s" (tmed (exec_of true))
      |> set "hw_memory.ops" (total (fun h -> if h.hw then h.shared_ops else 0))
      |> set "linearize.check_s" (tmed (fun hs -> sum (List.map (fun h -> h.judge_s) hs)))
      |> set "linearize.check_ms_p50" (median checks)
      |> set "linearize.check_ms_p99" (quantile 0.99 checks)
      |> set "linearize.states" (total (fun h -> (stats h.verdict).Linearize.states))
      |> set "linearize.memo_hits" (total (fun h -> (stats h.verdict).Linearize.memo_hits))
      |> set "trace.overhead_pct"
           (overhead_pct ~untraced:(List.map snd untraced) ~traced:(List.map snd traced) ())
      |> to_list)
  end
