(* Workload queue-judge: seeded sampled schedules (Sched_tree.sampler) of
   queue and stack on herlihy and adt-tree, n = 4, at 4 and 8 operations
   per process, each executed and then judged by Fuzz.assess.  Queue and
   stack responses do not fix the linearization order, so Linearize
   dominates.  History seeds tile the integers: run seed s takes the
   conform histories (s-1)*per_config+1 .. s*per_config, none skipped.
   Seed 2 so holds history 187, whose adt-tree queue run exhausts the
   200 000-state checker budget; such verdicts count as undecided. *)

open Lb_universal
open Lb_conformance
open Common
module ST = Lb_check.Sched_tree

let n = 4
let ops_long = 8
let ops_short = 4
let per_config = 100
let max_states = 200_000
let plan = Lb_faults.Fault_plan.none

type config = { c : Iface.t; ot : Fuzz.object_type; ops : int }

let configs =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun t ->
          let ot = Option.get (Fuzz.find_type t) in
          [ { c; ot; ops = ops_short }; { c; ot; ops = ops_long } ])
        [ "queue"; "stack" ])
    [ Herlihy.construction; Adt_tree.construction ]

let seeds ~seed = List.init per_config (fun i -> ((seed - 1) * per_config) + i + 1)

type judged = {
  cfg : config;
  execute_s : float;
  assess_s : float;
  verdict : Fuzz.verdict;
  shared_ops : int;
  obj_ops : int;
  largest : int;
  steps : int;
  check_ms : float;  (** traced rounds only: the Linearize.check probe. *)
  states : int;
  memo_hits : int;
  reference_s : float;  (** the reference time measured just before. *)
}

(* One conform history: the seed fixes both the operations and the sampled
   schedule, as in [conform --schedules]. *)
let execute cfg ~history_seed ~steps =
  let sampler = Fuzz.tree_scheduler (ST.sampler ~seed:history_seed) in
  let scheduler ~step ~runnable =
    incr steps;
    sampler ~step ~runnable
  in
  Fuzz.execute ~construction:cfg.c ~ot:cfg.ot ~plan ~n ~ops:cfg.ops ~seed:history_seed ~scheduler ()

let judge r ~traced cfg history_seed =
  let reference_s = tick () in
  let steps = ref 0 in
  let (result, schedule), execute_s = time (fun () -> execute cfg ~history_seed ~steps) in
  let run, assess_s =
    time (fun () ->
        Fuzz.assess ~construction:cfg.c ~ot:cfg.ot ~plan ~n ~ops:cfg.ops ~max_states ~schedule result)
  in
  r.attempted <- r.attempted + 1;
  let name =
    Printf.sprintf "%s %s ops=%d seed %d" cfg.c.Iface.name cfg.ot.Fuzz.ot_name cfg.ops history_seed
  in
  (match run.Fuzz.verdict with
  | Fuzz.Pass -> ()
  | Fuzz.Fail (Fuzz.Check_budget _) -> r.undecided <- r.undecided + 1
  | v -> check r (Format.asprintf "%s: %a" name Fuzz.pp_verdict v) false);
  let check_ms, states, memo_hits =
    if not traced then (0.0, 0, 0)
    else
      let spec = cfg.ot.Fuzz.spec_of ~n in
      let v, dt = time (fun () -> Linearize.check ~max_states spec (History.of_result result)) in
      match v with
      | Linearize.Linearizable { stats; _ }
      | Linearize.Not_linearizable { stats; _ }
      | Linearize.Budget_exhausted { stats; _ } ->
        (1000.0 *. dt, stats.Linearize.states, stats.Linearize.memo_hits)
  in
  {
    cfg;
    execute_s;
    assess_s;
    verdict = run.Fuzz.verdict;
    shared_ops = result.Harness.total_shared_ops;
    obj_ops = List.length result.Harness.stats;
    largest = result.Harness.largest_register;
    steps = !steps;
    check_ms;
    states;
    memo_hits;
    reference_s;
  }

let round r ~traced ~seed =
  let t0 = now () in
  let js = List.concat_map (fun cfg -> List.map (judge r ~traced cfg) (seeds ~seed)) configs in
  (js, now () -. t0)

let verdict_s j = j.execute_s +. j.assess_s
let long js = List.filter (fun j -> j.cfg.ops = ops_long) js
let check_s j = j.check_ms /. 1000.0

let run ~seed ~seconds ~trace r =
  let (), setup_s =
    setup r (fun () ->
        (* Warm-up: one history of every configuration. *)
        let scratch = report () in
        List.iter (fun cfg -> ignore (judge scratch ~traced:false cfg 0)) configs)
  in
  let all =
    rounds ~min:(if trace then 2 else 1) ~seconds (fun i ->
        let traced = trace && i mod 2 = 1 in
        (traced, round r ~traced ~seed))
  in
  let untraced = List.filter_map (fun (t, x) -> if t then None else Some x) all in
  let traced = List.filter_map (fun (t, x) -> if t then Some x else None) all in
  let med f = median (List.map f untraced) in
  let round_sum f (js, _) = sum (List.map f js) in
  let verdicts_ms =
    List.concat_map (fun (js, _) -> List.map (fun j -> 1000.0 *. verdict_s j) (long js)) untraced
  in
  let judged = List.length (long (fst (List.hd untraced))) in
  detail r "judged_per_s" (float_of_int judged /. med (fun (js, _) -> sum (List.map verdict_s (long js)))) "1/s";
  detail r "verdict_p50_ms" (median verdicts_ms) "ms";
  detail r "verdict_p99_ms" (quantile 0.99 verdicts_ms) "ms";
  detail r "verdict_samples" (float_of_int (List.length verdicts_ms)) "count";
  detail r "execute_s" (med (round_sum (fun j -> j.execute_s))) "s";
  detail r "assess_s" (med (round_sum (fun j -> j.assess_s))) "s";
  detail r "rounds" (float_of_int (List.length all)) "count";
  detail r "peak_heap_mb" (peak_heap_mb ()) "MB";
  if not trace then begin
    (* Per configuration: the median verdict time (execute and assess). *)
    let cfg_median cfg f =
      median
        (List.concat_map
           (fun (js, _) -> List.filter_map (fun j -> if j.cfg == cfg then Some (f j) else None) js)
           untraced)
    in
    List.iter
      (fun cfg ->
        detail r
          (Printf.sprintf "verdict_p50_ms.%s.%s.ops%d" cfg.c.Iface.name cfg.ot.Fuzz.ot_name cfg.ops)
          (1000.0 *. cfg_median cfg verdict_s)
          "ms")
      configs;
    detail r "item_p50_ms" (1000.0 *. geomean (List.map (fun cfg -> cfg_median cfg verdict_s) configs)) "ms";
    detail r "reference_ms" (reference_ms ()) "ms";
    (* The same, in units of the reference time. *)
    let rel = List.map (fun cfg -> (cfg, cfg_median cfg (fun j -> verdict_s j /. j.reference_s))) configs in
    let growth_of (long_cfg, m) =
      let short = List.find (fun (c, _) -> c.c == long_cfg.c && c.ot == long_cfg.ot && c.ops = ops_short) rel in
      m /. snd short
    in
    [
      ("setup_s", setup_s, "s");
      ("item_p50_ref", geomean (List.map snd rel), "ref");
      ("growth", geomean (List.map growth_of (List.filter (fun (c, _) -> c.ops = ops_long) rel)), "ratio");
    ]
  end
  else begin
    let tmed f = median (List.map f traced) in
    let tjs, _ = List.hd traced in
    let tsum f = float_of_int (sumi (List.map f tjs)) in
    let checks = List.map (fun j -> j.check_ms) tjs in
    let fetch_inc = Option.get (Fuzz.find_type "fetch-inc") in
    let codec = Codec_probe.probe ~spec:(fetch_inc.Fuzz.spec_of ~n) ~n ~k:ops_long in
    let execute_s = round_sum (fun j -> j.execute_s) in
    Layers.(
      empty
      |> set "memory.apply_count" (tsum (fun j -> j.shared_ops))
      |> set "memory.largest_value" (float_of_int (List.fold_left (fun m j -> max m j.largest) 0 tjs))
      |> set "memory.ops_per_obj_op" (tsum (fun j -> j.shared_ops) /. tsum (fun j -> j.obj_ops))
      |> Codec_probe.set codec
      |> set "harness.execute_s" (tmed execute_s)
      |> set "harness.steps" (tsum (fun j -> j.steps))
      |> set "harness.ns_per_step" (1e9 *. tmed execute_s /. tsum (fun j -> j.steps))
      |> set "conformance.assess_s" (tmed (round_sum (fun j -> j.assess_s)))
      |> set "sched_tree.schedules" (float_of_int (List.length tjs))
      |> set "linearize.check_s" (tmed (round_sum check_s))
      |> set "linearize.check_ms_p50" (median checks)
      |> set "linearize.check_ms_p99" (quantile 0.99 checks)
      |> set "linearize.states" (tsum (fun j -> j.states))
      |> set "linearize.memo_hits" (tsum (fun j -> j.memo_hits))
      |> set "trace.overhead_pct"
           (overhead_pct ~untraced:(List.map snd untraced) ~traced:(List.map snd traced)
              ~probes:(List.map (round_sum check_s) traced)
              ())
      |> to_list)
  end
