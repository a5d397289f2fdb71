(* The per-layer metrics of a traced run, in the order BENCHMARK.json lists
   them.  A workload that bypasses a layer reports its metrics as 0. *)

let units =
  [
    ("memory.apply_count", "count");
    ("memory.largest_value", "count");
    ("memory.ops_per_obj_op", "count");
    ("codec.root_entries", "count");
    ("codec.root_decode_us", "us");
    ("codec.root_absorb_us", "us");
    ("codec.dset_union_us", "us");
    ("harness.execute_s", "s");
    ("harness.ns_per_step", "ns");
    ("harness.steps", "count");
    ("hw_harness.run_s", "s");
    ("hw_memory.ops", "count");
    ("sched_tree.self_s", "s");
    ("sched_tree.minor_words_per_schedule", "count");
    ("sched_tree.schedules", "count");
    ("sched_tree.elided", "count");
    ("sched_tree.max_depth", "count");
    ("conformance.assess_s", "s");
    ("linearize.check_s", "s");
    ("linearize.check_ms_p50", "ms");
    ("linearize.check_ms_p99", "ms");
    ("linearize.states", "count");
    ("linearize.memo_hits", "count");
    ("pure_memory.litmus_s", "s");
    ("litmus.runs", "count");
    ("executor.batch_us", "us");
    ("svc.wire_us", "us");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("trace.overhead_pct", "%");
  ]

type t = (string * float) list

let empty : t = []

let set name value (t : t) =
  if not (List.mem_assoc name units) then invalid_arg ("Layers.set: unknown metric " ^ name);
  (name, value) :: List.remove_assoc name t

let to_list (t : t) =
  List.map
    (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name t), unit))
    units
