(* Fault injection: wait-freedom of the universal constructions under
   adversity, via the lb_faults plan/engine and the conformance judge
   ([Conformance.certify] over [Schedule_fuzz.assess]).

   A wait-free implementation guarantees that a process completes its
   operation in a bounded number of its own steps regardless of the other
   processes — including when they crash mid-operation, recover and retry,
   or suffer spurious SC failures (weak LL/SC).  Certification runs a
   workload under a declarative fault plan and returns a structured verdict
   instead of raising; these tests pin down the verdicts. *)

open Lowerbound

let certifiable = [ Adt_tree.construction; Herlihy.construction ]

let crash_plan ~crash_steps = Fault_plan.crash_stop ~pid:0 ~after:crash_steps

(* Construction certification is one round-robin run judged by
   [Schedule_fuzz.assess] (see [Conformance.certify]); per-pid accounting is
   read straight off the harness result. *)
let certify construction plan n = Conformance.certify ~construction ~plan ~n ~ops:1 ~seed:1

let certified (c : Conformance.certification) = c.Conformance.status <> Faults.Violated

let stats_of (c : Conformance.certification) pid =
  List.filter
    (fun (s : Harness.op_stat) -> s.Harness.pid = pid)
    c.Conformance.result.Harness.stats

let completed c pid = List.length (stats_of c pid)

let worst c pid =
  List.fold_left (fun acc (s : Harness.op_stat) -> max acc s.Harness.cost) 0 (stats_of c pid)

let fetch_inc = Option.get (Schedule_fuzz.find_type "fetch-inc")

let linearizable (c : Conformance.certification) =
  Linearize.is_linearizable
    (fetch_inc.Schedule_fuzz.spec_of ~n:c.Conformance.n)
    (Conf_history.of_result c.Conformance.result)

(* Spurious-injection counts live on the fault engine, not in a verdict:
   drive the fetch&inc workload through [Harness.run_handle] with the
   engine armed and hand the engine back. *)
let injections ?(ops = 1) ~seed (target : Iface.t) plan n =
  let engine = Fault_engine.instantiate ~seed plan in
  let layout = Layout.create () in
  let handle = target.Iface.create layout ~n (fetch_inc.Schedule_fuzz.spec_of ~n) in
  let memory = Memory.create () in
  Layout.install layout memory;
  Fault_engine.arm engine memory;
  let (_ : Harness.result) =
    Harness.run_handle ~memory ~handle ~n
      ~ops:(fun _ -> List.init ops (fun _ -> Value.Unit))
      ~hooks:(Fault_engine.hooks engine) ()
  in
  engine

let test_survivors_complete () =
  List.iter
    (fun (construction : Iface.t) ->
      List.iter
        (fun crash_steps ->
          List.iter
            (fun n ->
              let label =
                Printf.sprintf "%s n=%d crash@%d" construction.Iface.name n crash_steps
              in
              let c = certify construction (crash_plan ~crash_steps) n in
              Alcotest.(check bool) (label ^ ": certified") true (certified c);
              List.iter
                (fun pid ->
                  Alcotest.(check int) (Printf.sprintf "%s: p%d finished" label pid) 1
                    (completed c pid);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: p%d within bound" label pid)
                    true
                    (worst c pid <= construction.Iface.worst_case ~n))
                (List.init (n - 1) (fun i -> i + 1)))
            [ 3; 5; 8 ])
        [ 1; 2; 5; 9 ])
    certifiable

let test_crashed_op_helped_or_lost_atomically () =
  (* The crashed process's increment either took effect (a helper applied
     its announced descriptor) or it did not — never half.  The judge
     checks exactly this: the crashed pid's in-flight operation is a
     pending occurrence in the Wing–Gong history, which may be linearized
     or left out but nothing in between. *)
  List.iter
    (fun (construction : Iface.t) ->
      List.iter
        (fun crash_steps ->
          let c = certify construction (crash_plan ~crash_steps) 6 in
          let label = Printf.sprintf "%s crash@%d" construction.Iface.name crash_steps in
          Alcotest.(check bool) (label ^ ": linearizable with pending ops") true (linearizable c);
          Alcotest.(check bool) (label ^ ": certified") true (certified c))
        [ 1; 2; 3; 4; 6; 10 ])
    certifiable

let test_multiple_crashes () =
  (* Crash all but one process before their first step: the lone survivor
     still finishes solo, sees 0, and stays within its bound. *)
  List.iter
    (fun (construction : Iface.t) ->
      let n = 8 in
      let plan =
        Fault_plan.compose ~name:"crash-all-but-p7"
          (List.init 7 (fun pid -> Fault_plan.crash_stop ~pid ~after:0))
      in
      let c = certify construction plan n in
      Alcotest.(check bool) (construction.Iface.name ^ ": certified") true (certified c);
      match stats_of c 7 with
      | [ s ] ->
        Alcotest.(check int) (construction.Iface.name ^ ": survivor sees 0") 0
          (Value.to_int s.Harness.response);
        Alcotest.(check bool) (construction.Iface.name ^ ": within bound") true
          (s.Harness.cost <= construction.Iface.worst_case ~n)
      | _ -> Alcotest.failf "%s: survivor did not finish exactly once" construction.Iface.name)
    certifiable

let test_all_targets_certified_under_crash_stop () =
  (* The acceptance sweep: every certifiable target (including the direct
     retry loop) survives the named crash-stop plan at several sizes. *)
  List.iter
    (fun n ->
      let plan = Option.get (Fault_plan.of_name ~n "crash-stop") in
      List.iter
        (fun (target : Iface.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d certified under crash-stop" target.Iface.name n)
            true
            (certified (certify target plan n)))
        Fault_targets.all)
    [ 4; 8 ]

let test_crash_recovery_reinvokes () =
  (* Crash-recovery: p0 loses its volatile state mid-operation, comes back,
     and re-invokes the operation from scratch with the same descriptor.
     The dedup in the constructions makes this idempotent, so the run stays
     linearizable (the lost attempt is a ghost pending occurrence) and p0
     completes within the relaxed (2x) bound.  A restart is reported as a
     degradation, never a violation. *)
  List.iter
    (fun (construction : Iface.t) ->
      let n = 6 in
      let plan = Fault_plan.crash_recover ~pid:0 ~after:2 ~restart:(6 * n) in
      let c = certify construction plan n in
      let label = construction.Iface.name in
      Alcotest.(check bool) (label ^ ": certified") true (certified c);
      Alcotest.(check bool) (label ^ ": restarted") true
        (c.Conformance.result.Harness.restarts >= 1);
      Alcotest.(check int) (label ^ ": recovered p0 completed") 1 (completed c 0);
      Alcotest.(check bool) (label ^ ": recovered within relaxed bound") true
        (worst c 0 <= 2 * construction.Iface.worst_case ~n);
      Alcotest.(check bool) (label ^ ": linearizable") true (linearizable c))
    certifiable

let test_spurious_sc_surgical () =
  (* Solo run, direct target: the first would-be-successful SC is failed
     spuriously; the retry loop absorbs it at the cost of one extra LL/SC
     pair.  Deterministic — no rates involved. *)
  let plan = Fault_plan.spurious_sc_at ~pid:0 ~at:[ 1 ] in
  let c = certify Fault_targets.direct plan 1 in
  Alcotest.(check int) "p0 completed" 1 (completed c 0);
  Alcotest.(check int) "one retry: LL SC LL SC" 4 (worst c 0);
  Alcotest.(check bool) "still certified" true (certified c);
  let engine = injections ~seed:1 Fault_targets.direct plan 1 in
  Alcotest.(check int) "exactly one injection" 1 (Fault_engine.spurious_injected engine);
  Alcotest.(check int) "injection attributed to p0" 1 (Fault_engine.spurious_of engine ~pid:0)

let test_spurious_sc_exhausts_retry () =
  (* Rate 1.0: every would-be-successful SC fails, so the bounded retry
     loops exhaust and give up.  Certification reports the give-ups
     (graceful degradation) instead of crashing: DEGRADED, not VIOLATED. *)
  let n = 4 in
  let plan = Fault_plan.spurious_sc_rate 1.0 in
  let c = certify Fault_targets.direct plan n in
  let failures = c.Conformance.result.Harness.failures in
  Alcotest.(check bool) "some operations gave up" true (failures <> []);
  List.iter
    (fun (f : Harness.op_failure) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "failure reason mentions the give-up" true
        (contains f.Harness.reason "gave up"))
    failures;
  Alcotest.(check bool) "degraded, not violated" true (c.Conformance.status = Faults.Degraded);
  Alcotest.(check bool) "still certified (reported gracefully)" true (certified c);
  (* Give-ups still cost shared ops: they count toward t(R). *)
  List.iter
    (fun (f : Harness.op_failure) ->
      Alcotest.(check bool) "give-up cost accounted" true (f.Harness.cost > 0))
    failures

let test_delay_and_stall_windows () =
  (* Bounded adversarial windows (starved process, stalled memory region)
     delay completion but cannot break wait-freedom: once the window
     expires everyone finishes, certified. *)
  List.iter
    (fun plan_name ->
      let n = 4 in
      let plan = Option.get (Fault_plan.of_name ~n plan_name) in
      List.iter
        (fun (target : Iface.t) ->
          let c = certify target plan n in
          let label = Printf.sprintf "%s under %s" target.Iface.name plan_name in
          Alcotest.(check bool) (label ^ ": certified") true (certified c);
          List.iter
            (fun pid ->
              Alcotest.(check int) (Printf.sprintf "%s: p%d completed" label pid) 1
                (completed c pid))
            (List.init n Fun.id))
        [ Adt_tree.construction; Fault_targets.direct ])
    [ "delay"; "stall" ]

(* The judge's role-aware cost bound, on hand-built results: under a crash
   plan a survivor over the analytic bound fails, a crash-recovering pid
   is held to twice the bound, and a crash-stopped pid is exempt. *)
let hand_built ~costs ~restarted =
  let stats =
    List.mapi
      (fun i (pid, cost) ->
        {
          Harness.pid;
          seq = 0;
          op = Value.Unit;
          response = Value.Int i;
          invoked = 2 * i;
          responded = (2 * i) + 1;
          cost;
        })
      costs
  in
  let total = List.fold_left (fun acc (_, cost) -> acc + cost) 0 costs in
  {
    Harness.stats;
    failures = [];
    in_flight = [];
    restarts = List.length restarted;
    restarted;
    max_cost = List.fold_left (fun acc (_, cost) -> max acc cost) 0 costs;
    mean_cost = float_of_int total /. float_of_int (List.length costs);
    total_shared_ops = total;
    completed = true;
    largest_register = 1;
  }

let test_assess_bound_under_crashes () =
  let construction = Herlihy.construction and n = 3 in
  let bound = construction.Iface.worst_case ~n in
  let assess plan result =
    (Schedule_fuzz.assess ~construction ~ot:fetch_inc ~plan ~n ~ops:1 ~max_states:10_000
       ~schedule:[] result)
      .Schedule_fuzz.verdict
  in
  (* p0 crash-stops before it completes anything; p1 and p2 survive. *)
  let crash = Fault_plan.crash_stop ~pid:0 ~after:0 in
  (match assess crash (hand_built ~costs:[ (1, bound); (2, bound + 1) ] ~restarted:[]) with
  | Schedule_fuzz.Fail (Schedule_fuzz.Bound_exceeded { pid; cost; bound = b; _ }) ->
    Alcotest.(check (triple int int int)) "survivor over bound fails" (2, bound + 1, bound)
      (pid, cost, b)
  | v ->
    Alcotest.failf "survivor over bound: expected Bound_exceeded, got %a"
      Schedule_fuzz.pp_verdict v);
  (* p0 crash-stops after a completed op over the bound (exempt); p1 is
     crash-recovering and spends exactly twice the bound. *)
  let plan =
    Fault_plan.compose
      [ Fault_plan.crash_stop ~pid:0 ~after:5; Fault_plan.crash_recover ~pid:1 ~after:1 ~restart:4 ]
  in
  (match
     assess plan
       (hand_built ~costs:[ (0, bound + 7); (1, 2 * bound); (2, bound) ] ~restarted:[ (1, 0) ])
   with
  | Schedule_fuzz.Fail f ->
    Alcotest.failf "recovering pid at 2x bound must not fail: %a" Schedule_fuzz.pp_failure f
  | Schedule_fuzz.Pass | Schedule_fuzz.Degraded _ -> ());
  match
    assess plan (hand_built ~costs:[ (1, (2 * bound) + 1); (2, bound) ] ~restarted:[ (1, 0) ])
  with
  | Schedule_fuzz.Fail (Schedule_fuzz.Bound_exceeded { pid; bound = b; _ }) ->
    Alcotest.(check (pair int int)) "recovering pid over 2x bound fails" (1, 2 * bound) (pid, b)
  | v ->
    Alcotest.failf "recovering pid over 2x bound: expected Bound_exceeded, got %a"
      Schedule_fuzz.pp_verdict v

let test_certify_rejects_empty_workloads () =
  List.iter
    (fun (n, ops) ->
      match
        Conformance.certify ~construction:Herlihy.construction ~plan:Fault_plan.none ~n ~ops
          ~seed:1
      with
      | _ -> Alcotest.failf "n=%d ops=%d: an empty workload must be rejected" n ops
      | exception Invalid_argument _ -> ())
    [ (0, 1); (4, 0); (-1, 1) ]

let test_retry_loop_not_wait_free_under_lockstep () =
  (* Contrast: the direct retry loop is only lock-free.  Under a pure
     lockstep schedule with enough processes, some process exhausts a small
     retry budget — the wait-freedom failure made visible.  The harness
     captures the raise as a structured op_failure (graceful degradation)
     instead of letting it kill the run. *)
  let layout = Layout.create () in
  let handle = Direct.fetch_inc_retry layout ~max_attempts:3 () in
  let memory = Memory.create () in
  Layout.install layout memory;
  let result = Harness.run_handle ~memory ~handle ~n:8 ~ops:(fun _ -> [ Value.Unit ]) () in
  Alcotest.(check bool) "retry budget exhausted under contention" true
    (List.exists
       (fun (f : Harness.op_failure) ->
         f.Harness.reason = "Program.retry_until: 3 attempts exhausted")
       result.Harness.failures);
  (* The other processes were not taken down by the failed one. *)
  Alcotest.(check bool) "the rest completed" true
    (List.length result.Harness.stats + List.length result.Harness.failures = 8)

(* ---- wakeup certification ---- *)

let test_wakeup_graceful_under_crashes () =
  (* An honest wakeup algorithm under crashes: wakeup becomes unattainable,
     and the honest survivors decline to claim it — DEGRADED, no false
     claim. *)
  let n = 6 in
  let entry = Option.get (Corpus.find "naive-collect") in
  let plan = Option.get (Fault_plan.of_name ~n "crash-stop") in
  let r = Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n () in
  Alcotest.(check bool) "degraded" true (r.Faults.wstatus = Faults.Degraded);
  Alcotest.(check bool) "no false claim" false r.Faults.false_claim;
  Alcotest.(check (list int)) "nobody woke" [] r.Faults.woke

let test_wakeup_cheater_false_claim () =
  (* The blind cheater claims wakeup after a single LL.  Crash another
     process before its first step: the claim is now a concrete condition-
     (3) violation — someone returned 1 while p1 never took a step. *)
  let n = 4 in
  let plan = Fault_plan.crash_stop ~pid:1 ~after:0 in
  let r =
    Faults.run_wakeup ~algorithm:"cheater-blind"
      ~make:(fun ~n -> Cheaters.blind ~n)
      ~plan ~n ()
  in
  Alcotest.(check bool) "violated" true (r.Faults.wstatus = Faults.Violated);
  Alcotest.(check bool) "false claim detected" true r.Faults.false_claim

let test_cheater_plan_duals_are_graceful () =
  (* The dual framing: keep the algorithm honest (naive collect) and move
     each cheater's truncation into the environment as a crash plan.  The
     honest algorithm never produces a false claim under any of them —
     cheating is algorithmic, not environmental. *)
  let n = 6 in
  let entry = Option.get (Corpus.find "naive-collect") in
  List.iter
    (fun plan ->
      let r =
        Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n ()
      in
      let label = Fault_plan.name plan in
      Alcotest.(check bool) (label ^ ": no false claim") false r.Faults.false_claim;
      Alcotest.(check bool) (label ^ ": not violated") true (r.Faults.wstatus <> Faults.Violated))
    [
      Cheaters.blind_plan ~n;
      Cheaters.fixed_ops_plan ~k:4 ~n;
      Cheaters.lucky_plan ~threshold:2 ~seed:3 ~n;
    ]

let test_plan_grammar () =
  let n = 8 in
  let composed = Option.get (Fault_plan.of_name ~n "crash-stop+spurious-sc") in
  Alcotest.(check bool) "composed has crash" true (Fault_plan.has_crash composed);
  Alcotest.(check bool) "composed has spurious" true (Fault_plan.has_spurious composed);
  Alcotest.(check bool) "unknown plan rejected" true (Fault_plan.of_name ~n "bogus" = None);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " resolves")
        true
        (Fault_plan.of_name ~n name <> None))
    Fault_plan.plan_names

let suite =
  [
    Alcotest.test_case "survivors complete after crash" `Slow test_survivors_complete;
    Alcotest.test_case "crashed op helped or lost atomically" `Slow
      test_crashed_op_helped_or_lost_atomically;
    Alcotest.test_case "lone survivor of 7 crashes" `Quick test_multiple_crashes;
    Alcotest.test_case "all targets certified under crash-stop" `Quick
      test_all_targets_certified_under_crash_stop;
    Alcotest.test_case "crash-recovery re-invokes idempotently" `Quick
      test_crash_recovery_reinvokes;
    Alcotest.test_case "surgical spurious SC absorbed by one retry" `Quick
      test_spurious_sc_surgical;
    Alcotest.test_case "spurious SC storm degrades gracefully" `Quick
      test_spurious_sc_exhausts_retry;
    Alcotest.test_case "delay and stall windows expire" `Quick test_delay_and_stall_windows;
    Alcotest.test_case "judge holds survivors to the bound under crashes" `Quick
      test_assess_bound_under_crashes;
    Alcotest.test_case "certify rejects empty workloads" `Quick
      test_certify_rejects_empty_workloads;
    Alcotest.test_case "retry loop is not wait-free" `Quick
      test_retry_loop_not_wait_free_under_lockstep;
    Alcotest.test_case "honest wakeup degrades gracefully under crashes" `Quick
      test_wakeup_graceful_under_crashes;
    Alcotest.test_case "cheater under crash is a false claim" `Quick
      test_wakeup_cheater_false_claim;
    Alcotest.test_case "cheater plan duals are graceful" `Quick
      test_cheater_plan_duals_are_graceful;
    Alcotest.test_case "plan grammar" `Quick test_plan_grammar;
  ]
