(* Tests for the universal constructions: codec, correctness under many
   schedules, cost accounting vs. the analytic bounds, and the direct
   (non-oblivious) constant-time implementations. *)

open Lowerbound

(* Every harness history is judged by the general checker, which also sees
   pending operations. *)
let linearizable ~spec result = Linearize.is_linearizable spec (Conf_history.of_result result)

let value = Alcotest.testable Value.pp Value.equal

(* ---- Codec ---- *)

let desc pid seq op = { Codec.Desc.pid; seq; op }

let test_desc_roundtrip () =
  let d = desc 3 7 (Value.Str "op") in
  let d' = Codec.Desc.decode (Codec.Desc.encode d) in
  Alcotest.(check int) "pid" 3 d'.Codec.Desc.pid;
  Alcotest.(check int) "seq" 7 d'.Codec.Desc.seq;
  Alcotest.check value "op" (Value.Str "op") d'.Codec.Desc.op;
  Alcotest.(check (pair int int)) "key" (3, 7) (Codec.Desc.key d)

(* Per-pid seq domination: every descriptor of [a] is matched in [b] by a
   descriptor of the same pid with at least its seq — the order the
   bounded sets grow in. *)
let dominated_by a b =
  let db = Codec.Dset.decode b in
  List.for_all
    (fun (d : Codec.Desc.t) ->
      List.exists
        (fun (e : Codec.Desc.t) ->
          e.Codec.Desc.pid = d.Codec.Desc.pid && e.Codec.Desc.seq >= d.Codec.Desc.seq)
        db)
    (Codec.Dset.decode a)

let test_dset_union () =
  let a = Codec.Dset.add Codec.Dset.empty (desc 1 0 Value.Unit) in
  let b = Codec.Dset.add Codec.Dset.empty (desc 0 0 Value.Unit) in
  let u = Codec.Dset.union a b in
  Alcotest.(check int) "cardinal" 2 (Codec.Dset.cardinal u);
  Alcotest.(check bool) "dominates a" true (dominated_by a u);
  Alcotest.(check bool) "dominates b" true (dominated_by b u);
  (* Union is idempotent and ordered by pid. *)
  Alcotest.check value "idempotent" u (Codec.Dset.union u u);
  (match Codec.Dset.decode u with
   | [ d1; d2 ] ->
     Alcotest.(check int) "sorted first" 0 d1.Codec.Desc.pid;
     Alcotest.(check int) "sorted second" 1 d2.Codec.Desc.pid
   | _ -> Alcotest.fail "shape");
  (* A later descriptor of the same pid replaces the earlier one. *)
  let later = Codec.Dset.add u (desc 1 1 Value.Unit) in
  Alcotest.(check (list (pair int int)))
    "latest per pid" [ (0, 0); (1, 1) ]
    (List.map Codec.Desc.key (Codec.Dset.decode later));
  Alcotest.check value "older ignored" later (Codec.Dset.add later (desc 1 0 Value.Unit))

let test_root_absorb () =
  let spec = Counters.fetch_inc ~bits:62 in
  let root = Codec.Root.decode (Codec.Root.initial spec.Spec.init) in
  let batch = [ desc 1 0 Value.Unit; desc 0 0 Value.Unit ] in
  let root = Codec.Root.absorb spec root batch in
  (* Applied in key order: p0 first. *)
  Alcotest.check value "p0 response" (Value.Int 0)
    (Option.get (Codec.Root.find_response root ~key:(0, 0)));
  Alcotest.check value "p1 response" (Value.Int 1)
    (Option.get (Codec.Root.find_response root ~key:(1, 0)));
  Alcotest.check value "state" (Value.Int 2) root.Codec.Root.state;
  (* Re-absorbing the same batch is a no-op. *)
  let root' = Codec.Root.absorb spec root batch in
  Alcotest.check value "idempotent state" (Value.Int 2) root'.Codec.Root.state;
  Alcotest.(check bool) "is_done" true (Codec.Root.is_done root' ~key:(1, 0));
  (* Encoding round-trips. *)
  let root'' = Codec.Root.decode (Codec.Root.encode root') in
  Alcotest.check value "roundtrip response" (Value.Int 1)
    (Option.get (Codec.Root.find_response root'' ~key:(1, 0)))

(* ---- codec properties over random structured values ---- *)

let gen_value =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun n -> Value.Int n) small_int;
        map (fun s -> Value.Str s) (string_size (int_range 0 6));
        map (fun (w, seed) -> Value.Bits (Bitvec.random (Random.State.make [| seed |]) ~width:(1 + (w mod 70))))
          (pair small_nat int);
      ]
  in
  sized_size (int_range 0 3) @@ fix (fun self size ->
      if size = 0 then scalar
      else
        oneof
          [
            scalar;
            map2 (fun a b -> Value.Pair (a, b)) (self (size - 1)) (self (size - 1));
            map (fun vs -> Value.List vs) (list_size (int_range 0 3) (self (size - 1)));
          ])

let arb_value = QCheck.make ~print:Value.to_string gen_value

(* Structural laws of Value itself, over deep random values. *)
let prop_value_laws =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"value equal/compare laws" (QCheck.pair arb_value arb_value)
       (fun (a, b) ->
         Value.equal a a
         && Value.compare a a = 0
         && Value.equal a b = (Value.compare a b = 0)
         && Value.compare a b = -Value.compare b a
         && Value.size a >= 1))

let arb_desc =
  QCheck.make
    ~print:(fun (d : Codec.Desc.t) ->
      Printf.sprintf "(p%d,#%d,%s)" d.Codec.Desc.pid d.Codec.Desc.seq
        (Value.to_string d.Codec.Desc.op))
    QCheck.Gen.(
      map3
        (fun pid seq op -> { Codec.Desc.pid = pid mod 16; seq = seq mod 8; op })
        small_nat small_nat gen_value)

let prop_desc_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"desc encode/decode roundtrip" arb_desc (fun d ->
         let d' = Codec.Desc.decode (Codec.Desc.encode d) in
         Codec.Desc.compare d d' = 0 && Value.equal d.Codec.Desc.op d'.Codec.Desc.op))

(* For set/absorb laws the system invariant matters: a (pid, seq) key
   identifies one operation instance, so the op must be a function of the
   key — otherwise "same key, different op" produces spurious
   counterexamples no execution can produce. *)
let arb_keyed_desc =
  QCheck.map
    (fun (d : Codec.Desc.t) ->
      { d with Codec.Desc.op = Value.Int ((100 * d.Codec.Desc.pid) + d.Codec.Desc.seq) })
    arb_desc

let prop_dset_union_laws =
  let arb = QCheck.(triple (list_of_size (QCheck.Gen.int_range 0 6) arb_keyed_desc)
                      (list_of_size (QCheck.Gen.int_range 0 6) arb_keyed_desc)
                      (list_of_size (QCheck.Gen.int_range 0 6) arb_keyed_desc)) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"dset union: commutative, associative, idempotent" arb
       (fun (xs, ys, zs) ->
         let enc ds = List.fold_left Codec.Dset.add Codec.Dset.empty ds in
         let a = enc xs and b = enc ys and c = enc zs in
         let ( + ) = Codec.Dset.union in
         Value.equal (a + b) (b + a)
         && Value.equal (a + (b + c)) (a + b + c)
         && Value.equal (a + a) a
         && dominated_by a (a + b)
         && dominated_by b (a + b)))

let prop_absorb_batch_order_irrelevant =
  (* Absorbing a batch is independent of the batch's presentation order
     (keys are sorted internally) and re-absorption is the identity. *)
  let arb = QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 8) arb_keyed_desc) int) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"root absorb: order-independent and idempotent" arb
       (fun (descs, seed) ->
         (* Make ops valid for a swap object (any value is a legal op). *)
         let spec = Misc_types.swap_object ~init:(Value.Int 0) in
         let root = Codec.Root.decode (Codec.Root.initial spec.Spec.init) in
         let shuffled =
           let st = Random.State.make [| seed |] in
           List.map (fun d -> (Random.State.bits st, d)) descs
           |> List.sort compare |> List.map snd
         in
         let a = Codec.Root.absorb spec root descs in
         let b = Codec.Root.absorb spec root shuffled in
         let idempotent = Codec.Root.absorb spec a descs in
         Value.equal (Codec.Root.encode a) (Codec.Root.encode b)
         && Value.equal (Codec.Root.encode a) (Codec.Root.encode idempotent)))

(* ---- bounded codec vs. the unbounded oracle ---- *)

(* The unbounded encoding: sets keep every descriptor ever added, and the
   root keeps the response of every operation ever applied.  The bounded
   Codec must agree with it on every reachable state. *)
module Oracle = struct
  module Dset = struct
    let decode v = List.map Codec.Desc.decode (Value.to_list v)
    let encode ds = Value.List (List.map Codec.Desc.encode ds)

    let rec merge xs ys =
      match xs, ys with
      | [], rest | rest, [] -> rest
      | x :: xs', y :: ys' ->
        let c = Codec.Desc.compare x y in
        if c < 0 then x :: merge xs' ys
        else if c > 0 then y :: merge xs ys'
        else x :: merge xs' ys'

    let union a b = encode (merge (decode a) (decode b))
    let add a d = union a (Value.List [ Codec.Desc.encode d ])
  end

  module Root = struct
    type t = Codec.Root.t = { state : Value.t; responses : ((int * int) * Value.t) list }

    let find_response t ~key = List.assoc_opt key t.responses
    let is_done t ~key = List.mem_assoc key t.responses

    let insert_response responses key resp =
      let rec go = function
        | [] -> [ (key, resp) ]
        | ((k, _) as entry) :: rest ->
          if compare key k < 0 then (key, resp) :: entry :: rest else entry :: go rest
      in
      go responses

    let absorb spec t descs =
      List.fold_left
        (fun t (d : Codec.Desc.t) ->
          let key = Codec.Desc.key d in
          if is_done t ~key then t
          else
            let state', response = spec.Spec.apply t.state d.Codec.Desc.op in
            { state = state'; responses = insert_response t.responses key response })
        t
        (List.sort Codec.Desc.compare descs)
  end
end

(* A random interleaving of per-pid-sequential descriptor streams, driven
   through both encodings side by side.  Each process publishes its next
   operation into its leaf only after it has looked up the previous one's
   response (the constructions' invariant); leaves are merged into one
   combining node; the root absorbs either the node or a single leaf.
   Actions that are not enabled in the current state are skipped. *)
type codec_action = Publish of int | Merge of int | Absorb_node | Absorb_leaf of int | Lookup of int

let gen_codec_action ~n =
  let open QCheck.Gen in
  let pid = int_bound (n - 1) in
  frequency
    [
      (3, map (fun p -> Publish p) pid);
      (3, map (fun p -> Merge p) pid);
      (2, return Absorb_node);
      (1, map (fun p -> Absorb_leaf p) pid);
      (3, map (fun p -> Lookup p) pid);
    ]

let show_codec_action = function
  | Publish p -> Printf.sprintf "publish %d" p
  | Merge p -> Printf.sprintf "merge %d" p
  | Absorb_node -> "absorb node"
  | Absorb_leaf p -> Printf.sprintf "absorb leaf %d" p
  | Lookup p -> Printf.sprintf "lookup %d" p

let prop_bounded_matches_oracle =
  let n = 3 in
  let arb =
    QCheck.make
      ~print:(fun actions -> String.concat "; " (List.map show_codec_action actions))
      QCheck.Gen.(list_size (int_range 0 80) (gen_codec_action ~n))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"bounded codec agrees with the unbounded oracle on reachable states" arb
       (fun actions ->
         let spec = Misc_types.swap_object ~init:(Value.Int 0) in
         let init = Codec.Root.decode (Codec.Root.initial spec.Spec.init) in
         (* Bounded and oracle copies of the leaves, the node and the root. *)
         let leaf = Array.make n Codec.Dset.empty and leaf_o = Array.make n Codec.Dset.empty in
         let node = ref Codec.Dset.empty and node_o = ref Codec.Dset.empty in
         let root = ref init and root_o = ref init in
         (* Per pid: next seq to issue, and the seq in flight, if any. *)
         let next = Array.make n 0 and pending = Array.make n None in
         let absorb batch batch_o =
           root := Codec.Root.absorb spec !root (Codec.Dset.decode batch);
           root_o := Oracle.Root.absorb spec !root_o (Oracle.Dset.decode batch_o);
           Value.equal !root.Codec.Root.state !root_o.Oracle.Root.state
           && List.length !root.Codec.Root.responses <= n
         in
         List.for_all
           (function
             | Publish p ->
               (match pending.(p) with
                | Some _ -> ()
                | None ->
                  let d = desc p next.(p) (Value.Int ((100 * p) + next.(p))) in
                  leaf.(p) <- Codec.Dset.add leaf.(p) d;
                  leaf_o.(p) <- Oracle.Dset.add leaf_o.(p) d;
                  pending.(p) <- Some next.(p);
                  next.(p) <- next.(p) + 1);
               true
             | Merge p ->
               node := Codec.Dset.union !node leaf.(p);
               node_o := Oracle.Dset.union !node_o leaf_o.(p);
               true
             | Absorb_node -> absorb !node !node_o
             | Absorb_leaf p -> absorb leaf.(p) leaf_o.(p)
             | Lookup p -> (
               match pending.(p) with
               | None -> true
               | Some seq ->
                 let key = (p, seq) in
                 let done_ = Oracle.Root.is_done !root_o ~key in
                 if done_ then pending.(p) <- None;
                 Bool.equal done_ (Codec.Root.is_done !root ~key)
                 && Option.equal Value.equal
                      (Codec.Root.find_response !root ~key)
                      (Oracle.Root.find_response !root_o ~key)))
           actions))

let prop_one_op_per_pid_encodes_identically =
  (* With at most one operation per pid the bounded and unbounded encodings
     coincide byte for byte — what keeps every ops=1 exhaustive cell
     pinned. *)
  let arb =
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 8) (pair small_nat small_nat))
        (list_of_size (QCheck.Gen.int_range 0 8) small_nat))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"bounded codec encodes one op per pid as the oracle does"
       arb (fun (pid_seqs, split) ->
         let spec = Misc_types.swap_object ~init:(Value.Int 0) in
         let descs =
           List.sort_uniq
             (fun (a : Codec.Desc.t) b -> Int.compare a.Codec.Desc.pid b.Codec.Desc.pid)
             (List.map
                (fun (pid, seq) -> desc (pid mod 12) (seq mod 5) (Value.Int ((100 * pid) + seq)))
                pid_seqs)
         in
         (* Two sets over an arbitrary split of the descriptors. *)
         let left, right =
           List.partition (fun (d : Codec.Desc.t) -> List.mem d.Codec.Desc.pid split) descs
         in
         let build add = List.fold_left add Codec.Dset.empty in
         let a = build Codec.Dset.add left and b = build Codec.Dset.add right in
         let a_o = build Oracle.Dset.add left and b_o = build Oracle.Dset.add right in
         let init = Codec.Root.decode (Codec.Root.initial spec.Spec.init) in
         Value.equal a a_o && Value.equal b b_o
         && Value.equal (Codec.Dset.union a b) (Oracle.Dset.union a_o b_o)
         &&
         let bounded = Codec.Root.absorb spec (Codec.Root.absorb spec init left) descs in
         let oracle = Oracle.Root.absorb spec (Oracle.Root.absorb spec init left) descs in
         Value.equal (Codec.Root.encode bounded) (Codec.Root.encode oracle)))

(* ---- generic construction correctness ---- *)

let constructions =
  [ Adt_tree.construction; Herlihy.construction; Consensus_list.construction ]

let schedulers =
  [
    ("round-robin", Scheduler.round_robin);
    ("random-3", Scheduler.random ~seed:3);
    ("random-99", Scheduler.random ~seed:99);
  ]

let test_counter_correctness () =
  (* n processes, two increments each: the multiset of responses must be
     exactly {0, .., 2n-1} — nothing lost, nothing duplicated. *)
  List.iter
    (fun (c : Iface.t) ->
      List.iter
        (fun (sched_name, scheduler) ->
          List.iter
            (fun n ->
              let result =
                Harness.run ~construction:c ~spec:(Counters.fetch_inc ~bits:62) ~n
                  ~ops:(fun _ -> [ Value.Unit; Value.Unit ])
                  ~scheduler ()
              in
              let label = Printf.sprintf "%s/%s n=%d" c.Iface.name sched_name n in
              Alcotest.(check bool) (label ^ " completed") true result.Harness.completed;
              let responses =
                List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response)
                  result.Harness.stats
                |> List.sort Int.compare
              in
              Alcotest.(check (list int)) (label ^ " responses") (List.init (2 * n) (fun i -> i))
                responses)
            [ 1; 2; 3; 8; 16 ])
        schedulers)
    constructions

let test_cost_never_exceeds_prediction () =
  List.iter
    (fun (c : Iface.t) ->
      List.iter
        (fun (sched_name, scheduler) ->
          List.iter
            (fun n ->
              let result =
                Harness.run ~construction:c ~spec:(Counters.fetch_inc ~bits:62) ~n
                  ~ops:(fun _ -> [ Value.Unit; Value.Unit; Value.Unit ])
                  ~scheduler ()
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s n=%d: %d <= %d" c.Iface.name sched_name n
                   result.Harness.max_cost (c.Iface.worst_case ~n))
                true
                (result.Harness.max_cost <= c.Iface.worst_case ~n))
            [ 1; 2; 5; 9; 16; 33 ])
        schedulers)
    constructions

let test_adt_cost_exact_when_solo () =
  (* A single process pays exactly the deterministic worst case. *)
  List.iter
    (fun n ->
      let layout = Layout.create () in
      let handle = Adt_tree.construction.Iface.create layout ~n (Counters.fetch_inc ~bits:62) in
      let memory = Memory.create () in
      Layout.install layout memory;
      let result = Harness.run_handle ~memory ~handle ~n:1 ~ops:(fun _ -> [ Value.Unit ]) () in
      Alcotest.(check int)
        (Printf.sprintf "solo cost at tree size %d" n)
        (Adt_tree.construction.Iface.worst_case ~n)
        result.Harness.max_cost)
    [ 1; 2; 4; 16; 128 ]

let test_linearizable_under_random_schedules () =
  (* Queue and CAS objects through both constructions under several seeds;
     check full linearizability (small n keeps the checker fast). *)
  List.iter
    (fun (c : Iface.t) ->
      List.iter
        (fun seed ->
          let spec = Containers.queue in
          let result =
            Harness.run ~construction:c ~spec ~n:4
              ~ops:(fun pid -> [ Containers.op_enq (Value.Int pid); Containers.op_deq ])
              ~scheduler:(Scheduler.random ~seed) ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s queue seed %d" c.Iface.name seed)
            true
            (linearizable ~spec result))
        [ 1; 2; 3; 4; 5 ])
    constructions

let test_wide_object_through_construction () =
  (* The n-bit fetch&and object (the paper's Theorem 6.2 item 2) through the
     tree: every process clears its own bit; final state must have the first
     n bits cleared. *)
  let n = 10 in
  let spec = Bitwise.fetch_and ~bits:n in
  let result =
    Harness.run ~construction:Adt_tree.construction ~spec ~n
      ~ops:(fun pid -> [ Value.Bits (Bitvec.set (Bitvec.ones n) pid false) ])
      ()
  in
  Alcotest.(check bool) "completed" true result.Harness.completed;
  (* Exactly one process observed all-but-one bits cleared... weaker, robust
     check: every response is a vector with its own bit still set. *)
  List.iter
    (fun (s : Harness.op_stat) ->
      Alcotest.(check bool) "own bit set in old value" true
        (Bitvec.get (Value.to_bits s.Harness.response) s.Harness.pid))
    result.Harness.stats

let test_multi_use_sequences () =
  (* Longer per-process sequences: seq numbers, helping and response lookup
     stay consistent over many batches. *)
  List.iter
    (fun (c : Iface.t) ->
      let n = 5 and k = 8 in
      let result =
        Harness.run ~construction:c ~spec:(Counters.fetch_inc ~bits:62) ~n
          ~ops:(fun _ -> List.init k (fun _ -> Value.Unit))
          ~scheduler:(Scheduler.random ~seed:17) ()
      in
      Alcotest.(check bool) (c.Iface.name ^ " completed") true result.Harness.completed;
      let responses =
        List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response) result.Harness.stats
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) (c.Iface.name ^ " all distinct") (List.init (n * k) (fun i -> i))
        responses;
      (* Per-process responses are increasing (a process's later op sees a
         later state). *)
      List.iter
        (fun pid ->
          let mine =
            List.filter (fun (s : Harness.op_stat) -> s.Harness.pid = pid) result.Harness.stats
            |> List.sort (fun (a : Harness.op_stat) b -> compare a.Harness.seq b.Harness.seq)
            |> List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response)
          in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | [ _ ] | [] -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s p%d increasing" c.Iface.name pid)
            true (increasing mine))
        (List.init n (fun i -> i)))
    constructions

let test_bounded_state () =
  (* The construction state is bounded by n: the largest register value is
     the same after 8 and after 64 operations per process, and the cost
     stays within the analytic worst case. *)
  List.iter
    (fun (c : Iface.t) ->
      List.iter
        (fun n ->
          let run k =
            Harness.run ~construction:c ~spec:(Counters.fetch_inc ~bits:62) ~n
              ~ops:(fun _ -> List.init k (fun _ -> Value.Unit))
              ~scheduler:(Scheduler.random ~seed:5) ()
          in
          let short = run 8 and long = run 64 in
          let label = Printf.sprintf "%s n=%d" c.Iface.name n in
          Alcotest.(check bool) (label ^ " completed") true long.Harness.completed;
          Alcotest.(check int)
            (label ^ " largest register independent of K")
            short.Harness.largest_register long.Harness.largest_register;
          Alcotest.(check bool)
            (Printf.sprintf "%s max cost %d <= %d" label long.Harness.max_cost
               (c.Iface.worst_case ~n))
            true
            (long.Harness.max_cost <= c.Iface.worst_case ~n))
        [ 2; 3 ])
    [ Adt_tree.construction; Herlihy.construction ]

let test_oblivious_flag () =
  List.iter
    (fun (c : Iface.t) ->
      Alcotest.(check bool) (c.Iface.name ^ " oblivious") true c.Iface.oblivious)
    constructions

let test_consensus_cell_is_consensus () =
  (* The consensus cells really decide: under every scheduler, per-process
     response sequences replay one shared total order of decided operations
     (checked indirectly by correctness above); here check the one-shot
     consensus building block directly — concurrent proposals all return the
     same winner, which is one of the proposals. *)
  List.iter
    (fun seed ->
      let spec = Misc_types.consensus in
      let result =
        Harness.run ~construction:Consensus_list.construction ~spec ~n:5
          ~ops:(fun pid -> [ Misc_types.op_propose (Value.Int pid) ])
          ~scheduler:(Scheduler.random ~seed) ()
      in
      let decisions =
        List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response)
          result.Harness.stats
        |> List.sort_uniq Int.compare
      in
      match decisions with
      | [ v ] -> Alcotest.(check bool) "winner among proposals" true (v >= 0 && v < 5)
      | _ -> Alcotest.failf "seed %d: %d distinct decisions" seed (List.length decisions))
    [ 1; 2; 3; 4 ]

let test_levels () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "levels %d" n) expected (Adt_tree.levels n))
    [ (1, 1); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (1024, 10) ]

let test_snapshot_through_constructions () =
  (* The n-segment snapshot through each construction: each process updates
     its own segment then scans; a process's scan must show its own update
     (it happened before, on the same process). *)
  List.iter
    (fun (c : Iface.t) ->
      let n = 4 in
      let spec = Misc_types.snapshot ~n in
      let result =
        Harness.run ~construction:c ~spec ~n
          ~ops:(fun pid -> [ Misc_types.op_update ~segment:pid (Value.Int pid); Misc_types.op_scan ])
          ~scheduler:(Scheduler.random ~seed:21) ()
      in
      Alcotest.(check bool) (c.Iface.name ^ " completed") true result.Harness.completed;
      List.iter
        (fun (s : Harness.op_stat) ->
          if Value.equal s.Harness.op Misc_types.op_scan then
            let segments = Value.to_list s.Harness.response in
            Alcotest.(check bool)
              (Printf.sprintf "%s p%d sees own update" c.Iface.name s.Harness.pid)
              true
              (Value.equal (List.nth segments s.Harness.pid) (Value.Int s.Harness.pid)))
        result.Harness.stats;
      Alcotest.(check bool) (c.Iface.name ^ " linearizable") true
        (linearizable ~spec result))
    constructions

let test_harness_cost_accounting () =
  (* Completed runs: the per-operation costs sum to the memory's total
     shared-op count — nothing is double-counted or lost. *)
  List.iter
    (fun (c : Iface.t) ->
      let result =
        Harness.run ~construction:c ~spec:(Counters.fetch_inc ~bits:62) ~n:5
          ~ops:(fun _ -> [ Value.Unit; Value.Unit ])
          ~scheduler:(Scheduler.random ~seed:13) ()
      in
      Alcotest.(check bool) "completed" true result.Harness.completed;
      let sum = List.fold_left (fun acc (s : Harness.op_stat) -> acc + s.Harness.cost) 0 result.Harness.stats in
      Alcotest.(check int) (c.Iface.name ^ " costs sum to total") result.Harness.total_shared_ops sum)
    constructions

(* ---- direct constructions ---- *)

let test_direct_cas_basic () =
  let layout = Layout.create () in
  let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
  let memory = Memory.create () in
  Layout.install layout memory;
  let result =
    Harness.run_handle ~memory ~handle ~n:8
      ~ops:(fun pid ->
        [ Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.pair (Value.Int pid) Value.unit) ])
      ()
  in
  Alcotest.(check bool) "completed" true result.Harness.completed;
  Alcotest.(check bool) "constant cost" true (result.Harness.max_cost <= 2);
  let winners =
    List.filter
      (fun (s : Harness.op_stat) -> Value.to_bool (fst (Value.to_pair s.Harness.response)))
      result.Harness.stats
  in
  Alcotest.(check int) "exactly one CAS wins" 1 (List.length winners);
  Alcotest.(check bool) "linearizable" true
    (linearizable ~spec:(Misc_types.compare_and_swap ~init:(Value.Int 0)) result)

let test_direct_cas_cost_independent_of_n () =
  List.iter
    (fun n ->
      let layout = Layout.create () in
      let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
      let memory = Memory.create () in
      Layout.install layout memory;
      let result =
        Harness.run_handle ~memory ~handle ~n
          ~ops:(fun pid ->
            [
              Misc_types.op_cas ~expected:(Value.Int 0)
                ~new_:(Value.pair (Value.Int pid) Value.unit);
            ])
          ~scheduler:(Scheduler.random ~seed:5) ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "cost <= 2 at n=%d" n)
        true (result.Harness.max_cost <= 2))
    [ 1; 4; 32; 128; 512 ]

let test_fetch_inc_retry_contention () =
  (* Under round-robin all n processes contend: someone's retry count grows
     with n — the non-wait-free ablation. *)
  let run n =
    let layout = Layout.create () in
    let handle = Direct.fetch_inc_retry layout () in
    let memory = Memory.create () in
    Layout.install layout memory;
    let result =
      Harness.run_handle ~memory ~handle ~n ~ops:(fun _ -> [ Value.Unit ]) ()
    in
    Alcotest.(check bool) "completed" true result.Harness.completed;
    let responses =
      List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response) result.Harness.stats
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "correct counter" (List.init n (fun i -> i)) responses;
    result.Harness.max_cost
  in
  let c4 = run 4 and c32 = run 32 in
  Alcotest.(check bool) "contention grows" true (c32 > c4);
  Alcotest.(check bool) "solo is 2 ops" true (run 1 = 2)

(* ---- complexity sweeps ---- *)

let test_sweep_shapes () =
  let rows =
    Complexity.sweep ~construction:Adt_tree.construction
      ~spec_of:(fun _ -> Counters.fetch_inc ~bits:62)
      ~ops_of:(fun ~n:_ _ -> [ Value.Unit ])
      ~ns:[ 2; 4; 8; 16 ] ()
  in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  List.iter
    (fun (r : Complexity.row) ->
      Alcotest.(check bool) "measured <= predicted" true (r.Complexity.measured_worst <= r.Complexity.predicted);
      Alcotest.(check bool) "lower bound <= measured" true
        (r.Complexity.lower_bound <= r.Complexity.measured_worst))
    rows;
  (* The sweep's own runs (round-robin, n <= 8) are linearizable. *)
  List.iter
    (fun n ->
      let spec = Counters.fetch_inc ~bits:62 in
      let result =
        Harness.run ~construction:Adt_tree.construction ~spec ~n ~ops:(fun _ -> [ Value.Unit ]) ()
      in
      Alcotest.(check bool) (Printf.sprintf "linearizable at n = %d" n) true
        (linearizable ~spec result))
    [ 2; 4; 8 ];
  (* Θ(log n): doubling n adds a constant (8) to the tree's worst case. *)
  match rows with
  | [ r2; r4; r8; r16 ] ->
    Alcotest.(check int) "step 2->4" 8 (r4.Complexity.measured_worst - r2.Complexity.measured_worst);
    Alcotest.(check int) "step 4->8" 8 (r8.Complexity.measured_worst - r4.Complexity.measured_worst);
    Alcotest.(check int) "step 8->16" 8
      (r16.Complexity.measured_worst - r8.Complexity.measured_worst)
  | _ -> Alcotest.fail "shape"

let suite =
  [
    Alcotest.test_case "desc roundtrip" `Quick test_desc_roundtrip;
    Alcotest.test_case "dset union" `Quick test_dset_union;
    Alcotest.test_case "root absorb" `Quick test_root_absorb;
    prop_value_laws;
    prop_desc_roundtrip;
    prop_dset_union_laws;
    prop_absorb_batch_order_irrelevant;
    prop_bounded_matches_oracle;
    prop_one_op_per_pid_encodes_identically;
    Alcotest.test_case "counter correctness" `Slow test_counter_correctness;
    Alcotest.test_case "cost never exceeds prediction" `Slow test_cost_never_exceeds_prediction;
    Alcotest.test_case "adt solo cost exact" `Quick test_adt_cost_exact_when_solo;
    Alcotest.test_case "linearizable under random schedules" `Slow
      test_linearizable_under_random_schedules;
    Alcotest.test_case "wide object through construction" `Quick
      test_wide_object_through_construction;
    Alcotest.test_case "multi-use sequences" `Slow test_multi_use_sequences;
    Alcotest.test_case "bounded state: register size independent of K" `Quick test_bounded_state;
    Alcotest.test_case "oblivious flags" `Quick test_oblivious_flag;
    Alcotest.test_case "consensus cells decide" `Quick test_consensus_cell_is_consensus;
    Alcotest.test_case "snapshot through constructions" `Slow test_snapshot_through_constructions;
    Alcotest.test_case "harness cost accounting" `Quick test_harness_cost_accounting;
    Alcotest.test_case "tree levels" `Quick test_levels;
    Alcotest.test_case "direct CAS basic" `Quick test_direct_cas_basic;
    Alcotest.test_case "direct CAS cost independent of n" `Quick
      test_direct_cas_cost_independent_of_n;
    Alcotest.test_case "fetch&inc retry contention" `Quick test_fetch_inc_retry_contention;
    Alcotest.test_case "complexity sweep shapes" `Quick test_sweep_shapes;
  ]
