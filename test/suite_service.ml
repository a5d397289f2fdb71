(* The experiment service layer (lib/service): request content hashing,
   the LRU + JSONL result cache, the batching executor (cache hits,
   in-flight dedup, error isolation, timeouts), the Unix-socket server
   under concurrent clients, the latency histogram and the load
   generator.

   The load-bearing properties:
   - the content hash is a function of the computation, not its encoding —
     invariant under JSON field reordering and under the jobs knob;
   - a cache round-trip (store -> journal -> reload -> serve) yields the
     byte-identical payload a fresh computation produces;
   - a batch computes each distinct uncached key exactly once, whatever
     mix of duplicates and cache hits surrounds it. *)

open Lb_service
module Json = Lb_observe.Json
module Metrics = Lb_observe.Metrics

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- generators ---- *)

let gen_request =
  QCheck.Gen.(
    let* jobs = 1 -- 4 in
    let* spec =
      oneof
        [
          (let* id = oneofl [ "e1"; "e5"; "e7"; "e14"; "nonsense" ] in
           let* quick = bool in
           return (Request.experiment ~quick id));
          (let* target = oneofl [ "direct"; "adt-tree"; "naive-collect" ] in
           let* plan = oneofl [ "crash-stop"; "spurious-sc"; "chaos" ] in
           let* n = 2 -- 16 in
           let* ops = 1 -- 3 in
           let* seed = 0 -- 99 in
           return (Request.certify ~n ~ops ~seed ~target ~plan ()));
          (let* tag = string_size ~gen:printable (1 -- 12) in
           let* size = 0 -- 64 in
           return (Request.echo ~size tag));
        ]
    in
    return (Request.with_jobs spec jobs))

let arb_request = QCheck.make ~print:Request.describe gen_request

(* Small arbitrary JSON payloads for cache round-trips. *)
let gen_payload =
  QCheck.Gen.(
    let* pass = bool in
    let* n = 0 -- 1000 in
    let* s = string_size ~gen:printable (0 -- 20) in
    let* xs = list_size (0 -- 5) (0 -- 50) in
    return
      (Json.Obj
         [
           ("pass", Json.Bool pass);
           ("n", Json.Int n);
           ("title", Json.Str s);
           ("rows", Json.Arr (List.map (fun x -> Json.Int x) xs));
         ]))

(* ---- request hashing ---- *)

let t_roundtrip =
  prop "of_json (to_json r) = r" arb_request (fun r ->
      Request.of_json (Request.to_json r) = Ok r)

let t_key_ignores_jobs =
  prop "key invariant under jobs" arb_request (fun r ->
      Request.key r = Request.key (Request.with_jobs r 7)
      && Request.equal r (Request.with_jobs r 7))

let t_key_ignores_field_order =
  prop "key invariant under JSON field reordering (+ jobs)"
    (QCheck.make
       ~print:(fun (r, _) -> Request.describe r)
       QCheck.Gen.(
         let* r = gen_request in
         let* fields =
           match Request.to_json r with
           | Json.Obj fields -> shuffle_l fields
           | _ -> return []
         in
         return (r, fields)))
    (fun (r, shuffled) ->
      let shuffled =
        (* Also perturb the jobs value, not just its position. *)
        List.map
          (function "jobs", _ -> ("jobs", Json.Int 5) | field -> field)
          shuffled
      in
      match Request.of_json (Json.Obj shuffled) with
      | Ok r' -> Request.key r' = Request.key r
      | Error _ -> false)

let t_distinct_requests_distinct_keys () =
  let keys =
    List.map Request.key
      [
        Request.experiment "e1";
        Request.experiment ~quick:true "e1";
        Request.experiment "e2";
        Request.certify ~target:"direct" ~plan:"crash-stop" ();
        Request.certify ~target:"direct" ~plan:"chaos" ();
        Request.certify ~target:"direct" ~plan:"crash-stop" ~seed:2 ();
      ]
  in
  Alcotest.(check int)
    "six distinct computations, six distinct keys" 6
    (List.length (List.sort_uniq compare keys))

let t_of_json_defaults () =
  match Json.parse {|{"kind":"certify","plan":"chaos","target":"direct"}|} with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
    Alcotest.(check bool)
      "omitted fields take their defaults" true
      (Request.of_json json = Ok (Request.certify ~target:"direct" ~plan:"chaos" ()))

let t_of_json_rejects_empty_workloads () =
  (* An empty workload would be judged vacuously (a CERTIFIED or CONFORMANT
     verdict over zero operations), so sizes below 1 are typed errors. *)
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.fail msg
      | Ok json -> (
        match Request.of_json json with
        | Error _ -> ()
        | Ok r -> Alcotest.failf "%s: accepted as %s" line (Request.describe r)))
    [
      {|{"kind":"certify","target":"herlihy","plan":"none","n":0}|};
      {|{"kind":"certify","target":"herlihy","plan":"none","ops":0}|};
      {|{"kind":"certify","target":"naive-collect","plan":"crash-stop","n":-3}|};
      {|{"kind":"conform","target":"herlihy","n":0}|};
      {|{"kind":"conform","target":"herlihy","ops":0}|};
      {|{"kind":"conform","target":"herlihy","schedules":0}|};
    ];
  match Json.parse {|{"kind":"conform","target":"herlihy","n":1,"ops":1,"schedules":1}|} with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
    Alcotest.(check bool) "sizes of 1 are accepted" true
      (Request.of_json json
      = Ok (Request.conform ~n:1 ~ops:1 ~schedules:1 ~target:"herlihy" ()))

(* ---- cache ---- *)

let payload_a = Json.Obj [ ("v", Json.Int 1) ]
let payload_b = Json.Obj [ ("v", Json.Int 2) ]
let payload_c = Json.Obj [ ("v", Json.Int 3) ]

let t_cache_hit_miss () =
  let cache = Cache.create ~capacity:4 () in
  Alcotest.(check bool) "miss before store" true (Cache.find cache "k1" = None);
  Cache.store cache ~key:"k1" ~request:Json.Null payload_a;
  Alcotest.(check bool) "hit after store" true (Cache.find cache "k1" = Some payload_a);
  Cache.store cache ~key:"k1" ~request:Json.Null payload_b;
  Alcotest.(check bool) "store refreshes" true (Cache.find cache "k1" = Some payload_b);
  Alcotest.(check int) "refresh does not grow" 1 (Cache.length cache)

let t_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  Cache.store cache ~key:"a" ~request:Json.Null payload_a;
  Cache.store cache ~key:"b" ~request:Json.Null payload_b;
  ignore (Cache.find cache "a");
  (* "b" is now least recently used; storing "c" must evict it. *)
  Cache.store cache ~key:"c" ~request:Json.Null payload_c;
  Alcotest.(check bool) "recently used survives" true (Cache.mem cache "a");
  Alcotest.(check bool) "LRU evicted" false (Cache.mem cache "b");
  Alcotest.(check bool) "new entry present" true (Cache.mem cache "c");
  Alcotest.(check int) "one eviction" 1 (Cache.evictions cache)

let with_temp_file f =
  let path = Filename.temp_file "lbsvc_cache" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let t_cache_journal_reload () =
  with_temp_file (fun path ->
      Sys.remove path;
      let cache = Cache.create ~capacity:8 ~path () in
      Cache.store cache ~key:"k1" ~request:Json.Null payload_a;
      Cache.store cache ~key:"k2" ~request:Json.Null payload_b;
      Cache.store cache ~key:"k1" ~request:Json.Null payload_c;
      Cache.close cache;
      let reloaded = Cache.create ~capacity:8 ~path () in
      Alcotest.(check int) "three journal lines replayed" 3 (Cache.loaded reloaded);
      Alcotest.(check int) "no corruption" 0 (Cache.corrupt reloaded);
      Alcotest.(check int) "two live keys" 2 (Cache.length reloaded);
      Alcotest.(check bool) "last store of k1 wins" true
        (Cache.find reloaded "k1" = Some payload_c);
      Alcotest.(check bool) "k2 survives" true (Cache.find reloaded "k2" = Some payload_b);
      Cache.close reloaded)

let t_cache_corrupt_recovery () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        ({|{"key":"good1","request":null,"response":{"v":1}}|} ^ "\n"
        ^ "this is not json\n"
        ^ {|{"no_key_field":true,"response":{"v":9}}|} ^ "\n"
        ^ {|{"key":"good2","request":null,"response":{"v":2}}|} ^ "\n"
        ^ {|{"key":"trunc","request":null,"resp|});
      (* no trailing newline: a crash mid-append *)
      close_out oc;
      let cache = Cache.create ~capacity:8 ~path () in
      Alcotest.(check int) "two good lines" 2 (Cache.loaded cache);
      Alcotest.(check int) "three damaged lines skipped" 3 (Cache.corrupt cache);
      Alcotest.(check bool) "good entries served" true
        (Cache.find cache "good1" = Some payload_a && Cache.find cache "good2" = Some payload_b);
      (* The survivor of a damaged journal must still accept stores. *)
      Cache.store cache ~key:"k3" ~request:Json.Null payload_c;
      Cache.close cache;
      let reloaded = Cache.create ~capacity:8 ~path () in
      Alcotest.(check bool) "append after damage round-trips" true
        (Cache.find reloaded "k3" = Some payload_c);
      Cache.close reloaded)

let t_cache_roundtrip_byte_identical =
  prop ~count:100 "journal round-trip is byte-identical"
    (QCheck.make ~print:Json.to_string gen_payload)
    (fun payload ->
      with_temp_file (fun path ->
          Sys.remove path;
          let cache = Cache.create ~path () in
          Cache.store cache ~key:"k" ~request:Json.Null payload;
          Cache.close cache;
          let reloaded = Cache.create ~path () in
          let found = Cache.find reloaded "k" in
          Cache.close reloaded;
          match found with
          | Some payload' -> Json.to_string payload' = Json.to_string payload
          | None -> false))

(* ---- executor ---- *)

(* A deterministic toy computation that counts its invocations. *)
let counting_compute calls ~jobs:_ (r : Request.t) =
  incr calls;
  Ok (Json.Obj [ ("echo", Json.Str (Request.describe r)) ])

let r1 = Request.experiment "e1"
let r2 = Request.experiment "e2"

let t_executor_dedup_and_cache () =
  let calls = ref 0 in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~cache ~compute:(counting_compute calls) () in
      let responses = Executor.run_batch executor [ r1; r1; r2 ] in
      Alcotest.(check int) "three responses" 3 (List.length responses);
      Alcotest.(check int) "two computations for three requests" 2 !calls;
      (match responses with
      | [ a; b; c ] ->
        Alcotest.(check bool) "first r1 computed" false (a.Executor.cached || a.Executor.deduped);
        Alcotest.(check bool) "second r1 deduped in flight" true b.Executor.deduped;
        Alcotest.(check bool) "r2 computed" false (c.Executor.cached || c.Executor.deduped);
        Alcotest.(check bool) "dup payload identical" true (a.Executor.outcome = b.Executor.outcome)
      | _ -> Alcotest.fail "wrong arity");
      (* Second batch: everything cached, no further computation. *)
      let responses = Executor.run_batch executor [ r1; r2 ] in
      Alcotest.(check int) "no recomputation" 2 !calls;
      Alcotest.(check bool) "both served from cache" true
        (List.for_all (fun r -> r.Executor.cached) responses);
      Alcotest.(check int) "hits" 2 (Metrics.counter_value registry "service.hits");
      Alcotest.(check int) "misses" 2 (Metrics.counter_value registry "service.misses");
      Alcotest.(check int) "dedups" 1 (Metrics.counter_value registry "service.dedup_inflight");
      Alcotest.(check int) "requests" 5 (Metrics.counter_value registry "service.requests"))

let t_executor_error_isolation () =
  let compute ~jobs:_ (r : Request.t) =
    match r.Request.spec with
    | Request.Experiment { id = "e1"; _ } -> failwith "boom"
    | _ -> Ok Json.Null
  in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~cache ~compute () in
      match Executor.run_batch executor [ r1; r2 ] with
      | [ a; b ] ->
        (match a.Executor.outcome with
        | Executor.Error msg ->
          Alcotest.(check bool) "exception captured" true
            (Astring_contains.contains msg "boom")
        | _ -> Alcotest.fail "expected an error outcome");
        Alcotest.(check bool) "sibling request unaffected" true
          (b.Executor.outcome = Executor.Ok Json.Null);
        Alcotest.(check int) "errors counted" 1 (Metrics.counter_value registry "service.errors");
        Alcotest.(check bool) "failed result not cached" false
          (Cache.mem cache a.Executor.key)
      | _ -> Alcotest.fail "wrong arity")

let t_executor_timeout () =
  let compute ~jobs:_ (r : Request.t) =
    match r.Request.spec with
    | Request.Experiment { id = "e1"; _ } ->
      (* Allocate so the SIGALRM poll point is reached promptly. *)
      let rec spin acc = if Sys.opaque_identity !acc < 0 then Ok Json.Null else spin (ref (!acc + 1)) in
      spin (ref 0)
    | _ -> Ok Json.Null
  in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~timeout_s:0.2 ~cache ~compute () in
      match Executor.run_batch executor [ r1; r2 ] with
      | [ a; b ] ->
        Alcotest.(check bool) "runaway request timed out" true
          (a.Executor.outcome = Executor.Timeout);
        Alcotest.(check bool) "sibling still served" true
          (b.Executor.outcome = Executor.Ok Json.Null);
        Alcotest.(check int) "timeout counted" 1
          (Metrics.counter_value registry "service.timeouts")
      | _ -> Alcotest.fail "wrong arity")

(* Cache round-trip against the real catalog: save -> reload -> serve must
   be byte-identical to a fresh computation (quick e1 keeps it fast). *)
let t_catalog_roundtrip_byte_identical () =
  let req = Request.experiment ~quick:true "e1" in
  let fresh =
    match Catalog.compute ~jobs:1 req with
    | Ok payload -> Json.to_string payload
    | Error msg -> Alcotest.fail msg
  in
  with_temp_file (fun path ->
      Sys.remove path;
      let cache = Cache.create ~path () in
      let executor = Executor.create ~cache ~compute:Catalog.compute () in
      ignore (Executor.run_batch executor [ req ]);
      Cache.close cache;
      let cache = Cache.create ~path () in
      let executor = Executor.create ~cache ~compute:Catalog.compute () in
      match Executor.run_batch executor [ req ] with
      | [ { Executor.cached = true; outcome = Executor.Ok payload; _ } ] ->
        Alcotest.(check string) "reloaded-cache serve = fresh computation" fresh
          (Json.to_string payload);
        Cache.close cache
      | _ -> Alcotest.fail "expected one cache hit after reload")

let t_catalog_unknown () =
  (match Catalog.compute ~jobs:1 (Request.experiment "e99") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown experiment must be an error");
  match Catalog.compute ~jobs:1 (Request.certify ~target:"direct" ~plan:"no-such-plan" ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown plan must be an error"

(* ---- the server under concurrent clients ---- *)

let connect transport =
  match Transport.connect transport with
  | Ok fd -> fd
  | Error reason -> failwith ("connect: " ^ reason)

let send_line fd json =
  let line = Json.to_string json ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

let recv_lines fd wanted =
  let buf = Buffer.create 1024 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let count () =
    let n = ref 0 in
    String.iter (fun c -> if c = '\n' then incr n) (Buffer.contents buf);
    !n
  in
  while count () < wanted && Unix.gettimeofday () < deadline do
    match Unix.select [ fd ] [] [] 1.0 with
    | [], _, _ -> ()
    | _ ->
      let bytes = Bytes.create 65536 in
      let n = Unix.read fd bytes 0 (Bytes.length bytes) in
      if n = 0 then raise Exit else Buffer.add_subbytes buf bytes 0 n
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> match Json.parse l with Ok j -> j | Error e -> failwith e)

let status_of json =
  Option.value ~default:"?" (Option.bind (Json.member "status" json) Json.to_str_opt)

(* Run a toy-compute server in its own domain (Unix.fork is off the table:
   the exec suite has already spawned domains by the time this suite runs)
   and hand the test body its live transport — a scratch Unix socket by
   default, an ephemeral loopback TCP port with [~tcp:true] (resolved
   race-free through the server's [ready] callback).  The server domain
   gets a fresh metrics registry — the DLS default is one global registry,
   which the parent's earlier tests have already written service.* counts
   into. *)
let with_toy_server ?(capacity = 64) ?chaos ?max_queue ?(tcp = false) body =
  let tmp = Filename.temp_file "lbsvc_srv" "" in
  Sys.remove tmp;
  let socket = tmp ^ ".sock" in
  let listen =
    if tcp then Transport.Tcp { host = "127.0.0.1"; port = 0 }
    else Transport.Unix_socket socket
  in
  let resolved = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        try
          Metrics.with_registry (Metrics.create ()) (fun () ->
              let cache = Cache.create ~capacity () in
              let calls = ref 0 in
              let executor = Executor.create ~cache ~compute:(counting_compute calls) () in
              ignore
                (Server.serve ~transport:listen ~executor ?chaos ?max_queue
                   ~ready:(fun t -> Atomic.set resolved (Some t)) ()))
        with _ -> ())
  in
  let rec await k =
    match Atomic.get resolved with
    | Some t -> t
    | None ->
      if k = 0 then failwith "toy server never bound its transport"
      else begin
        Unix.sleepf 0.01;
        await (k - 1)
      end
  in
  let transport = await 500 in
  let finally () =
    (try
       ignore
         (Client.call ~transport ~timeout_s:2.0 [ Json.Obj [ ("op", Json.Str "shutdown") ] ])
     with _ -> ());
    Domain.join server;
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () ->
      Alcotest.(check bool) "server came up" true (Client.wait_ready ~transport ());
      body transport)

(* Fire a randomized mix of requests from several simultaneously connected
   clients (duplicates included, written before any responses are read, so
   the server coalesces across clients), and check every response plus the
   hit/miss/dedup accounting. *)
let t_server_concurrent_fuzz () =
  with_toy_server (fun transport ->
        let pool =
          [|
            Request.experiment "e1"; Request.experiment "e2";
            Request.certify ~target:"direct" ~plan:"crash-stop" ();
          |]
        in
        let rand = Random.State.make [| 0xC0FFEE |] in
        let total = ref 0 in
        for _round = 1 to 3 do
          (* Connect all clients first, write every request, then read: the
             requests are genuinely in flight together. *)
          let clients =
            List.init 3 (fun _ ->
                let fd = connect transport in
                let reqs =
                  List.init
                    (1 + Random.State.int rand 4)
                    (fun _ -> pool.(Random.State.int rand (Array.length pool)))
                in
                List.iter (fun r -> send_line fd (Request.to_json r)) reqs;
                total := !total + List.length reqs;
                (fd, reqs))
          in
          List.iter
            (fun (fd, reqs) ->
              let responses = recv_lines fd (List.length reqs) in
              Alcotest.(check int) "one response per request" (List.length reqs)
                (List.length responses);
              List.iter2
                (fun req response ->
                  Alcotest.(check string) "status ok" "ok" (status_of response);
                  let echoed =
                    Option.bind (Json.member "data" response) (Json.member "echo")
                  in
                  Alcotest.(check bool) "payload echoes the request" true
                    (echoed = Some (Json.Str (Request.describe req))))
                reqs responses;
              Unix.close fd)
            clients
        done;
        (* The accounting must balance: every request was a hit, a fresh
           computation, or an in-flight dedup; distinct keys bound misses. *)
        match Client.call ~transport ~timeout_s:5.0 [ Json.Obj [ ("op", Json.Str "metrics") ] ] with
        | Error e -> Alcotest.fail (Client.error_message e)
        | Ok [ response ] ->
          let counter name =
            match
              Option.bind (Json.member "data" response) (fun d ->
                  Option.bind (Json.member "counters" d) (fun c ->
                      Option.bind (Json.member name c) Json.to_int_opt))
            with
            | Some v -> v
            | None -> 0
          in
          let hits = counter "service.hits"
          and misses = counter "service.misses"
          and dedups = counter "service.dedup_inflight" in
          Alcotest.(check int) "hits + misses + dedups = requests" !total
            (hits + misses + dedups);
          Alcotest.(check bool) "each distinct key computed at most once" true (misses <= 3);
          Alcotest.(check int) "no errors" 0 (counter "service.errors")
        | Ok _ -> Alcotest.fail "expected one metrics response")

let t_server_rejects_garbage () =
  with_toy_server (fun transport ->
      let fd = connect transport in
      ignore (Unix.write_substring fd "not json at all\n" 0 16);
      send_line fd (Json.Obj [ ("kind", Json.Str "experiment") ]);
      (* missing id *)
      send_line fd (Request.to_json r1);
      let responses = recv_lines fd 3 in
      (match List.map status_of responses with
      | [ "error"; "error"; "ok" ] -> ()
      | other ->
        Alcotest.fail
          (Printf.sprintf "expected error;error;ok, got %s" (String.concat ";" other)));
      Unix.close fd)

(* ---- client resilience against malformed servers ---- *)

(* A single-shot fake server: accept one connection, drain whatever the
   client wrote (until a newline or the peer stops sending), run [script]
   on the connection, close.  Lets each test scripts an arbitrary broken
   reply without touching the real server. *)
let with_fake_server script body =
  let tmp = Filename.temp_file "lbsvc_fake" "" in
  Sys.remove tmp;
  let socket = tmp ^ ".sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let server =
    Domain.spawn (fun () ->
        try
          let fd, _ = Unix.accept listener in
          let bytes = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd bytes 0 (Bytes.length bytes) with
            | 0 -> ()
            | n -> if not (Bytes.contains (Bytes.sub bytes 0 n) '\n') then drain ()
            | exception Unix.Unix_error _ -> ()
          in
          drain ();
          (try script fd with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        with _ -> ())
  in
  let finally () =
    Domain.join server;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () -> body (Transport.Unix_socket socket))

let raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))
let ping = Json.Obj [ ("op", Json.Str "ping") ]

let t_client_truncated_reply () =
  with_fake_server
    (fun fd -> raw fd "{\"status\":\"ok\",\"da")
    (fun transport ->
      match Client.call ~transport ~timeout_s:5.0 [ ping ] with
      | Error Client.Closed -> ()
      | Error e ->
        Alcotest.fail ("expected Closed, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "truncated reply must not parse as a response")

let t_client_non_json_reply () =
  with_fake_server
    (fun fd -> raw fd "this is not json\n")
    (fun transport ->
      match Client.call ~transport ~timeout_s:5.0 [ ping ] with
      | Error (Client.Bad_line { line; _ }) ->
        Alcotest.(check string) "offending line preserved" "this is not json" line
      | Error e ->
        Alcotest.fail ("expected Bad_line, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "non-JSON reply must not parse as a response")

let t_client_unknown_key_reply () =
  with_fake_server
    (fun fd -> raw fd "{\"key\":\"deadbeef\",\"status\":\"ok\"}\n")
    (fun transport ->
      match Client.request ~transport ~timeout_s:5.0 [ Request.experiment "e1" ] with
      | Error (Client.Unknown_key { key; _ }) ->
        Alcotest.(check string) "stray key reported" "deadbeef" key
      | Error e ->
        Alcotest.fail ("expected Unknown_key, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "a reply keyed by an unknown hash must be rejected")

let t_client_timeout_and_connect () =
  (* A server that accepts and then never replies -> Timeout. *)
  with_fake_server
    (fun _fd -> Unix.sleepf 0.3)
    (fun transport ->
      match Client.call ~transport ~timeout_s:0.1 [ ping ] with
      | Error (Client.Timeout s) -> Alcotest.(check (float 1e-9)) "deadline echoed" 0.1 s
      | Error e -> Alcotest.fail ("expected Timeout, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "a mute server cannot satisfy the call");
  (* No socket at all -> Connect, not an exception. *)
  match
    Client.call
      ~transport:(Transport.Unix_socket "/nonexistent/lbsvc.sock")
      ~timeout_s:1.0 [ ping ]
  with
  | Error (Client.Connect _) -> ()
  | Error e -> Alcotest.fail ("expected Connect, got " ^ Client.error_message e)
  | Ok _ -> Alcotest.fail "connecting to a missing socket cannot succeed"

(* Seeded fuzz: whatever bytes the server sends back, the client returns a
   typed result — it never raises and never hangs past its deadline. *)
let t_client_garbage_fuzz () =
  let rand = Random.State.make [| 0xBADF00D |] in
  for _case = 1 to 12 do
    let len = Random.State.int rand 80 in
    let reply =
      String.init len (fun _ -> Char.chr (32 + Random.State.int rand 95))
      ^ if Random.State.bool rand then "\n" else ""
    in
    with_fake_server
      (fun fd -> raw fd reply)
      (fun transport ->
        match Client.call ~transport ~timeout_s:5.0 [ ping ] with
        | Ok _ | Error _ -> ()
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "client raised %s on reply %S" (Printexc.to_string e) reply))
  done

(* ---- robustness satellites: short writes, torn journals, retries ---- *)

(* Regression for the short-write bug: write_line must deliver a reply far
   larger than the socket's send buffer intact, however many write
   syscalls that takes.  A concurrent reader domain drains the other end
   so the blocking writes can make progress. *)
let t_write_line_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let blob = String.concat "" (List.init 8000 (fun i -> Printf.sprintf "x%d" i)) in
  let json = Json.Obj [ ("status", Json.Str "ok"); ("blob", Json.Str blob) ] in
  let expected = Json.to_string json ^ "\n" in
  let reader =
    Domain.spawn (fun () ->
        let buf = Buffer.create (String.length expected) in
        let bytes = Bytes.create 65536 in
        let rec go () =
          if Buffer.length buf < String.length expected then
            match Unix.read b bytes 0 (Bytes.length bytes) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf bytes 0 n;
              go ()
        in
        go ();
        Buffer.contents buf)
  in
  Server.write_line a json;
  Unix.close a;
  let got = Domain.join reader in
  Unix.close b;
  Alcotest.(check int) "every byte delivered" (String.length expected) (String.length got);
  Alcotest.(check bool) "byte-identical line" true (String.equal got expected)

(* Property: tearing the journal's final record (a crash mid-append) loses
   at most that one record — every earlier entry reloads, nothing raises,
   and the survivor still accepts appends. *)
let t_cache_truncated_tail =
  prop ~count:50 "torn final journal record loses at most that record"
    (QCheck.make
       QCheck.Gen.(
         let* payloads = list_size (1 -- 5) gen_payload in
         let* cut = 2 -- 10_000 in
         return (payloads, cut)))
    (fun (payloads, cut) ->
      with_temp_file (fun path ->
          Sys.remove path;
          let cache = Cache.create ~path ~fsync:true () in
          List.iteri
            (fun i p -> Cache.store cache ~key:(Printf.sprintf "k%d" i) ~request:Json.Null p)
            payloads;
          Cache.sync cache;
          Cache.close cache;
          let contents = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length contents in
          (* Bytes of the final record including its newline. *)
          let last_line_len =
            match String.rindex_from_opt contents (len - 2) '\n' with
            | Some nl -> len - nl - 1
            | None -> len
          in
          (* Tear off the trailing newline plus at least one byte of the
             record — possibly the whole record. *)
          let torn = 2 + (cut mod (max 1 (last_line_len - 1))) in
          Unix.truncate path (max 0 (len - torn));
          let n = List.length payloads in
          let reloaded = Cache.create ~path () in
          let earlier_ok =
            List.for_all
              (fun i ->
                Cache.find reloaded (Printf.sprintf "k%d" i)
                = Some (List.nth payloads i))
              (List.init (n - 1) Fun.id)
          in
          let corrupt_ok = Cache.corrupt reloaded <= 1 in
          (* The survivor must still journal appends cleanly. *)
          Cache.store reloaded ~key:"fresh" ~request:Json.Null payload_a;
          Cache.close reloaded;
          let again = Cache.create ~path () in
          let append_ok = Cache.find again "fresh" = Some payload_a in
          Cache.close again;
          earlier_ok && corrupt_ok && append_ok))

let t_cache_snapshot_compact () =
  with_temp_file (fun path ->
      Sys.remove path;
      let cache = Cache.create ~capacity:2 ~path () in
      Cache.store cache ~key:"a" ~request:(Json.Str "ra") payload_a;
      Cache.store cache ~key:"b" ~request:(Json.Str "rb") payload_b;
      Cache.store cache ~key:"a" ~request:(Json.Str "ra") payload_c;
      ignore (Cache.find cache "a");
      (* "b" is LRU; "c" evicts it.  The journal now holds 4 lines for 2
         live entries — exactly the dead weight compaction drops. *)
      Cache.store cache ~key:"c" ~request:(Json.Str "rc") payload_b;
      let snapshot = Json.to_string (Cache.snapshot_json cache) in
      Alcotest.(check bool) "snapshot is key-sorted live entries" true
        (Cache.snapshot cache = [ ("a", payload_c); ("c", payload_b) ]);
      Cache.compact cache;
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "compacted journal: one line per live entry" 2 (List.length lines);
      (* Compaction must not break the append channel. *)
      Cache.store cache ~key:"d" ~request:(Json.Str "rd") payload_a;
      Cache.close cache;
      let reloaded = Cache.create ~capacity:4 ~path () in
      Alcotest.(check int) "no corruption after compact+append" 0 (Cache.corrupt reloaded);
      Alcotest.(check bool) "post-compact reload serves the snapshot" true
        (Cache.find reloaded "a" = Some payload_c && Cache.find reloaded "d" = Some payload_a);
      Cache.close reloaded;
      ignore snapshot)

let t_backoff_schedule () =
  let r = { Client.default_retry with Client.seed = 7 } in
  List.iter
    (fun k ->
      let d1 = Client.backoff_s r ~failures:k and d2 = Client.backoff_s r ~failures:k in
      Alcotest.(check (float 0.0)) "deterministic in (policy, failures)" d1 d2;
      let base =
        Float.min r.Client.max_delay_s
          (r.Client.base_delay_s *. (r.Client.multiplier ** float_of_int (k - 1)))
      in
      let lo = base *. (1.0 -. (r.Client.jitter /. 2.0))
      and hi = base *. (1.0 +. (r.Client.jitter /. 2.0)) in
      Alcotest.(check bool)
        (Printf.sprintf "failure %d within the jitter band" k)
        true
        (d1 >= lo -. 1e-9 && d1 <= hi +. 1e-9))
    [ 1; 2; 3; 4; 5; 6; 10 ];
  let r' = { r with Client.seed = 8 } in
  Alcotest.(check bool) "seed moves the schedule" true
    (List.exists
       (fun k -> Client.backoff_s r ~failures:k <> Client.backoff_s r' ~failures:k)
       [ 1; 2; 3; 4; 5 ])

(* A fake server that misbehaves differently on successive connections:
   one accept + script per expected client attempt. *)
let with_fake_server_seq scripts body =
  let tmp = Filename.temp_file "lbsvc_fakeseq" "" in
  Sys.remove tmp;
  let socket = tmp ^ ".sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 8;
  let server =
    Domain.spawn (fun () ->
        List.iter
          (fun script ->
            match Unix.accept listener with
            | fd, _ ->
              let bytes = Bytes.create 4096 in
              let rec drain () =
                match Unix.read fd bytes 0 (Bytes.length bytes) with
                | 0 -> ()
                | n -> if not (Bytes.contains (Bytes.sub bytes 0 n) '\n') then drain ()
                | exception Unix.Unix_error _ -> ()
              in
              drain ();
              (try script fd with _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
            | exception _ -> ())
          scripts)
  in
  let finally () =
    Domain.join server;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () -> body (Transport.Unix_socket socket))

let fast_retry attempts =
  { Client.default_retry with Client.attempts; base_delay_s = 0.01; max_delay_s = 0.05 }

(* The retrying client survives a garbled line, then a dropped connection,
   and lands on the third attempt — with exactly two retries recorded. *)
let t_client_retry_recovers () =
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      with_fake_server_seq
        [
          (fun fd -> raw fd "}}}garbled\n");
          (fun _fd -> ());
          (fun fd -> raw fd "{\"status\":\"ok\"}\n");
        ]
        (fun transport ->
          match Client.call_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 4) [ ping ] with
          | Ok [ reply ] -> Alcotest.(check string) "third attempt lands" "ok" (status_of reply)
          | Ok _ -> Alcotest.fail "wrong reply arity"
          | Error e -> Alcotest.fail ("retry should have recovered: " ^ Client.error_message e)));
  Alcotest.(check int) "two retries recorded" 2
    (Metrics.counter_value registry "service.retries")

let t_client_retry_overload () =
  (* One overload refusal, then served: call_retry backs off and recovers. *)
  with_fake_server_seq
    [
      (fun fd -> raw fd "{\"status\":\"overload\",\"retry_after_s\":0.05}\n");
      (fun fd -> raw fd "{\"status\":\"ok\"}\n");
    ]
    (fun transport ->
      match Client.call_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 3) [ ping ] with
      | Ok [ reply ] -> Alcotest.(check string) "served after backoff" "ok" (status_of reply)
      | Ok _ | Error _ -> Alcotest.fail "expected recovery after one overload");
  (* Refused every time: the typed Overload surfaces once the budget is spent. *)
  with_fake_server_seq
    [
      (fun fd -> raw fd "{\"status\":\"overload\",\"retry_after_s\":0.05}\n");
      (fun fd -> raw fd "{\"status\":\"overload\",\"retry_after_s\":0.05}\n");
    ]
    (fun transport ->
      match Client.call_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 2) [ ping ] with
      | Error (Client.Overload { attempts }) -> Alcotest.(check int) "budget echoed" 2 attempts
      | Error e -> Alcotest.fail ("expected Overload, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "a permanently overloaded server cannot satisfy the call")

let t_client_out_of_order_replies () =
  (* Replies for a batch arriving in the wrong order are still accepted —
     responses are keyed, and key-set validation is what the client pins. *)
  let ra = Request.echo "ooo-a" and rb = Request.echo "ooo-b" in
  with_fake_server
    (fun fd ->
      raw fd
        (Printf.sprintf "{\"key\":%S,\"status\":\"ok\"}\n{\"key\":%S,\"status\":\"ok\"}\n"
           (Request.key rb) (Request.key ra)))
    (fun transport ->
      match Client.request ~transport ~timeout_s:5.0 [ ra; rb ] with
      | Ok replies -> Alcotest.(check int) "both keyed replies accepted" 2 (List.length replies)
      | Error e -> Alcotest.fail ("expected acceptance: " ^ Client.error_message e))

(* Idempotency under resends: a dropped reply forces a retry of an
   already-executed request, and the cache — not a second execution —
   serves it.  misses = 1 is the proof. *)
let t_client_never_double_executes () =
  let engine = Chaos.instantiate ~seed:3 (Chaos.drop_reply ~at:[ 1 ]) in
  with_toy_server ~chaos:engine (fun transport ->
      let req = Request.echo "idempotent" in
      (match Client.request_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 5) [ req ] with
      | Ok [ reply ] -> Alcotest.(check string) "recovered after drop" "ok" (status_of reply)
      | Ok _ | Error _ -> Alcotest.fail "retry should recover the dropped reply");
      (match Client.request_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 5) [ req ] with
      | Ok [ reply ] -> Alcotest.(check string) "second call ok" "ok" (status_of reply)
      | Ok _ | Error _ -> Alcotest.fail "second call should be a cache hit");
      match Client.call ~transport ~timeout_s:5.0 [ Json.Obj [ ("op", Json.Str "metrics") ] ] with
      | Ok [ response ] ->
        let counter name =
          match
            Option.bind (Json.member "data" response) (fun d ->
                Option.bind (Json.member "counters" d) (fun c ->
                    Option.bind (Json.member name c) Json.to_int_opt))
          with
          | Some v -> v
          | None -> 0
        in
        Alcotest.(check int) "executed exactly once despite resends" 1
          (counter "service.misses");
        Alcotest.(check int) "resends served from the cache" 2 (counter "service.hits")
      | Ok _ | Error _ -> Alcotest.fail "metrics fetch failed")

let t_server_overload_backpressure () =
  with_toy_server ~max_queue:1 (fun transport ->
      let reqs = List.init 3 (fun i -> Request.echo (Printf.sprintf "ovl-%d" i)) in
      (match Client.request ~transport ~timeout_s:5.0 reqs with
      | Error e -> Alcotest.fail (Client.error_message e)
      | Ok replies ->
        let statuses = List.map status_of replies in
        Alcotest.(check int) "every request answered" 3 (List.length replies);
        Alcotest.(check bool) "the excess was refused, typed" true
          (List.mem "overload" statuses);
        Alcotest.(check bool) "the admitted prefix was served" true (List.mem "ok" statuses));
      (* One at a time, the retrying client lands everything. *)
      List.iter
        (fun r ->
          match Client.request_retry ~transport ~timeout_s:5.0 ~retry:(fast_retry 5) [ r ] with
          | Ok [ reply ] -> Alcotest.(check string) "served" "ok" (status_of reply)
          | Ok _ | Error _ -> Alcotest.fail "individual request should succeed")
        reqs)

let t_catalog_echo_deterministic () =
  let req = Request.echo ~size:10 "tag" in
  match (Catalog.compute ~jobs:1 req, Catalog.compute ~jobs:4 req) with
  | Ok a, Ok b ->
    Alcotest.(check string) "echo is jobs-invariant and deterministic" (Json.to_string a)
      (Json.to_string b);
    Alcotest.(check bool) "fill has the requested size" true
      (match Option.bind (Json.member "fill" a) Json.to_str_opt with
      | Some fill -> String.length fill = 10
      | None -> false)
  | _ -> Alcotest.fail "echo compute cannot fail"

let t_catalog_echo_work () =
  let req = Request.echo ~size:4 ~work:5 "w" in
  match (Catalog.compute ~jobs:1 req, Catalog.compute ~jobs:4 req) with
  | Ok a, Ok b ->
    Alcotest.(check string) "work digest is jobs-invariant and deterministic"
      (Json.to_string a) (Json.to_string b);
    Alcotest.(check bool) "digest present when work > 0" true (Json.member "digest" a <> None)
  | _ -> Alcotest.fail "echo compute cannot fail"

(* Transport parity: the byte stream a client reads is transport-agnostic.
   Prime the same request on a Unix-socket server and on a TCP server;
   the second (cache-hit) reply carries elapsed_s = 0.0 exactly, so the
   raw reply lines must be byte-identical across the two transports. *)
let recv_raw_line fd =
  let buf = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (String.contains (Buffer.contents buf) '\n') do
    if Unix.gettimeofday () > deadline then failwith "raw reply timeout";
    match Unix.select [ fd ] [] [] 1.0 with
    | [], _, _ -> ()
    | _ ->
      let bytes = Bytes.create 4096 in
      let n = Unix.read fd bytes 0 (Bytes.length bytes) in
      if n = 0 then failwith "eof before reply" else Buffer.add_subbytes buf bytes 0 n
  done;
  let s = Buffer.contents buf in
  String.sub s 0 (String.index s '\n')

let t_tcp_unix_parity () =
  let req = Request.echo ~size:32 ~work:3 "transport-parity" in
  let second_reply transport =
    (match Client.request ~transport ~timeout_s:15.0 [ req ] with
    | Ok [ r ] -> Alcotest.(check string) "prime ok" "ok" (status_of r)
    | Ok _ | Error _ -> Alcotest.fail "prime request failed");
    let fd = connect transport in
    send_line fd (Request.to_json req);
    let line = recv_raw_line fd in
    Unix.close fd;
    line
  in
  let via_unix = ref "" and via_tcp = ref "" in
  with_toy_server (fun transport -> via_unix := second_reply transport);
  with_toy_server ~tcp:true (fun transport -> via_tcp := second_reply transport);
  Alcotest.(check bool) "a reply actually arrived" true (String.length !via_unix > 0);
  Alcotest.(check string) "cache-hit replies are byte-identical across transports"
    !via_unix !via_tcp

(* ---- the transport address grammar ----

   The parser must never guess: colon-bearing hosts need brackets,
   prefix-less strings fall back to a socket path unless they are
   unambiguously HOST:PORT, and the printer keeps the round-trip
   [of_string (to_string t) = Ok t] by construction (falling back to
   the explicit "unix:"/"tcp:" prefix whenever the plain rendering
   would parse as something else). *)

let transport_t = Alcotest.testable Transport.pp ( = )

let t_transport_grammar () =
  let ok s expect =
    Alcotest.(check (result transport_t string)) s (Ok expect) (Transport.of_string s)
  in
  let err s =
    match Transport.of_string s with
    | Error _ -> ()
    | Ok t -> Alcotest.failf "%S must not parse (got %s)" s (Transport.to_string t)
  in
  ok "localhost:8080" (Transport.Tcp { host = "localhost"; port = 8080 });
  ok "[::1]:80" (Transport.Tcp { host = "::1"; port = 80 });
  ok "tcp:[fe80::2]:443" (Transport.Tcp { host = "fe80::2"; port = 443 });
  ok "tcp:db.internal:5432" (Transport.Tcp { host = "db.internal"; port = 5432 });
  ok "tcp:localhost:0" (Transport.Tcp { host = "localhost"; port = 0 });
  (* paths, not truncated TCP guesses *)
  ok "::1" (Transport.Unix_socket "::1");
  ok "host:" (Transport.Unix_socket "host:");
  ok "a:b:1" (Transport.Unix_socket "a:b:1");
  ok "/var/run/app.sock:8080" (Transport.Unix_socket "/var/run/app.sock:8080");
  ok "unix:/var/run/app.sock:8080" (Transport.Unix_socket "/var/run/app.sock:8080");
  ok "unix:localhost:80" (Transport.Unix_socket "localhost:80");
  ok "/tmp/lb.sock" (Transport.Unix_socket "/tmp/lb.sock");
  (* malformed or ambiguous: errors, never guesses *)
  err "";
  err "tcp:";
  err "unix:";
  err "tcp:a:b:1";
  err "tcp:host";
  err "tcp:host:";
  err "tcp::80";
  err "tcp:host:70000";
  err "tcp:host:8o80";
  err "[::1]80";
  err "[]:80"

let print_transport = function
  | Transport.Unix_socket p -> Printf.sprintf "Unix_socket %S" p
  | Transport.Tcp { host; port } -> Printf.sprintf "Tcp {host = %S; port = %d}" host port

let gen_transport =
  QCheck.Gen.(
    let host_char = oneofl [ 'a'; 'z'; 'A'; '0'; '9'; '.'; '-'; ':' ] in
    let path_char = oneofl [ 'a'; 'z'; '/'; ':'; '.'; '-'; '0'; '9'; '['; ']'; '_' ] in
    oneof
      [
        (let* path = string_size ~gen:path_char (1 -- 20) in
         return (Transport.Unix_socket path));
        (let* host = string_size ~gen:host_char (1 -- 12) in
         let* port = 0 -- 65535 in
         return (Transport.Tcp { host; port }));
        (* paths engineered to collide with the address grammar *)
        (let* prefix = oneofl [ "unix:"; "tcp:"; "localhost:80"; "::1"; "[::1]:80" ] in
         let* suffix = string_size ~gen:path_char (0 -- 8) in
         return (Transport.Unix_socket (prefix ^ suffix)));
        (* hosts that shadow the prefixes or carry colons *)
        (let* host = oneofl [ "unix"; "tcp"; "::1"; "fe80::2"; "a.b-c" ] in
         let* port = 0 -- 65535 in
         return (Transport.Tcp { host; port }));
      ])

let t_transport_roundtrip =
  prop ~count:500 "transport: of_string (to_string t) = Ok t"
    (QCheck.make ~print:print_transport gen_transport)
    (fun t -> Transport.of_string (Transport.to_string t) = Ok t)

let t_transport_parse_total =
  prop ~count:500 "transport: parsing is total and parse-print-parse stable"
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:printable (0 -- 24)))
    (fun s ->
      (* No input raises, and anything that parses re-parses to itself. *)
      match Transport.of_string s with
      | Error _ -> true
      | Ok t -> Transport.of_string (Transport.to_string t) = Ok t)

(* ---- the latency histogram ---- *)

let t_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i *. 0.001)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check bool) "p50 within bucket tolerance of 50ms" true
    (Float.abs (Histogram.quantile h 0.5 -. 0.050) /. 0.050 < 0.05);
  Alcotest.(check (float 1e-12)) "q=1 is the exact max" 0.1 (Histogram.quantile h 1.0);
  Alcotest.(check (float 1e-12)) "q=0 is the exact min" 0.001 (Histogram.quantile h 0.0);
  (try
     ignore (Histogram.quantile h 1.5);
     Alcotest.fail "q outside [0,1] must raise"
   with Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "empty histogram quantile is 0" 0.0
    (Histogram.quantile (Histogram.create ()) 0.9)

let t_histogram_merge_deterministic () =
  (* Interleave one value stream into two histograms; their merge must
     agree with the histogram that saw everything — the structure is a
     pure function of the multiset, not of arrival order. *)
  let xs = List.init 200 (fun i -> float_of_int (i * 7919 mod 200) *. 0.0005) in
  let a = Histogram.create () and b = Histogram.create () and whole = Histogram.create () in
  List.iteri
    (fun i v ->
      Histogram.add (if i mod 2 = 0 then a else b) v;
      Histogram.add whole v)
    xs;
  let merged = Histogram.merge a b in
  Alcotest.(check int) "counts add under merge" 200 (Histogram.count merged);
  Alcotest.(check (float 1e-12)) "sums add under merge" (Histogram.sum whole)
    (Histogram.sum merged);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "q=%g agrees with the unsplit stream" q)
        (Histogram.quantile whole q) (Histogram.quantile merged q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

(* Adversarial latency values for the property tests: exact log-linear
   bucket boundaries (1e-6 * 1.04^k) and their floating-point
   neighbours — the values where an off-by-one in the bucket index or
   an open/closed boundary mix-up would surface — plus the documented
   clamp cases (NaN, negative) and far-tail values. *)
let gen_latency =
  QCheck.Gen.(
    oneof
      [
        (let* k = 0 -- 220 in
         let* nudge = oneofl [ Float.pred; Fun.id; Float.succ ] in
         return (nudge (1e-6 *. (1.04 ** float_of_int k))));
        oneofl [ 0.0; 1e-6; -1.0; Float.nan; 5000.0 ];
        float_bound_inclusive 0.5;
      ])

let histogram_of vs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) vs;
  h

let quantile_grid = [ 0.0; 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let t_histogram_merge_splits =
  prop ~count:300 "histogram: merge = unsplit stream at every split, boundary values"
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) (list float))
       QCheck.Gen.(pair (list_size (0 -- 60) gen_latency) (list_size (0 -- 60) gen_latency)))
    (fun (xs, ys) ->
      let merged = Histogram.merge (histogram_of xs) (histogram_of ys) in
      let whole = histogram_of (xs @ ys) in
      Histogram.count merged = Histogram.count whole
      && Float.abs (Histogram.sum merged -. Histogram.sum whole)
         <= 1e-9 *. (1.0 +. Float.abs (Histogram.sum whole))
      && List.for_all
           (fun q ->
             (* buckets, count, min and max merge exactly, so quantiles
                must agree to the last bit, not within tolerance. *)
             Float.equal (Histogram.quantile merged q) (Histogram.quantile whole q))
           quantile_grid)

let t_histogram_quantile_monotone =
  prop ~count:300 "histogram: quantile is monotone in q"
    (QCheck.make
       ~print:QCheck.Print.(triple (list float) float float)
       QCheck.Gen.(
         triple
           (list_size (0 -- 60) gen_latency)
           (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, qa, qb) ->
      let h = histogram_of vs in
      Histogram.quantile h (Float.min qa qb) <= Histogram.quantile h (Float.max qa qb))

let t_histogram_quantiles_bounded =
  prop ~count:300 "histogram: every quantile lies in the observed [min, max]"
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) float)
       QCheck.Gen.(pair (list_size (1 -- 60) gen_latency) (float_bound_inclusive 1.0)))
    (fun (vs, q) ->
      let h = histogram_of vs in
      let v = Histogram.quantile h q in
      Histogram.quantile h 0.0 <= v && v <= Histogram.quantile h 1.0)

(* ---- the load generator's schedule ---- *)

let t_loadgen_schedule_deterministic () =
  let cfg =
    { Loadgen.default with clients = 2; requests_per_client = 40; warmup = 5; seed = 9 }
  in
  let a = Loadgen.schedule cfg ~client:0 in
  Alcotest.(check bool) "same seed, same schedule" true (a = Loadgen.schedule cfg ~client:0);
  Alcotest.(check int) "warmup + measured requests" 45 (List.length a);
  Alcotest.(check bool) "different seed, different schedule" false
    (a = Loadgen.schedule { cfg with seed = 10 } ~client:0);
  Alcotest.(check bool) "different client, different schedule" false
    (a = Loadgen.schedule cfg ~client:1)

let t_loadgen_mix_respects_ratio () =
  let cfg =
    { Loadgen.default with hit_ratio = 0.0; hot_tags = 4; requests_per_client = 50; warmup = 0 }
  in
  let keys schedule = List.sort_uniq compare (List.map Request.key schedule) in
  Alcotest.(check int) "hit_ratio 0: every key distinct (all misses)" 50
    (List.length (keys (Loadgen.schedule cfg ~client:0)));
  Alcotest.(check bool) "hit_ratio 1: keys drawn from the hot pool" true
    (List.length (keys (Loadgen.schedule { cfg with hit_ratio = 1.0 } ~client:0)) <= 4)

let t_loadgen_rejects_invalid_configs () =
  let rejects what cfg =
    match Loadgen.schedule cfg ~client:0 with
    | _ -> Alcotest.failf "%s must raise Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  rejects "clients = 0" { Loadgen.default with clients = 0 };
  (* one domain per client: past the runtime's domain cap the run would
     die in Domain.spawn, so the config is refused up front. *)
  rejects "clients = 200" { Loadgen.default with clients = 200 };
  rejects "hit_ratio > 1" { Loadgen.default with hit_ratio = 1.5 };
  (* the largest accepted client count *)
  ignore (Loadgen.schedule { Loadgen.default with clients = 127 } ~client:126)

(* The generator against a live server over TCP: every measured request
   lands, and the bench payload carries the four loadgen rows. *)
let t_loadgen_against_server () =
  with_toy_server ~tcp:true (fun transport ->
      let cfg =
        {
          Loadgen.default with
          clients = 2;
          requests_per_client = 15;
          warmup = 2;
          work = 50;
          timeout_s = 30.0;
        }
      in
      let r = Loadgen.run ~transport cfg in
      Alcotest.(check int) "all measured requests recorded" 30 r.Loadgen.measured;
      Alcotest.(check int) "no errors against a healthy server" 0 r.Loadgen.errors;
      Alcotest.(check bool) "throughput is positive" true (r.Loadgen.throughput_rps > 0.0);
      match Loadgen.bench_payload r with
      | Json.Obj fields -> (
        match List.assoc_opt "benchmarks" fields with
        | Some (Json.Arr rows) ->
          let names =
            List.filter_map
              (fun row -> Option.bind (Json.member "name" row) Json.to_str_opt)
              rows
          in
          Alcotest.(check (list string))
            "bench rows"
            [ "loadgen/p50"; "loadgen/p99"; "loadgen/p999"; "loadgen/mean" ]
            names
        | _ -> Alcotest.fail "bench payload has no benchmarks array")
      | _ -> Alcotest.fail "bench payload is not an object")

let suite =
  [
    Alcotest.test_case "request: distinct requests, distinct keys" `Quick
      t_distinct_requests_distinct_keys;
    Alcotest.test_case "request: of_json fills defaults" `Quick t_of_json_defaults;
    Alcotest.test_case "request: of_json rejects empty workloads" `Quick
      t_of_json_rejects_empty_workloads;
    t_roundtrip;
    t_key_ignores_jobs;
    t_key_ignores_field_order;
    Alcotest.test_case "cache: hit/miss/refresh" `Quick t_cache_hit_miss;
    Alcotest.test_case "cache: LRU eviction" `Quick t_cache_lru_eviction;
    Alcotest.test_case "cache: journal reload" `Quick t_cache_journal_reload;
    Alcotest.test_case "cache: corrupt journal recovery" `Quick t_cache_corrupt_recovery;
    t_cache_roundtrip_byte_identical;
    Alcotest.test_case "executor: in-flight dedup + cache" `Quick t_executor_dedup_and_cache;
    Alcotest.test_case "executor: one poisoned request cannot sink a batch" `Quick
      t_executor_error_isolation;
    Alcotest.test_case "executor: per-request timeout (sequential)" `Quick t_executor_timeout;
    Alcotest.test_case "catalog: save -> reload -> serve = fresh computation" `Slow
      t_catalog_roundtrip_byte_identical;
    Alcotest.test_case "catalog: unknown ids are errors, not crashes" `Quick t_catalog_unknown;
    Alcotest.test_case "server: concurrent client fuzz" `Slow t_server_concurrent_fuzz;
    Alcotest.test_case "server: malformed lines get error responses" `Quick
      t_server_rejects_garbage;
    Alcotest.test_case "client: truncated reply is a typed error" `Quick
      t_client_truncated_reply;
    Alcotest.test_case "client: non-JSON reply is a typed error" `Quick
      t_client_non_json_reply;
    Alcotest.test_case "client: unknown reply key is a typed error" `Quick
      t_client_unknown_key_reply;
    Alcotest.test_case "client: timeout and connect failures are typed" `Quick
      t_client_timeout_and_connect;
    Alcotest.test_case "client: garbage reply fuzz never raises" `Quick t_client_garbage_fuzz;
    Alcotest.test_case "server: write_line survives a tiny send buffer" `Quick
      t_write_line_short_writes;
    t_cache_truncated_tail;
    Alcotest.test_case "cache: snapshot + compact keep only live entries" `Quick
      t_cache_snapshot_compact;
    Alcotest.test_case "client: backoff is deterministic and jitter-bounded" `Quick
      t_backoff_schedule;
    Alcotest.test_case "client: retry recovers across misbehaving connections" `Quick
      t_client_retry_recovers;
    Alcotest.test_case "client: overload refusals are retried, then typed" `Quick
      t_client_retry_overload;
    Alcotest.test_case "client: out-of-order keyed replies are accepted" `Quick
      t_client_out_of_order_replies;
    Alcotest.test_case "client: resends never double-execute (cache proves it)" `Quick
      t_client_never_double_executes;
    Alcotest.test_case "server: admission control refuses the excess, typed" `Quick
      t_server_overload_backpressure;
    Alcotest.test_case "catalog: echo payloads are deterministic" `Quick
      t_catalog_echo_deterministic;
    Alcotest.test_case "catalog: echo work digest is deterministic" `Quick
      t_catalog_echo_work;
    Alcotest.test_case "server: TCP and Unix-socket replies are byte-identical" `Slow
      t_tcp_unix_parity;
    Alcotest.test_case "transport: address grammar pins" `Quick t_transport_grammar;
    t_transport_roundtrip;
    t_transport_parse_total;
    Alcotest.test_case "histogram: quantiles, exact extremes, validation" `Quick
      t_histogram_quantiles;
    Alcotest.test_case "histogram: merge agrees with the unsplit stream" `Quick
      t_histogram_merge_deterministic;
    t_histogram_merge_splits;
    t_histogram_quantile_monotone;
    t_histogram_quantiles_bounded;
    Alcotest.test_case "loadgen: schedule is a pure function of the config" `Quick
      t_loadgen_schedule_deterministic;
    Alcotest.test_case "loadgen: hit ratio shapes the key population" `Quick
      t_loadgen_mix_respects_ratio;
    Alcotest.test_case "loadgen: invalid configs are rejected" `Quick
      t_loadgen_rejects_invalid_configs;
    Alcotest.test_case "loadgen: a server run measures every request" `Slow
      t_loadgen_against_server;
  ]
