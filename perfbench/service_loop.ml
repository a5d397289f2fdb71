(* Workload service: one request server (no router) on a Unix socket, in a
   child process, driven closed-loop by one client from the benchmark
   process.  The requests are Loadgen.default's mix for one client: hot echo
   tags, which the server's cache answers, and unique tags, which miss and
   pay a fixed digest-chain cost, all with 256-byte payloads.  Interleaved
   with them go hits on the same hot tags at 16 KiB, which give the
   payload-size growth.  This is the only workload that reaches Transport,
   Server, Executor and Cache; every simulator layer is idle. *)

open Lb_service
open Common
module Json = Lb_observe.Json

let per_round = 400
let large_every = 4
let large_size = 16384

let loadgen ~seed =
  { Loadgen.default with Loadgen.clients = 1; requests_per_client = per_round; warmup = 0; seed }

(* Every hot tag again, at [large_size]: always a hit once warm. *)
let large ~seed =
  {
    (loadgen ~seed) with
    Loadgen.requests_per_client = per_round / large_every;
    hit_ratio = 1.0;
    size = large_size;
  }

(* Round [i]'s requests: the schedule of loadgen client [i], so unique tags
   never repeat across rounds while the hot tags are shared, with one large
   hit after every [large_every] of them. *)
let requests ~seed i =
  let rec weave k mix large =
    match (mix, large) with
    | m :: mix, l :: large when k mod large_every = large_every - 1 ->
      m :: l :: weave (k + 1) mix large
    | m :: mix, large -> m :: weave (k + 1) mix large
    | [], large -> large
  in
  weave 0 (Loadgen.schedule (loadgen ~seed) ~client:i) (Loadgen.schedule (large ~seed) ~client:i)

(* The server's cache holds 1024 entries, not the default 256.  Each round
   stores 200 misses, so at 256 a hot tag that goes unasked for a few
   hundred requests would be evicted, and its next request would miss where
   the checks expect a hit.  At 1024 that takes thousands of requests. *)
let cache () = Cache.create ~capacity:1024 ()

let is_large req =
  match req.Request.spec with Request.Echo { size; _ } -> size = large_size | _ -> false

(* Loadgen names its shared tags lg-s<seed>-hot-<k>.  Should that change,
   the hit/miss checks fail rather than pass. *)
let hot ~seed req =
  match req.Request.spec with
  | Request.Echo { tag; _ } -> String.starts_with ~prefix:(Printf.sprintf "lg-s%d-hot-" seed) tag
  | _ -> false

let expected req =
  match Catalog.compute ~jobs:1 req with Ok data -> data | Error e -> failwith e

(* ---- the server process ---- *)

type server = { pid : int; transport : Transport.t; heap_fd : Unix.file_descr }

let live = ref []

let start () =
  let transport =
    Transport.Unix_socket
      (Filename.concat "_build" (Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())))
  in
  let ready_rd, ready_wr = Unix.pipe () and heap_rd, heap_wr = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close ready_rd;
    Unix.close heap_rd;
    let code =
      try
        let executor =
          Executor.create ~jobs:1 ~cache:(cache ()) ~compute:Catalog.compute ()
        in
        ignore
          (Server.serve ~transport ~executor
             ~ready:(fun _ ->
               ignore (Unix.write_substring ready_wr "r" 0 1);
               Unix.close ready_wr)
             ());
        let heap = string_of_int (Gc.quick_stat ()).Gc.top_heap_words in
        ignore (Unix.write_substring heap_wr heap 0 (String.length heap));
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    Unix.close ready_wr;
    Unix.close heap_wr;
    live := pid :: !live;
    let buf = Bytes.create 1 in
    let got = Unix.read ready_rd buf 0 1 in
    Unix.close ready_rd;
    if got <> 1 then failwith "service: the server did not come up";
    { pid; transport; heap_fd = heap_rd }

(* Shut the server down and wait for it; returns its peak heap in MB. *)
let stop s =
  ignore
    (Client.call ~transport:s.transport ~timeout_s:10.0 [ Json.Obj [ ("op", Json.Str "shutdown") ] ]);
  let buf = Bytes.create 64 in
  let got = try Unix.read s.heap_fd buf 0 64 with Unix.Unix_error _ -> 0 in
  Unix.close s.heap_fd;
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  Transport.cleanup s.transport;
  match int_of_string_opt (Bytes.sub_string buf 0 got) with
  | Some words -> float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
  | None -> nan

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* ---- one round trip ---- *)

type reply = { latency_s : float; cached : bool; data : Json.t option }

let call r s req ~expect_hit =
  let outcome, latency_s =
    time (fun () -> Client.request ~transport:s.transport ~timeout_s:30.0 [ req ])
  in
  r.attempted <- r.attempted + 1;
  match outcome with
  | Ok [ reply ] ->
    let field name = Json.member name reply in
    let ok =
      Option.bind (field "status") Json.to_str_opt = Some "ok"
      && Option.bind (field "key") Json.to_str_opt = Some (Request.key req)
    in
    let cached = Option.bind (field "cached") Json.to_bool_opt = Some true in
    check r (Printf.sprintf "service: reply to %s is ok" (Request.describe req)) ok;
    check r
      (Printf.sprintf "service: %s is a cache %s" (Request.describe req)
         (if expect_hit then "hit" else "miss"))
      (cached = expect_hit);
    { latency_s; cached; data = field "data" }
  | Ok _ | Error _ ->
    check r (Printf.sprintf "service: round trip for %s" (Request.describe req)) false;
    { latency_s; cached = false; data = None }

type round = {
  hits_ms : float list;  (** Loadgen.default's mix: 256-byte payloads. *)
  misses_ms : float list;
  large_ms : float list;  (** hits at [large_size]. *)
  hits_ref : float list;  (** round trips in units of the reference time. *)
  misses_ref : float list;
  large_ref : float list;
  total_s : float;
  batch_us : float list;  (** traced rounds: in-process Executor.run_batch. *)
  wire_us : float list;  (** traced rounds: each round trip less its batch_us. *)
}

let round r s ~seed ~hot_payloads ~to_verify ~traced i =
  let reqs = requests ~seed i in
  let t0 = now () in
  let replies =
    List.map
      (fun req ->
        let expect_hit = hot ~seed req in
        let reference_s = tick () in
        let reply = call r s req ~expect_hit in
        if expect_hit then
          check r "service: hot payload"
            (Option.equal Json.equal reply.data (Some (List.assoc (Request.key req) hot_payloads)))
        else to_verify := (req, reply.data) :: !to_verify;
        (reply, reference_s))
      reqs
  in
  let total_s = now () -. t0 in
  let batch_us =
    if not traced then []
    else
      (* In-process, after the timed round trips: the same requests through
         a local executor whose cache holds the hot payloads, so hits and
         misses split as on the wire. *)
      (let cache = cache () in
       List.iter (fun (key, data) -> Cache.store cache ~key ~request:Json.Null data) hot_payloads;
       let ex = Executor.create ~jobs:1 ~cache ~compute:Catalog.compute () in
       List.map (fun req -> 1e6 *. snd (time (fun () -> Executor.run_batch ex [ req ]))) reqs)
  in
  let pick f v =
    List.filter_map
      (fun (req, (rp, reference_s)) -> if f (is_large req) rp then Some (v rp reference_s) else None)
      (List.combine reqs replies)
  in
  let ms f = pick f (fun rp _ -> 1000.0 *. rp.latency_s) in
  let rel f = pick f (fun rp reference_s -> rp.latency_s /. reference_s) in
  let hit large rp = (not large) && rp.cached and miss large rp = (not large) && not rp.cached in
  let big large _ = large in
  {
    hits_ms = ms hit;
    misses_ms = ms miss;
    large_ms = ms big;
    hits_ref = rel hit;
    misses_ref = rel miss;
    large_ref = rel big;
    total_s;
    batch_us;
    wire_us =
      List.map2
        (fun (rp, _) b -> (1e6 *. rp.latency_s) -. b)
        (if traced then replies else [])
        batch_us;
  }

let run ~seed ~seconds ~trace r =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let hot_reqs =
    let cfg = loadgen ~seed in
    List.concat_map
      (fun size ->
        List.init cfg.hot_tags (fun k ->
            let req =
              Request.echo ~size ~work:cfg.work (Printf.sprintf "lg-s%d-hot-%d" seed k)
            in
            (Request.key req, req)))
      [ cfg.size; large_size ]
  in
  let hot_payloads = List.map (fun (key, req) -> (key, expected req)) hot_reqs in
  let warm s =
    let scratch = report () in
    List.iter (fun (_, req) -> ignore (call scratch s req ~expect_hit:false)) hot_reqs
  in
  (* Set-up: start the server and warm its cache with every hot tag, once
     per set-up measured, keeping the last server. *)
  let server, setup_s =
    setup r
      ~discard:(fun s -> ignore (stop s))
      (fun () ->
        let s = start () in
        warm s;
        s)
  in
  let to_verify = ref [] in
  let all =
    rounds ~min:(if trace then 2 else 1) ~seconds (fun i ->
        let traced = trace && i mod 2 = 1 in
        (traced, round r server ~seed ~hot_payloads ~to_verify ~traced i))
  in
  let heap_mb = stop server in
  (* Misses are verified after the measured window: each payload must equal
     a local recomputation. *)
  List.iter
    (fun (req, data) ->
      check r "service: miss payload" (Option.equal Json.equal data (Some (expected req))))
    !to_verify;
  let untraced = List.filter_map (fun (t, x) -> if t then None else Some x) all in
  let all_of f = List.concat_map f untraced in
  let hits = all_of (fun rd -> rd.hits_ms) and misses = all_of (fun rd -> rd.misses_ms) in
  let large_ms = all_of (fun rd -> rd.large_ms) in
  let every = hits @ misses @ large_ms in
  let hit_p50 = median hits and miss_p50 = median misses in
  let hit_ref = median (all_of (fun rd -> rd.hits_ref)) in
  let miss_ref = median (all_of (fun rd -> rd.misses_ref)) in
  let large_ref = median (all_of (fun rd -> rd.large_ref)) in
  let requests = per_round + (per_round / large_every) in
  detail r "item_p50_ms" (sqrt (hit_p50 *. miss_p50)) "ms";
  detail r "reference_ms" (reference_ms ()) "ms";
  detail r "svc_rps" (float_of_int requests /. median (List.map (fun rd -> rd.total_s) untraced)) "1/s";
  detail r "svc_hit_p50_ms" hit_p50 "ms";
  detail r "svc_miss_p50_ms" miss_p50 "ms";
  detail r "svc_large_hit_p50_ms" (median large_ms) "ms";
  detail r "svc_p99_ms" (quantile 0.99 every) "ms";
  detail r "svc_samples" (float_of_int (List.length every)) "count";
  detail r "server_peak_heap_mb" heap_mb "MB";
  detail r "rounds" (float_of_int (List.length all)) "count";
  if not trace then
    [
      ("setup_s", setup_s, "s");
      ("item_p50_ref", sqrt (hit_ref *. miss_ref), "ref");
      (* What a hit's round trip gains from 256 B to 16 KiB of payload, in
         reference units: the per-byte cost of the wire, server and cache
         path.  A difference, so a cut in the fixed cost of a request
         leaves it where it is. *)
      ("growth", large_ref -. hit_ref, "ratio");
    ]
  else begin
    let traced = List.filter_map (fun (t, x) -> if t then Some x else None) all in
    let batch = List.concat_map (fun rd -> rd.batch_us) traced in
    let rd0 = List.hd traced in
    Layers.(
      empty
      |> set "executor.batch_us" (median batch)
      |> set "svc.wire_us" (median (List.concat_map (fun rd -> rd.wire_us) traced))
      |> set "cache.hits" (float_of_int (List.length rd0.hits_ms + List.length rd0.large_ms))
      |> set "cache.misses" (float_of_int (List.length rd0.misses_ms))
      |> set "trace.overhead_pct"
           (overhead_pct
              ~untraced:(List.map (fun rd -> rd.total_s) untraced)
              ~traced:(List.map (fun rd -> rd.total_s) traced)
              ())
      |> to_list)
  end
