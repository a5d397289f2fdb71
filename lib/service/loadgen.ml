open Lb_observe

type config = {
  clients : int;
  requests_per_client : int;
  warmup : int;
  hit_ratio : float;
  hot_tags : int;
  size : int;
  work : int;
  experiments : bool;
  seed : int;
  timeout_s : float;
}

let default =
  {
    clients = 4;
    requests_per_client = 100;
    warmup = 10;
    hit_ratio = 0.5;
    hot_tags = 16;
    size = 256;
    work = 2000;
    experiments = false;
    seed = 1;
    timeout_s = 30.0;
  }

(* Every client is a domain, and the runtime caps a process at 128 live
   domains, one of them the caller's: past that, Domain.spawn fails. *)
let max_clients = 127

let validate cfg =
  if cfg.clients < 1 then invalid_arg "Loadgen: clients < 1";
  if cfg.clients > max_clients then
    invalid_arg (Printf.sprintf "Loadgen: clients > %d (one domain per client)" max_clients);
  if cfg.requests_per_client < 1 then invalid_arg "Loadgen: requests_per_client < 1";
  if cfg.warmup < 0 then invalid_arg "Loadgen: warmup < 0";
  if cfg.hit_ratio < 0.0 || cfg.hit_ratio > 1.0 then
    invalid_arg "Loadgen: hit_ratio outside [0,1]";
  if cfg.hot_tags < 1 then invalid_arg "Loadgen: hot_tags < 1";
  if cfg.size < 0 then invalid_arg "Loadgen: size < 0";
  if cfg.work < 0 then invalid_arg "Loadgen: work < 0";
  if cfg.timeout_s <= 0.0 then invalid_arg "Loadgen: timeout_s <= 0"

(* Deterministic draws: a uniform in [0,1) hashed from (seed, client,
   index, salt) — the same trick as the client's retry jitter, so the
   whole request schedule is a pure function of the config. *)
let uniform cfg ~client ~index ~salt =
  float_of_int (Hashtbl.hash (0x10AD6E, cfg.seed, client, index, salt) land 0xFFFFFF)
  /. 16777216.0

let experiment_pool = [| "e1"; "e2"; "e5" |]

let request_at cfg ~client ~index =
  if cfg.experiments && uniform cfg ~client ~index ~salt:3 < 0.02 then
    let k =
      int_of_float (uniform cfg ~client ~index ~salt:4 *. float_of_int (Array.length experiment_pool))
    in
    Request.experiment ~quick:true experiment_pool.(min k (Array.length experiment_pool - 1))
  else if uniform cfg ~client ~index ~salt:0 < cfg.hit_ratio then
    let k = int_of_float (uniform cfg ~client ~index ~salt:1 *. float_of_int cfg.hot_tags) in
    Request.echo ~size:cfg.size ~work:cfg.work
      (Printf.sprintf "lg-s%d-hot-%d" cfg.seed (min k (cfg.hot_tags - 1)))
  else
    Request.echo ~size:cfg.size ~work:cfg.work
      (Printf.sprintf "lg-s%d-c%d-i%d" cfg.seed client index)

let schedule cfg ~client =
  validate cfg;
  List.init (cfg.warmup + cfg.requests_per_client) (fun index -> request_at cfg ~client ~index)

(* ---- the closed-loop driver ---- *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.single_write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Await one complete reply line, keeping any surplus bytes buffered for
   the next call on the same connection. *)
let read_line fd buf ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let has_line () = String.contains (Buffer.contents buf) '\n' in
  let failed = ref None in
  while !failed = None && not (has_line ()) do
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then failed := Some "timeout"
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> failed := Some "timeout"
      | _ -> (
        let bytes = Bytes.create 65536 in
        match Unix.read fd bytes 0 (Bytes.length bytes) with
        | 0 -> failed := Some "closed"
        | n -> Buffer.add_subbytes buf bytes 0 n
        | exception Unix.Unix_error (e, _, _) -> failed := Some (Unix.error_message e))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  match !failed with
  | Some reason -> Error reason
  | None ->
    let data = Buffer.contents buf in
    let cut = String.index data '\n' in
    Buffer.clear buf;
    Buffer.add_substring buf data (cut + 1) (String.length data - cut - 1);
    Ok (String.sub data 0 cut)

type result = {
  config : config;
  measured : int;
  errors : int;
  elapsed_s : float;
  throughput_rps : float;
  latency : Histogram.t;
}

(* One client: a persistent connection (redialed once per failed call)
   driving its schedule closed-loop — the next request leaves only after
   the previous reply landed. *)
let client_loop ~transport cfg client =
  let requests = List.init (cfg.warmup + cfg.requests_per_client) (fun i -> request_at cfg ~client ~index:i) in
  let hist = Histogram.create () in
  let errors = ref 0 in
  let fd = ref None in
  let buf = Buffer.create 4096 in
  let ensure () =
    match !fd with
    | Some f -> Ok f
    | None -> (
      match Transport.connect transport with
      | Ok f ->
        fd := Some f;
        Ok f
      | Error reason -> Error reason)
  in
  let drop () =
    (match !fd with
    | Some f -> ( try Unix.close f with Unix.Unix_error _ -> ())
    | None -> ());
    fd := None;
    Buffer.clear buf
  in
  let call req =
    let line = Json.to_string (Request.to_json req) ^ "\n" in
    let attempt () =
      match ensure () with
      | Error reason -> Error reason
      | Ok f -> (
        try
          write_all f line;
          read_line f buf ~timeout_s:cfg.timeout_s
        with Unix.Unix_error (e, _, _) ->
          drop ();
          Error (Unix.error_message e))
    in
    match attempt () with
    | Ok reply -> Ok reply
    | Error _ ->
      drop ();
      attempt ()
  in
  let ok_reply reply =
    match Json.parse reply with
    | Ok json -> (
      match Option.bind (Json.member "status" json) Json.to_str_opt with
      | Some "ok" -> true
      | _ -> false)
    | Error _ -> false
  in
  let measured_from = ref (Unix.gettimeofday ()) in
  List.iteri
    (fun i req ->
      if i = cfg.warmup then measured_from := Unix.gettimeofday ();
      let t = Unix.gettimeofday () in
      let outcome = call req in
      let dt = Unix.gettimeofday () -. t in
      let ok = match outcome with Ok reply -> ok_reply reply | Error _ -> false in
      if i >= cfg.warmup then begin
        Histogram.add hist dt;
        if not ok then incr errors
      end)
    requests;
  drop ();
  (hist, !errors, !measured_from, Unix.gettimeofday ())

let run ~transport cfg =
  validate cfg;
  let domains =
    List.init cfg.clients (fun c -> Domain.spawn (fun () -> client_loop ~transport cfg c))
  in
  let outcomes = List.map Domain.join domains in
  let latency =
    List.fold_left (fun acc (h, _, _, _) -> Histogram.merge acc h) (Histogram.create ()) outcomes
  in
  let errors = List.fold_left (fun acc (_, e, _, _) -> acc + e) 0 outcomes in
  let started = List.fold_left (fun acc (_, _, t, _) -> Float.min acc t) infinity outcomes in
  let finished = List.fold_left (fun acc (_, _, _, t) -> Float.max acc t) neg_infinity outcomes in
  let elapsed_s = Float.max 1e-9 (finished -. started) in
  let measured = Histogram.count latency in
  {
    config = cfg;
    measured;
    errors;
    elapsed_s;
    throughput_rps = float_of_int measured /. elapsed_s;
    latency;
  }

let config_json cfg =
  Json.Obj
    [
      ("clients", Json.Int cfg.clients);
      ("requests_per_client", Json.Int cfg.requests_per_client);
      ("warmup", Json.Int cfg.warmup);
      ("hit_ratio", Json.Float cfg.hit_ratio);
      ("hot_tags", Json.Int cfg.hot_tags);
      ("size", Json.Int cfg.size);
      ("work", Json.Int cfg.work);
      ("experiments", Json.Bool cfg.experiments);
      ("seed", Json.Int cfg.seed);
      ("timeout_s", Json.Float cfg.timeout_s);
    ]

let result_json r =
  Json.Obj
    [
      ("kind", Json.Str "loadgen");
      ("config", config_json r.config);
      ("measured", Json.Int r.measured);
      ("errors", Json.Int r.errors);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("latency", Histogram.to_json r.latency);
    ]

(* Bench_gate-compatible rows: percentiles (and the mean service rate)
   as ns_per_run. *)
let bench_payload r =
  let ns q = Json.Float (Histogram.quantile r.latency q *. 1e9) in
  let row name v = Json.Obj [ ("name", Json.Str name); ("ns_per_run", v) ] in
  Json.Obj
    [
      ( "benchmarks",
        Json.Arr
          [
            row "loadgen/p50" (ns 0.5);
            row "loadgen/p99" (ns 0.99);
            row "loadgen/p999" (ns 0.999);
            row "loadgen/mean"
              (Json.Float
                 (if r.measured = 0 then 0.0
                  else Histogram.sum r.latency /. float_of_int r.measured *. 1e9));
          ] );
      ("loadgen", result_json r);
    ]

let pp_result ppf r =
  let q p = Histogram.quantile r.latency p *. 1e3 in
  Format.fprintf ppf
    "%d requests in %.2fs = %.0f req/s  p50=%.2fms p99=%.2fms p999=%.2fms errors=%d"
    r.measured r.elapsed_s r.throughput_rps (q 0.5) (q 0.99) (q 0.999) r.errors
