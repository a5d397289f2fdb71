(** A seeded closed-loop load generator for the request service.

    Each of [clients] concurrent clients holds one persistent connection
    ({!Transport.connect} — Unix socket or TCP) to one running server
    and drives its own deterministic request schedule closed-loop: the
    next request leaves only after the previous reply lands.  Latencies go into a per-client
    {!Histogram.t}; after the run the histograms merge and throughput is
    measured requests over the measured wall-clock window (warmup
    excluded).

    {b Determinism.}  The request {e schedule} is a pure function of the
    {!config} — every draw is hashed from [(seed, client, index)], so
    the same config replays the same tags in the same order against any
    endpoint.  The mix: with probability [hit_ratio] a request echoes
    one of [hot_tags] shared tags (a cache hit once warm), otherwise a
    tag unique to [(seed, client, index)] — a guaranteed miss costing
    [work] digest-chain rounds on the worker.  With [experiments] set,
    ~2% of requests carry quick experiment cargo instead.  Timings, of
    course, are not deterministic; only the schedule is.

    Results append to [BENCH_service.json] via {!bench_payload} as
    [loadgen/p50|p99|p999|mean] rows that {!Bench_gate} can baseline and
    compare — see docs/SCALING.md for how to read them. *)

type config = {
  clients : int;
      (** concurrent closed-loop clients, in [[1, 127]]: each is a domain,
          and the runtime caps a process at 128. *)
  requests_per_client : int;  (** measured requests per client (>= 1). *)
  warmup : int;  (** leading requests per client excluded from stats. *)
  hit_ratio : float;  (** probability in [[0,1]] of drawing a hot tag. *)
  hot_tags : int;  (** size of the shared hot-tag pool (>= 1). *)
  size : int;  (** echo payload fill size in bytes. *)
  work : int;  (** digest-chain rounds per cache miss. *)
  experiments : bool;  (** mix in ~2% quick experiment requests. *)
  seed : int;  (** schedule seed. *)
  timeout_s : float;  (** per-reply deadline (> 0). *)
}

val default : config
(** 4 clients x 100 requests, 10 warmup, 50% hits over 16 hot tags,
    256 B / 2000 work echoes, no experiments, seed 1, 30 s timeout. *)

val schedule : config -> client:int -> Request.t list
(** The full (warmup + measured) request list client [client] will send
    — exposed so tests can pin schedule determinism.  Raises
    [Invalid_argument] on an invalid config. *)

type result = {
  config : config;
  measured : int;  (** requests in the measured window (all clients). *)
  errors : int;  (** measured requests with no ["ok"] reply. *)
  elapsed_s : float;  (** measured wall-clock window. *)
  throughput_rps : float;  (** [measured /. elapsed_s]. *)
  latency : Histogram.t;  (** merged measured latencies. *)
}

val run : transport:Transport.t -> config -> result
(** Run the generator against [transport].  A failed call is retried
    once on a fresh connection; a request whose retry also fails (or
    whose reply is not [status = "ok"]) counts in [errors] with its
    observed latency still recorded.  Raises
    [Invalid_argument] on an invalid config. *)

val result_json : result -> Lb_observe.Json.t
(** The full run record: config, counts, throughput, and the
    {!Histogram.to_json} latency summary. *)

val bench_payload : result -> Lb_observe.Json.t
(** A {!Bench_out} payload: [{benchmarks: [{name; ns_per_run}]}] rows
    ([loadgen/p50], [/p99], [/p999], [/mean]) plus the full
    {!result_json} under ["loadgen"]. *)

val pp_result : Format.formatter -> result -> unit
(** One human line: throughput, p50/p99/p999 (ms), errors. *)
