(** A log-linear latency histogram for the load generator.

    Values (seconds) land in geometric buckets: bucket 0 holds
    everything at or below 1 microsecond, each later bucket is ~4% wider
    than the last, and 640 buckets span past an hour.  Quantiles are
    read back as the geometric midpoint of the bucket the rank falls in,
    clamped into the observed [min, max] — so the relative error of any
    reported percentile is bounded by the bucket spacing (~4%), which is
    the standard trade (HdrHistogram's) for constant-memory percentile
    tracking under sustained load.

    The structure is a pure function of the multiset of added values:
    same observations, same buckets, same quantiles — in any order, on
    any machine.  That determinism is what makes loadgen runs
    comparable across runs and against the {!Bench_gate} baseline. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one latency in seconds.  NaN and negative values clamp to 0
    (they can only come from clock anomalies; losing them to bucket 0
    beats poisoning the sum). *)

val count : t -> int
val sum : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]] ([Invalid_argument] outside): the
    value at rank [ceil (q * count)], as the owning bucket's geometric
    midpoint clamped into [[min, max]].  0 on an empty histogram.  The
    extreme ranks are exact: [quantile t 0.0] is the observed minimum
    and [quantile t 1.0] the observed maximum. *)

val merge : t -> t -> t
(** Pointwise sum — neither argument is mutated.  Per-client histograms
    merge into the run-wide one. *)

val to_json : t -> Lb_observe.Json.t
(** [{count; sum_s; min_s; max_s; mean_s; p50_s; p90_s; p99_s;
    p999_s}] — the loadgen row schema in BENCH_service.json. *)
