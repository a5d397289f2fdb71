(** The metrics registry: named counters, gauges and histograms that
    experiments, the harness and the conformance judge publish into.

    A registry is a flat name → metric map.  Names are dotted strings
    ("harness.op_cost", "conformance.runs"); a name's metric kind is fixed
    by its first use and a kind mismatch raises [Invalid_argument] — a
    counter silently read as a gauge is a reporting bug, not a recoverable
    condition.

    There is always a {e current} registry ({!current}, initially
    {!default}) that instrumented code publishes into; tests and drivers
    swap in a fresh one with {!set_current} or {!with_registry} to get an
    isolated window.  Snapshots serialise with {!to_json} — the
    ["metrics"] block of the [BENCH_*.json] schema (docs/OBSERVABILITY.md). *)

type t

val create : unit -> t
val default : t
(** The process-wide registry, current at startup. *)

val current : unit -> t
val set_current : t -> unit

val with_registry : t -> (unit -> 'a) -> 'a
(** Make [t] current for the extent of the callback (exception-safe).

    The ambient registry is {e domain-local}: a freshly spawned domain
    starts at {!default}, and [set_current]/[with_registry] only affect the
    calling domain.  {!Lb_exec.Pool} exploits this to give each parallel
    task an isolated registry, merged deterministically at join. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges take the source value
    (last-write-wins, so merging task registries in task order reproduces
    the sequential result), histograms add bucket counts and combine
    count/sum/min/max.  Raises [Invalid_argument] on a metric-kind mismatch
    or differing histogram bucket bounds. *)

val reset : t -> unit
(** Forget every metric. *)

(** {1 Counters} — monotonically increasing integers. *)

val incr : ?by:int -> t -> string -> unit
val counter_value : t -> string -> int
(** 0 for names never incremented. *)

(** {1 Gauges} — last-write-wins floats. *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option

(** {1 Histograms} — bucketed distributions with exact count/sum/min/max.

    Buckets are cumulative-style upper bounds (le); observations above the
    last bound land in an implicit +∞ bucket.  The default bounds are the
    powers of two up to 2{^16} — sized for shared-access counts, the
    quantity the paper is about. *)

type histogram = {
  count : int;
  sum : float;
  min : float;  (** +∞ when empty. *)
  max : float;  (** -∞ when empty. *)
  buckets : (float * int) list;  (** (upper bound, observations ≤ bound). *)
}

val declare_histogram : t -> string -> bounds:float list -> unit
(** Pre-declare bucket bounds (strictly increasing).  Observing an
    undeclared name creates the histogram with the default bounds. *)

val observe : t -> string -> float -> unit
val observe_int : t -> string -> int -> unit
val histogram : t -> string -> histogram option

(** {1 Snapshots} *)

val names : t -> string list
(** Sorted names of every registered metric. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump, one metric per line, sorted by name. *)
