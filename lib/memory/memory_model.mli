(** The simulator's memory-consistency axis.

    The paper's model — and every result in DESIGN.md — is sequentially
    consistent: a shared-memory operation takes effect the instant it is
    applied, and every process observes the same global order.  Real machines
    relax this with per-processor store buffers.  This module names the three
    models the simulator implements; the buffer semantics live once, in
    {!Lb_memory.Store_buffer}, which both {!Lb_memory.Memory} (mutable) and
    [Lb_check.Pure_memory] (persistent) keep and consult:

    - {b SC} — sequential consistency.  Plain writes apply immediately.  The
      default everywhere; all pre-existing behaviour is byte-identical.
    - {b TSO} — total store order ("x86-like").  Each process owns one FIFO
      write buffer.  A plain write ({!Lb_memory.Op.Write}) enters the buffer;
      a separate, scheduler-visible {e flush} step later applies the oldest
      entry to shared memory.  A process's own reads see its buffered writes
      (newest-per-register first); other processes do not.  Writes by one
      process reach memory in issue order.
    - {b PSO} — partial store order.  As TSO, but the buffer is one FIFO
      {e per register}: writes to distinct registers may flush in either
      order, so even one process's stores can be observed reordered.

    In every model, [LL]/[SC]/[swap]/[move] are {e fences}: they drain the
    issuing process's buffer before taking effect (they are the repertoire's
    synchronisation primitives, like x86 LOCK'd instructions), and
    {!Lb_memory.Op.Fence} drains without any other effect.  [validate] is the
    plain read.  Consequently a program restricted to the paper's five
    operations behaves identically under all three models — the lower bound's
    SC assumption is about programs with plain stores, not about the
    LL/SC repertoire itself.  See docs/MEMORY_MODELS.md. *)

type t = SC | TSO | PSO

val all : t list
(** [[SC; TSO; PSO]], weakest-ordering last. *)

val relaxed : t -> bool
(** [true] for TSO and PSO — the models with store buffers. *)

val weaker_or_equal : t -> t -> bool
(** [weaker_or_equal a b] — every behaviour admitted under [a] is admitted
    under [b]: SC ≤ TSO ≤ PSO.  (Tested, not merely asserted: see the
    outcome-lattice property in the litmus suite.) *)

val to_string : t -> string
(** ["sc"], ["tso"], ["pso"]. *)

val of_string : string -> (t, string) result
(** Case-insensitive inverse of {!to_string}. *)

val pp : Format.formatter -> t -> unit
