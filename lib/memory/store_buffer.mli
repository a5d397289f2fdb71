(** Store buffers: the TSO / PSO rules of {!Memory_model}, written once.

    A persistent map from pid to that process's buffered plain writes
    [(reg, value)], oldest first.  {!Memory} and [Lb_check.Pure_memory] each
    keep one and apply the stores it releases to their own registers.
    Draining a buffer in issue order respects every register's FIFO, so it
    is a legal flush order under both relaxed models. *)

type t

val empty : t

val push : t -> pid:int -> int -> Value.t -> t
(** [push t ~pid r v] appends the plain write [r := v] to [pid]'s buffer. *)

val forwarded : t -> pid:int -> int -> Value.t option
(** [pid]'s newest buffered value for the register: what its own plain read
    returns.  Other processes never see it. *)

val flushable : Memory_model.t -> t -> (int * int) list
(** Enabled flushes as sorted [(pid, reg)] pairs: [[]] under SC, the head of
    each buffer under TSO, each buffered register per process under PSO. *)

val take : Memory_model.t -> t -> pid:int -> reg:int -> (Value.t * t, string) result
(** Remove the oldest buffered write by [pid] to [reg].  [Error reason] when
    [(pid, reg)] is not in {!flushable}; callers prefix their own name. *)

val drain : t -> pid:int -> (int * Value.t) list * t
(** [pid]'s entries in issue order and the buffers without them: the fence
    effect.  Returns [t] itself when [pid] has nothing buffered, and a
    preallocated constant when nobody has (always, under SC). *)

val buffers : t -> (int * (int * Value.t) list) list
(** Non-empty buffers as sorted [(pid, entries)] pairs, in issue order. *)

val buffered_regs : t -> pid:int -> int list
(** Sorted registers with a pending write by [pid]. *)

val fences : Op.invocation -> bool
(** [true] for [Ll], [Sc], [Swap], [Move] and [Fence], which drain the
    issuing process's buffer before taking effect. *)

val flush_id : n:int -> pid:int -> reg:int -> int
(** The scheduler id of the flush [(pid, reg)] among [n] processes:
    [n*(1+reg)+pid], injective and disjoint from the pids [0 .. n-1]. *)

val flush_of_id : n:int -> int -> (int * int) option
(** Inverse of {!flush_id}; [None] for a process id. *)
