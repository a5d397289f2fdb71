(** The shared memory.

    An "infinite" array of registers [R0, R1, ...] (materialised lazily) that
    supports the five operations of the model, with per-process shared-access
    accounting — the quantity the paper's lower bound is about — and an
    optional event log.

    Registers and per-process counters live in flat growable arrays indexed
    by register number / pid (registers are allocated densely from 0 by
    {!Layout}), so the [apply] hot path performs no hashing and a single
    probe per access; astronomically large register indices spill into a
    side table.  Process ids must be non-negative.

    Semantics (Section 3), where [u] is the register's value and [A] its Pset
    before the operation, applied by process [p]:
    - [LL(R)]: Pset becomes [A ∪ {p}]; returns [u].
    - [SC(R, v)]: if [p ∈ A], value becomes [v], Pset becomes [∅], returns
      [(true, u)]; otherwise returns [(false, u)] and changes nothing.
    - [validate(R)]: returns [(p ∈ A, u)]; changes nothing.
    - [swap(R, v)]: value becomes [v], Pset becomes [∅], returns [u].
    - [move(Rs, Rd)]: value of [Rd] becomes value of [Rs], Pset of [Rd]
      becomes [∅], returns [ack]; [Rs] (value and Pset) is unchanged.
      [Rs] and [Rd] must be distinct (see {!Lb_secretive.Move_spec.of_list}
      for why the model excludes self-moves); [apply] raises
      {!Self_move} otherwise. *)

type t

type event = { pid : int; invocation : Op.invocation; response : Op.response }

exception Self_move of { pid : int; reg : int }
(** Raised by {!apply} when process [pid] issues [move(R, R)] on register
    [reg].  Self-moves are value no-ops excluded from the model (they break
    Lemma 4.1 — see DESIGN.md §4b). *)

(** {1 Fault interposition}

    The paper's memory is {e strong} LL/SC: an SC by [p] succeeds iff
    [p ∈ Pset].  Real machines expose {e weak} LL/SC, where an SC may fail
    spuriously.  An interposer, consulted on every {!apply}, can inject that
    weakness: answering [Fail_sc] to an [SC] makes it return [(false, u)]
    {e without} writing and {e without} clearing the Pset — so the link
    survives and a retried SC can still succeed.  [Fail_sc] is ignored for
    non-SC operations.  The fault-injection layer ({!Lb_faults.Fault_engine})
    builds interposers from declarative fault plans. *)

type directive = Proceed | Fail_sc

type interposer = pid:int -> Op.invocation -> directive

val set_interposer : t -> interposer option -> unit
(** Install (or with [None] remove) the interposer.  At most one is active;
    composition happens at the fault-plan layer. *)

(** {1 Observer tap}

    The read-only sibling of the interposer: a callback consulted {e after}
    every {!apply}, with the operation's response and whether a fault
    interposer made an SC fail spuriously.  The observability layer
    ({!Lb_observe.Tracer.attach_memory}) builds its shared-access event
    stream from this hook; like the interposer there is at most one tap and
    it must not mutate the memory. *)

type tap = pid:int -> Op.invocation -> Op.response -> spurious:bool -> unit

val set_tap : t -> tap option -> unit
(** Install (or with [None] remove) the tap. *)

val create : ?default:Value.t -> ?log:bool -> ?model:Memory_model.t -> unit -> t
(** Fresh memory.  Registers that have never been written read as [default]
    (default [Value.Unit]).  When [log] is true (default false) every applied
    operation is recorded in order.  [model] (default {!Memory_model.SC})
    selects the consistency model; see {!section-buffers}. *)

val model : t -> Memory_model.t

val set_init : t -> int -> Value.t -> unit
(** [set_init m r v] initialises register [r] to [v] without counting an
    operation or clearing anything — for setting up the initial
    configuration (e.g. a queue that "initially contains n items"). *)

val apply : t -> pid:int -> Op.invocation -> Op.response
(** Apply one operation on behalf of process [pid], count it, and return the
    response.

    Under a relaxed model ({!Memory_model.relaxed}): [Write] enters [pid]'s
    store buffer instead of memory; [Fence], [Ll], [Sc], [Swap] and [Move]
    first drain [pid]'s buffer ({!Store_buffer.fences}); [Validate] reads
    [pid]'s newest buffered write to the register if one exists
    ({!Store_buffer.forwarded}), shared memory otherwise (the link flag
    always comes from the shared Pset).  Under SC every operation applies
    immediately and the buffers are never touched. *)

(** {1:buffers Store buffers (TSO / PSO)}

    Buffered writes become visible to other processes only when {e flushed},
    a scheduler-visible step.  The rules live in {!Store_buffer}; this memory
    applies each store it releases with {!Register.write}, so the value lands
    and the Pset clears exactly as an immediate write would. *)

val flushable : t -> (int * int) list
(** {!Store_buffer.flushable} of this memory's buffers. *)

val flush : t -> pid:int -> reg:int -> unit
(** Apply the oldest buffered write by [pid] to [reg].  Raises
    [Invalid_argument] when [(pid, reg)] is not in {!flushable}. *)

val drain_all : t -> unit
(** Apply every buffered write, ascending pid and issue order within one:
    the quiescence drain.  Counts no operation. *)

val buffers : t -> (int * (int * Value.t) list) list
(** {!Store_buffer.buffers} of this memory's buffers. *)

(** {1 Observer access} — none of these count as shared-memory operations;
    they exist for schedulers, run records and tests. *)

val peek : t -> int -> Value.t
(** Current value of a register. *)

val pset : t -> int -> Ids.t
(** Current Pset of a register. *)

val touched : t -> int list
(** Sorted indices of registers that were ever materialised (initialised or
    operated on). *)

val snapshot : t -> (int * (Value.t * Ids.t)) list
(** State of all touched registers, sorted by index. *)

val largest_value_size : t -> int
(** Max [Value.size] over touched registers — how big registers grew. *)

(** {1 Accounting} *)

val ops_of : t -> pid:int -> int
(** Number of shared-memory operations process [pid] has applied. *)

val total_ops : t -> int

val max_ops : t -> int
(** [max] over processes of [ops_of] — the paper's [t(R)] for the run so
    far. *)

val events : t -> event list
(** The log, oldest first.  Empty when logging is disabled. *)

val pp_event : Format.formatter -> event -> unit
