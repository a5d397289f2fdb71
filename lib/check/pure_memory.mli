(** Immutable shared memory, for exhaustive exploration.

    Same semantics as {!Lb_memory.Memory} — including the {!Lb_memory.Memory_model}
    axis — but [apply] returns a new memory instead of mutating, so the model
    checker can branch on every interleaving without copying or undo logs
    (persistent maps share structure between branches). *)

open Lb_memory

type t

val create :
  ?default:Value.t -> ?model:Memory_model.t -> inits:(int * Value.t) list -> unit -> t
(** A memory whose registers all read [default] (unit when omitted) except
    the listed initial bindings.  [model] defaults to {!Memory_model.SC}. *)

val model : t -> Memory_model.t

val apply : t -> pid:int -> Op.invocation -> Op.response * t
(** Raises [Invalid_argument] on negative registers and
    {!Lb_memory.Memory.Self_move} on self-moves, like the mutable memory.
    Under a relaxed model, [Write] buffers, the fencing operations
    ({!Lb_memory.Store_buffer.fences}) drain the issuing process's buffer
    first, and [Validate] reads buffer-first — see
    {!Lb_memory.Memory.apply}. *)

val peek : t -> int -> Value.t
(** Current value of a register (shared memory, ignoring buffers), without
    counting as a shared access. *)

val pset : t -> int -> Ids.t
(** Current Pset of a register. *)

(** {1 Store buffers (TSO / PSO)}

    As in {!Lb_memory.Memory}, whose buffer functions these mirror: the
    rules live in {!Lb_memory.Store_buffer}. *)

val flushable : t -> (int * int) list

val flush : t -> pid:int -> reg:int -> t

val drain_all : t -> (int * (int * Value.t) list) list * t
(** Also returns what was drained, in {!buffers} form. *)

val buffers : t -> (int * (int * Value.t) list) list

val buffered_regs : t -> pid:int -> int list

val canonical : t -> (int * (Value.t * Ids.t)) list
(** The {e shared-register} bindings that differ from the default state, in
    ascending register order.  Two memories with the same default and {b no
    buffered writes} are observationally equal iff their canonical forms are
    structurally equal ({!Lb_memory.Ids.t} values built through the [Ids] API
    are themselves canonical).  Under a relaxed model this is {e not} a
    complete state key — a buffered-but-unflushed write is invisible here —
    so dedup must use {!canonical_full}. *)

val canonical_full : t -> (int * (Value.t * Ids.t)) list * (int * (int * Value.t) list) list
(** [(canonical t, buffers t)] — the complete observational state, including
    writes that are issued but not yet visible.  This is the dedup key the
    explorers use; collapsing states that differ only in buffer contents
    would be unsound (they diverge once the buffers flush). *)
