(** Wire format of the universal constructions.

    Both constructions keep three kinds of data in shared registers:
    operation descriptors, merged sets of descriptors, and the root record
    pairing the object state with the responses of the latest applied
    operations.  This module is the single place that knows how those are
    encoded as {!Lb_memory.Value.t}.

    {b Per-pid invariant.}  Every set and every root record holds at most
    one entry per process: the one with the highest [seq].  This is sound
    because a process issues operation [seq + 1] only after it has read
    operation [seq]'s response from the root, so an older entry is never
    needed again.  The encoded size of each value is therefore bounded by
    the number of processes, not by the length of the history. *)

open Lb_memory

(** {1 Operation descriptors} *)

module Desc : sig
  type t = { pid : int; seq : int; op : Value.t }

  val key : t -> int * int
  (** [(pid, seq)] — unique per operation instance. *)

  val compare : t -> t -> int
  (** By key; the deterministic order in which batched operations are applied
      to the object state. *)

  val encode : t -> Value.t
  val decode : Value.t -> t
end

(** {1 Descriptor sets}

    Encoded as a [Value.List] of encoded descriptors, sorted by pid, with at
    most one descriptor per pid: the highest [seq] seen.  Union is a per-pid
    maximum, so it is commutative, associative and idempotent, and a set's
    seq for each pid only ever grows — which is what makes the combining
    tree's "try twice" merge sound. *)

module Dset : sig
  val empty : Value.t
  val singleton : Desc.t -> Value.t
  val decode : Value.t -> Desc.t list
  (** Sorted by pid. *)

  val union : Value.t -> Value.t -> Value.t
  val add : Value.t -> Desc.t -> Value.t
  val cardinal : Value.t -> int
end

(** {1 The root record}

    [state] is the current object state; [responses] holds, for each
    process that has had an operation applied, the key and response of its
    latest one.  That entry doubles as the "done" marker preventing
    re-application: [(pid, seq)] is done once the stored seq for [pid] is at
    least [seq]. *)

module Root : sig
  type t = { state : Value.t; responses : ((int * int) * Value.t) list (* sorted by pid *) }

  val initial : Value.t -> Value.t
  (** Encoded record with the given initial state and no responses. *)

  val encode : t -> Value.t
  val decode : Value.t -> t

  val find_response : t -> key:int * int -> Value.t option
  (** The response of exactly operation [key], while it is its process's
      latest applied operation. *)

  val is_done : t -> key:int * int -> bool

  val absorb : Lb_objects.Spec.t -> t -> Desc.t list -> t
  (** Apply, in key order, every descriptor not yet done; each application
      replaces its process's entry in the response map. *)
end
