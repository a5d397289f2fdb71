(** Typed concurrent histories with pending operations.

    A {e complete} history has a response for every operation.  Conformance
    checking under fault plans needs the general form: an operation that
    was invoked but never responded (a give-up, a crash, or fuel
    exhaustion) is {e pending} — it may or may not have taken effect, and a
    linearizability checker must consider both.

    Histories are built either from a {!Lb_universal.Harness.result} or by
    tapping the op-lifecycle events ([Op_invoked] / [Op_completed]) a
    {!Lb_observe.Tracer} recorded during the run; the two agree on every
    field except the clock domain (harness clock vs tracer sequence
    numbers), which induce the same real-time precedence order. *)

open Lb_memory

type outcome =
  | Completed of { response : Value.t; responded : int }
  | Pending  (** Invoked, no response: the operation's effect is optional. *)

type op = {
  pid : int;
  seq : int;
  op : Value.t;
  invoked : int;
  outcome : outcome;
  ghost : bool;
      (** A ghost is the extra optional occurrence contributed by a
          crash-recovery restart: the lost attempt may have applied its
          effect before the crash, so the operation can take effect twice. *)
}

type t = op list
(** In ascending invocation order. *)

val completed : t -> op list
val pending : t -> op list

val of_result : Lb_universal.Harness.result -> t
(** Completed stats become completed ops; give-ups and operations still in
    flight when the run ended (crash-stopped pids, fuel exhaustion) become
    pending ops; each entry of [result.restarted] adds one ghost pending
    op. *)

val of_events : ?restarted:(int * int) list -> Lb_observe.Event.stamped list -> t
(** Build a history from a recorded trace ([Tracer.events]).  Timestamps are
    tracer sequence numbers.  [restarted] adds ghost occurrences exactly as
    {!of_result} does (the trace alone does not say which recoveries
    re-invoked an operation). *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
