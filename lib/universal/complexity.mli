(** Complexity sweeps: measured worst-case shared-access cost vs. predictions.

    Used by experiment E7 (Θ(log n) combining tree vs. Θ(n) baseline) and
    the [sweep] verb.  Linearizability of these runs is the conformance
    layer's job ([Lb_conformance.Fuzz.assess]), not a sweep column. *)

open Lb_memory
open Lb_runtime

type row = {
  n : int;
  measured_worst : int;  (** max shared ops over all object operations. *)
  measured_mean : float;
  predicted : int;  (** the construction's own [worst_case ~n]. *)
  lower_bound : int;  (** [⌈log₄ n⌉] — the paper's floor for oblivious constructions. *)
  largest_register : int;
}

val sweep :
  construction:Iface.t ->
  spec_of:(int -> Lb_objects.Spec.t) ->
  ops_of:(n:int -> int -> Value.t list) ->
  ?scheduler:Scheduler.choice ->
  ns:int list ->
  unit ->
  row list
(** One row per [n]: run the workload ([ops_of ~n pid] per process) through
    the construction and measure. *)

val pp_row : Format.formatter -> row -> unit
val pp_table : header:string -> Format.formatter -> row list -> unit
