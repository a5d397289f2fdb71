(** The computations the service can serve: the binding from a
    {!Request} to the experiment suite, the conformance judge and
    wakeup certification.

    This is the one module of [lib/service] that depends on the heavy
    layers ({!Lb_experiments}, {!Lb_conformance}, {!Lb_faults},
    {!Lb_wakeup}); everything
    below it — request, cache, executor, server, client — is generic in
    the compute function, so tests and other drivers can plug in toy
    computations.

    Payload schemas (docs/OBSERVABILITY.md): an experiment request yields
    the table exactly as {!Lb_experiments.Table.to_json} emits it; a
    certification request yields a verdict object ([target], [plan], [n],
    [seed], [status], [certified], [reasons], [notes], and for a
    construction [restarts] and [total_shared_ops] from
    {!Lb_conformance.Conform.json_of_certification}).  Both are deterministic
    functions of the request's content hash — the precondition for
    caching them. *)

open Lb_observe

val compute : jobs:int -> Request.t -> (Json.t, string) result
(** Run the request at the given internal fan-out.  [Error] on an unknown
    experiment id, certification target, or fault-plan name. *)
