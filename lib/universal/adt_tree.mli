(** The O(log n) oblivious universal construction (tightness side).

    Modelled on the Group-Update idea of Afek, Dauber and Touitou that the
    paper cites as the matching upper bound: processes sit at the leaves of a
    binary combining tree; pending operations propagate towards the root as
    descriptor sets holding each process's latest operation; the root
    register holds the object state plus each process's latest response
    (see {!Codec}), and a successful SC on it applies a whole batch at once.

    The per-node merge is attempted {e twice}; the standard helping argument
    makes that sufficient: if both of my SCs on a node fail, the second
    successful competitor must have link-loaded the node after the first
    competitor's successful SC, hence after my child update — so {e its}
    union already carried my operation upward.  The same argument applies at
    the root record, so after two absorb attempts my response is present.

    Cost accounting per object operation, with [L = ⌈log₂ (max n 2)⌉]:
    leaf update (validate + swap) = 2; per tree level two merge attempts of
    (LL + 2 validates + SC) = 8L; two absorb attempts of (LL + validate +
    SC) = 6; final response read = 1.  Worst case [8L + 9] — deterministic,
    wait-free, and independent of the schedule, for {e any} object type:
    this is what makes the paper's Ω(log n) bound tight (given registers of
    Θ(n) words, which the tree nodes and the root record use). *)

val construction : Iface.t
(** [name = "adt-tree"], [oblivious = true],
    [worst_case ~n = 8·⌈log₂ (max n 2)⌉ + 9]. *)

val levels : int -> int
(** [⌈log₂ (max n 2)⌉] — tree height used for [n] processes. *)
