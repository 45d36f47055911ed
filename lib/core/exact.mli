(** Brute-force exact solver — the reference oracle.

    Enumerates, over every vertex, the resource levels at which its
    duration function actually steps (other allocations waste resource),
    checks realizability of each combination with a min-flow, and keeps
    the best. Exponential in the number of non-constant jobs; intended
    for the small instances against which the approximation algorithms
    are validated in the benchmarks. Branch-and-bound pruning on a
    partial-assignment makespan lower bound keeps typical instances
    fast.

    Each call builds one {!Rtt_dag.Longest_path.plan} of the instance's
    DAG, so a node's bound costs one allocation-free pass over it and a
    per-vertex weight array (decided vertices at their chosen time, the
    rest at their best time) that the search sets on descent and
    restores on backtrack. At a leaf that bound is the makespan. The
    bound's value is the longest path it always was, so the search
    visits the same nodes in the same order, ticks the same fuel, makes
    the same min-flow calls and offers the same checkpoints; only the
    cost of each bound changed. The plan lives for one call, since a
    session mutates its DAG between solves. *)

type t = { makespan : int; budget_used : int; allocation : int array }

exception Too_large of int
(** Raised when the search space exceeds [max_states] (the payload is
    the estimated state count). *)

val min_makespan :
  ?max_states:int -> ?warm_start:int array -> ?warm_hint:int array -> Problem.t -> budget:int -> t
(** The true optimal makespan with the given budget (Question 1.3
    semantics: resources reused over paths).

    [warm_start] primes the branch-and-bound incumbent with a previously
    found allocation (typically recovered from a {!snapshot_of}
    checkpoint): the search then prunes against its makespan from the
    first node, so a resumed run spends strictly less fuel than a cold
    one and returns the identical optimum. An infeasible or ill-sized
    warm start is a hint and is silently ignored.

    [warm_hint] is the weaker, bit-identity-preserving cousin used by
    incremental re-solves: a feasible allocation whose makespan [m]
    proves the optimum is at most [m], so the search additionally prunes
    every subtree with lower bound above [m] — but the hint never
    becomes the incumbent, so the answer (including which of several
    optimal allocations is returned) is the cold run's, byte for byte,
    reached with strictly less fuel. Infeasible or ill-sized hints are
    silently ignored; both options compose.
    @raise Too_large when the product of per-vertex option counts
    exceeds [max_states] (default [2_000_000]).
    @raise Invalid_argument on negative budget. *)

val snapshot_of : t -> string
(** Serialized resumable state (the incumbent), as offered to
    {!Rtt_budget.Budget.checkpoint} sinks during the search. *)

val allocation_of_snapshot : string -> int array option
(** Recover the incumbent allocation from a {!snapshot_of} string;
    [None] on anything malformed. *)

val min_resource : ?max_states:int -> Problem.t -> target:int -> t option
(** Minimum budget achieving makespan at most [target]; [None] when the
    target is unreachable. *)
