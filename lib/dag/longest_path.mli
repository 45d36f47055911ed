(** Longest (critical) paths in DAGs with integer weights.

    The paper's makespan model (Section 1): each node [v] carries a work
    value [w v]; a node finishes [w v] time units after all its
    predecessors have finished; the makespan is the largest finish time.
    Equivalently, the makespan is the maximum over source→sink paths of
    the sum of node works — e.g. the DAG of Figure 4 has makespan 11. *)

type plan
(** A DAG prepared for repeated longest-path passes: its topological
    order and, per vertex in that order, its predecessors, packed into
    int arrays, plus a scratch array of finish times.

    A plan is a snapshot of the graph when {!plan} ran. It does not see
    later [Dag.add_edge] or [Dag.add_vertex] calls, so build it inside
    the computation that uses it and drop it there (the exact solvers
    build one per solve, because a session mutates its DAG between
    solves). Its scratch array makes one plan serve one pass at a
    time. *)

val plan : Dag.t -> plan
(** One topological sort, done once.
    @raise Dag.Cycle if the graph is not acyclic. *)

val plan_makespan : plan -> int array -> int
(** [plan_makespan p weights] is [makespan g ~weight:(fun v -> weights.(v))]
    for the graph [g] that [p] was built from, computed in one
    allocation-free pass over [p]. [weights] is indexed by vertex. *)

val finish_times : Dag.t -> weight:(Dag.vertex -> int) -> int array
(** [finish_times g ~weight] gives each vertex's earliest finish time:
    [finish v = weight v + max (0, max over predecessors of finish)].
    @raise Dag.Cycle if [g] is not acyclic. *)

val makespan : Dag.t -> weight:(Dag.vertex -> int) -> int
(** Largest finish time over all vertices; [0] for the empty graph. *)

val critical_path : Dag.t -> weight:(Dag.vertex -> int) -> int * Dag.vertex list
(** The makespan together with one path achieving it (in source→sink
    order). The path is empty only for the empty graph. *)

val edge_finish_times : Dag.t -> weight:(Dag.vertex -> Dag.vertex -> int) -> int array
(** Event-time variant used for activity-on-arc networks: each vertex is
    an event occurring when all inbound activities complete;
    [time v = max over edges (u,v) of time u + weight u v], [0] at
    sources. With parallel edges the weight function is consulted once
    per parallel copy (same value each time). *)

val edge_makespan : Dag.t -> weight:(Dag.vertex -> Dag.vertex -> int) -> int
