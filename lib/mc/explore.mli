(** The exhaustive explorer: enumerate every state the composition can
    reach inside a {!Scope}, checking every safety property at every
    state — once, by the {!Harness.apply} that first reaches it.

    States are identified by {!Harness.fingerprint} and reached by
    replaying their choice trace from scratch (see {!Harness}); the
    visited set is an in-memory fingerprint table, and BFS can keep its
    frontier on disk as per-depth layer files so CI soaks stay in
    bounded memory and the frontier itself becomes an artifact. *)

type strategy =
  | Bfs  (** layer by layer — finds the {e shortest} counterexample *)
  | Dfs  (** dives deep first — usually finds {e a} counterexample faster *)

val strategy_of_string : string -> strategy option

type stats = {
  visited : int;  (** distinct states (fingerprints) discovered *)
  transitions : int;  (** choices executed across all expansions *)
  max_depth : int;  (** longest trace of any discovered state *)
  depth_bound_hit : bool;
      (** some state sat at the scope's depth bound and was not
          expanded: the bound cut exploration *)
  exhausted : bool;
      (** true iff exploration ran out of new states with no violation
          and without hitting [max_states]; pruning at the scope's depth
          bound does not negate exhaustion (depth is part of the scope) *)
  violation : (string * Choice.t list) option;
      (** first property failure and the choice trace that reaches it *)
  coverage : Harness.coverage;
      (** union of milestone coverage over every explored transition *)
}

type progress = visited:int -> transitions:int -> depth:int -> unit

val run :
  proto:Harness.proto ->
  scope:Scope.t ->
  mutate:bool ->
  strategy:strategy ->
  ?max_states:int ->
  ?frontier_dir:string ->
  ?on_progress:progress ->
  unit ->
  stats
(** Explore until the scope is exhausted, a violation is found, or
    [max_states] distinct states have been visited.  [frontier_dir]
    (BFS only) switches the frontier to disk-backed layer files
    [layer_NNN.frontier], one ';'-joined choice trace per line.
    [on_progress] is invoked every 500 new states. *)

type replay_end =
  | Clean  (** the whole trace applied and no property failed *)
  | Violated  (** the whole trace applied and ends in a violation *)
  | Diverged  (** some choice was not enabled where the trace put it *)

val render_counterexample :
  proto:Harness.proto ->
  scope:Scope.t ->
  mutate:bool ->
  Choice.t list ->
  string * replay_end
(** Replay a violating trace step by step into a human-readable report:
    each choice, the state summary after it, the violated property, and
    a copy-pasteable [mc_main] reproducer line.  A trace that diverges
    gets no verdict and no reproducer line: the report stops at the
    choice that did not apply. *)
