(** Heterogeneous multiprocessor co-synthesis (paper §4.2, Fig. 5).

    Given a task graph, a library of processing-element (PE) types with
    prices, and a per-type execution-time characterisation, choose a set
    of PE instances and a task mapping that meets the deadline at
    minimum total price.  Three engines, matching the paper's survey:

    - {!sos} — the exact formulation of Prakash & Parker's SOS [12].
      The paper's authors solved an ILP; with no ILP solver in-box we
      solve the same model exactly by branch-and-bound over (instance
      set, mapping) with price and schedule-feasibility pruning, which
      preserves the property the comparison needs: optimality.
    - {!binpack} — Beck's vector bin-packing heuristic [13]: tasks
      become vectors of utilisation against the deadline, instances are
      bins opened cheapest-first, packing is first-fit-decreasing,
      followed by a repair loop driven by the real schedule.
    - {!sensitivity} — Yen & Wolf's sensitivity-driven iterative
      improvement [9]: start minimal, repeatedly apply the
      configuration change with the best deadline-violation reduction
      per unit price; once feasible, reclaim cost where the schedule
      allows.

    Makespans come from the same deterministic list scheduler throughout
    (communication between different instances pays
    [comm_cycles_per_word] per word). *)

type pe_type = { pt_name : string; price : int }

type interconnect =
  | Point_to_point  (** dedicated links: a transfer only delays its consumer *)
  | Shared_bus
      (** one interconnection network (the Fig. 5 box): inter-PE
          transfers serialise on the shared medium *)

(** Built only by {!problem}, so the cached schedule order and in-edge
    arrays always match [tg]. *)
type problem = private {
  tg : Codesign_ir.Task_graph.t;
  pe_types : pe_type list;
  exec : int array array;  (** [exec.(task).(pe_type)] cycles *)
  comm_cycles_per_word : int;
  max_copies : int;  (** instance bound per type (keeps SOS finite) *)
  interconnect : interconnect;
  order : int array;  (** [tg]'s topological order, computed once *)
  in_edges : Codesign_ir.Task_graph.edge array array;
      (** [in_edges.(i)] = [Task_graph.in_edges tg i], computed once *)
}

val problem :
  ?comm_cycles_per_word:int ->
  ?max_copies:int ->
  ?interconnect:interconnect ->
  Codesign_ir.Task_graph.t ->
  pe_type list ->
  exec:int array array ->
  problem
(** Validates dimensions and positivity.  Defaults: comm 2 cycles/word,
    max 4 copies per type, point-to-point interconnect.
    @raise Invalid_argument on bad input. *)

type solution = {
  pe_set : int list;  (** PE type index per instance *)
  mapping : int array;  (** task -> instance index *)
  price : int;
  makespan : int;
  feasible : bool;  (** makespan within the task graph's deadline *)
  nodes : int;  (** search nodes / iterations expended *)
  algorithm : string;
}

val makespan : problem -> pe_set:int list -> mapping:int array -> int
(** The shared schedule evaluator (exposed for tests and experiments). *)

val price_of : problem -> int list -> int

val sos : ?node_budget:int -> problem -> solution
(** Exact branch-and-bound.  [node_budget] (default 2_000_000) bounds the
    search; if exhausted the best-so-far is returned with
    [nodes = node_budget] (experiments report this as a timeout). *)

val binpack : problem -> solution

val sensitivity : ?max_iters:int -> problem -> solution
(** [max_iters] defaults to 200. *)

val pp_solution : Format.formatter -> problem -> solution -> unit
