(** Partition evaluation: the cost model every HW/SW partitioner in this
    framework optimises against.

    A {!partition} maps each task of a {!Codesign_ir.Task_graph} to
    software (the host processor) or hardware (a dedicated datapath).
    {!evaluate} derives:

    - {b latency}: a deterministic list schedule of the task DAG where
      software tasks serialise on the single CPU, hardware tasks either
      serialise on one accelerator or run fully concurrently
      ([hw_parallel]), and every data edge crossing the HW/SW boundary
      pays [comm_cycles_per_word] per word (§3.3 "communication");
    - {b hardware area}: either the sum of standalone task areas, or the
      sharing-aware incremental area of Vahid & Gajski [18] in which
      hardware-resident tasks share functional units ([sharing]);
    - {b software bytes}, boundary traffic, deadline slack and speedup
      over the all-software schedule.

    {!objective} folds an evaluation into a single scalar using the six
    §3.3 factors, for use by {!Partition}'s search algorithms. *)

type partition = bool array
(** [p.(i)] true = task [i] in hardware. *)

type params = {
  comm_cycles_per_word : int;  (** boundary crossing cost (default 4) *)
  sharing : bool;  (** sharing-aware area (default true) *)
  hw_parallel : bool;
      (** hardware tasks run concurrently (default true); false models a
          single serial accelerator *)
  parallelism_speedup : bool;
      (** scale hardware task time by its nature-of-computation affinity:
          highly parallel tasks gain more from hardware (default true) *)
}

val default_params : params

type eval = {
  latency : int;
  all_sw_latency : int;
  speedup : float;  (** all-SW latency / latency *)
  hw_area : int;
  sw_bytes : int;
  comm_words : int;  (** words crossing the boundary per invocation *)
  n_hw : int;
  meets_deadline : bool;  (** true when no deadline or latency within it *)
  modifiable_in_hw : int;  (** §3.3 "modifiability" violations *)
}

val all_sw : Codesign_ir.Task_graph.t -> partition
val all_hw : Codesign_ir.Task_graph.t -> partition

val hw_task_cycles : params -> Codesign_ir.Task_graph.task -> int
(** Effective hardware execution time of a task under the parameters. *)

val evaluate :
  ?params:params -> Codesign_ir.Task_graph.t -> partition -> eval
(** [compile] then {!eval}.
    @raise Invalid_argument if the partition length differs from the
    task count. *)

(** {2 Compiled model}

    A search evaluates thousands of partitions of one graph.  {!compile}
    does the partition-independent work once: per-task software and
    effective hardware cycles, the successor arrays and predecessor
    counts, the critical-path priorities, the all-software latency and
    the per-task functional-unit needs.  A compiled model is immutable
    and may be shared between domains. *)

type compiled

val compile : ?params:params -> Codesign_ir.Task_graph.t -> compiled

val eval : ?hw_area:int -> compiled -> partition -> eval
(** Same result as {!evaluate} on the compiled graph and parameters.
    [hw_area], when given, must be [area c p]: a search that has just
    checked the area against a budget passes it on.
    @raise Invalid_argument if the partition length differs from the
    task count. *)

val latency : compiled -> partition -> int
(** The list-schedule latency alone ([(eval c p).latency]). *)

val area : compiled -> partition -> int
(** Hardware area alone ([(eval c p).hw_area]). *)

type weights = {
  w_area : float;  (** per area unit *)
  w_latency : float;  (** per cycle of latency *)
  w_deadline_miss : float;  (** per cycle beyond the deadline *)
  w_modifiability : float;  (** per modifiable task in hardware *)
  w_sw_bytes : float;  (** per software byte *)
}

val default_weights : weights

val objective :
  ?weights:weights -> Codesign_ir.Task_graph.t -> eval -> float
(** Lower is better.  Deadline misses dominate under the default
    weights, then area, then latency. *)

val area_of_partition :
  ?params:params -> Codesign_ir.Task_graph.t -> partition -> int
(** Hardware area only: [compile] then {!area}. *)
