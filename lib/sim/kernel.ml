open Effect
open Effect.Deep

exception Not_in_process
exception Deadlock of string

type stats = {
  events : int;
  scheduled : int;
  activations : int;
  spawned : int;
  end_time : int;
}

type t = {
  q : Event_queue.t;
  mutable now : int;
  mutable events : int;
  mutable activations : int;
  mutable spawned : int;
  mutable next_block_id : int;
  blocked : (int, string * bool) Hashtbl.t;  (** id -> (name, daemon) *)
  mutable tracer : (int -> string -> unit) option;
  mutable next_lane : int;  (** arrival-lane key allocator *)
  mutable in_proc : bool;
      (** a process of this kernel is executing (set by its resume events) *)
}

(* The stop-less dispatch loop active on this domain, as {!wait} sees
   it: the kernel it drains and its bound.  [dispatch] sets and restores
   it, so nested kernels and partition rounds on worker domains each see
   their own loop; [running = None] outside every loop and inside a
   [stop] run, where each event is dispatched on its own. *)
type ahead = { mutable running : t option; mutable limit : int }

let ahead_key = Domain.DLS.new_key (fun () -> { running = None; limit = 0 })

(* Cumulative per-domain counters across every kernel run in this domain.
   The bench harness runs one experiment per domain and reads the deltas,
   so these must be domain-local, not global. *)
type domain_totals = {
  d_events : int;
  d_activations : int;
  d_scheduled : int;
  d_kernels : int;
}

type totals_cell = {
  mutable c_events : int;
  mutable c_activations : int;
  mutable c_scheduled : int;
  mutable c_kernels : int;
}

let totals_key =
  Domain.DLS.new_key (fun () ->
      { c_events = 0; c_activations = 0; c_scheduled = 0; c_kernels = 0 })

let domain_totals () =
  let c = Domain.DLS.get totals_key in
  {
    d_events = c.c_events;
    d_activations = c.c_activations;
    d_scheduled = c.c_scheduled;
    d_kernels = c.c_kernels;
  }

let diff_totals ~after ~before =
  {
    d_events = after.d_events - before.d_events;
    d_activations = after.d_activations - before.d_activations;
    d_scheduled = after.d_scheduled - before.d_scheduled;
    d_kernels = after.d_kernels - before.d_kernels;
  }

let merge_domain_totals d =
  let c = Domain.DLS.get totals_key in
  c.c_events <- c.c_events + d.d_events;
  c.c_activations <- c.c_activations + d.d_activations;
  c.c_scheduled <- c.c_scheduled + d.d_scheduled;
  c.c_kernels <- c.c_kernels + d.d_kernels

type _ Effect.t +=
  | Wait : int -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Whoami : string Effect.t

let create () =
  (Domain.DLS.get totals_key).c_kernels <-
    (Domain.DLS.get totals_key).c_kernels + 1;
  {
    q = Event_queue.create ();
    now = 0;
    events = 0;
    activations = 0;
    spawned = 0;
    next_block_id = 0;
    blocked = Hashtbl.create 16;
    tracer = None;
    next_lane = 0;
    in_proc = false;
  }

let now k = k.now

let at k ~time thunk =
  if time < k.now then
    invalid_arg
      (Printf.sprintf "Kernel.at: time %d is in the past (now %d)" time k.now);
  Event_queue.push k.q ~time thunk

let at_keyed k ~time ~key ~seq thunk =
  if time < k.now then
    invalid_arg
      (Printf.sprintf "Kernel.at_keyed: time %d is in the past (now %d)" time
         k.now);
  Event_queue.push_keyed k.q ~time ~key ~seq thunk

let alloc_lane k =
  let l = k.next_lane in
  k.next_lane <- l + 1;
  l

let spawn ?(name = "proc") ?(daemon = false) k fn =
  k.spawned <- k.spawned + 1;
  (* The kernel is marked as executing a process from each event that
     runs this one until it suspends or ends.  The mark is set before
     the [continue] and cleared by the handler, which keeps the
     [continue] a tail call; an exception escaping the process leaves
     the mark set, and [dispatch] restores it on the way out. *)
  let resume_at time (cont : (unit, unit) continuation) =
    at k ~time (fun () ->
        k.activations <- k.activations + 1;
        k.in_proc <- true;
        continue cont ())
  in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> k.in_proc <- false);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait n ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  if n < 0 then
                    discontinue cont
                      (Invalid_argument "Kernel.wait: negative delay")
                  else begin
                    k.in_proc <- false;
                    resume_at (k.now + n) cont
                  end)
          | Suspend register ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  k.in_proc <- false;
                  let id = k.next_block_id in
                  k.next_block_id <- id + 1;
                  Hashtbl.replace k.blocked id (name, daemon);
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        invalid_arg
                          ("Kernel: process " ^ name ^ " resumed twice");
                      resumed := true;
                      Hashtbl.remove k.blocked id;
                      resume_at k.now cont))
          | Whoami ->
              Some (fun (cont : (a, unit) continuation) -> continue cont name)
          | _ -> None);
    }
  in
  at k ~time:k.now (fun () ->
      k.activations <- k.activations + 1;
      k.in_proc <- true;
      match_with fn () handler)

(* Run-ahead: when the calling process belongs to the kernel whose
   stop-less loop is running and its wake-up time is within the loop's
   bound and strictly before every pending event, the dispatch loop's
   next pop would be this very wake-up.  Advancing the clock in place
   and counting the event, the push and the activation is then the same
   simulation without the effect, the heap push and pop and the
   [continue].  [k.now <= limit] holds inside a dispatched event, which
   keeps [limit - k.now] from overflowing; every pending time is
   [>= k.now], so [min_time - k.now] cannot either. *)
let wait n =
  let a = Domain.DLS.get ahead_key in
  match a.running with
  | Some k
    when k.in_proc && n >= 0 && k.now <= a.limit
         && n <= a.limit - k.now
         && n < Event_queue.min_time k.q - k.now ->
      k.now <- k.now + n;
      k.events <- k.events + 1;
      k.activations <- k.activations + 1;
      Event_queue.count_push k.q
  | _ -> (
      try perform (Wait n) with Effect.Unhandled _ -> raise Not_in_process)

(* Rescheduling at the current time is a zero wait: the same push, the
   same place behind the events already pending at [now]. *)
let yield () = wait 0
let suspend ~register =
  try perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

let self_name () = try perform Whoami with Effect.Unhandled _ -> "?"

let stats k =
  {
    events = k.events;
    scheduled = Event_queue.pushed_total k.q;
    activations = k.activations;
    spawned = k.spawned;
    end_time = k.now;
  }

let blocked_non_daemon k =
  Hashtbl.fold
    (fun _ (n, daemon) acc -> if daemon then acc else n :: acc)
    k.blocked []

(* The one dispatch loop: pop and run every event with time <= [limit],
   polling [stop] (when given) before each one; [true] iff [stop] cut
   the run short.  Without [stop] this loop is the running one that
   {!wait} may run ahead in.  The previous loop's state — an enclosing
   run's, when a process runs a kernel of its own — is restored on every
   exit, exceptions included.  Per-domain totals are settled here, so a
   round run on a worker domain contributes a mergeable delta. *)
let dispatch k ~limit ~stop =
  let events0 = k.events
  and activations0 = k.activations
  and scheduled0 = Event_queue.pushed_total k.q in
  let a = Domain.DLS.get ahead_key in
  let running0 = a.running and limit0 = a.limit and in_proc0 = k.in_proc in
  a.running <- (match stop with None -> Some k | Some _ -> None);
  a.limit <- limit;
  (* a process that runs its own kernel: the events this loop dispatches
     are not that process *)
  k.in_proc <- false;
  (* One reused slot keeps the steady-state loop allocation-free. *)
  let slot = Event_queue.slot () in
  let stopped =
    Fun.protect
      ~finally:(fun () ->
        a.running <- running0;
        a.limit <- limit0;
        k.in_proc <- in_proc0)
      (fun () ->
        let stopped = ref false and go = ref true in
        while !go do
          if match stop with None -> false | Some f -> f () then begin
            stopped := true;
            go := false
          end
          else if Event_queue.pop_into k.q ~limit slot then begin
            k.now <- slot.Event_queue.s_time;
            k.events <- k.events + 1;
            slot.Event_queue.s_thunk ()
          end
          else go := false
        done;
        !stopped)
  in
  let totals = Domain.DLS.get totals_key in
  totals.c_events <- totals.c_events + (k.events - events0);
  totals.c_activations <- totals.c_activations + (k.activations - activations0);
  totals.c_scheduled <-
    totals.c_scheduled + (Event_queue.pushed_total k.q - scheduled0);
  stopped

let run ?until ?stop ?(expect_quiescent = false) ?(check_deadlock = false) k =
  let limit = match until with Some u -> u | None -> max_int in
  let stopped = dispatch k ~limit ~stop in
  (* With a bound, simulated time always advances to the bound — even
     when future events remain queued past it — so that repeated bounded
     runs keep a consistent clock for subsequent [at]/[wait] calls.  A
     [stop]ped run is an interruption, not a completed window: the clock
     stays wherever dispatch was cut off so a restore/resume sees a
     consistent timeline. *)
  (if not stopped then
     match until with Some u when u > k.now -> k.now <- u | _ -> ());
  let stuck = blocked_non_daemon k in
  if
    (not stopped)
    && Event_queue.is_empty k.q
    && stuck <> []
    && (not expect_quiescent)
    && (until = None || check_deadlock)
  then begin
    let names = List.sort_uniq compare stuck |> String.concat ", " in
    raise (Deadlock names)
  end;
  stats k

let has_pending_events k = not (Event_queue.is_empty k.q)

let next_event_time k = Event_queue.min_time k.q

(* One barrier round of the partitioned (LBTS) loop: dispatch every
   event up to [horizon] and stop, leaving the clock at the last
   dispatched event.  No coasting, no deadlock check — the Partition
   driver owns both across the whole set of wheels. *)
let run_horizon k ~horizon = ignore (dispatch k ~limit:horizon ~stop:None)

let coast k ~time = if time > k.now then k.now <- time

type snap = {
  s_q : Event_queue.snap;
  s_now : int;
  s_events : int;
  s_activations : int;
  s_spawned : int;
  s_next_block_id : int;
  s_next_lane : int;
  s_blocked : (int, string * bool) Hashtbl.t;
}

let snapshot k =
  {
    s_q = Event_queue.snapshot k.q;
    s_now = k.now;
    s_events = k.events;
    s_activations = k.activations;
    s_spawned = k.spawned;
    s_next_block_id = k.next_block_id;
    s_next_lane = k.next_lane;
    s_blocked = Hashtbl.copy k.blocked;
  }

let restore k s =
  Event_queue.restore k.q s.s_q;
  k.now <- s.s_now;
  k.events <- s.s_events;
  k.activations <- s.s_activations;
  k.spawned <- s.s_spawned;
  k.next_block_id <- s.s_next_block_id;
  k.next_lane <- s.s_next_lane;
  Hashtbl.reset k.blocked;
  Hashtbl.iter (fun id v -> Hashtbl.replace k.blocked id v) s.s_blocked

let trace k sink = k.tracer <- Some sink

let emit k msg =
  match k.tracer with None -> () | Some sink -> sink k.now msg
