(* The benchmark program: builds a workload's inputs from the seed, measures
   its op list in a closed loop for the given number of seconds, checks
   every op's output, and prints the metrics.  The last line of standard
   output is one JSON object: {"correct", "attempted", "failed",
   "metrics"}; the line before it is the full record.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the run is split
   into an untraced and a traced half and the metrics are the per-layer
   ones, measured in the traced half.

   The end-to-end times are CPU times at the reference host speed: what
   the kernel charged the process (which leaves out time it spent waiting
   for a core, on this machine or on the host under it), scaled by how
   fast this run executed the fixed [Calib] computation, which is timed
   between passes.  Wall-clock figures are recorded beside them. *)

module Clock = Codesign_obs.Clock
module Kernel = Codesign_sim.Kernel
module Pool = Codesign_par.Domain_pool

let jobs = min 2 (Domain.recommended_domain_count ())
let min_ops = 100

(* [peak_rss_mb] is read after this many passes, a fixed amount of work:
   the process's resident set keeps growing over a run, so read at the
   end it would grow with the host's speed. *)
let rss_passes = 4

(* ---- statistics ---- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile 0.5 xs
let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let ratio a b = if b > 0. then a /. b else 0.
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* ---- measuring ---- *)

(* The CPU clock an op is charged on: the process's (so that the domains
   a partitioned run spawns count) when ops run one at a time, the
   running domain's when [verify] runs [jobs] of them at once.  Set
   before any op runs. *)
let op_cpu_ns = ref Cpu_clock.process_ns

let run_op (op : Op.t) =
  let before = Kernel.domain_totals () in
  let c0 = !op_cpu_ns () in
  let t0 = Clock.now_ns () in
  let finish = try Ok (Trace.span op.kind op.exec) with e -> Error e in
  let secs = Clock.elapsed_s ~since:t0 in
  let cpu = Cpu_clock.seconds (!op_cpu_ns () - c0) in
  let events = Kernel.diff_totals ~after:(Kernel.domain_totals ()) ~before in
  let out =
    match finish with
    | Ok check -> ( try check () with e -> Op.failed (Printexc.to_string e))
    | Error e -> Op.failed (Printexc.to_string e)
  in
  (secs, cpu, out, events)

(* One pass of the op list, condensed as soon as it has run so that a
   long run holds no outcomes. *)
type pass = {
  wall : float;
  secs : float array;  (** wall seconds per op, in op-list order *)
  cpu : float array;  (** CPU seconds per op, in op-list order *)
  pass_cpu : float;  (** CPU seconds of the whole process over the pass *)
  cycles : float;  (** simulated cycles the ops reported *)
  op_events : int;  (** kernel events the ops dispatched *)
  by_kind : (string, float) Hashtbl.t;  (** op seconds per kind *)
  counters : (string * float) list;  (** per-layer work, sorted by name *)
  fingerprint : string;  (** every pass of a run must repeat it *)
  failures : (string * string) list;
  bases : (string * float) list;  (** seconds per reference run, by op name *)
  base_events : int;  (** kernel events the reference runs dispatched *)
}

let condense ~wall ~pass_cpu (ops : Op.t array) results =
  let counters = Hashtbl.create 32 and by_kind = Hashtbl.create 32 in
  Array.iteri
    (fun i (secs, _, (out : Op.outcome), (ev : Kernel.domain_totals)) ->
      add by_kind (Option.value ~default:ops.(i).kind out.label) secs;
      add counters "sim.events" (float ev.d_events);
      add counters "sim.activations" (float ev.d_activations);
      add counters "sim.kernels" (float ev.d_kernels);
      List.iter (fun (k, v) -> add counters k v) out.counters)
    results;
  let counters = List.sort compare (List.of_seq (Hashtbl.to_seq counters)) in
  let outs = Array.to_list (Array.mapi (fun i (_, _, out, _) -> (ops.(i), out)) results) in
  let digests = List.map (fun ((op : Op.t), (out : Op.outcome)) -> op.name ^ "=" ^ out.digest) outs in
  {
    wall;
    secs = Array.map (fun (s, _, _, _) -> s) results;
    cpu = Array.map (fun (_, c, _, _) -> c) results;
    pass_cpu;
    cycles = Array.fold_left (fun a (_, _, (o : Op.outcome), _) -> a +. float o.cycles) 0. results;
    op_events = Array.fold_left (fun a (_, _, _, (e : Kernel.domain_totals)) -> a + e.d_events) 0 results;
    by_kind;
    counters;
    fingerprint =
      Op.hash (String.concat ";" (digests @ List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) counters));
    failures =
      List.filter_map
        (fun ((op : Op.t), (o : Op.outcome)) ->
          match o.check with Ok () -> None | Error e -> Some (op.name, e))
        outs;
    bases = [];
    base_events = 0;
  }

(* One pass of the op list, then, with [~bases], one run of each of the
   workload's reference runs, timed and checked as ops are, their time
   added to their kind's but kept out of the pass's other figures. *)
let run_pass ~parallel ~bases (w : Op.workload) =
  let c0 = Cpu_clock.process_ns () in
  let t0 = Clock.now_ns () in
  let results = if parallel then Pool.map ~jobs run_op w.ops else Array.map run_op w.ops in
  let wall = Clock.elapsed_s ~since:t0 in
  let p = condense ~wall ~pass_cpu:(Cpu_clock.seconds (Cpu_clock.process_ns () - c0)) w.ops results in
  if not bases then p
  else
    let runs = List.map (fun (b : Op.t) -> (b, run_op b)) w.bases in
    List.iter (fun ((b : Op.t), (secs, _, _, _)) -> add p.by_kind b.kind secs) runs;
    {
      p with
      bases = List.map (fun ((b : Op.t), (secs, _, _, _)) -> (b.name, secs)) runs;
      base_events = List.fold_left (fun a (_, (_, _, _, (e : Kernel.domain_totals))) -> a + e.d_events) 0 runs;
      failures =
        p.failures
        @ List.filter_map
            (fun ((b : Op.t), (_, _, (o : Op.outcome), _)) ->
              match o.check with Ok () -> None | Error e -> Some (b.name, e))
            runs;
    }

(* Whole passes of the op list until [seconds] have gone by, at least
   [min_ops] ops have run and at least [min_passes] passes, calling
   [between] after each. *)
let measure ?(between = fun _ -> ()) ?(min_passes = 1) ~parallel ~bases ~seconds w =
  let t0 = Clock.now_ns () in
  let rec go acc n =
    if List.length acc >= min_passes && n >= min_ops && Clock.elapsed_s ~since:t0 >= seconds then
      List.rev acc
    else
      let p = run_pass ~parallel ~bases w in
      between p;
      go (p :: acc) (n + Array.length p.secs)
  in
  go [] 0

(* Builds the inputs repeatedly for at least 10 ms of CPU time; returns
   the number of builds and the CPU seconds per build. *)
let setup_batch build =
  let c0 = Cpu_clock.process_ns () in
  let spent () = Cpu_clock.seconds (Cpu_clock.process_ns () - c0) in
  let rec go k =
    ignore (build ());
    if spent () < 0.01 then go (k + 1) else k
  in
  let k = go 1 in
  (k, spent () /. float k)

(* CPU seconds of one run of the calibration, after an untimed one that
   brings its arrays back into the caches the workload used. *)
let calibrate () =
  ignore (Sys.opaque_identity (Calib.run ()));
  let c0 = Cpu_clock.thread_ns () in
  ignore (Sys.opaque_identity (Calib.run ()));
  Cpu_clock.seconds (Cpu_clock.thread_ns () - c0)

(* Time a pass kept its executors busy: the sum of its op times when ops
   run one after another, its wall time when they are fanned over the
   pool. *)
let pass_busy ~parallel p = if parallel then p.wall else Array.fold_left ( +. ) 0. p.secs

(* A rate per pass, reported as the median over passes so that a pass
   the host slowed does not move it. *)
let pass_rate ~parallel work passes =
  median (List.map (fun p -> work p /. pass_busy ~parallel p) passes)

(* CPU time a pass kept its executors busy, as [pass_busy] counts wall
   time: the sum of its op times, or the whole process's CPU time over
   the pass when its ops are fanned over the pool. *)
let pass_cpu_busy ~parallel p = if parallel then p.pass_cpu else Array.fold_left ( +. ) 0. p.cpu

let cpu_pass_rate ~parallel work passes =
  median (List.map (fun p -> work p /. pass_cpu_busy ~parallel p) passes)

let ops_per_s ~parallel = pass_rate ~parallel (fun p -> float (Array.length p.secs))

(* Op [i]'s latency: the median of its runs. *)
let op_median passes i = median (List.map (fun p -> p.secs.(i)) passes)

(* The process's peak resident set (VmHWM); fails where the kernel does
   not report it. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
        | Some _ -> go ()
        | None -> failwith "no VmHWM line in /proc/self/status"
      in
      go ())

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let all_ms field passes =
  List.concat_map (fun p -> Array.to_list (Array.map (fun s -> 1e3 *. s) (field p))) passes

(* [speed] is how much faster than the reference host this run executed
   the calibration: CPU times are multiplied by it and rates divided, to
   give what the reference host would have measured. *)
let end_to_end ~parallel ~speed ~setup_s ~peak_rss passes =
  let ms = all_ms (fun p -> p.cpu) passes in
  [
    m "setup_s" "s" (setup_s *. speed);
    m "ops_per_s" "1/s" (cpu_pass_rate ~parallel (fun p -> float (Array.length p.cpu)) passes /. speed);
    m "op_p50_ms" "ms" (quantile 0.5 ms *. speed);
    m "op_p90_ms" "ms" (quantile 0.9 ms *. speed);
    m "peak_rss_mb" "MB" peak_rss;
    m "sim_cycles_per_s" "cycles/s" (cpu_pass_rate ~parallel (fun p -> p.cycles) passes /. speed);
  ]

(* The host's speed and the unscaled figures, recorded beside the gated
   ones. *)
let host_figures ~parallel ~speed passes =
  let ms = all_ms (fun p -> p.secs) passes in
  [
    m "host_speed" "x" speed;
    m "cpu_ops_per_s" "1/s" (cpu_pass_rate ~parallel (fun p -> float (Array.length p.cpu)) passes);
    m "wall_ops_per_s" "1/s" (ops_per_s ~parallel passes);
    m "wall_op_p50_ms" "ms" (quantile 0.5 ms);
    m "wall_op_p90_ms" "ms" (quantile 0.9 ms);
  ]

(* Figures reported beside the gated metrics: deterministic for a seed,
   or zero when the run is correct. *)
let reported ~attempted ~failed counters =
  let c n = Option.value ~default:0. (List.assoc_opt n counters) in
  [
    m "error_rate" "ratio" (ratio (float failed) (float attempted));
    m "timing_error_pct" "%" (ratio (c "cosim.timing_dev_pct") (c "cosim.timing_runs"));
    m "quality_gap_pct" "%" (ratio (c "dse.gap_pct") (c "dse.gap_runs"));
  ]

(* Median of 11 timings of [f], in seconds. *)
let probe f = median (List.init 11 (fun _ -> snd (Clock.time f)))

(* Microseconds per [Cost.evaluate] on an [n]-task graph. *)
let evaluate_probe ~seed n =
  let g = Dse.graph ~seed n in
  let p = Array.init n (fun i -> i mod 3 = 0) in
  let batch () =
    let t0 = Clock.now_ns () in
    let rec go k =
      ignore (Codesign.Cost.evaluate g p);
      if Clock.elapsed_s ~since:t0 < 0.002 then go (k + 1) else k
    in
    let k = go 1 in
    Clock.elapsed_s ~since:t0 /. float k
  in
  1e6 *. median (List.init 9 (fun _ -> batch ()))

(* Per-layer values are per pass of the op list. *)
let per_layer ~parallel ~seed ~(w : Op.workload) ~passes ~setup_spans ~builds ~spans
    ~overhead_pct =
  let n = float (List.length passes) in
  let counters = (List.hd passes).counters in
  let c name = Option.value ~default:0. (List.assoc_opt name counters) in
  let kind_ms kind =
    1e3 *. sum (fun p -> Option.value ~default:0. (Hashtbl.find_opt p.by_kind kind)) passes /. n
  in
  let span_s = Trace.totals spans in
  let span_ms name = 1e3 *. Option.value ~default:0. (Hashtbl.find_opt span_s name) /. n in
  let isa_ms = span_ms "isa.run_step" +. span_ms "isa.run_blocks" in
  let partitioners = [ "greedy"; "kl"; "sa"; "gclp"; "exhaustive" ] in
  let partition_ms = sum (fun k -> kind_ms ("partition." ^ k)) partitioners in
  let compile_ms =
    1e3 *. sum (fun s -> if s.Trace.name = "isa.compile" then Trace.duration_s s else 0.) setup_spans
  in
  (* a partitioned mesh (a reference run) over its serial twin (an op),
     both run once in every traced pass: the medians of their runs *)
  let overhead d =
    let partitioned = "mesh partitioned " ^ d in
    let ms =
      if List.exists (fun (b : Op.t) -> b.name = partitioned) w.bases then
        1e3 *. median (List.map (fun p -> List.assoc partitioned p.bases) passes)
      else 0.
    in
    let base_ms =
      match List.find_index (fun (o : Op.t) -> o.name = "mesh serial " ^ d) (Array.to_list w.ops) with
      | Some i -> 1e3 *. op_median passes i
      | None -> 0.
    in
    [ m ("pdes.overhead_x." ^ d) "x" (ratio ms base_ms); m ("pdes.serial_ms." ^ d) "ms" base_ms ]
  in
  let op_s = sum (fun p -> Array.fold_left ( +. ) 0. p.secs) passes in
  let wall = sum (fun p -> p.wall) passes in
  let busy = sum (pass_busy ~parallel) passes in
  let times prefix kinds =
    List.map (fun k -> m (Printf.sprintf "%s.%s_ms" prefix k) "ms" (kind_ms (prefix ^ "." ^ k))) kinds
  in
  [
    m "sim.events" "count" (c "sim.events");
    m "sim.activations" "count" (c "sim.activations");
    m "sim.kernels" "count" (c "sim.kernels");
    m "sim.events_per_s" "1/s" (ratio (n *. c "sim.events") busy);
    m "sim.chan_messages" "count" (c "sim.chan_messages");
    m "sim.chan_blocked_sends" "count" (c "sim.chan_blocked_sends");
    m "isa.run_ms" "ms" isa_ms;
    m "isa.instret" "count" (c "isa.instret");
    m "isa.mips" "MIPS" (ratio (c "isa.instret") (1e3 *. isa_ms));
    m "isa.blocks_compiled" "count" (c "isa.blocks_compiled");
    m "isa.compile_ms" "ms" (compile_ms /. float builds);
    m "bus.ops" "count" (c "bus.ops");
  ]
  @ times "cosim" [ "pin"; "tlm"; "driver"; "message"; "mixed"; "quantum"; "network"; "mesh_serial" ]
  @ [
      m "cosim.timing_error_pct" "%" (ratio (c "cosim.timing_dev_pct") (c "cosim.timing_runs"));
      m "pdes.mesh_ms" "ms" (kind_ms "pdes.mesh");
      m "pdes.echo_ms" "ms" (kind_ms "pdes.echo");
    ]
  @ List.concat_map overhead (List.map Sims.mesh_name Sims.mesh_dims)
  @ [
      m "par.spawn_ms" "ms" (1e3 *. probe (fun () -> Pool.map ~jobs ignore (Array.make jobs ())));
      m "par.busy_s" "s" (if parallel then op_s /. n else 0.);
      m "par.idle_s" "s" (if parallel then ((float jobs *. wall) -. op_s) /. n else 0.);
    ]
  @ List.map (fun k -> m (Printf.sprintf "cost.evaluate_us.n%d" k) "us" (evaluate_probe ~seed k)) [ 8; 16; 24 ]
  @ [
      m "partition.evaluations" "count" (c "partition.evaluations");
      m "partition.evals_per_s" "1/s" (ratio (1e3 *. c "partition.evaluations") partition_ms);
    ]
  @ times "partition" partitioners
  @ [ m "dse.quality_gap_pct" "%" (ratio (c "dse.gap_pct") (c "dse.gap_runs")) ]
  @ times "cosynth" [ "sos"; "binpack"; "sensitivity" ]
  @ [
      m "cosynth.nodes" "count" (c "cosynth.nodes");
      m "hls.estimate_ms" "ms" (kind_ms "hls.estimate");
      m "hls.synth_ms" "ms" (kind_ms "hls.synth");
      m "rtl.fsmd_ms" "ms" (span_ms "rtl.fsmd_run");
      m "fault.campaign_ms" "ms" (kind_ms "fault.campaign");
      m "fault.cells" "count" (c "fault.cells");
      m "fault.sim_cycles" "count" (c "fault.sim_cycles");
      m "fault.cells_degraded" "count" (c "fault.cells_degraded");
    ]
  @ times "fuzz" [ "behavior"; "ladder"; "taskgraph"; "fault" ]
  @ [
      m "fuzz.rtl_blocks" "count" (c "fuzz.rtl_blocks");
      m "trace.overhead_pct" "%" overhead_pct;
      m "trace.spans" "count" (float (List.length spans) /. n);
    ]

(* Why a per-layer metric reads zero on this workload. *)
let not_applicable ~workload metrics =
  List.filter_map
    (fun x ->
      if x.value <> 0. then None
      else
        Some
          ( x.name,
            match x.name with
            | "fault.cells_degraded" | "sim.chan_blocked_sends" -> "none occurred"
            | "par.busy_s" | "par.idle_s" -> "only verify fans its ops over the domain pool"
            | "isa.compile_ms" -> "only cosim compiles kernels at set-up"
            | _ ->
                Printf.sprintf "the %s workload does no %s work of this kind" workload
                  (List.hd (String.split_on_char '.' x.name)) ))
    metrics

(* ---- output ---- *)

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let json_str s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""
let json_obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs) ^ "}"

let json_metrics ms =
  json_obj (List.map (fun x -> (x.name, json_obj [ ("value", json_num x.value); ("unit", json_str x.unit) ])) ms)

(* ---- command line ---- *)

let workloads = [ "cosim"; "dse"; "verify" ]

let usage =
  "main.exe --workload cosim|dse|verify --seed N --seconds S --trace 0|1 \
   [--size full|tiny] [--commit REV] [--out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and commit = ref "unknown" and out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--size", Arg.String (fun s -> tiny := s = "tiny"), " full (default) or tiny");
      ("--commit", Arg.Set_string commit, " revision recorded in the result");
      ("--out", Arg.Set_string out, " append the full result record to this file");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 and tiny = !tiny and seed = !seed in
  let parallel = !workload = "verify" in
  let build () =
    match !workload with
    | "cosim" -> Sims.cosim ~tiny ~seed ~jobs
    | "dse" -> Dse.dse ~tiny ~seed
    | _ -> Verify.verify ~tiny ~seed
  in
  (* Set-up time is the median CPU time per build over batches of builds:
     one after an untimed first build, then one after every pass and one
     more per half second the pass took, so that it is sampled over the
     whole run as the ops are.  The calibration is sampled the same way.
     The traced run times seven batches up front, for the spans of
     set-up. *)
  Trace.enabled := traced;
  let w = build () in
  let batches = ref (List.init (if traced then 7 else 1) (fun _ -> setup_batch build)) in
  let builds = 1 + List.fold_left (fun a (k, _) -> a + k) 0 !batches in
  let setup_spans = Trace.take () in
  Trace.enabled := false;
  w.prepare ();
  if parallel then op_cpu_ns := Cpu_clock.thread_ns;
  let passes, metrics, host, checks =
    if not traced then begin
      let calibrations = ref [ calibrate () ] and peak_rss = ref 0. and done_passes = ref 0 in
      let between p =
        for _ = 0 to int_of_float (p.wall /. 0.5) do
          batches := setup_batch build :: !batches;
          calibrations := calibrate () :: !calibrations
        done;
        incr done_passes;
        if !done_passes = rss_passes then peak_rss := peak_rss_mb ()
      in
      let passes = measure ~between ~min_passes:rss_passes ~parallel ~bases:false ~seconds:!seconds w in
      let speed = Calib.reference_s /. median !calibrations in
      ( passes,
        end_to_end ~parallel ~speed ~setup_s:(median (List.map snd !batches)) ~peak_rss:!peak_rss passes,
        host_figures ~parallel ~speed passes,
        [] )
    end
    else begin
      (* both halves run the reference runs, so that they differ only in
         the spans *)
      let untraced = measure ~parallel ~bases:true ~seconds:(!seconds /. 2.) w in
      Trace.enabled := true;
      let before = Kernel.domain_totals () in
      let traced = measure ~parallel ~bases:true ~seconds:(!seconds /. 2.) w in
      let total = Kernel.diff_totals ~after:(Kernel.domain_totals ()) ~before in
      Trace.enabled := false;
      let spans = Trace.take () in
      let rate = ops_per_s ~parallel in
      let overhead_pct = 100. *. (rate untraced -. rate traced) /. rate untraced in
      let op_events = List.fold_left (fun a p -> a + p.op_events + p.base_events) 0 traced in
      let checks =
        [
          ("spans_nest", Trace.check_nesting spans);
          ( "events_reconcile",
            if op_events = total.d_events then None
            else
              Some
                (Printf.sprintf "ops and reference runs account for %d events, the kernel counted %d" op_events
                   total.d_events) );
        ]
      in
      ( untraced @ traced,
        per_layer ~parallel ~seed ~w ~passes:traced ~setup_spans ~builds ~spans ~overhead_pct,
        [],
        checks )
    end
  in
  let attempted = sum (fun p -> float (Array.length p.secs + List.length p.bases)) passes |> int_of_float in
  let failures = List.concat_map (fun p -> p.failures) passes in
  let failed = List.length failures in
  let prints = List.sort_uniq compare (List.map (fun p -> p.fingerprint) passes) in
  let problems =
    List.map (fun (op, e) -> op ^ ": " ^ e) failures
    @ (if List.length prints > 1 then [ "passes of one seed simulated differently" ] else [])
    @ List.filter_map (fun (k, v) -> Option.map (fun e -> k ^ ": " ^ e) v) checks
  in
  List.iteri (fun i p -> if i < 20 then prerr_endline ("FAIL " ^ p)) problems;
  let correct = problems = [] in
  let first = List.hd passes in
  let reported = reported ~attempted ~failed first.counters @ host in
  let record =
    json_obj
      [
        ("workload", json_str !workload);
        ("seed", string_of_int seed);
        ("seconds", json_num !seconds);
        ("trace", string_of_int !trace);
        ("size", json_str (if tiny then "tiny" else "full"));
        ( "meta",
          json_obj
            [
              ("cores", string_of_int (Domain.recommended_domain_count ()));
              ("jobs", string_of_int jobs);
              ("ocaml", json_str Sys.ocaml_version);
              ("commit", json_str !commit);
            ] );
        ("passes", string_of_int (List.length passes));
        ("ops_per_pass", string_of_int (Array.length w.ops));
        ("fingerprint", json_str first.fingerprint);
        ("correct", string_of_bool correct);
        ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ("checks", json_obj (List.map (fun (k, v) -> (k, string_of_bool (v = None))) checks));
        ("reported", json_metrics reported);
        ( "not_applicable",
          json_obj (List.map (fun (k, v) -> (k, json_str v)) (not_applicable ~workload:!workload metrics)) );
        ("metrics", json_metrics metrics);
      ]
  in
  List.iter (fun x -> Printf.printf "%-28s %16.6g %s\n" x.name x.value x.unit) (metrics @ reported);
  print_endline record;
  if !out <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    output_string oc (record ^ "\n");
    close_out oc
  end;
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_metrics metrics);
       ])
