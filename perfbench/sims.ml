(* The [cosim] workload.

   Its ops are serial and single-domain: the Fig. 3 echo system at every
   component assignment and two quanta, software-only ISS runs of every
   kernel on both ISS tiers, the application networks mapped to SW and
   to HW, and meshes and echo systems cut at message interfaces, run on
   one kernel (the serial twins).  Its reference runs, timed in the
   traced run only, run those twins on the partitioned kernel, one
   domain per partition. *)

open Codesign
module Apps = Codesign_workloads.Apps
module Kernels = Codesign_workloads.Kernels
module Rng = Codesign_ir.Rng
module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Channel = Codesign_sim.Channel
open Op

(* The echo systems and meshes are fixed: their device periods and sizes
   set how much there is to simulate, so drawing them from the seed would
   make a run's cost a property of its seed.  The seed moves the kernel
   data and the interleaving. *)

let link_latency = 8

(* stages x lanes x items; fixed so per-size metric names are stable *)
let mesh_dims = [ (3, 4, 8); (4, 4, 16); (4, 8, 32); (6, 8, 64) ]
let mesh_name (s, l, c) = Printf.sprintf "%dx%dx%d" s l c

(* Echo assignments cut at message interfaces into [J] partitions, which
   cuts the sink off: a run uses no more domains than the host has
   cores. *)
let cut_echoes =
  let m = Cosim.Message and p = Cosim.Pin in
  [
    { Cosim.src = m; cpu = m; sink = m };
    { Cosim.src = p; cpu = p; sink = m };
    { Cosim.src = m; cpu = p; sink = m };
    { Cosim.src = Cosim.Transaction; cpu = Cosim.Driver; sink = m };
    { Cosim.src = Cosim.Driver; cpu = Cosim.Transaction; sink = m };
  ]

let mesh_items ~tiny c = if tiny then 2 else c

(* ---- echo system ---- *)

let outcome_name = function
  | Cosim.Completed -> "completed"
  | Cosim.Not_halted s -> "not_halted " ^ s
  | Cosim.Exhausted s -> "exhausted " ^ s

let echo_digest (m : Cosim.metrics) =
  Printf.sprintf "%s/%d/%d/%d/%d/%d" (outcome_name m.outcome) m.checksum
    m.sim_cycles m.events m.activations m.bus_ops

let echo ?quantum ?partitions ?link_latency levels () =
  Trace.span "cosim.run_echo_assignment" (fun () ->
      Cosim.run_echo_assignment ~levels ?quantum ?partitions ?link_latency ())

let check_echo ~reference (m : Cosim.metrics) =
  expect ("outcome " ^ outcome_name m.outcome) (m.outcome = Cosim.Completed)
  &&& fun () ->
  expect
    (Printf.sprintf "checksum %d, pure-pin run gives %d" m.checksum
       (Lazy.force reference).Cosim.checksum)
    (m.checksum = (Lazy.force reference).Cosim.checksum)

let echo_outcome ?(counters = []) ~reference (m : Cosim.metrics) =
  outcome ~cycles:m.sim_cycles ~digest:(echo_digest m)
    ~counters:(("bus.ops", float m.bus_ops) :: counters)
    (check_echo ~reference m)

(* ---- process networks ---- *)

let net_digest (r : Cosim.network_result) =
  let writes =
    List.map (fun (p, port, v) -> Printf.sprintf "%s:%d=%d" p port v) r.port_writes
  in
  let results =
    List.map
      (fun (p, vs) ->
        p ^ "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) vs) ^ "}")
      r.sw_results
  in
  let chans =
    List.map
      (fun (c, (s : Channel.stats)) ->
        Printf.sprintf "%s:%d/%d/%d/%d" c s.sends s.messages s.blocked_sends s.recv_blocks)
      r.chan_stats
  in
  Printf.sprintf "%d/%d/%d/%d/%s/%s/%s" r.end_time r.net_events r.net_activations
    r.hw_area (hash (String.concat ";" writes)) (hash (String.concat ";" results))
    (hash (String.concat ";" chans))

let chan_counters (r : Cosim.network_result) =
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 r.chan_stats in
  [
    ("sim.chan_messages", float (sum (fun (s : Channel.stats) -> s.messages)));
    ("sim.chan_blocked_sends", float (sum (fun (s : Channel.stats) -> s.blocked_sends)));
  ]

let run_net ?partition net () =
  Trace.span "cosim.run_network" (fun () -> Cosim.run_network ?partition net)

let completed (r : Cosim.network_result) =
  match r.net_outcome with
  | Cosim.Net_completed -> Ok ()
  | Cosim.Net_trapped (p, m) -> Error (Printf.sprintf "%s trapped: %s" p m)

(* Every consumer writes the pipeline's reference sum on port 1. *)
let check_port1 ~expected (r : Cosim.network_result) =
  let values = List.filter_map (fun (_, port, v) -> if port = 1 then Some v else None) r.port_writes in
  expect
    (Printf.sprintf "port 1 writes [%s], expected %d each"
       (String.concat ";" (List.map string_of_int values)) expected)
    (values <> [] && List.for_all (( = ) expected) values)

let net_outcome r check =
  outcome ~cycles:r.Cosim.end_time ~digest:(net_digest r) ~counters:(chan_counters r)
    (completed r &&& check)

let all_hw (net : Pn.t) = Pn.remap net (List.map (fun ((p : B.proc), _) -> (p.name, Pn.Hw)) net.procs)

let mesh ~tiny (s, l, c) = Apps.mesh ~stages:s ~lanes:l ~count:(mesh_items ~tiny c) ()

let mesh_expected ~tiny (s, _, c) =
  Apps.expected_pipeline_output ~count:(mesh_items ~tiny c) ~work:8 ~stages:s

(* ---- cosim ---- *)

let grid =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun cpu -> List.map (fun sink -> { Cosim.src; cpu; sink }) Cosim.all_levels)
        Cosim.all_levels)
    Cosim.all_levels

let grid_kind (a : Cosim.assignment) quantum =
  if quantum > 1 then "cosim.quantum"
  else if not (Cosim.is_pure a) then "cosim.mixed"
  else
    match a.cpu with
    | Cosim.Pin -> "cosim.pin"
    | Cosim.Transaction -> "cosim.tlm"
    | Cosim.Driver -> "cosim.driver"
    | Cosim.Message -> "cosim.message"

let grid_ops ~reference =
  List.concat_map
    (fun a ->
      List.map
        (fun quantum ->
          let is_ref = Cosim.is_pure a && a.Cosim.cpu = Cosim.Pin && quantum = 1 in
          {
            name = Printf.sprintf "echo %s q%d" (Cosim.assignment_name a) quantum;
            kind = grid_kind a quantum;
            exec =
              (fun () ->
                let m = echo ~quantum a () in
                fun () ->
                  (* Fig. 3 fidelity: deviation from the pure-pin, quantum-1 run *)
                  let r = (Lazy.force reference).Cosim.sim_cycles in
                  let dev = 100. *. Float.abs (float (m.sim_cycles - r)) /. float r in
                  let counters =
                    if is_ref then [] else [ ("cosim.timing_dev_pct", dev); ("cosim.timing_runs", 1.) ]
                  in
                  echo_outcome ~counters ~reference m);
          })
        [ 1; 64 ])
    grid

(* A kernel compiled once at set-up, run from its image on either ISS
   tier against the interpreter's results. *)
let iss_ops rng =
  List.concat_map
    (fun (kname, (proc : B.proc), bindings) ->
      let bindings =
        List.map
          (fun (k, v) -> if k = "n" || k = "k" then (k, v) else (k, v + Rng.int_in rng (-3) 3))
          bindings
      in
      let items, lay = Trace.span "isa.compile" (fun () -> Codegen.compile proc) in
      let code = (Trace.span "isa.compile" (fun () -> Asm.assemble items)).Asm.code in
      let writes = Codegen.resolve lay bindings in
      let load () =
        let cpu = Cpu.create code in
        List.iter (fun (a, v) -> Cpu.write_mem cpu a v) writes;
        cpu
      in
      (* the interpreter's results and the step tier's cycle count *)
      let expected =
        lazy
          (let cpu = load () in
           ignore (Cpu.run cpu);
           (B.run proc bindings, Cpu.cycles cpu))
      in
      let op tier run =
        {
          name = Printf.sprintf "iss %s %s" kname tier;
          kind = "isa." ^ tier;
          exec =
            (fun () ->
              let cpu = load () in
              let status = Trace.span ("isa.run_" ^ tier) (fun () -> run cpu) in
              fun () ->
                let results = List.map (fun v -> (v, Codegen.result lay cpu v)) proc.results in
                let cycles = Cpu.cycles cpu in
                let expected_results, step_cycles = Lazy.force expected in
                outcome ~cycles
                  ~digest:
                    (Printf.sprintf "%d/%d/%s" cycles (Cpu.instret cpu)
                       (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) results)))
                  ~counters:
                    [
                      ("isa.instret", float (Cpu.instret cpu));
                      ("isa.blocks_compiled", float (Cpu.blocks_compiled cpu));
                    ]
                  (expect "CPU did not halt" (status = Cpu.Halted) &&& fun () ->
                   expect "results differ from the interpreter" (results = expected_results)
                   &&& fun () -> expect "cycles differ from the step tier" (cycles = step_cycles)));
        }
      in
      [ op "step" (fun cpu -> Cpu.run cpu); op "blocks" (fun cpu -> Cpu.run_compiled cpu) ])
    Kernels.all

let network_ops () =
  let pipeline = Apps.pipeline () in
  let expected = Apps.expected_pipeline_output ~count:16 ~work:8 ~stages:2 in
  let fork_join = Apps.fork_join () in
  let sw_fork_join = lazy (Cosim.run_network fork_join) in
  (* the SW-mapped fork-join output is the HW mapping's oracle *)
  let prepare () = ignore (Lazy.force sw_fork_join) in
  let op name net check =
    { name; kind = "cosim.network"; exec = (fun () -> let r = run_net net () in fun () -> net_outcome r (fun () -> check r)) }
  in
  let same_output r =
    let ports (r : Cosim.network_result) = List.map (fun (_, pt, v) -> (pt, v)) r.port_writes in
    expect "HW mapping writes differ from SW mapping" (ports r = ports (Lazy.force sw_fork_join))
  in
  ( [
      op "pipeline sw" pipeline (check_port1 ~expected);
      op "pipeline hw" (all_hw pipeline) (check_port1 ~expected);
      op "fork_join sw" fork_join same_output;
      op "fork_join hw" (all_hw fork_join) same_output;
    ],
    prepare )

let serial_twin_ops ~tiny ~reference =
  let meshes =
    List.map
      (fun d ->
        let net = mesh ~tiny d in
        {
          name = "mesh serial " ^ mesh_name d;
          kind = "cosim.mesh_serial";
          exec =
            (fun () ->
              let r = run_net net () in
              fun () -> net_outcome r (fun () -> check_port1 ~expected:(mesh_expected ~tiny d) r));
        })
      mesh_dims
  in
  let echoes =
    cut_echoes
    |> List.map (fun a ->
           {
             name = Printf.sprintf "echo %s ll%d" (Cosim.assignment_name a) link_latency;
             kind = "cosim.message";
             exec =
               (fun () ->
                 let m = echo ~link_latency a () in
                 fun () -> echo_outcome ~reference m);
           })
  in
  meshes @ echoes

let pin_reference () = lazy (echo (Cosim.pure Cosim.Pin) ())

(* The partitioned runs of the serial twins' meshes and echo cuts, on
   [jobs] partitions.  Each must simulate exactly what its serial twin
   does: the twin's digest is computed untimed, at [prepare]. *)
let partitioned_runs ~tiny ~jobs ~reference =
  let twinned name kind ~serial run check =
    let serial = lazy (serial ()) in
    let exec () =
      let r = run () in
      fun () ->
        let o = check r in
        { o with check = (o.check &&& fun () -> expect "differs from its serial twin" (o.digest = Lazy.force serial)) }
    in
    ({ name; kind; exec }, serial)
  in
  let meshes =
    List.map
      (fun ((s, l, _) as d) ->
        let net = mesh ~tiny d in
        let partition = Apps.mesh_partition ~stages:s ~lanes:l ~partitions:jobs () in
        twinned ("mesh partitioned " ^ mesh_name d) "pdes.mesh"
          ~serial:(fun () -> net_digest (Cosim.run_network net))
          (run_net ~partition net)
          (fun r -> net_outcome r (fun () -> check_port1 ~expected:(mesh_expected ~tiny d) r)))
      mesh_dims
  in
  let echoes =
    List.map
      (fun a ->
        twinned
          (Printf.sprintf "echo %s p%d ll%d" (Cosim.assignment_name a) jobs link_latency)
          "pdes.echo"
          ~serial:(fun () -> echo_digest (echo ~link_latency a ()))
          (echo ~partitions:jobs ~link_latency a)
          (echo_outcome ~reference))
      cut_echoes
  in
  let runs, serials = List.split (meshes @ echoes) in
  (runs, fun () -> List.iter (fun s -> ignore (Lazy.force s)) serials)

(* Serial: echo grid, ISS kernels, networks and the serial twins.  The
   partitioned runs are reference runs, timed only in the traced run:
   how long they take depends on how fast the host wakes a sleeping
   core, which varies too much from run to run to gate on. *)
let cosim ~tiny ~seed ~jobs =
  let rng = Rng.create seed in
  let reference = pin_reference () in
  let networks, prepare_networks = network_ops () in
  let ops = grid_ops ~reference @ iss_ops rng @ networks @ serial_twin_ops ~tiny ~reference in
  let bases, prepare_bases = partitioned_runs ~tiny ~jobs ~reference in
  let prepare () =
    ignore (Lazy.force reference);
    prepare_networks ();
    prepare_bases ()
  in
  workload (interleave rng ops) ~prepare ~bases

