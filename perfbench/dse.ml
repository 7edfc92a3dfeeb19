(* The [dse] workload: serial design-space exploration with no kernel
   events — partitioners and co-synthesis engines on a fixed suite of
   TGFF graphs, HLS estimation and synthesis of every kernel.  Heuristics
   on small graphs are held against the exact optimum. *)

open Codesign
module Tgff = Codesign_workloads.Tgff
module Kernels = Codesign_workloads.Kernels
module Rng = Codesign_ir.Rng
module B = Codesign_ir.Behavior
module C = Codesign_ir.Cdfg
module Hls = Codesign_hls.Hls
module Controller = Codesign_hls.Controller
module Fsmd = Codesign_rtl.Fsmd
open Op

let exact_limit = 10

let graph ~seed n =
  Tgff.generate
    { Tgff.default_spec with Tgff.seed; n_tasks = n; layers = max 3 (n / 3) }

(* Graphs per size.  The graphs are a fixed suite: search cost varies
   several-fold between graphs of one size, and with the area budget and
   the annealing seed, so drawing any of them from the seed would make
   the workload's cost a property of the seed.  The seed sets the HLS
   block inputs and the interleaving. *)
let instances = 2

let gap_counters ~opt v =
  [ ("dse.gap_pct", 100. *. (v -. opt) /. Float.abs opt); ("dse.gap_runs", 1.) ]

(* ---- partitioning ---- *)

let partition_ops ~sizes =
  List.concat_map
    (fun (n, i) ->
      let g = graph ~seed:((n * 7) + i) n in
      let max_area = Cost.area_of_partition g (Cost.all_hw g) / 2 in
      let exact = lazy (Partition.exhaustive ~max_area g) in
      let op algo run =
        {
          name = Printf.sprintf "%s n%d.%d" algo n i;
          kind = "partition." ^ algo;
          exec =
            (fun () ->
              let r = Trace.span ("partition." ^ algo) (fun () -> run g) in
              fun () ->
                let e = Cost.evaluate g r.Partition.partition in
                let gap =
                  if n <= exact_limit && algo <> "exhaustive" then
                    gap_counters ~opt:(Lazy.force exact).Partition.objective r.objective
                  else []
                in
                outcome
                  ~digest:(Printf.sprintf "%.6f/%d/%d" r.objective r.evaluations e.Cost.latency)
                  ~counters:(("partition.evaluations", float r.evaluations) :: gap)
                  (expect "re-evaluation differs from the returned eval" (e = r.eval) &&& fun () ->
                   expect "over the area budget"
                     (Partition.respects_budget ~max_area:(Some max_area) g r.partition)
                   &&& fun () ->
                   expect "beats the exhaustive optimum"
                     (n > exact_limit
                     || r.objective >= (Lazy.force exact).Partition.objective -. 1e-9)));
        }
      in
      [
        op "greedy" (Partition.greedy ~max_area);
        op "kl" (Partition.kl ~max_area);
        op "gclp" (Partition.gclp ~max_area);
      ]
      @ (if n <= 16 then [ op "sa" (Partition.simulated_annealing ~max_area) ] else [])
      @ if n <= exact_limit then [ op "exhaustive" (Partition.exhaustive ~max_area) ] else [])
    (List.concat_map (fun n -> List.init instances (fun i -> (n, i))) sizes)

(* ---- co-synthesis ---- *)

let pe_lib =
  [
    { Cosynth.pt_name = "fast"; price = 100 };
    { Cosynth.pt_name = "mid"; price = 40 };
    { Cosynth.pt_name = "slow"; price = 15 };
  ]

let cosynth_ops ~sizes =
  List.concat_map
    (fun (n, i) ->
      let g =
        Tgff.generate
          {
            Tgff.default_spec with
            Tgff.seed = (n * 7) + i;
            n_tasks = n;
            layers = max 2 (n / 3);
            deadline_factor = 1.1;
          }
      in
      let exec =
        Array.map
          (fun (t : Codesign_ir.Task_graph.task) ->
            [| max 1 (t.sw_cycles / 4); max 1 (t.sw_cycles / 2); t.sw_cycles |])
          g.tasks
      in
      let pb = Cosynth.problem g pe_lib ~exec in
      let exact = lazy (Cosynth.sos pb) in
      let op algo run =
        {
          name = Printf.sprintf "%s n%d.%d" algo n i;
          kind = "cosynth." ^ algo;
          exec =
            (fun () ->
              let s = Trace.span ("cosynth." ^ algo) (fun () -> run pb) in
              fun () ->
                let opt = Lazy.force exact in
                let comparable = algo <> "sos" && s.Cosynth.feasible && opt.Cosynth.feasible in
                outcome
                  ~digest:(Printf.sprintf "%d/%d/%d/%b" s.Cosynth.price s.makespan s.nodes s.feasible)
                  ~counters:
                    (("cosynth.nodes", float s.nodes)
                    :: (if comparable then gap_counters ~opt:(float opt.price) (float s.price) else []))
                  (expect "makespan does not re-evaluate"
                     (Cosynth.makespan pb ~pe_set:s.pe_set ~mapping:s.mapping = s.makespan)
                   &&& fun () ->
                   expect "price does not re-evaluate" (Cosynth.price_of pb s.pe_set = s.price)
                   &&& fun () ->
                   expect "cheaper than the exact optimum" (not comparable || s.price >= opt.price)));
        }
      in
      [ op "sos" (fun pb -> Cosynth.sos pb); op "binpack" Cosynth.binpack;
        op "sensitivity" (fun pb -> Cosynth.sensitivity pb) ])
    (List.concat_map (fun n -> List.init instances (fun i -> (n, i))) sizes)

(* ---- HLS ---- *)

let memory_free (b : C.block) =
  b.ops <> []
  && List.for_all (fun (o : C.op) -> match o.opcode with C.Load _ | C.Store _ -> false | _ -> true) b.ops

(* Inputs of a block, from the seed and the name. *)
let block_env ~seed name = (Hashtbl.hash (seed, name) land 31) - 8

(* Synthesize a block to an FSMD and run it: the result must match the
   DFG reference in value and the schedule's latency in cycles. *)
let synth_block ~seed (b : C.block) =
  let fsmd, report = Hls.synthesize_block ~name:b.label b in
  let regs =
    List.filter_map
      (fun (o : C.op) -> match o.opcode with C.Read nm -> Some (nm, block_env ~seed nm) | _ -> None)
      b.ops
  in
  let env = { Fsmd.null_env with Fsmd.input = block_env ~seed } in
  let r = Trace.span "rtl.fsmd_run" (fun () -> Fsmd.run ~env ~regs fsmd) in
  (b, report, r)

let check_block ~seed ((b : C.block), (report : Hls.report), (r : Fsmd.run_result)) =
  expect (b.label ^ ": FSMD cycles differ from the HLS latency") (r.cycles = report.latency)
  &&& fun () ->
  let expected = Controller.eval_block_reference b ~env:(block_env ~seed) in
  expect (b.label ^ ": FSMD results differ from the DFG")
    (List.for_all (fun (nm, v) -> List.assoc_opt nm r.final_regs = Some v) expected)

let hls_ops ~seed =
  List.concat_map
    (fun (kname, (proc : B.proc), _) ->
      let blocks = List.filter memory_free (B.elaborate proc).C.blocks in
      let estimate =
        {
          name = "hls estimate " ^ kname;
          kind = "hls.estimate";
          exec =
            (fun () ->
              let e = Trace.span "hls.estimate" (fun () -> Hls.estimate proc) in
              fun () ->
                outcome
                  ~digest:(Printf.sprintf "%d/%d/%d" e.Hls.cycles e.area e.n_blocks)
                  (expect "empty estimate" (e.Hls.cycles > 0 && e.area > 0)));
        }
      in
      let synth =
        {
          name = "hls synth " ^ kname;
          kind = "hls.synth";
          exec =
            (fun () ->
              let runs = Trace.span "hls.synthesize_block" (fun () -> List.map (synth_block ~seed) blocks) in
              fun () ->
                let cycles = List.fold_left (fun a (_, _, r) -> a + r.Fsmd.cycles) 0 runs in
                outcome ~cycles
                  ~digest:
                    (String.concat ","
                       (List.map (fun (_, (rep : Hls.report), (r : Fsmd.run_result)) ->
                            Printf.sprintf "%d/%d/%s" rep.latency rep.total_area
                              (hash (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.final_regs))))
                          runs))
                  ~counters:[ ("hls.blocks", float (List.length runs)) ]
                  (List.fold_left (fun acc run -> acc &&& fun () -> check_block ~seed run) (Ok ()) runs));
        }
      in
      if blocks = [] then [ estimate ] else [ estimate; synth ])
    Kernels.all

let dse ~tiny ~seed =
  let sizes = if tiny then [ 8; 10; 12 ] else [ 8; 10; 12; 16; 20; 24 ] in
  let cosynth_sizes = if tiny then [ 6 ] else [ 6; 8; 10 ] in
  let ops = partition_ops ~sizes @ cosynth_ops ~sizes:cosynth_sizes @ hls_ops ~seed in
  let rng = Rng.create seed in
  workload (interleave rng ops)
