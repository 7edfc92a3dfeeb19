(* The [verify] workload: single fuzz cases over all sixteen dispatch
   slots (fault oracles on) and boot-heavy fork-engine fault campaigns,
   fanned over the domain pool the way [fuzz --jobs] and [fault --jobs]
   fan theirs.  Each op runs whole inside one pool task. *)

module Fuzz = Codesign_fuzz.Fuzz
module Campaign = Codesign_fault.Campaign
module Fr = Codesign_obs.Fault_report
module Zr = Codesign_obs.Fuzz_report
module Rng = Codesign_ir.Rng
open Op

let category (r : Zr.t) =
  if r.ladder_cases > 0 then "ladder"
  else if r.taskgraph_cases > 0 then "taskgraph"
  else if r.fault_cases > 0 then "fault"
  else "behavior"

let fuzz_op case_seed =
  {
    name = Printf.sprintf "fuzz case %d" case_seed;
    kind = "fuzz";
    exec =
      (fun () ->
        let r = Trace.span "fuzz.run" (fun () -> Fuzz.run ~seed:case_seed ~count:1 ~fault:true ()) in
        fun () ->
          let cat = category r in
          outcome ~label:("fuzz." ^ cat)
            ~digest:(Printf.sprintf "%s/%d/%d/%d" cat r.rtl_blocks (List.length r.failures) (List.length r.degraded))
            ~counters:[ ("fuzz.rtl_blocks", float r.rtl_blocks) ]
            (expect
               (match r.failures with
               | f :: _ -> Printf.sprintf "case %d failed: %s" f.f_seed f.f_detail
               | [] -> "degraded")
               (r.failures = [] && r.degraded = [])));
  }

let cell_digest (c : Fr.cell) =
  Printf.sprintf "%s@%g:%d/%d/%d/%d/%d/%d/%d/%b" c.mechanism c.rate c.sim_cycles c.faulted_ops
    c.injected c.detected c.recovered_ops c.lost_ops c.retries c.checksum_ok

let campaign_op ~ops ~warmup seed =
  {
    name = Printf.sprintf "campaign %d" seed;
    kind = "fault.campaign";
    exec =
      (fun () ->
        let r = Trace.span "fault.campaign" (fun () -> Campaign.run ~seed ~ops ~warmup ()) in
        fun () ->
          let degraded = List.filter (fun (c : Fr.cell) -> c.degraded <> None) r.cells in
          let lossy =
            List.filter (fun (c : Fr.cell) -> c.rate = 0. && (c.lost_ops > 0 || not c.checksum_ok)) r.cells
          in
          let sim_cycles = List.fold_left (fun a (c : Fr.cell) -> a + c.sim_cycles) 0 r.cells in
          outcome ~cycles:sim_cycles
            ~digest:(hash (String.concat ";" (List.map cell_digest r.cells)))
            ~counters:
              [
                ("fault.cells", float (List.length r.cells));
                ("fault.sim_cycles", float sim_cycles);
                ("fault.cells_degraded", float (List.length degraded));
              ]
            (expect "degraded cells" (degraded = []) &&& fun () ->
             expect
               (String.concat ", " (List.map (fun (c : Fr.cell) -> c.mechanism ^ " lost data at rate 0") lossy))
               (lossy = [])));
  }

(* The fuzz corpus and the campaigns are fixed: per-case cost is
   heavy-tailed (a task-graph case can cost a hundred behaviour cases)
   and a campaign's simulated work moves with its seed, so drawing
   either from the seed would make the workload's cost a property of the
   seed.  The seed sets the interleaving, which decides which cases
   share the pool's domains at a time.  A pass runs the corpus four
   times, each in its own order, so that a case's latency is averaged
   over several neighbours rather than set by one order, and so that
   fewer passes end with one domain finishing a long case alone. *)
let verify ~tiny ~seed =
  let cases = List.init (if tiny then 16 else 128) fuzz_op in
  let campaigns =
    List.init (if tiny then 2 else 4) (fun k ->
        if tiny then campaign_op ~ops:16 ~warmup:64 k else campaign_op ~ops:64 ~warmup:512 k)
  in
  let rng = Rng.create seed in
  workload (Array.concat (List.init 4 (fun _ -> interleave rng (cases @ campaigns))))
