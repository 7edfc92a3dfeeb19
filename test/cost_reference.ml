(* The list-filter cost model that [Cost] replaced, kept as the
   reference the compiled model is tested against.  Each call rebuilds
   the digraph and topological order, recomputes the priorities and the
   all-software schedule, and finds the ready tasks by filtering the
   whole edge list for every task at every step. *)

module T = Codesign_ir.Task_graph
module E = Codesign_rtl.Estimate
module Cost = Codesign.Cost

let schedule_latency (params : Cost.params) g (p : Cost.partition) =
  let n = T.n_tasks g in
  if n = 0 then 0
  else begin
    let graph = T.graph g in
    let prio =
      (* longest path to a sink, in software cycles *)
      let rev_dist = Array.make n 0 in
      let order = List.rev (T.topo_order g) in
      List.iter
        (fun u ->
          let best =
            List.fold_left
              (fun acc v -> max acc rev_dist.(v))
              0
              (Codesign_ir.Graph_algo.succ graph u)
          in
          rev_dist.(u) <- best + g.T.tasks.(u).T.sw_cycles)
        order;
      rev_dist
    in
    let exec i =
      if p.(i) then Cost.hw_task_cycles params g.T.tasks.(i)
      else g.T.tasks.(i).T.sw_cycles
    in
    let finish = Array.make n (-1) in
    let scheduled = Array.make n false in
    let cpu_free = ref 0 in
    let hw_free = ref 0 in
    let n_done = ref 0 in
    while !n_done < n do
      (* data-ready time of each unscheduled task whose preds are done *)
      let candidates =
        List.filter_map
          (fun i ->
            if scheduled.(i) then None
            else
              let preds = T.in_edges g i in
              if
                List.for_all (fun (e : T.edge) -> scheduled.(e.src)) preds
              then begin
                let ready =
                  List.fold_left
                    (fun acc (e : T.edge) ->
                      let comm =
                        if p.(e.src) <> p.(i) then
                          e.words * params.comm_cycles_per_word
                        else 0
                      in
                      max acc (finish.(e.src) + comm))
                    0 preds
                in
                Some (i, ready)
              end
              else None)
          (List.init n Fun.id)
      in
      (* pick the highest-priority candidate, ties by smaller ready time
         then id *)
      let best =
        List.fold_left
          (fun acc (i, ready) ->
            match acc with
            | None -> Some (i, ready)
            | Some (j, rj) ->
                if
                  prio.(i) > prio.(j)
                  || (prio.(i) = prio.(j) && (ready, i) < (rj, j))
                then Some (i, ready)
                else acc)
          None candidates
      in
      match best with
      | None -> assert false (* DAG: always a ready candidate *)
      | Some (i, ready) ->
          let start =
            if p.(i) then
              if params.hw_parallel then ready else max ready !hw_free
            else max ready !cpu_free
          in
          let f = start + exec i in
          finish.(i) <- f;
          scheduled.(i) <- true;
          incr n_done;
          if p.(i) then begin
            if not params.hw_parallel then hw_free := f
          end
          else cpu_free := f
    done;
    Array.fold_left max 0 finish
  end

let area_of_partition ?(params = Cost.default_params) g (p : Cost.partition)
    =
  if params.sharing then begin
    let inc = E.Incremental.create () in
    Array.iteri
      (fun i (t : T.task) ->
        if p.(i) then
          ignore
            (E.Incremental.add inc ~id:i
               (if t.T.ops = [] then [ ("add", t.T.hw_area / 32) ]
                else t.T.ops)))
      g.T.tasks;
    E.Incremental.total_area inc
  end
  else
    Array.to_list g.T.tasks
    |> List.filteri (fun i _ -> p.(i))
    |> List.fold_left
         (fun acc (t : T.task) ->
           acc
           +
           if t.T.ops = [] then t.T.hw_area
           else E.standalone_area t.T.ops)
         0

let evaluate ?(params = Cost.default_params) g p : Cost.eval =
  let n = T.n_tasks g in
  if Array.length p <> n then
    invalid_arg "Cost.evaluate: partition size mismatch";
  let latency = schedule_latency params g p in
  let all_sw_latency = schedule_latency params g (Array.make n false) in
  let hw_area = area_of_partition ~params g p in
  let sw_bytes =
    Array.to_list g.T.tasks
    |> List.filteri (fun i _ -> not p.(i))
    |> List.fold_left (fun acc (t : T.task) -> acc + t.T.sw_bytes) 0
  in
  let comm_words =
    List.fold_left
      (fun acc (e : T.edge) ->
        if p.(e.src) <> p.(e.dst) then acc + e.words else acc)
      0 g.T.edges
  in
  let n_hw = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 p in
  let modifiable_in_hw =
    let c = ref 0 in
    Array.iteri
      (fun i (t : T.task) -> if p.(i) && t.T.modifiable then incr c)
      g.T.tasks;
    !c
  in
  {
    latency;
    all_sw_latency;
    speedup =
      (if latency = 0 then 1.0
       else float_of_int all_sw_latency /. float_of_int latency);
    hw_area;
    sw_bytes;
    comm_words;
    n_hw;
    meets_deadline = g.T.deadline = 0 || latency <= g.T.deadline;
    modifiable_in_hw;
  }
