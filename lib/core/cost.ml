module T = Codesign_ir.Task_graph
module E = Codesign_rtl.Estimate

type partition = bool array

type params = {
  comm_cycles_per_word : int;
  sharing : bool;
  hw_parallel : bool;
  parallelism_speedup : bool;
}

let default_params =
  {
    comm_cycles_per_word = 4;
    sharing = true;
    hw_parallel = true;
    parallelism_speedup = true;
  }

type eval = {
  latency : int;
  all_sw_latency : int;
  speedup : float;
  hw_area : int;
  sw_bytes : int;
  comm_words : int;
  n_hw : int;
  meets_deadline : bool;
  modifiable_in_hw : int;
}

let all_sw g = Array.make (T.n_tasks g) false
let all_hw g = Array.make (T.n_tasks g) true

let hw_task_cycles params (t : T.task) =
  if params.parallelism_speedup then begin
    (* a highly parallel task realises its full hardware speedup; a
       serial one gains little over software beyond instruction overhead *)
    let base = float_of_int t.T.hw_cycles in
    let serial_penalty =
      float_of_int (t.T.sw_cycles - t.T.hw_cycles)
      *. (1.0 -. t.T.parallelism) *. 0.5
    in
    max 1 (int_of_float (base +. serial_penalty))
  end
  else max 1 t.T.hw_cycles

(* The model compiled for one (graph, params) pair: everything a
   partition does not change, in flat arrays.  Out-edges are stored
   CSR-style (task [i]'s edges are [succ_start.(i)] to
   [succ_start.(i + 1) - 1]), duplicates kept, in edge-list order. *)
type compiled = {
  params : params;
  n : int;
  sw : int array;  (* software cycles *)
  hw : int array;  (* effective hardware cycles, [hw_task_cycles] *)
  succ_start : int array;
  succ : int array;
  succ_words : int array;
  n_preds : int array;  (* in-edge count *)
  prio : int array;  (* longest path to a sink, in software cycles *)
  all_sw_latency : int;
  (* area: with sharing, [need.(i * n_kinds + k)] units of FU kind [k]
     for task [i], where [n_kinds] = [Array.length kind_area]; without,
     [standalone.(i)].  [bad.(i)] is the error the estimator raises when
     task [i] is placed in hardware. *)
  kind_area : int array;
  need : int array;
  standalone : int array;
  bad : exn option array;
  sw_bytes : int array;
  modifiable : bool array;
  deadline : int;
}

(* Deterministic list schedule: one CPU, one-or-infinite HW contexts,
   communication charged on boundary-crossing edges.  A task joins the
   ready set when its last predecessor is scheduled; its ready time is
   then fixed.  The pick is the highest priority (critical-path length
   in software cycles), ties by smaller ready time, then smaller id. *)
let latency c (p : partition) =
  let n = c.n in
  let prio = c.prio in
  let ready_at = Array.make n 0 in
  let waiting = Array.copy c.n_preds in
  let ready = Array.make n 0 in
  let n_ready = ref 0 in
  for i = 0 to n - 1 do
    if waiting.(i) = 0 then begin
      ready.(!n_ready) <- i;
      incr n_ready
    end
  done;
  let cpu_free = ref 0 and hw_free = ref 0 and latency = ref 0 in
  for _ = 1 to n do
    if !n_ready = 0 then assert false (* DAG: always a ready task *);
    let b = ref 0 in
    for r = 1 to !n_ready - 1 do
      let i = ready.(r) and j = ready.(!b) in
      if
        prio.(i) > prio.(j)
        || prio.(i) = prio.(j)
           && (ready_at.(i) < ready_at.(j)
              || (ready_at.(i) = ready_at.(j) && i < j))
      then b := r
    done;
    let i = ready.(!b) in
    decr n_ready;
    ready.(!b) <- ready.(!n_ready);
    let hw = p.(i) in
    let start =
      if hw then
        if c.params.hw_parallel then ready_at.(i)
        else max ready_at.(i) !hw_free
      else max ready_at.(i) !cpu_free
    in
    let f = start + if hw then c.hw.(i) else c.sw.(i) in
    if f > !latency then latency := f;
    if hw then begin
      if not c.params.hw_parallel then hw_free := f
    end
    else cpu_free := f;
    for e = c.succ_start.(i) to c.succ_start.(i + 1) - 1 do
      let v = c.succ.(e) in
      let arrival =
        if p.(v) <> hw then
          f + (c.succ_words.(e) * c.params.comm_cycles_per_word)
        else f
      in
      if arrival > ready_at.(v) then ready_at.(v) <- arrival;
      waiting.(v) <- waiting.(v) - 1;
      if waiting.(v) = 0 then begin
        ready.(!n_ready) <- v;
        incr n_ready
      end
    done
  done;
  !latency

let compile ?(params = default_params) g =
  let tasks = g.T.tasks in
  let n = Array.length tasks in
  let n_preds = Array.make n 0 in
  let succ_start = Array.make (n + 1) 0 in
  List.iter
    (fun (e : T.edge) ->
      n_preds.(e.dst) <- n_preds.(e.dst) + 1;
      succ_start.(e.src + 1) <- succ_start.(e.src + 1) + 1)
    g.T.edges;
  for i = 1 to n do
    succ_start.(i) <- succ_start.(i) + succ_start.(i - 1)
  done;
  let m = succ_start.(n) in
  let succ = Array.make m 0 and succ_words = Array.make m 0 in
  let fill = Array.sub succ_start 0 n in
  List.iter
    (fun (e : T.edge) ->
      let k = fill.(e.src) in
      succ.(k) <- e.dst;
      succ_words.(k) <- e.words;
      fill.(e.src) <- k + 1)
    g.T.edges;
  let sw = Array.map (fun (t : T.task) -> t.T.sw_cycles) tasks in
  (* Kahn's algorithm; priorities are settled in reverse order *)
  let order = Array.make n 0 in
  let waiting = Array.copy n_preds in
  let len = ref 0 in
  Array.iteri
    (fun i w ->
      if w = 0 then begin
        order.(!len) <- i;
        incr len
      end)
    waiting;
  let head = ref 0 in
  while !head < !len do
    let u = order.(!head) in
    incr head;
    for e = succ_start.(u) to succ_start.(u + 1) - 1 do
      let v = succ.(e) in
      waiting.(v) <- waiting.(v) - 1;
      if waiting.(v) = 0 then begin
        order.(!len) <- v;
        incr len
      end
    done
  done;
  if !len <> n then assert false (* acyclic: validated in Task_graph.make *);
  let prio = Array.make n 0 in
  for k = n - 1 downto 0 do
    let u = order.(k) in
    let best = ref 0 in
    for e = succ_start.(u) to succ_start.(u + 1) - 1 do
      best := max !best prio.(succ.(e))
    done;
    prio.(u) <- !best + sw.(u)
  done;
  (* area tables: only the side [params.sharing] selects *)
  let bad = Array.make n None in
  let guard i default f =
    match f () with
    | v -> v
    | exception (Invalid_argument _ as ex) ->
        bad.(i) <- Some ex;
        default
  in
  (* FU kinds in order of first use; a handful per graph *)
  let kinds = ref [] in
  let kind_index k =
    match List.find_opt (fun (k', _) -> String.equal k k') !kinds with
    | Some (_, j) -> j
    | None ->
        let j = List.length !kinds in
        kinds := (k, j) :: !kinds;
        j
  in
  let needs =
    if not params.sharing then [||]
    else
      Array.mapi
        (fun i (t : T.task) ->
          guard i [] (fun () ->
              E.fu_need
                (if t.T.ops = [] then [ ("add", t.T.hw_area / 32) ]
                 else t.T.ops))
          |> List.map (fun (k, units) -> (kind_index k, units)))
        tasks
  in
  let n_kinds = List.length !kinds in
  let kind_area = Array.make n_kinds 0 in
  List.iter (fun (k, j) -> kind_area.(j) <- E.fu_area k) !kinds;
  let need = Array.make (n * n_kinds) 0 in
  Array.iteri
    (fun i l -> List.iter (fun (j, units) -> need.((i * n_kinds) + j) <- units) l)
    needs;
  let standalone =
    if params.sharing then [||]
    else
      Array.mapi
        (fun i (t : T.task) ->
          if t.T.ops = [] then t.T.hw_area
          else guard i 0 (fun () -> E.standalone_area t.T.ops))
        tasks
  in
  let c =
    {
      params;
      n;
      sw;
      hw = Array.map (hw_task_cycles params) tasks;
      succ_start;
      succ;
      succ_words;
      n_preds;
      prio;
      all_sw_latency = 0;
      kind_area;
      need;
      standalone;
      bad;
      sw_bytes = Array.map (fun (t : T.task) -> t.T.sw_bytes) tasks;
      modifiable = Array.map (fun (t : T.task) -> t.T.modifiable) tasks;
      deadline = g.T.deadline;
    }
  in
  { c with all_sw_latency = latency c (Array.make n false) }

(* Sharing-aware: every kind is allocated the largest need of any
   hardware task (Vahid & Gajski [18]), plus a fixed overhead per task. *)
let area c (p : partition) =
  let total = ref 0 in
  if c.params.sharing then begin
    let k = Array.length c.kind_area in
    let alloc = Array.make k 0 in
    for i = 0 to c.n - 1 do
      if p.(i) then begin
        Option.iter raise c.bad.(i);
        total := !total + E.default_task_overhead;
        for j = 0 to k - 1 do
          let u = c.need.((i * k) + j) in
          if u > alloc.(j) then alloc.(j) <- u
        done
      end
    done;
    for j = 0 to k - 1 do
      total := !total + (alloc.(j) * c.kind_area.(j))
    done
  end
  else
    for i = 0 to c.n - 1 do
      if p.(i) then begin
        Option.iter raise c.bad.(i);
        total := !total + c.standalone.(i)
      end
    done;
  !total

let eval ?hw_area c (p : partition) =
  let n = c.n in
  if Array.length p <> n then
    invalid_arg "Cost.evaluate: partition size mismatch";
  let latency = latency c p in
  let hw_area = match hw_area with Some a -> a | None -> area c p in
  let sw_bytes = ref 0 and n_hw = ref 0 and modifiable_in_hw = ref 0 in
  let comm_words = ref 0 in
  for i = 0 to n - 1 do
    if p.(i) then begin
      incr n_hw;
      if c.modifiable.(i) then incr modifiable_in_hw
    end
    else sw_bytes := !sw_bytes + c.sw_bytes.(i);
    for e = c.succ_start.(i) to c.succ_start.(i + 1) - 1 do
      if p.(c.succ.(e)) <> p.(i) then
        comm_words := !comm_words + c.succ_words.(e)
    done
  done;
  {
    latency;
    all_sw_latency = c.all_sw_latency;
    speedup =
      (if latency = 0 then 1.0
       else float_of_int c.all_sw_latency /. float_of_int latency);
    hw_area;
    sw_bytes = !sw_bytes;
    comm_words = !comm_words;
    n_hw = !n_hw;
    meets_deadline = c.deadline = 0 || latency <= c.deadline;
    modifiable_in_hw = !modifiable_in_hw;
  }

let area_of_partition ?params g p = area (compile ?params g) p
let evaluate ?params g p = eval (compile ?params g) p

type weights = {
  w_area : float;
  w_latency : float;
  w_deadline_miss : float;
  w_modifiability : float;
  w_sw_bytes : float;
}

let default_weights =
  {
    w_area = 1.0;
    w_latency = 0.5;
    w_deadline_miss = 1000.0;
    w_modifiability = 500.0;
    w_sw_bytes = 0.01;
  }

let objective ?(weights = default_weights) g (e : eval) =
  let miss =
    if g.T.deadline > 0 then float_of_int (max 0 (e.latency - g.T.deadline))
    else 0.0
  in
  (weights.w_area *. float_of_int e.hw_area)
  +. (weights.w_latency *. float_of_int e.latency)
  +. (weights.w_deadline_miss *. miss)
  +. (weights.w_modifiability *. float_of_int e.modifiable_in_hw)
  +. (weights.w_sw_bytes *. float_of_int e.sw_bytes)
