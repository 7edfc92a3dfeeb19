(* The compiled cost model against the list-filter reference
   ([Cost_reference]), and the partitioners' search trajectories pinned
   to values captured before the model was compiled. *)

open Codesign
module T = Codesign_ir.Task_graph
module Tgff = Codesign_workloads.Tgff
module Ref = Cost_reference

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Compiled = reference                                                *)
(* ------------------------------------------------------------------ *)

(* every combination of the three booleans, at three communication
   costs *)
let all_params =
  List.concat_map
    (fun comm_cycles_per_word ->
      List.init 8 (fun bits ->
          let b k = (bits lsr k) land 1 = 1 in
          {
            Cost.comm_cycles_per_word;
            sharing = b 0;
            hw_parallel = b 1;
            parallelism_speedup = b 2;
          }))
    [ 0; 4; 9 ]

let kinds = [| "add"; "sub"; "mul"; "div"; "and"; "shl"; "lt"; "ld"; "st"; "fir" |]

(* small cycle counts make priority and ready-time ties common, so the
   tie-breaks are exercised *)
let gen_task i =
  let open QCheck.Gen in
  let* scale = oneofl [ 3; 2000 ] in
  let* sw_cycles = int_range 0 scale in
  let* hw_cycles = int_range 0 (scale + (scale / 4)) in
  let* hw_area = int_range 0 4000 in
  let* sw_bytes = int_range 0 4000 in
  let* parallelism = float_bound_inclusive 1.0 in
  let* modifiable = bool in
  let* ops =
    frequency
      [
        (1, return []);
        (3, list_size (int_range 0 5) (pair (oneofa kinds) (int_range 0 12)));
      ]
  in
  return
    (T.task ~id:i ~name:(Printf.sprintf "t%d" i) ~sw_cycles ~hw_cycles
       ~hw_area ~sw_bytes ~parallelism ~modifiable ~ops ())

(* a random DAG (edges point from lower to higher id) with some edges
   repeated, so (src, dst) pairs recur *)
let gen_graph =
  let open QCheck.Gen in
  let* n = int_range 0 30 in
  let* tasks = flatten_l (List.init n gen_task) in
  let* pairs =
    if n < 2 then return []
    else
      list_size (int_range 0 (2 * n))
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 2) in
         let b = if b >= a then b + 1 else b in
         let* words = int_range 0 16 in
         return { T.src = min a b; dst = max a b; words })
  in
  let* dups = list_size (int_range 0 3) (oneofl (if pairs = [] then [ None ] else List.map Option.some pairs)) in
  let* deadline = frequency [ (1, return 0); (2, int_range 1 20000) ] in
  return (T.make ~deadline tasks (pairs @ List.filter_map Fun.id dups))

let gen_case =
  let open QCheck.Gen in
  let* g = gen_graph in
  let n = T.n_tasks g in
  let* p1 = array_repeat n bool in
  let* p2 = array_repeat n bool in
  return (g, [ p1; p2 ])

let print_case (g, ps) =
  let bits p =
    String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") p))
  in
  Printf.sprintf "%d tasks, edges [%s], deadline %d, partitions [%s]"
    (T.n_tasks g)
    (String.concat "; "
       (List.map
          (fun (e : T.edge) -> Printf.sprintf "%d->%d:%d" e.src e.dst e.words)
          g.T.edges))
    g.T.deadline
    (String.concat "; " (List.map bits ps))

(* 120 graphs x 2 partitions x 24 parameter sets = 5,760 triples *)
let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled model = list-filter reference" ~count:120
    (QCheck.make ~print:print_case gen_case) (fun (g, ps) ->
      List.for_all
        (fun params ->
          let c = Cost.compile ~params g in
          List.for_all
            (fun p ->
              let want = Ref.evaluate ~params g p in
              Cost.eval c p = want
              && Cost.evaluate ~params g p = want
              && Cost.latency c p = want.Cost.latency
              && Cost.area c p = want.Cost.hw_area
              && Cost.area_of_partition ~params g p
                 = Ref.area_of_partition ~params g p)
            ps)
        all_params)

let raises f =
  match f () with _ -> None | exception Invalid_argument m -> Some m

let test_estimator_errors () =
  (* a negative op count is the estimator's error, raised only when the
     task is in hardware, on the side (sharing or not) that reads it *)
  let t0 =
    T.task ~id:0 ~name:"neg_ops" ~sw_cycles:10 ~hw_cycles:2 ~hw_area:100
      ~ops:[ ("mul", -1) ] ()
  and t1 =
    T.task ~id:1 ~name:"neg_area" ~sw_cycles:10 ~hw_cycles:2 ~hw_area:(-64) ()
  in
  let g = T.make [ t0; t1 ] [ { T.src = 0; dst = 1; words = 3 } ] in
  List.iter
    (fun params ->
      List.iter
        (fun p ->
          let p = Array.of_list p in
          check
            Alcotest.(option string)
            "same outcome as the reference"
            (raises (fun () -> Ref.evaluate ~params g p))
            (raises (fun () -> Cost.evaluate ~params g p)))
        [ [ false; false ]; [ true; false ]; [ false; true ]; [ true; true ] ])
    all_params

(* ------------------------------------------------------------------ *)
(* Partitioner trajectories                                            *)
(* ------------------------------------------------------------------ *)

(* (tasks, area budget, algorithm, partition, objective bits,
   evaluations), captured from the list-filter model.  The budget is
   half the all-hardware area. *)
let golden =
  [
    (8, None, "greedy", "10111111", 4673622173624544788L, 37);
    (8, None, "kl", "01111110", 4672425792273582653L, 145);
    (8, None, "sa", "01111110", 4672425792273582653L, 1601);
    (8, None, "gclp", "11111110", 4672904085329223352L, 16);
    (8, None, "exhaustive", "01111110", 4672425792273582653L, 256);
    (8, Some 13444, "greedy", "11101110", 4692522764933917573L, 36);
    (8, Some 13444, "kl", "11101110", 4692522764933917573L, 73);
    (8, Some 13444, "sa", "11101110", 4692522764933917573L, 1601);
    (8, Some 13444, "gclp", "11101110", 4692522764933917573L, 16);
    (8, Some 13444, "exhaustive", "11101110", 4692522764933917573L, 256);
    (12, None, "greedy", "011111010101", 4669302956599594189L, 73);
    (12, None, "kl", "111110110101", 4668476184328646164L, 235);
    (12, None, "sa", "111110110101", 4668476184328646164L, 2401);
    (12, None, "gclp", "111111111001", 4671014775257762365L, 24);
    (12, None, "exhaustive", "111110110101", 4668476184328646164L, 4096);
    (12, Some 8464, "greedy", "100000110111", 4701528996360728084L, 64);
    (12, Some 8464, "kl", "100000110111", 4701528996360728084L, 157);
    (12, Some 8464, "sa", "111110100110", 4703235088839648215L, 2401);
    (12, Some 8464, "gclp", "111111100010", 4702187876405865349L, 24);
    (12, Some 8464, "exhaustive", "100000110111", 4701528996360728084L, 4096);
    (16, None, "greedy", "1111100100111110", 4672054550418801295L, 127);
    (16, None, "kl", "1111111000110110", 4671476531658521313L, 409);
    (16, None, "sa", "1111111000110110", 4671476531658521313L, 3201);
    (16, None, "gclp", "1111111101111100", 4672081631390193418L, 32);
    (16, None, "exhaustive", "1111111000110110", 4671476531658521313L, 65536);
    (16, Some 10736, "greedy", "1111111011110100", 4697577046026527703L, 131);
    (16, Some 10736, "kl", "1111111011110100", 4697577046026527703L, 273);
    (16, Some 10736, "sa", "1100111011000101", 4708654875074384364L, 3201);
    (16, Some 10736, "gclp", "1111111011110100", 4697577046026527703L, 32);
    (16, Some 10736, "exhaustive", "1111111011110100", 4697577046026527703L, 65536);
  ]

let run_partitioner name ?max_area g =
  match name with
  | "greedy" -> Partition.greedy ?max_area g
  | "kl" -> Partition.kl ?max_area g
  | "sa" -> Partition.simulated_annealing ?max_area g
  | "gclp" -> Partition.gclp ?max_area g
  | "exhaustive" -> Partition.exhaustive ?max_area g
  | _ -> invalid_arg name

let golden_case (n, max_area, algo, partition, bits, evaluations) =
  let name =
    Printf.sprintf "%s n=%d %s" algo n
      (match max_area with None -> "unbounded" | Some _ -> "budget")
  in
  Alcotest.test_case name `Quick (fun () ->
      let g =
        Tgff.generate
          { Tgff.default_spec with Tgff.seed = 100 + n; n_tasks = n;
            layers = max 3 (n / 3) }
      in
      Option.iter
        (fun a ->
          check Alcotest.int "budget" a
            (Cost.area_of_partition g (Cost.all_hw g) / 2))
        max_area;
      let r = run_partitioner algo ?max_area g in
      check Alcotest.string "partition" partition
        (String.concat ""
           (Array.to_list
              (Array.map (fun b -> if b then "1" else "0") r.Partition.partition)));
      check Alcotest.int64 "objective bits" bits
        (Int64.bits_of_float r.Partition.objective);
      check Alcotest.int "evaluations" evaluations r.Partition.evaluations)

let () =
  Alcotest.run "cost_model"
    [
      ( "compiled",
        [
          QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
          Alcotest.test_case "estimator errors" `Quick test_estimator_errors;
        ] );
      ("golden", List.map golden_case golden);
    ]
