module C = Codesign_ir.Cdfg

let fu_area = function
  | "add" | "sub" -> 32
  | "mul" -> 320
  | "div" | "rem" -> 960
  | "and" | "or" | "xor" -> 16
  | "shl" | "shr" -> 48
  | "lt" | "eq" -> 24
  | "neg" -> 32
  | "not" -> 8
  | "ld" | "st" -> 64
  | _ -> 32

let fu_delay = function
  | "mul" -> 2
  | "div" | "rem" -> 8
  | "ld" | "st" -> 2
  | _ -> 1

let hw_op_delay op = fu_delay (C.opcode_name op)

let default_reuse_factor = 4
let default_task_overhead = 64

let fu_need ?(reuse_factor = default_reuse_factor) ops =
  if reuse_factor <= 0 then invalid_arg "Estimate: reuse_factor must be > 0";
  if List.exists (fun (_, n) -> n < 0) ops then
    invalid_arg "Estimate: negative op count";
  (* sort by kind, then merge runs of one kind *)
  let rec merge = function
    | (k, a) :: (k', b) :: rest when String.equal k k' ->
        merge ((k, a + b) :: rest)
    | (k, n) :: rest ->
        let rest = merge rest in
        if n = 0 then rest else (k, (n + reuse_factor - 1) / reuse_factor) :: rest
    | [] -> []
  in
  merge (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) ops)

let standalone_area ?(reuse_factor = default_reuse_factor)
    ?(overhead = default_task_overhead) ops =
  List.fold_left
    (fun acc (k, units) -> acc + (units * fu_area k))
    overhead
    (fu_need ~reuse_factor ops)

module Incremental = struct
  type t = {
    reuse_factor : int;
    overhead : int;
    tasks : (int, (string * int) list) Hashtbl.t;  (** id -> needs *)
    alloc : (string, int) Hashtbl.t;  (** kind -> allocated units *)
  }

  let create ?(reuse_factor = default_reuse_factor)
      ?(overhead = default_task_overhead) () =
    { reuse_factor; overhead; tasks = Hashtbl.create 16;
      alloc = Hashtbl.create 16 }

  let alloc_of t k = try Hashtbl.find t.alloc k with Not_found -> 0

  let incremental_cost t ops =
    let needs = fu_need ~reuse_factor:t.reuse_factor ops in
    List.fold_left
      (fun acc (k, n) ->
        let extra = max 0 (n - alloc_of t k) in
        acc + (extra * fu_area k))
      t.overhead needs

  let add t ~id ops =
    if Hashtbl.mem t.tasks id then
      invalid_arg
        (Printf.sprintf "Estimate.Incremental.add: duplicate id %d" id);
    let needs = fu_need ~reuse_factor:t.reuse_factor ops in
    let cost = incremental_cost t ops in
    List.iter
      (fun (k, n) ->
        if n > alloc_of t k then Hashtbl.replace t.alloc k n)
      needs;
    Hashtbl.replace t.tasks id needs;
    cost

  let rebuild_alloc t =
    Hashtbl.reset t.alloc;
    Hashtbl.iter
      (fun _ needs ->
        List.iter
          (fun (k, n) ->
            if n > alloc_of t k then Hashtbl.replace t.alloc k n)
          needs)
      t.tasks

  let remove t ~id =
    if not (Hashtbl.mem t.tasks id) then
      invalid_arg
        (Printf.sprintf "Estimate.Incremental.remove: unknown id %d" id);
    Hashtbl.remove t.tasks id;
    rebuild_alloc t

  let mem t ~id = Hashtbl.mem t.tasks id

  let total_area t =
    let fu =
      Hashtbl.fold (fun k n acc -> acc + (n * fu_area k)) t.alloc 0
    in
    fu + (t.overhead * Hashtbl.length t.tasks)

  let allocation t =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.alloc []
    |> List.sort compare

  let resident t =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.tasks [] |> List.sort compare
end
