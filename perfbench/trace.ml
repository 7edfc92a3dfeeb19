(* Wall-time spans for the traced run.

   A span is recorded around each call the benchmark makes into a
   layer.  Spans live in memory (one mutex-guarded list, shared by
   every domain) and are summarised when the run ends.  The parent of a
   span is the innermost open span on the same domain, so an op's span
   encloses the layer calls it makes. *)

module Clock = Codesign_obs.Clock

type span = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

(* Set once, before any worker domain is spawned. *)
let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1
let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get open_spans in
    let parent = match outer with p :: _ -> p | [] -> 0 in
    Domain.DLS.set open_spans (id :: outer);
    let t0 = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        Domain.DLS.set open_spans outer;
        Mutex.protect lock (fun () ->
            recorded := { id; parent; name; t0; t1 } :: !recorded))
  end

let take () =
  Mutex.protect lock (fun () ->
      let s = !recorded in
      recorded := [];
      List.rev s)

let duration_s s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Total seconds per span name. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. duration_s s))
    spans;
  tbl

(* Every child lies inside its parent's interval, and the children of a
   span together take no longer than it does.  Returns the first
   violation. *)
let check_nesting spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_time = Hashtbl.create 1024 in
  let bad = ref None in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        match Hashtbl.find_opt by_id s.parent with
        | None -> bad := Some (s.name ^ ": parent span missing")
        | Some p ->
            if s.t0 < p.t0 || s.t1 > p.t1 then
              bad := Some (Printf.sprintf "%s escapes its parent %s" s.name p.name);
            let prev = Option.value ~default:0L (Hashtbl.find_opt child_time p.id) in
            Hashtbl.replace child_time p.id (Int64.add prev (Int64.sub s.t1 s.t0)))
    spans;
  Hashtbl.iter
    (fun pid total ->
      let p = Hashtbl.find by_id pid in
      if total > Int64.sub p.t1 p.t0 then
        bad := Some (Printf.sprintf "children of %s outlast it" p.name))
    child_time;
  !bad
