(* The calibration: a fixed computation of the kind the simulators do (a
   binary-heap event queue, hashing into a table, interpreting a small
   program, allocating short-lived records and closures), timed between
   passes to measure how fast the host runs at the time.  It calls
   nothing in the library, so a change to the library leaves its cost
   unchanged, and what it allocates dies in the minor heap, so the
   garbage a pass leaves behind in the major heap does not slow it. *)

let size = 1 lsl 13
let heap = Array.make (size + 1) 0
let table = Array.make (2 * size) 0

(* A little register machine's program: a counted loop of arithmetic,
   a pseudo-random branch and a load and store, as an instruction-set
   simulator executes it. *)
let program = [| 0; 1; 2; 3; 4; 5 |]
let memory = Array.make 256 0

let interpret steps =
  let pc = ref 0 and a = ref 1 and b = ref 7 and c = ref 0 and n = ref steps in
  while !n > 0 do
    (match program.(!pc) with
    | 0 -> a := !a + !b
    | 1 -> b := ((!b * 1103515245) + 12345) land 0x3fffffff
    | 2 -> if !b land 1 = 0 then pc := 3
    | 3 -> c := !c + memory.(!b land 255)
    | 4 -> memory.(!a land 255) <- !c
    | _ -> pc := -1);
    incr pc;
    decr n
  done;
  !a + !c

(* Pushes [size] pseudo-random keys onto a binary heap and pops them all. *)
let heap_work () =
  let n = ref 0 and x = ref 12345 and sum = ref 0 in
  for _ = 1 to size do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    incr n;
    let i = ref !n in
    while !i > 1 && heap.(!i / 2) > !x do
      heap.(!i) <- heap.(!i / 2);
      i := !i / 2
    done;
    heap.(!i) <- !x
  done;
  while !n > 0 do
    sum := !sum + heap.(1);
    let last = heap.(!n) in
    decr n;
    let i = ref 1 and sifting = ref true in
    while !sifting do
      let l = 2 * !i in
      if l > !n then sifting := false
      else
        let c = if l + 1 <= !n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
    done;
    heap.(!i) <- last
  done;
  !sum

(* Inserts [4 * size] keys, [size] of them distinct, into an
   open-addressing table twice their number. *)
let table_work () =
  Array.fill table 0 (Array.length table) 0;
  let mask = Array.length table - 1 and sum = ref 0 in
  for k = 1 to 4 * size do
    let key = ((k * 2654435761) land (size - 1)) + 1 in
    let i = ref (key * 40503 land mask) in
    while table.(!i) <> 0 && table.(!i) <> key do
      i := (!i + 1) land mask
    done;
    table.(!i) <- key;
    sum := !sum + !i
  done;
  !sum

(* Builds and drops small lists of records and closures, as the set-up
   of an op list and the simulators' events do; nothing survives a minor
   collection. *)
let alloc_work () =
  let sum = ref 0 in
  for i = 1 to size do
    let cells = List.init 8 (fun k -> (i + k, fun () -> i * k)) in
    sum := !sum + List.fold_left (fun a (x, f) -> a + x + f ()) 0 (Sys.opaque_identity cells)
  done;
  !sum

let run () =
  heap_work () + table_work () + interpret 100_000 + alloc_work () + heap_work () + table_work ()
  + interpret 100_000 + alloc_work ()

(* CPU seconds [run] takes on the reference host: the 2-vCPU Intel Xeon
   virtual machine the benchmark was defined on, in the slower of the two
   speeds it ran at (the faster, for tens of minutes at a time, was up to
   twice as fast). *)
let reference_s = 5.7e-3
