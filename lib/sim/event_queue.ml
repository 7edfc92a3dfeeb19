(* A binary min-heap kept as parallel flat arrays: slot [i] of [times],
   [keys], [seqs] and [thunks] is one event.  The three integer arrays
   are unboxed, so comparing and moving an event touches no pointer
   except the thunk, and sifting moves a hole instead of swapping
   pairs: each level costs one write per array, not two. *)
type t = {
  mutable times : int array;
  mutable keys : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable len : int;
  mutable next_seq : int;
  mutable pushed : int;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0;
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    thunks = Array.make initial_capacity ignore;
    len = 0;
    next_seq = 0;
    pushed = 0;
  }

(* Ordering: time, then key, then seq.  Ordinary events all carry
   [key = max_int] and a queue-assigned monotone [seq], so among
   themselves the queue is the historic stable (time, insertion-order)
   priority queue.  Keyed events — the cross-partition "arrival lane" —
   carry a caller-assigned (key, seq) pair, so their position within a
   timestamp is a property of the communication itself, not of when the
   event was physically pushed onto this wheel. *)
let[@inline] before (ta : int) (ka : int) (sa : int) tb kb sb =
  ta < tb || (ta = tb && (ka < kb || (ka = kb && sa < sb)))

let[@inline] place t i time key seq thunk =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.thunks i thunk

(* Move slot [j] into slot [i]. *)
let[@inline] move t ~src:j ~dst:i =
  place t i (Array.unsafe_get t.times j) (Array.unsafe_get t.keys j)
    (Array.unsafe_get t.seqs j)
    (Array.unsafe_get t.thunks j)

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.thunks <- extend t.thunks ignore

let insert t time key seq thunk =
  if t.len = Array.length t.times then grow t;
  t.pushed <- t.pushed + 1;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if
      before time key seq (Array.unsafe_get t.times p)
        (Array.unsafe_get t.keys p) (Array.unsafe_get t.seqs p)
    then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else continue_ := false
  done;
  place t !i time key seq thunk

let push t ~time thunk =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t time max_int seq thunk

let push_keyed t ~time ~key ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_keyed: negative time";
  if key < 0 || key = max_int then
    invalid_arg "Event_queue.push_keyed: key must be in [0, max_int)";
  insert t time key seq thunk

let count_push t =
  t.next_seq <- t.next_seq + 1;
  t.pushed <- t.pushed + 1

(* Remove slot 0: the last event fills the hole left at the root, which
   sinks until neither child is earlier. *)
let remove_top t =
  let last = t.len - 1 in
  t.len <- last;
  let time = Array.unsafe_get t.times last
  and key = Array.unsafe_get t.keys last
  and seq = Array.unsafe_get t.seqs last
  and thunk = Array.unsafe_get t.thunks last in
  Array.unsafe_set t.thunks last ignore;
  if last > 0 then begin
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= last then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && before (Array.unsafe_get t.times r) (Array.unsafe_get t.keys r)
                 (Array.unsafe_get t.seqs r) (Array.unsafe_get t.times l)
                 (Array.unsafe_get t.keys l) (Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if
          before (Array.unsafe_get t.times c) (Array.unsafe_get t.keys c)
            (Array.unsafe_get t.seqs c) time key seq
        then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue_ := false
      end
    done;
    place t !i time key seq thunk
  end

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and thunk = t.thunks.(0) in
    remove_top t;
    Some (time, thunk)
  end

type slot = { mutable s_time : int; mutable s_thunk : unit -> unit }

let slot () = { s_time = 0; s_thunk = ignore }

let pop_into t ~limit out =
  t.len > 0
  && Array.unsafe_get t.times 0 <= limit
  && begin
       out.s_time <- Array.unsafe_get t.times 0;
       out.s_thunk <- Array.unsafe_get t.thunks 0;
       remove_top t;
       true
     end

type snap = {
  s_times : int array;
  s_keys : int array;
  s_seqs : int array;
  s_thunks : (unit -> unit) array;
  s_next_seq : int;
  s_pushed : int;
}

let snapshot t =
  {
    s_times = Array.sub t.times 0 t.len;
    s_keys = Array.sub t.keys 0 t.len;
    s_seqs = Array.sub t.seqs 0 t.len;
    s_thunks = Array.sub t.thunks 0 t.len;
    s_next_seq = t.next_seq;
    s_pushed = t.pushed;
  }

let restore t s =
  let n = Array.length s.s_times in
  let cap = max initial_capacity n in
  if Array.length t.times < cap then begin
    t.times <- Array.make cap 0;
    t.keys <- Array.make cap 0;
    t.seqs <- Array.make cap 0;
    t.thunks <- Array.make cap ignore
  end;
  Array.blit s.s_times 0 t.times 0 n;
  Array.blit s.s_keys 0 t.keys 0 n;
  Array.blit s.s_seqs 0 t.seqs 0 n;
  Array.blit s.s_thunks 0 t.thunks 0 n;
  Array.fill t.thunks n (Array.length t.thunks - n) ignore;
  t.len <- n;
  t.next_seq <- s.s_next_seq;
  t.pushed <- s.s_pushed

let peek_time t = if t.len = 0 then None else Some t.times.(0)
let min_time t = if t.len = 0 then max_int else t.times.(0)
let size t = t.len
let is_empty t = t.len = 0
let pushed_total t = t.pushed
