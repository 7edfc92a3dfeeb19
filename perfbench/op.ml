(* One benchmark op: a timed call into a layer plus an untimed check of
   what it returned. *)

type outcome = {
  check : (unit, string) result;
  cycles : int;  (** simulated cycles the op reports (0 if none) *)
  counters : (string * float) list;  (** per-layer work, summed per pass *)
  digest : string;  (** simulated statistics, for the fingerprint *)
  label : string option;
      (** refines the op's kind once its result is known (a fuzz case
          learns its category only by running) *)
}

type t = {
  name : string;
  kind : string;  (** span name of the op; groups ops for per-layer times *)
  exec : unit -> unit -> outcome;
      (** [exec ()] is the timed part; the closure it returns checks the
          result and is not timed *)
}

let outcome ?(cycles = 0) ?(counters = []) ?label ~digest check =
  { check; cycles; counters; digest; label }

let failed msg = outcome ~digest:"failed" (Error msg)

let expect what ok = if ok then Ok () else Error what

let ( &&& ) a b = match a with Ok () -> b () | Error _ -> a

let hash s = Codesign_obs.Checksum.(hex (fnv1a64 s))

(* The op list in an order drawn from the seed; every pass keeps it. *)
let interleave rng ops =
  let a = Array.of_list ops in
  Codesign_ir.Rng.shuffle rng a;
  a

type workload = {
  ops : t array;  (** one pass, in its interleaved order *)
  prepare : unit -> unit;
      (** the untimed reference pass: computes the oracles the checks use *)
  bases : t list;
      (** reference runs, timed and checked after every pass of both
          halves of the traced run, outside the op list *)
}

let workload ?(prepare = ignore) ?(bases = []) ops = { ops; prepare; bases }
