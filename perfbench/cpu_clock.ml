(* CPU time, in nanoseconds: what the kernel charged to the calling
   thread (one domain) or to the whole process (every domain). *)

external thread_ns : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]
external process_ns : unit -> int = "perfbench_process_cpu_ns" [@@noalloc]

let seconds ns = float ns /. 1e9
