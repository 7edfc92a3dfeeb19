/* CPU-time clocks for the benchmark: time the kernel charged to the
   calling thread or to the whole process, in nanoseconds. */
#include <time.h>
#include <caml/mlvalues.h>

static value ns_of(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  return ns_of(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_process_cpu_ns(value unit)
{
  (void)unit;
  return ns_of(CLOCK_PROCESS_CPUTIME_ID);
}
