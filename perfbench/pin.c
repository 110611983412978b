/* CPU affinity for the benchmark's timed phases (see host_speed.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_current_cpu(value unit)
{
  (void)unit;
  return Val_int(sched_getcpu());
}

/* Pin process [pid] (0: the caller) to [cpu]; false if the kernel
   refuses. */
value perfbench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}
