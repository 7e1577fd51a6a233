//! Online serving sweep (beyond the paper): throughput, latency,
//! utilization, power and dropped jobs vs arrival rate.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::online);
}
