//! Figure 12: throughput vs power environment at 20 threads.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig12);
}
