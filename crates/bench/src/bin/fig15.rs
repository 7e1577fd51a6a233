//! Figure 15: LinOpt execution time vs thread count, per environment.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig15);
}
