//! Figure 5: mean core-to-core power/frequency ratio vs Vth σ/µ.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig5);
}
