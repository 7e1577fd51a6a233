//! §7.5 validation: SAnn vs the exact optimum vs LinOpt, at 1–20
//! threads.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::sann_vs_exhaustive);
}
