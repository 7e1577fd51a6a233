//! Figure 4: per-die core-to-core power and frequency ratios
//! (`results/fig04.csv`), their histograms and bootstrap CIs.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig4);
}
