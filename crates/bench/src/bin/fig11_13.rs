//! Figures 11 and 13: NUniFreq+DVFS throughput and ED², plain and
//! weighted.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig11_13);
}
