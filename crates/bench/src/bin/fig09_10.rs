//! Figures 9 and 10: NUniFreq frequency, throughput and ED² vs
//! thread count.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig9_10);
}
