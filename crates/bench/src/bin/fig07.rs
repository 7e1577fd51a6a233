//! Figure 7: UniFreq power (a) and ED² (b) vs thread count.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig7);
}
