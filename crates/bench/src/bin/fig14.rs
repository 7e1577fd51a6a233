//! Figure 14: power deviation from Ptarget vs LinOpt interval.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig14);
}
