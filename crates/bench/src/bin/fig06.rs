//! Figure 6: core power vs frequency for the fastest (MaxF) and
//! slowest (MinF) cores of one die.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::fig6);
}
